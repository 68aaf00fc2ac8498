"""Exception types raised by the library."""


class RSDualError(Exception):
    """Base class for all library errors."""


class AlcoveViolation(RSDualError):
    """Point is not in the Weyl alcove (xi_j >= 0, sum xi_j = pi)."""


class DomainViolation(RSDualError):
    """Point is outside the required domain (e.g. the thick-walled alcove)."""


class NonRegular(RSDualError):
    """Matrix has (numerically) degenerate spectrum where regularity is needed."""


class SingularDenominator(RSDualError):
    """A Lax-matrix denominator vanishes at the requested point."""


class NormViolation(RSDualError):
    """Vector does not satisfy the required norm constraint."""


class PoleAtMinusOne(RSDualError):
    """Reflection matrix is singular because 1 + v_n vanishes."""


class ZeroVector(RSDualError):
    """Cannot normalize the zero vector."""


class ChartViolation(RSDualError):
    """Point is outside the requested projective chart."""


class TangencyViolation(RSDualError):
    """Tangent data is not tangent to SU(n) x SU(n) at the base point."""


class ConstraintViolation(RSDualError):
    """Point does not solve the group-commutator moment constraint."""
