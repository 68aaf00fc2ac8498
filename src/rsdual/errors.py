"""Exception types raised by the library, and where a stack reports from."""

import numpy as np


def anywhere(bad):
    """Whether the boolean array bad holds at any entry.  At one point bad is
    a numpy bool, read as it is: the scalar test costs no array call."""
    return bool(bad) if bad.ndim == 0 else np.count_nonzero(bad) > 0


def first_row(bad):
    """Index of the first row of a stack at which the boolean array bad (of
    the stack's leading shape) holds; () at one point.  A stacked function
    names value[first_row(bad)] in its message, so a bad row reports what
    it reports alone."""
    return np.unravel_index(np.argmax(bad), np.shape(bad))


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
