"""Problem parameters and alcove domains.

The reduced space is parametrized by the pair (n, y): the number of
particles and the coupling, restricted to 0 < y < pi/n.  The derived data
(the minimal-orbit diagonal matrix mu0 and the symplectic scale chi0) are
computed here once; a function takes a Coupling only where it reads them.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import AlcoveViolation, DomainViolation

# default tol of check_alcove and check_shifted_alcove: with it they bound
# the entries by 1e-12, the sum by 1e-9 and the wall by 1e-10
SUM_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """Coupling data (n, y), validated once here.

    Only code that reads y, chi0, mu0 or v_scale takes one; the SU(n) and
    double layers (sun, double) read n from the shape of their input, and
    the numerical tolerances live with the code that applies them.

    Attributes
    ----------
    n : int
        Number of particles / matrix size, an int >= 2 (3.0 is stored as 3).
    y : float
        Coupling in radians, 0 < y < pi/n.
    """

    n: int
    y: float

    def __post_init__(self):
        if not float(self.n).is_integer() or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.y < math.pi / self.n:
            raise ValueError(
                f"coupling must satisfy 0 < y < pi/n, got y={self.y} for n={self.n}"
            )

    @classmethod
    def default(cls, n):
        """Coupling with the default rule y = pi/(2n)."""
        return cls(n, math.pi / (2 * n))

    @property
    def chi0(self):
        """Symplectic scale chi0 = pi - n*y of the projective model."""
        return math.pi - self.n * self.y

    @property
    def v_scale(self):
        """sqrt(sin y / sin n y), the scale of the unit vector v(xi, y).
        sin n y = sin chi0 is taken of whichever argument is at most pi/2,
        where it is accurate: sin(n y) sees the true pi and is off by
        1.2e-16 / chi0 as y -> pi/n, sin(chi0) by 1.2e-16 / (n y) as y -> 0."""
        return math.sqrt(math.sin(self.y) / math.sin(min(self.n * self.y, self.chi0)))

    @cached_property
    def mu0(self):
        """diag(e^{2iy}, ..., e^{2iy}, e^{2(1-n)iy}), the moment-map value."""
        phases = np.full(self.n, 2.0 * self.y)
        phases[-1] = 2.0 * (1 - self.n) * self.y
        return np.diag(np.exp(1j * phases))


def check_alcove(xi, tol=SUM_TOL):
    """Raise AlcoveViolation unless xi_j >= -tol and sum xi_j is within
    max(tol, 1e-9) of pi."""
    xi = np.asarray(xi, dtype=float)
    if abs(xi.sum() - math.pi) > max(tol, 1e-9):
        raise AlcoveViolation(f"sum(xi) = {xi.sum():.15g} differs from pi")
    if not xi.min() >= -tol:
        raise AlcoveViolation(f"negative alcove coordinate in {xi}")
    return xi


def check_shifted_alcove(xi, c, tol=SUM_TOL):
    """Raise DomainViolation unless xi lies in the thick-walled alcove:
    check_alcove at tol, then xi_j >= y - max(tol, 1e-10)."""
    xi = check_alcove(xi, tol=tol)
    if xi.min() - c.y < -max(tol, 1e-10):
        raise DomainViolation(f"xi_j < y for some j: {xi}, y={c.y}")
    return xi


def full_xi(xi, c):
    """Extend an (n-1)-vector of polytope coordinates by xi_n = pi - sum."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape == (c.n,):
        return xi
    if xi.shape == (c.n - 1,):
        return np.append(xi, math.pi - xi.sum())
    raise ValueError(f"expected length {c.n} or {c.n - 1}, got shape {xi.shape}")


def random_shifted_alcove(c, rng, margin=0.0):
    """Uniform-ish sample of the thick-walled alcove, optional interior margin.

    margin is the fraction of the slack chi0 kept away from every wall,
    capped at 1/(2n) so that half the slack is always left to draw from.
    """
    margin = min(margin, 0.5 / c.n)
    slack = c.chi0 * (1.0 - c.n * margin)
    w = rng.dirichlet(np.ones(c.n))
    return c.y + margin * c.chi0 + slack * w
