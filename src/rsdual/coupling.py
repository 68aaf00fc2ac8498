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

from .errors import AlcoveViolation, DomainViolation, anywhere, first_row

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


def check_alcove(xi):
    """Raise AlcoveViolation unless xi_j >= -1e-12 and sum xi_j is within
    1e-9 of pi, for xi and for every row of a stack (..., n), naming the
    first bad row."""
    xi = np.asarray(xi, dtype=float)
    total = np.add.reduce(xi, -1)
    off = abs(total - math.pi) > 1e-9
    if anywhere(off):
        raise AlcoveViolation(f"sum(xi) = {total[first_row(off)]} differs from pi")
    if not np.minimum.reduce(xi, None, initial=math.inf) >= -1e-12:
        bad = ~np.logical_and.reduce(xi >= -1e-12, -1)
        raise AlcoveViolation(f"negative alcove coordinate in {xi[first_row(bad)]}")
    return xi


def check_shifted_alcove(xi, c):
    """Raise DomainViolation unless xi lies in the thick-walled alcove:
    check_alcove, then xi_j >= y - 1e-10."""
    xi = check_alcove(xi)
    if np.minimum.reduce(xi, None, initial=math.inf) - c.y < -1e-10:
        bad = np.minimum.reduce(xi, -1) - c.y < -1e-10
        raise DomainViolation(f"xi_j < y for some j: {xi[first_row(bad)]}, y={c.y}")
    return xi


def random_shifted_alcove(c, rng, margin=0.0, count=None):
    """Uniform-ish sample of the thick-walled alcove, optional interior margin;
    with count, a stack (count, n) of the samples of count calls on rng.

    margin is the fraction of the slack chi0 kept away from every wall,
    capped at 1/(2n) so that half the slack is always left to draw from.
    """
    margin = min(margin, 0.5 / c.n)
    slack = c.chi0 * (1.0 - c.n * margin)
    return c.y + margin * c.chi0 + slack * rng.dirichlet(np.ones(c.n), size=count)
