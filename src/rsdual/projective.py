"""The CP(n-1) phase-space model.

Points are phase classes of complex n-vectors with |u|^2 = chi0.  The module
fixes a canonical representative, provides the Darboux parametrization by
(xi, tau), the toric moment map, chart-wise evaluation of the scaled
Fubini-Study form, the rotational torus action and the discrete involutions.
"""

import json
import math
import warnings

import numpy as np

from .coupling import full_xi
from .errors import ChartViolation, DomainViolation, ZeroVector

TIE_TOL = 1e-12
CHART_TOL = 1e-10  # smallest |u_j| for a point to lie in chart j


def canonicalize(u, c):
    """Canonical representative: |u|^2 = chi0 and the largest-modulus
    coordinate (smallest index on ties within 1e-12) real non-negative."""
    u = np.asarray(u, dtype=complex)
    top = abs(u).max()
    # below 1e150 no square overflows and the norm decides; from there on
    # the norm is at least 1e150, and the rescaling below runs anyway
    nrm = _norm(u) if top < 1e150 else math.inf
    if not 1e-150 < nrm < 1e150:
        # the squares inside the norm have left the normal range: divide by
        # the largest modulus first, real and imaginary parts apart, since a
        # complex division by a subnormal overflows
        if top == 0.0:
            raise ZeroVector("cannot canonicalize the zero vector")
        u = u.real / top + 1j * (u.imag / top)
        nrm = _norm(u)
    u = u * (math.sqrt(c.chi0) / nrm)
    mags = abs(u)
    jstar = int((mags >= mags.max() - TIE_TOL).argmax())
    if mags[jstar] > 0:
        u = u * (u[jstar].conjugate() / mags[jstar])
    return u


def _norm(x):
    """np.linalg.norm(x) of a complex array (the 2-norm of a vector, the
    Frobenius norm of a matrix): the same sums of squares of the real and
    imaginary parts in memory order, without the call's dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def projective_distance(u, v):
    """Gauge-invariant distance min_phase |u - e^{i gamma} v|."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vdot(v, u)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def point_to_json(u):
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, dtype=complex)]


def point_from_json(data, c):
    """The canonical point of a JSON list of n [re, im] pairs of finite
    numbers; anything else raises ValueError naming what is wrong."""
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"point has ragged or non-numeric pairs: {data}") from None
    if pairs.shape != (c.n, 2):
        raise ValueError(f"point must be {c.n} [re, im] pairs, got shape {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise ValueError(f"point has non-finite entries: {data}")
    return canonicalize(pairs[:, 0] + 1j * pairs[:, 1], c)


def load_point(path, c):
    """Read a point from JSON: either a bare [re, im] array or the output
    of a CLI command (a dict carrying "point" or "image").

    Non-canonical inputs are canonicalized with a warning.
    """
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        for key in ("image", "point", "u"):
            if key in data:
                data = data[key]
                break
        else:
            raise ValueError(f"{path}: no point data found in JSON object")
    u = point_from_json(data, c)
    if np.max(np.abs(np.subtract(point_to_json(u), data))) > 1e-9 * math.sqrt(c.chi0):
        warnings.warn(f"point in {path} was not canonical; canonicalized on ingest")
    return u


def e_param(xi, theta, c):
    """Darboux parametrization u_j = e^{i theta_j} sqrt(xi_j - y), u_n real.

    xi may be given as the n-1 polytope coordinates or the full alcove
    vector; theta are the n-1 torus angles.  Returns the canonical
    representative.
    """
    xi = full_xi(xi, c)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.n - 1,):
        raise ValueError(f"need {c.n - 1} torus angles")
    for name, value in (("xi", xi), ("theta (--tau)", theta)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has non-finite entries: {value}")
    if np.any(xi < c.y - 1e-12) or abs(xi.sum() - math.pi) > 1e-9:
        raise DomainViolation(f"xi outside the moment polytope: {xi}")
    r = np.sqrt(np.maximum(xi - c.y, 0.0))
    u = r.astype(complex)
    u[: c.n - 1] *= np.exp(1j * theta)
    return canonicalize(u, c)


def moment_J(u, c):
    """Toric moment map J_k = |u_k|^2 + y, k = 1..n-1."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u[:-1]) ** 2 + c.y


def moment_J_full(u, c):
    """All n shifted moduli; sums to pi when |u|^2 = chi0."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u) ** 2 + c.y


def chart_index(u):
    """1-based index of the largest-modulus coordinate."""
    return int(np.argmax(np.abs(u))) + 1


def chart_gauge(u, j):
    """Representative with u_j real positive (chart gauge), j 1-based."""
    u = np.asarray(u, dtype=complex)
    if abs(u[j - 1]) <= CHART_TOL:
        raise ChartViolation(f"|u_{j}| = {abs(u[j - 1]):.3e} too small for chart {j}")
    return u * (np.conjugate(u[j - 1]) / abs(u[j - 1]))


def to_chart(u, j):
    """Inhomogeneous chart coordinates: the n-1 entries k != j in the
    u_j > 0 gauge."""
    w = chart_gauge(u, j)
    return np.delete(w, j - 1)


def from_chart(w, j, c):
    """Rebuild the representative from chart-j coordinates."""
    w = np.asarray(w, dtype=complex)
    rest = float(np.sum(np.abs(w) ** 2))
    if rest >= c.chi0:
        raise ChartViolation(f"chart coordinates have |w|^2 = {rest:.12g} >= chi0")
    u = np.empty(c.n, dtype=complex)
    u[np.arange(c.n) != j - 1] = w
    u[j - 1] = math.sqrt(c.chi0 - rest)
    return u


def fs_omega_eval(u, v1, v2, j):
    """Scaled Fubini-Study form chi0*omega_FS on chart tangents.

    Tangents are chart-j coordinate vectors (length n-1).  In these
    coordinates the form is the Darboux form i sum d conj(w) wedge d w,
    i.e. omega(a, b) = 2 sum Im(a_k conj(b_k)).
    """
    m = chart_gauge(u, j).shape[-1] - 1  # n - 1; raises off chart j
    a = np.asarray(v1, dtype=complex)
    b = np.asarray(v2, dtype=complex)
    if a.shape != (m,) or b.shape != (m,):
        raise ChartViolation(f"tangents must be chart vectors of length {m}")
    return 2.0 * float(np.sum((a * np.conjugate(b)).imag))


def rot_action(theta, u):
    """Rotational torus action u_k -> e^{i theta_k} u_k, k = 1..n-1."""
    u = np.array(u, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    u[: len(u) - 1] *= np.exp(1j * theta)
    return u


def involution(which, u):
    """Discrete involutions of the phase space.

    'C' is componentwise conjugation, 'Gamma' conjugation composed with
    reversal of the first n-1 slots, and 'sigma' = C Gamma the plain
    reversal.  All three are involutive; C and Gamma are anti-symplectic,
    sigma is symplectic.
    """
    u = np.asarray(u, dtype=complex)
    if which == "C":
        return np.conjugate(u)
    if which == "Gamma":
        out = np.conjugate(u).copy()
        out[:-1] = out[:-1][::-1]
        return out
    if which == "sigma":
        out = u.copy()
        out[:-1] = out[:-1][::-1]
        return out
    raise ValueError(f"unknown involution {which!r}")


def random_point(c, rng, interior_bias=0.0):
    """Random canonical point; with interior_bias > 0, resample until
    min_k |u_k|^2 > interior_bias * chi0 / n.

    interior_bias must be below 1: the smallest |u_k|^2 never exceeds the
    mean chi0 / n, so no draw would ever be accepted (ValueError).
    """
    if not interior_bias < 1.0:
        raise ValueError(f"interior_bias must be < 1, got {interior_bias}")
    while True:
        z = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
        u = canonicalize(z, c)
        if interior_bias <= 0.0:
            return u
        if np.min(np.abs(u) ** 2) > interior_bias * c.chi0 / c.n:
            return u


def vertex_points(c, eps=0.0, rng=None):
    """Near-vertex points of the moment polytope: u concentrated on one axis."""
    pts = []
    for k in range(c.n):
        u = np.zeros(c.n, dtype=complex)
        u[k] = 1.0
        if eps > 0.0:
            noise = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
            u = u + eps * noise
        pts.append(canonicalize(u, c))
    return pts
