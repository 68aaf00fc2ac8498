"""The CP(n-1) phase-space model.

Points are phase classes of complex n-vectors with |u|^2 = chi0.  The module
fixes a canonical representative, provides the Darboux parametrization by
(xi, tau), the toric moment map, chart-wise evaluation of the scaled
Fubini-Study form, the rotational torus action and the discrete involutions.
canonicalize, chart_index, the distance, the rotational action, the
involutions, the moment maps, the chart maps and the form also take stacks
of points (..., n), each row with the one-point bits.  chart_gauge (which
section_F reads) and from_chart check every chart index j, one for all rows
or one per row.
"""

import json
import math
import warnings

import numpy as np

from .coupling import check_shifted_alcove
from .errors import ChartViolation, ZeroVector, anywhere, first_row
from .lax import _cyclic

TIE_TOL = 1e-12
CHART_TOL = 1e-10  # smallest |u_j| for a point to lie in chart j


def canonicalize(u, c):
    """Canonical representative: |u|^2 = chi0 and the largest-modulus
    coordinate (smallest index on ties within 1e-12) real non-negative;
    of a point or of each row of a stack (..., n)."""
    u = np.ascontiguousarray(u, dtype=complex)  # rows laid out as one point is
    top = np.maximum.reduce(abs(u), -1)
    # a far row's squares may leave the normal range inside the norm: divide
    # it by its largest modulus first, real and imaginary parts apart, since
    # a complex division by a subnormal overflows
    far = (top <= 1e-150) | (top >= 1e150) | (top != top)  # NaN too; ~ of a scalar is slow
    if anywhere(far):
        bad = far & ~((top > 0.0) & (top < math.inf))
        if anywhere(bad):
            row = first_row(bad)
            if top[row] == 0.0:
                raise ZeroVector("cannot canonicalize the zero vector")
            raise ValueError(f"cannot canonicalize the non-finite point {u[row]}")
        t = np.where(far, top, 1.0)[..., None]
        u = np.where(far[..., None], u.real / t + 1j * (u.imag / t), u)
    nrm = _norm(u)
    # a row times its own factor s is (u.T * s.T).T: at one point s is a
    # scalar, which numpy multiplies by fastest
    u = (u.T * (math.sqrt(c.chi0) / nrm).T).T
    mags = abs(u)
    jstar = (mags.T >= (np.maximum.reduce(mags, -1) - TIE_TOL).T).T.argmax(-1)
    at = _cyclic(u.shape).rows + jstar
    return (u.T * (np.conjugate(u.flat[at]) / mags.flat[at]).T).T


def _norm(x):
    """np.linalg.norm of a complex vector, or of each row of a stack
    (..., m): the same sums of squares of the real and imaginary parts,
    without the call's dispatch.  np.vecdot takes the dot of each row with
    the bits of ndarray.dot, which a vector calls directly, at half the
    cost."""
    re, im = x.real, x.imag
    if x.ndim == 1:
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _fro(M):
    """np.linalg.norm of a matrix, or of each of a stack (..., n, n), with its bits."""
    return _norm(M.reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],)))


def projective_distance(u, v):
    """Gauge-invariant distance min_phase |u - e^{i gamma} v|, per row of
    stacks that broadcast."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vecdot(v, u)  # np.vdot's bits, per row
    mod = np.hypot(inner.real, inner.imag)  # the scalar abs's bits
    zero = mod == 0.0  # takes the phase (0 + 1) / (0 + 1)
    phase = (inner + zero) / (mod + zero)
    return _norm(u - phase[..., None] * v)


def point_to_json(u):
    """A point, or any array of complex numbers, with each number as [re, im]."""
    return np.stack((np.real(u), np.imag(u)), -1).tolist()


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

    xi may be given as the n-1 polytope coordinates, extended by xi_n =
    pi - sum, or the full alcove vector, which must lie in the thick-walled
    alcove (check_shifted_alcove); theta are the n-1 torus angles.  Returns
    the canonical representative.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape == (c.n - 1,):
        xi = np.append(xi, math.pi - xi.sum())
    elif xi.shape != (c.n,):
        raise ValueError(f"expected length {c.n} or {c.n - 1}, got shape {xi.shape}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.n - 1,):
        raise ValueError(f"need {c.n - 1} torus angles")
    for name, value in (("xi", xi), ("theta (--tau)", theta)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has non-finite entries: {value}")
    xi = check_shifted_alcove(xi, c)
    r = np.sqrt(np.maximum(xi - c.y, 0.0))
    u = r.astype(complex)
    u[: c.n - 1] *= np.exp(1j * theta)
    return canonicalize(u, c)


def moment_J(u, c):
    """Toric moment map J_k = |u_k|^2 + y, k = 1..n-1."""
    return moment_J_full(u, c)[..., :-1]


def moment_J_full(u, c):
    """All n shifted moduli; sums to pi when |u|^2 = chi0."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u) ** 2 + c.y


def chart_index(u):
    """1-based index of the largest-modulus coordinate: an int, or one per
    row of a stack."""
    j = np.abs(u).argmax(-1) + 1
    return j if j.ndim else int(j)


def chart_gauge(u, j):
    """Representative with u_j real positive (chart gauge), j 1-based, for all or per row.

    The first bad row raises: ChartViolation if |u_j| is not above
    CHART_TOL (a NaN u_j too), else ValueError if an entry is not finite."""
    u = np.asarray(u, dtype=complex)
    _check_chart(j, u)
    uj = u.take(_cyclic(u.shape).rows + (j - 1))
    mod = np.hypot(uj.real, uj.imag)  # the scalar abs's bits; np.abs of an array differs
    fine = (mod > CHART_TOL) & np.logical_and.reduce(np.isfinite(u), -1)  # so that NaN fails
    if anywhere(~fine):
        row = first_row(~fine)
        if mod[row] > CHART_TOL:
            raise ValueError(f"cannot gauge the non-finite point {u[row]}")
        chart = np.broadcast_to(j, mod.shape)[row]
        raise ChartViolation(f"|u_j| = {mod[row]:.3e} too small for chart {chart}")
    return u * (np.conjugate(uj) / mod)[..., None]


def _check_chart(j, u):
    """Raise ValueError naming j unless it is an int, or an integer array
    broadcastable to the leading shape of the points u, with every entry
    in 1..n: the one check of the chart index, in chart_gauge and from_chart."""
    n, lead = np.shape(u)[-1], np.shape(u)[:-1]
    if isinstance(j, np.ndarray) and j.dtype.kind in "iu":
        # from the last axis on, each axis of j is 1 or that of lead
        fits = j.ndim <= len(lead) and all(a in (1, b) for a, b in zip(j.shape[::-1], lead[::-1]))
        fits = fits and np.logical_and.reduce((1 <= j) & (j <= n), None)
    else:
        fits = isinstance(j, (int, np.integer)) and not isinstance(j, bool) and 1 <= j <= n
    if not fits:
        raise ValueError(f"chart index j must be an int or int array in 1..{n} per point, got {j!r}")


def to_chart(u, j):
    """Inhomogeneous chart coordinates: the n-1 entries k != j in the u_j > 0
    gauge, of a point or of each row of a stack, in one chart or one per row."""
    w = chart_gauge(u, j)
    keep = np.arange(w.shape[-1]) != np.expand_dims(j, -1) - 1
    return w[np.broadcast_to(keep, w.shape)].reshape(w.shape[:-1] + (w.shape[-1] - 1,))


def from_chart(w, j, c):
    """Rebuild the representative from chart-j coordinates, in one chart or one per row."""
    w = np.asarray(w, dtype=complex)
    u = np.empty(w.shape[:-1] + (c.n,), dtype=complex)
    _check_chart(j, u)
    rest = np.add.reduce(np.abs(w) ** 2, -1)
    if anywhere(~(rest < c.chi0)):  # so that NaN fails
        rest = rest[first_row(~(rest < c.chi0))]
        raise ChartViolation(f"chart coordinates have |w|^2 = {rest:.12g} >= chi0")
    keep = np.broadcast_to(np.arange(c.n) != np.expand_dims(j, -1) - 1, u.shape)
    u[keep] = w.ravel()
    u[~keep] = np.ravel(np.sqrt(c.chi0 - rest))
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
    if a.shape[-1:] != (m,) or b.shape[-1:] != (m,):
        raise ChartViolation(f"tangents must be chart vectors of length {m}")
    return 2.0 * np.add.reduce((a * np.conjugate(b)).imag, -1)


def rot_action(theta, u):
    """Rotational torus action u_k -> e^{i theta_k} u_k, k = 1..n-1, on a
    point or on each row of a stack, with one theta for all or one per row."""
    u = np.array(u, dtype=complex)
    e = np.exp(1j * np.asarray(theta, dtype=float))
    w = u[..., :-1].copy()
    # w * e from its real products, which round alike in every layout;
    # numpy rounds a complex product one of two ways, by operand layout
    u.real[..., :-1] = w.real * e.real - w.imag * e.imag
    u.imag[..., :-1] = w.real * e.imag + w.imag * e.real
    return u


def involution(which, u):
    """Discrete involutions of the phase space.

    'C' is componentwise conjugation, 'Gamma' conjugation composed with
    reversal of the first n-1 slots, and 'sigma' = C Gamma the plain
    reversal.  All three are involutive; C and Gamma are anti-symplectic,
    sigma is symplectic.
    """
    u = np.asarray(u, dtype=complex)
    if which not in ("C", "Gamma", "sigma"):
        raise ValueError(f"unknown involution {which!r}")
    out = u.copy() if which == "sigma" else np.conjugate(u)
    if which != "C":
        out[..., :-1] = out[..., -2::-1]
    return out


def random_point(c, rng, interior_bias=0.0, count=None):
    """Random canonical point from 2n standard normals, the real parts, then
    the imaginary parts; with count, a stack (count, n).  With interior_bias
    > 0, candidates are drawn until each point has min_k |u_k|^2 >
    interior_bias * chi0 / n; a stack draws one candidate per point still
    missing, so it holds the points of count calls on rng only without a
    bias.  interior_bias must be below 1: the smallest |u_k|^2 never exceeds
    the mean chi0 / n, so no draw would ever be accepted (ValueError).
    """
    if not interior_bias < 1.0:
        raise ValueError(f"interior_bias must be < 1, got {interior_bias}")
    out, done = np.empty((1 if count is None else count, c.n), complex), 0
    while done < len(out):
        z = rng.standard_normal((2, c.n) if count is None else (len(out) - done, 2, c.n))
        u = canonicalize(z[..., 0, :] + 1j * z[..., 1, :], c).reshape(-1, c.n)
        if interior_bias > 0.0:
            # rounding keeps the order, so min |u_k|^2 = (min |u_k|)^2
            u = u[np.minimum.reduce(abs(u), -1) ** 2 > interior_bias * c.chi0 / c.n]
        out[done : done + len(u)] = u
        done += len(u)
    return out[0] if count is None else out


def vertex_points(c, eps=0.0, rng=None):
    """The n near-vertex points of the moment polytope, as a list: u on one axis, plus eps noise."""
    if eps > 0.0 and rng is None:
        raise ValueError("vertex_points needs an rng to perturb by eps > 0")
    u = np.eye(c.n, dtype=complex)
    if eps > 0.0:
        # the re, then the im parts of each vertex's noise, by one call
        z = rng.standard_normal((c.n, 2, c.n))
        u = u + eps * (z[:, 0] + 1j * z[:, 1])
    return list(canonicalize(u, c))
