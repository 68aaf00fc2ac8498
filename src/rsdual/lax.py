"""Ruijsenaars-Schneider matrices on the thick-walled alcove and on CP(n-1).

The local Lax matrix L(delta(xi), Theta) is built from the positive factors
W_k(delta, +-y).  On the y-shifted alcove each W_k(+y) vanishes linearly in
r_k = sqrt(xi_k - y) and W_k(-y) in r_{k-1}; splitting those roots off
leaves strictly positive smooth factors w_k^{+-}.  The matrix Lambda of
smooth entry cofactors assembled from them never vanishes, which is what
lets the Lax matrix extend to the whole projective phase space as K(u).
Every function here takes stacks (..., n), each row with the one-point bits.
"""

from collections import namedtuple
import functools
import math

import numpy as np

from .coupling import check_shifted_alcove
from .errors import (
    DomainViolation,
    NormViolation,
    PoleAtMinusOne,
    SingularDenominator,
    anywhere,
    first_row,
)

def sinratio(x):
    """sin(x)/x, smooth through x = 0: np.sinc(x / pi) step by step, without its overhead."""
    t = np.pi * (np.asarray(x, dtype=float) / np.pi)
    t = np.where(t, t, 2.220446049250313e-16)  # np.finfo(float).eps, as in np.sinc
    out = np.sin(t) / t
    return out if out.ndim else float(out)


_CyclicIndex = namedtuple("_CyclicIndex", "sup diag rows col0 cols next prev")


@functools.lru_cache(maxsize=128)
def _cyclic(shape):
    """Flat (take/put) indices, for points (..., n) and their n x n matrices,
    of each superdiagonal (k, k+1 mod n), diagonal, (k, 0) entries (shaped
    (n, ...) as col0 and (..., n) as cols) and first point entry; and k+1,
    k-1 mod n (the latter (1, n))."""
    n = shape[-1]
    k = np.arange(n)
    nxt = (k + 1) % n
    prv = (k - 1)[None, :] % n
    rows = np.arange(0, math.prod(shape), n).reshape(shape[:-1])
    start = rows.reshape(-1, 1) * n
    sup = (start + k * n + nxt).ravel()
    diag = (start + k * (n + 1)).ravel()
    cols = (start + n * k).reshape(shape)
    col0 = np.moveaxis(cols, -1, 0)
    for a in (sup, diag, rows, col0, cols, nxt, prv):
        a.flags.writeable = False
    # rows[()] is a plain integer at one point, so that rows + j stays scalar math
    return _CyclicIndex(sup=sup, diag=diag, rows=rows[()], col0=col0, cols=cols, next=nxt, prev=prv)


def _pair_angles(xi):
    """phi[k, l] = x_k - x_l = C_k - C_l, with C_k = xi_0 + ... + xi_{k-1}
    the alcove prefix sums (well defined modulo pi)."""
    C = np.zeros(xi.shape)
    np.add.accumulate(xi[..., :-1], -1, out=C[..., 1:])
    return C[..., None] - C[..., None, :]


def _w_ratios(phi, sin_shift):
    """ratio[k, j] = sin(phi_kj + y) / sin(phi_kj) with a unit diagonal,
    given sin_shift = sin(phi + y).

    W_k(y)^2 is the product of row k and W_k(-y)^2 that of column k, since
    sin(phi_kj - y) / sin(phi_kj) = ratio[j, k].
    """
    diag = _cyclic(phi.shape[:-1]).diag
    ratio = np.sin(phi)
    ratio.put(diag, 1.0)
    np.divide(sin_shift, ratio, out=ratio)
    ratio.put(diag, 1.0)
    return ratio


def _w_factor_data(phi, sin_shift, sr):
    """Smooth squared factors of W_k(+-y) with the zero r_v^2 split off.

    phi is _pair_angles(xi), sin_shift = sin(phi + y) and sr =
    sinratio(xi - y).  Returns the stack (wp2, wm2)
    with W_k(+y)^2 = (xi_k - y) * wp2_k and W_k(-y)^2 = (xi_{k-1} - y) *
    wm2_k, cyclic index k-1.  The ratio on the cyclic superdiagonal,
    sin(xi_k - y) / sin(xi_k) up to sign, is the one that vanishes at the
    wall xi_k = y; it enters W_k(+y) by row and W_{k+1}(-y) by column.
    """
    sup = _cyclic(sr.shape).sup
    ratio = _w_ratios(phi, sin_shift)
    ratio.put(sup, sr.ravel() / np.sin(np.abs(phi.take(sup))))
    w2 = np.empty((2,) + sr.shape)
    np.multiply.reduce(ratio, -1, out=w2[0])
    np.multiply.reduce(ratio, -2, out=w2[1])
    if not np.minimum.reduce(w2, None, initial=math.inf) > 0.0:
        raise DomainViolation("smooth Lax factors not positive; xi outside domain")
    return w2


def w_factors(xi, c):
    """Coupling factors W_k(delta(xi), +-y) and their smooth parts.

    Returns (W_plus, W_minus, w_plus, w_minus) with
    W_plus[k] = r_k * w_plus[k] and W_minus[k] = r_{k-1} * w_minus[k],
    where r_k = sqrt(xi_k - y) and the index k-1 wraps cyclically.
    All square roots are taken non-negative.
    """
    xi = check_shifted_alcove(xi, c)
    y = c.y
    phi = _pair_angles(xi)
    w_plus, w_minus = np.sqrt(_w_factor_data(phi, np.sin(phi + y), sinratio(xi - y)))
    r = np.sqrt(np.maximum(xi - y, 0.0))
    return r * w_plus, r.take(_cyclic(xi.shape).prev[0], -1) * w_minus, w_plus, w_minus


def _lambda_parts(xi, c):
    """(Lambda^y(xi), w_plus) from one pass over the W-factor data, on a xi
    the caller has already validated.  Lambda is the smooth cofactor matrix,
    nowhere zero on the polytope: L(delta(xi), 1)_{kl} = r_k r_{l-1}
    Lambda_{kl} off the cyclic superdiagonal, and Lambda = L on it."""
    y = c.y
    idx = _cyclic(xi.shape)
    phi = _pair_angles(xi)
    sr = sinratio(xi - y)
    den = np.sin(phi + y)
    wp, wm = np.sqrt(_w_factor_data(phi, den, sr))
    den.put(idx.sup, 1.0)
    siny = math.sin(y)
    # siny e^{-i phi} wp_k wm_l / den in place, in the left-to-right order
    # of that product, so with the bits of its one-expression form
    lam = np.exp(-1j * phi)
    np.multiply(siny, lam, out=lam)
    lam *= wp[..., None]
    lam *= wm[..., None, :]
    lam /= den
    lam.put(idx.sup, -siny * np.exp(1j * xi) * wp * wm.take(idx.next, axis=-1) / sr)
    return lam, wp


def _theta_vector(theta, n):
    theta = np.asarray(theta)
    if theta.shape[-1:] != (n,):
        raise ValueError(f"Theta must be a diagonal of length {n}")
    off = ~(np.abs(np.abs(theta) - 1.0) <= 1e-9)  # so that NaN fails
    if anywhere(off):
        raise ValueError(f"Theta entries must be unit modulus, got {theta[first_row(off.any(-1))]}")
    return theta.astype(complex)


def local_lax(xi, theta, c):
    """Local Lax matrix L(delta(xi), Theta), special-unitary on the interior.

    theta is the diagonal of an element of the maximal torus.  L_kl = (e^{iy} - e^{-iy}) / (e^{iy} delta_k / delta_l
    - e^{-iy}) W_k(y) W_l(-y) Theta_l, evaluated with delta_k / delta_l =
    e^{2i phi_kl} as sin y e^{-i phi_kl} W_k(y) W_l(-y) Theta_l / sin(phi_kl + y).
    The reversed-coupling matrix of the second toric identification is
    L(delta, Theta; -y) = L(delta, 1)^dagger Theta.
    """
    xi = check_shifted_alcove(xi, c)
    theta = _theta_vector(theta, c.n)
    # W comes from the same sin(phi + y) as the denominator, not from Lambda
    # (r_k r_{l-1} Lambda_kl) or w_factors: built from those, L loses
    # unitarity next to a wall at small y (y = 1e-6, xi_k - y = 1e-11:
    # |L^dagger L - 1| is 2e-9 and 6e-5, against 4e-10 here and the 1e-9
    # lax-unitarity tolerance)
    phi = _pair_angles(xi)
    den = np.sin(phi + c.y)
    ratio = _w_ratios(phi, den)
    w2p = ratio.prod(axis=-1)
    w2m = ratio.prod(axis=-2)
    if np.any(w2p < -1e-13) or np.any(w2m < -1e-13):
        raise DomainViolation("W^2 factors negative; xi outside the coupling domain")
    Wp = np.sqrt(np.maximum(w2p, 0.0))
    Wm = np.sqrt(np.maximum(w2m, 0.0))
    # |e^{iy} delta_k / delta_l - e^{-iy}| = 2 |sin(phi_kl + y)|
    small = 2.0 * np.abs(den) < 1e-12
    if small.any():
        k, l = np.argwhere(small)[0][-2:]  # in the first matrix that has one
        raise SingularDenominator(
            f"Lax denominator vanishes at entry ({k + 1}, {l + 1})"
        )
    return math.sin(c.y) * np.exp(-1j * phi) / den * Wp[..., :, None] * Wm[..., None, :] * theta[..., None, :]


def local_hamiltonian(xi, p_angles, c):
    """H = sum_j cos(p_j) prod_{k != j} sqrt(1 - sin^2 y / sin^2(x_j - x_k)).

    Equals Re tr L(delta(xi), Theta) with Theta_j = exp(-i p_j); the momenta
    must satisfy the center-of-mass condition sum p_j = 0 mod 2 pi.  The
    product under the root is W_j(y)^2 W_j(-y)^2, so H is evaluated as
    sum_j cos(p_j) W_j(y) W_j(-y), which vanishes exactly on the walls.
    """
    Wp, Wm, _, _ = w_factors(xi, c)
    p = np.asarray(p_angles, dtype=float)
    if p.shape[-1:] != (c.n,):
        raise ValueError(f"need {c.n} momentum angles")
    # |math.remainder(sum p, 2 pi)| per row, exactly: so are fmod and 2 pi - r, r >= pi
    r = np.abs(np.fmod(np.add.reduce(p, -1), 2.0 * math.pi))
    off = ~(np.minimum(r, 2.0 * math.pi - r) <= 1e-9)
    if anywhere(off):
        raise DomainViolation(f"momenta must sum to 0 mod 2 pi, got {p[first_row(off)]}")
    return np.vecdot(np.cos(p), Wp * Wm)


def v_vector(xi, c):
    """Unit vector v(xi, y) and its squared components z.

    v_k = sqrt(sin y / sin n y) * W_k(delta(xi), y), the scale being
    c.v_scale; z_k = v_k^2 sums to one on the whole thick-walled alcove.
    """
    v = c.v_scale * w_factors(xi, c)[0]
    return v, v * v


def mu_of_v(v, c):
    """Rank-one conjugate e^{2iy} 1 + (e^{2i(1-n)y} - e^{2iy}) v v^dagger of mu0."""
    v = np.asarray(v, dtype=complex)
    nrm = np.sqrt(np.vecdot(v, v).real)
    off = ~(abs(nrm - 1.0) <= 1e-9)
    if anywhere(off):
        raise NormViolation(f"|v| = {nrm[first_row(off)]:.12g}, expected 1")
    coeff = np.exp(2j * (1 - c.n) * c.y) - np.exp(2j * c.y)
    return np.exp(2j * c.y) * np.eye(c.n) + coeff * (v[..., :, None] * np.conjugate(v)[..., None, :])


def reflection_g(x, j):
    """The chart gauge built from a unit vector x: its last column is x.

    With w = x + e_j (chart j, 1-based) this is the reflection
    1 - w w^dagger / w_j with columns j and n swapped and column n negated.
    For real x and j = n it is the real orthogonal
    g_{jn} = -g_{nj} = x_j, g_{nn} = x_n, g_{jl} = delta_{jl} - x_j x_l / (1 + x_n);
    for complex x it is unitary.  Requires x_j real with x_j != -1; a stack
    x (..., n) takes j as an int or as one chart per row."""
    x = np.asarray(x)
    n = x.shape[-1]
    off = ~(abs(np.sqrt(np.vecdot(x, x).real) - 1.0) <= 1e-9)
    if anywhere(off):
        raise NormViolation(f"|x| != 1 for x = {x[first_row(off)]}")
    at = _cyclic(x.shape).rows + (j - 1)  # flat index of every x_j
    d = 1.0 + x.take(at).real
    if anywhere(d < 1e-12):
        chart = np.broadcast_to(j, d.shape)[first_row(d < 1e-12)]
        raise PoleAtMinusOne(f"reflection undefined at x_j = -1 (chart {chart})")
    w = x.astype(np.result_type(x, float))
    w.put(at, d)
    g = np.eye(n) - w[..., :, None] * np.conjugate(w)[..., None, :] / d[..., None, None]
    col0 = _cyclic(x.shape).col0
    colj, coln = col0 + (j - 1), col0 + (n - 1)
    col = g.take(colj)
    g.put(colj, g.take(coln))
    g.put(coln, np.multiply(col, -1.0, out=col))
    return g


def global_lax(u, c):
    """Global Lax matrix K(u) on the projective phase space.

    K_{kl} = conj(u_k) u_{l-1} Lambda_{kl} off the cyclic superdiagonal and
    K on the superdiagonal equals Lambda there (u_0 := u_n).  The result is
    special-unitary and depends only on the phase class of u.
    """
    u = np.asarray(u, dtype=complex)
    nrm2 = np.vecdot(u, u).real
    off = (abs(nrm2 - c.chi0) > 1e-8) | (nrm2 != nrm2)  # NaN too; ~ of a scalar is slow
    if anywhere(off):
        raise NormViolation(f"|u|^2 = {nrm2[first_row(off)]}, expected chi0 = {c.chi0:.12g}")
    u = u * np.sqrt(c.chi0 / nrm2)[..., None]
    # |u|^2 = chi0 makes |u_k|^2 + y a point of the shifted alcove
    return _lax_from(u, _lambda_parts(np.abs(u) ** 2 + c.y, c)[0])


def _lax_from(u, lam):
    """K(u) assembled from u and lam = Lambda^y(|u|^2 + y)."""
    idx = _cyclic(u.shape)
    # 1 on the superdiagonal before the product with lam: K = lam there
    K = np.conjugate(u)[..., :, None] * u.take(idx.prev, axis=-1)
    K.put(idx.sup, 1.0)
    K *= lam
    return K
