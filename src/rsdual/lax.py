"""Ruijsenaars-Schneider matrices on the thick-walled alcove and on CP(n-1).

The local Lax matrix L(delta(xi), Theta) is built from the positive factors
W_k(delta, +-y).  On the y-shifted alcove each W_k(+y) vanishes linearly in
r_k = sqrt(xi_k - y) and W_k(-y) in r_{k-1}; splitting those roots off
leaves strictly positive smooth factors w_k^{+-}.  The matrix Lambda of
smooth entry cofactors assembled from them never vanishes, which is what
lets the Lax matrix extend to the whole projective phase space as K(u),
and L(delta(xi), Theta) is K(r) Theta.  Every sine and phase of the layer
comes from one table of pair angles (_arcs): each arc of xi around the
circle sum(xi) = pi is summed from its own start and taken from the shorter
of it and its complement, so that no digits are lost next to the vertices,
where one xi_k nears pi.  Every function here takes stacks (..., n), each
row with the one-point bits.
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

_CyclicIndex = namedtuple("_CyclicIndex", "sup diag rows col0 cols next prev steps skew")


@functools.lru_cache(maxsize=128)
def _cyclic(shape):
    """Flat (take/put) indices, for points (..., n) and their n x n matrices,
    of each superdiagonal (k, k+1 mod n), diagonal, (k, 0) entries (shaped
    (n, ...) as col0 and (..., n) as cols) and first point entry; and k+1,
    k-1 mod n (the latter (1, n)).  For _arcs, taken along the last axis
    of a point and of a flattened matrix: steps (n, n-1) reads xi_{l+j mod
    n} at [l, j], and skew (n, n) entry [l, k - l mod n] at [k, l]."""
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
    steps = (k[:, None] + k[:-1]) % n
    skew = k * n + (k[:, None] - k) % n
    for a in (sup, diag, rows, col0, cols, nxt, prv, steps, skew):
        a.flags.writeable = False
    # rows[()] is a plain integer at one point, so that rows + j stays scalar math
    return _CyclicIndex(sup=sup, diag=diag, rows=rows[()], col0=col0, cols=cols, next=nxt,
                        prev=prv, steps=steps, skew=skew)


def _arcs(xi, y, phase=False):
    """(sin a, sin(a + y)), and e^{-ia} too with phase, for the pair angles
    a[k, l] in [0, pi), a[k, l] = xi_l + ... + xi_{k-1} the arc l to k.

    Each arc is summed from its own start by one cumsum, and so is its
    complement pi - a[k, l] = a[l, k]; every sine and phase is taken of the
    shorter of the two, so that no argument lies near pi and no arc is a
    difference of large sums.  Two sets of entries are replaced: on the
    diagonal sin a = sin(a + y) = sin y, so that their ratio is 1, and on
    the cyclic superdiagonal, where the complement is xi_k alone, sin(a + y)
    = sin(xi_k - y) holds sin(xi_k - y) / (xi_k - y), the zero r_k^2 = xi_k
    - y split off (1 where the gap is 0).
    """
    idx = _cyclic(xi.shape)
    n = xi.shape[-1]
    table = np.zeros(xi.shape + (n,))  # [l, j]: the arc of j steps from l
    np.add.accumulate(xi.take(idx.steps, -1), -1, out=table[..., 1:])
    a = table.reshape(xi.shape[:-1] + (n * n,)).take(idx.skew, -1)
    b = a.swapaxes(-1, -2)
    short = np.minimum(a, b)
    s0 = np.sin(short)
    sp = np.sin(np.minimum(a + y, b - y))
    if phase:
        # e^{-ia} = cos a - i sin a, with cos a = -cos(pi - a) where the
        # complement is the shorter arc
        e = np.empty(a.shape, complex)
        np.copysign(np.cos(short), b - a, out=e.real)
        np.negative(s0, out=e.imag)
    gap = (xi - y).ravel()
    if np.count_nonzero(gap) == gap.size:  # no zero to split off
        sp.put(idx.sup, sp.take(idx.sup) / gap)
    else:
        zero = gap == 0.0
        sp.put(idx.sup, (sp.take(idx.sup) + zero) / (gap + zero))
    siny = math.sin(y)
    s0.put(idx.diag, siny)
    sp.put(idx.diag, siny)
    return (s0, sp, e) if phase else (s0, sp)


def _w_factor_data(s0, sp):
    """Smooth squared factors of W_k(+-y) with the zero r_v^2 split off,
    from (s0, sp) = _arcs(xi, y).

    Returns the stack (wp2, wm2) of the row and column products of sp / s0:
    W_k(+y)^2 = (xi_k - y) * wp2_k and W_k(-y)^2 = (xi_{k-1} - y) * wm2_k,
    cyclic index k-1, since sin(a_kj - y) / sin(a_kj) = sp[j, k] / s0[j, k].
    """
    w2 = np.empty((2,) + sp.shape[:-1])
    ratio = np.divide(sp, s0)
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
    w_plus, w_minus = np.sqrt(_w_factor_data(*_arcs(xi, c.y)))
    r = np.sqrt(np.maximum(xi - c.y, 0.0))
    return r * w_plus, r.take(_cyclic(xi.shape).prev[0], -1) * w_minus, w_plus, w_minus


def _lambda_parts(xi, c):
    """(Lambda^y(xi), w_plus, w_minus) from one arc table, on a xi the caller
    has already validated.  Lambda = sin y e^{-ia} w_plus (x) w_minus /
    sin(a + y) entry by entry is the smooth cofactor matrix, nowhere zero
    on the polytope: L(delta(xi), 1)_{kl} = r_k r_{l-1} Lambda_{kl} off the
    cyclic superdiagonal, and Lambda = L on it."""
    s0, sp, lam = _arcs(xi, c.y, phase=True)
    wp, wm = np.sqrt(_w_factor_data(s0, sp))
    # sin y e^{-ia} wp_k wm_l / sp in place, in the left-to-right order of
    # that product, so with the bits of its one-expression form
    np.multiply(math.sin(c.y), lam, out=lam)
    lam *= wp[..., None]
    lam *= wm[..., None, :]
    lam /= sp
    return lam, wp, wm


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
    - e^{-iy}) W_k(y) W_l(-y) Theta_l is r_k r_{l-1} Lambda_kl Theta_l off
    the cyclic superdiagonal and Lambda_kl Theta_l on it: K(r) Theta with
    r_k = sqrt(xi_k - y).  The denominator's modulus 2 |sin(a_kl + y)|
    vanishes on the superdiagonal entry of a wall xi_k = y, where L is not
    defined.  The reversed-coupling matrix of the second toric
    identification is L(delta, Theta; -y) = L(delta, 1)^dagger Theta.
    """
    xi = check_shifted_alcove(xi, c)
    theta = _theta_vector(theta, c.n)
    lam, wp, wm = _lambda_parts(xi, c)
    gap = xi - c.y
    # W_k(y)^2 = gap_k wp_k^2 and W_{k+1}(-y)^2 = gap_k wm_{k+1}^2
    w2 = gap * np.maximum(wp, wm.take(_cyclic(xi.shape).next, axis=-1)) ** 2
    if anywhere(w2 < -1e-13):
        raise DomainViolation("W^2 factors negative; xi outside the coupling domain")
    small = 2.0 * np.abs(gap) < 1e-12
    if anywhere(small):
        k = np.argwhere(small)[0][-1]  # in the first matrix that has one
        raise SingularDenominator(
            f"Lax denominator vanishes at entry ({k + 1}, {(k + 1) % c.n + 1})"
        )
    r = np.sqrt(np.maximum(gap, 0.0)).astype(complex)
    return _lax_from(r, lam) * theta[..., None, :]


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
