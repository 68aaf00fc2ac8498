"""Sections of the reduced space, the toric identifications and the duality.

The constraint surface mu(A,B) = mu0 is covered by explicit chart sections
F_j of the projection to the reduced space P; labelling each gauge orbit by
the projective point recovered from the Lax-matrix entries makes the
identification beta-map a computable bijection.  The second identification is
alpha = nu o beta o Gamma, the self-duality map is their composition.  S, its
inverse, mapping-class words and reduced_flow are _relabel, f_beta_inv(act(
_lift(u))) of one map act or of several by one lift and one label call; a
trajectory step is _label through its orbit frame.  A point is validated
and canonicalized where it is lifted, a pair where f_beta_inv takes it (the
constraint, B finite); the frame then checks only B's wall, and the label
canonicalizes only on a modulus tie.  Each map takes a stack of points
(..., n) or pairs (..., n, n), each row with the one-point bits; a bad row
raises what it raises alone.  section_F takes one chart or one per row.
"""

import math

import numpy as np

from .coupling import check_shifted_alcove
from .double import DoublePoint, apply_word, auto_apply, flow, flow_map
from .errors import ConstraintViolation, DomainViolation, anywhere, first_row
from .lax import _cyclic, _lambda_parts, _lax_from, global_lax, reflection_g
from .projective import (
    TIE_TOL,
    _fro,
    _norm,
    canonicalize,
    chart_gauge,
    chart_index,
    involution,
    moment_J,
    moment_J_full,
)
from .sun import _eigen_alcove, _spectral_xi, alcove_exponents, alcove_point, dagger, spectral_index


def _chart_lift(u, j, c):
    """(xi, K(u), G_y^j(u)) with xi = |u|^2 + y: u is put into the chart-j
    gauge and xi validated once, and K and G share one pass over the
    W-factor data.  The unitary gauge G_y^j(u), Delta(tau)^{-1} g_y^j(xi)
    Delta_j(tau) on the dense part, is the chart reflection of the unit
    vector conj(u_k) v_k / r_k; the smooth factors v_k / r_k > 0 extend it
    to the whole chart |u_j| > 0."""
    u = chart_gauge(u, j)
    xi = check_shifted_alcove(moment_J_full(u, c), c)
    lam, w_plus, _ = _lambda_parts(xi, c)
    x = np.conjugate(u) * c.v_scale * w_plus
    return xi, _lax_from(u, lam), reflection_g(x, j)


def section_F(u, j, c):
    """Chart section F_j(u) = (G^{-1} K(u) G, G^{-1} delta(xi) G) of the
    constraint surface, with G = G_y^j(u) and xi_i = |u_i|^2 + y.

    u is put into the chart gauge and xi validated once, and K(u) and G
    share one pass over the W-factor data; K(u) and delta(xi) depend only
    on the phase class of u.
    """
    xi, K, G = _chart_lift(u, j, c)
    Gi = dagger(G)
    delta = np.exp(1j * alcove_exponents(xi))
    return DoublePoint(Gi @ K @ G, Gi @ (delta[..., None] * G))


def _lift(u, c):
    """Canonicalize u and lift it through the section of its own chart."""
    u = canonicalize(u, c)
    return section_F(u, chart_index(u), c)


def constraint_residual(p, c):
    """Frobenius distance of mu(A,B) mu0^{-1} from the identity, evaluated
    as |AB - mu0 BA|_F: right multiplication by the unitary BA mu0^{-1}
    preserves the norm, and mu0 is diagonal."""
    M = p.A @ p.B - c.mu0.diagonal()[:, None] * (p.B @ p.A)
    return _fro(M)


def _orbit_frame(B, c):
    """The part of f_beta_inv that reads only the second factor B, of one B
    or of each matrix of a stack.

    Returns (g, lam, col, den, at, rj): the diagonalizer g of B = g^dagger
    delta(xi) g and the smooth cofactor matrix lam = Lambda^y(xi) at its
    alcove point xi, clipped onto the walls xi_k >= y; then what the label
    reads in the chart j = argmax xi (0-based): the flat indices col of the
    entries (k, j + 1 mod n) of each matrix, the denominators den = rj
    lam[:, j + 1 mod n], the flat index at of u_j and its value rj =
    sqrt(xi_j - y).  B must be finite (f_beta_inv checks it; a flow keeps
    it so).  xi sums to pi and is positive by construction and GAP_TOL, so
    only the wall is checked, to 1e-7.
    """
    xi, g = _spectral_xi(B)
    low = np.minimum.reduce(xi, None, initial=math.inf) - c.y
    if low < -1e-7:
        bad = np.minimum.reduce(xi, -1) - c.y < -1e-7
        raise DomainViolation(f"xi_j < y for some j: {xi[first_row(bad)]}, y={c.y}")
    j = xi.argmax(-1)
    idx = _cyclic(xi.shape)
    at = idx.rows + j
    if low < 0.0:
        # clip onto the walls; the largest xi_j (>= pi/n > y) gives up the
        # excess, so sum(xi) stays pi and xi_j still selects the chart
        clipped = np.maximum(xi, c.y)
        clipped.flat[at] -= np.add.reduce(clipped - xi, -1)
        xi = clipped
    lam = _lambda_parts(xi, c)[0]
    # a row times its own rj (or plus its own j + 1) is a product (or sum)
    # of transposes, so that one point takes the scalar, which is fastest
    col = (idx.cols.T + ((j + 1) % c.n).T).T
    rj = np.sqrt(xi.flat[at] - c.y)
    return g, lam, col, (lam.flat[col].T * rj.T).T, at, rj


def _label(A, frame, c):
    """The part of f_beta_inv that reads the first factor A, given the
    _orbit_frame of the second: conjugate A by g, rotate by the torus
    element that matches its cyclic superdiagonal against Lambda, and read
    the chart coordinates off the remaining entries."""
    g, lam, col, den, at, rj = frame
    n = c.n
    K = g @ A @ dagger(g)

    ratio = K.diagonal(1, -2, -1) / lam.diagonal(1, -2, -1)
    mag = abs(ratio)
    if not np.minimum.reduce(mag, None, initial=math.inf) >= 1e-13:
        raise ConstraintViolation("vanishing superdiagonal in conjugated factor")
    zeta = np.empty(A.shape[:-1], dtype=complex)
    zeta[..., 0] = 1.0
    np.multiply.accumulate(ratio / mag, -1, out=zeta[..., 1:])
    np.multiply(zeta[..., :, None], K, out=K)
    K *= np.conjugate(zeta)[..., None, :]

    closure = K[..., n - 1, 0] / lam[..., n - 1, 0]
    bad = abs(closure / abs(closure) - 1.0) > 1e-5
    if anywhere(bad):
        raise ConstraintViolation(
            f"cyclic superdiagonal phase fails to close (off by {closure[first_row(bad)]:.6g})"
        )

    u = np.conjugate(K.flat[col] / den)
    u.flat[at] = rj
    # u_j = rj >= 0: unless a modulus ties with it or rj is far, as
    # canonicalize tests, its rescale and phase multiply finish the label
    nrm = _norm(u)
    v = (u.T * (math.sqrt(c.chi0) / nrm).T).T
    mags = abs(v)
    top = mags.flat[at]
    tie = np.count_nonzero(mags.T >= (top - TIE_TOL).T) != top.size
    if tie or anywhere((rj <= 1e-150) | (rj >= 1e150)):
        return canonicalize(u, c)
    return (v.T * (np.conjugate(v.flat[at]) / top).T).T


def f_beta_inv(p, c):
    """Label of the gauge orbit of a constrained pair: the unique projective
    point u with F_j(u) gauge-equivalent to (A, B).

    Steps: read xi from the spectrum of B; diagonalize B; rotate the
    diagonalizer by the torus element that matches the cyclic superdiagonal
    of the conjugated A against the nowhere-zero Lambda factors; read the
    chart coordinates off the remaining entries.  The pair must satisfy the
    constraint to 1e-6, and the superdiagonal phases must close to 1e-5.
    On a stack of pairs (..., n, n) each row is labelled as alone.
    """
    res = constraint_residual(p, c)
    bad = res > 1e-6
    if anywhere(bad):
        raise ConstraintViolation(f"moment residual {res[first_row(bad)]:.3e} exceeds 1e-6")
    if not np.logical_and.reduce(np.isfinite(p.B), None):
        raise ValueError("array must not contain infs or NaNs")
    return _label(p.A, _orbit_frame(p.B, c), c)


def f_alpha(u, c):
    """Second toric identification alpha = nu o beta o Gamma.

    Returns the representative, nu applied to a section of Gamma(u); its
    first factor has spectrum J-full(u) and its second the reversed spectrum
    of K(u).
    """
    return auto_apply("nu", _lift(involution("Gamma", u), c))


def f_alpha_inv(p, c):
    """Inverse of the alpha identification on the constraint surface."""
    return _from_alpha(f_beta_inv(auto_apply("nu", p), c), c)


def _from_alpha(v, c):
    """f_alpha_inv of the pairs whose nu has the labels v: Gamma(v), canonical."""
    return canonicalize(involution("Gamma", v), c)


def _relabel(u, c, *acts):
    """f_beta_inv(act(_lift(u))) of each map act of the double, by one lift and
    one label call; the labels of several acts run over axis -2, in order."""
    p = _lift(u, c)
    q = [act(p) for act in acts]
    if len(q) > 1:
        q = [DoublePoint(np.stack([x.A for x in q], -3), np.stack([x.B for x in q], -3))]
    return f_beta_inv(q[0], c)


def duality(which, u, c):
    """Self-duality maps of the compactified phase space.

    'S' is the symplectic duality map (alpha-inverse after beta), 'S_inv'
    its inverse, and 'R' = C o S the anti-symplectic involutive version
    that plainly exchanges positions and actions.
    """
    if which == "S":
        return _from_alpha(_relabel(u, c, lambda p: auto_apply("nu", p)), c)
    if which == "S_inv":
        return _relabel(involution("Gamma", u), c, lambda p: auto_apply("nu", p))
    if which == "R":
        # C maps the canonical image of S to a canonical point
        return involution("C", duality("S", u, c))
    raise ValueError(f"unknown duality map {which!r}")


def mapclass_on_P(word, u, c):
    """Mapping-class word acting on the projective model.

    Lifts u to the constraint surface, applies the generators in order
    ('S', 'T', 'Ttilde'; leftmost first) and relabels the resulting orbit.
    The central twist Q drops out on the quotient.
    """
    for gen in word:
        if gen not in ("S", "T", "Ttilde"):
            raise ValueError(f"unknown mapping-class generator {gen!r}")
    return _relabel(u, c, lambda p: apply_word(word, p))


def reduced_flow(u, h, t, c):
    """Reduced Hamiltonian flow: lift through a chart section, apply the
    exact unreduced flow, project back to the canonical label."""
    return _relabel(u, c, lambda p: flow(p, h, t))


def action_variables(u, c):
    """Action variables Xi_k(K(u)), k = 1..n-1.

    Read from the eigenvalues of K(u) alone (sun.alcove_point): K(u) is
    unitary, so its eigenphases are perfectly conditioned, and on the
    shifted alcove xi >= y they are at least 2y apart.
    """
    return alcove_point(global_lax(canonicalize(u, c), c))[..., : c.n - 1]


def reduced_trajectory(u, h, t_final, steps, c):
    """Sampled reduced flow; an iterator of (step, t, u_t, J(u_t), Xi(K(u_t))).

    steps, t_final and a spectral Hamiltonian's index are checked when it is
    called, the point when it is lifted; the flow keeps mu = mu0 and the
    pair finite, so no step re-checks either, nor the finite K(u_t) whose
    eigenvalues give Xi.  The flow is exact for every t, so each sample
    comes from the single initial lift with no accumulated integration
    error.  At the first next(), once per trajectory: the lift, the
    decomposition of the frozen factor's gradient (flow_map) and, for side
    'second' flows, which leave B fixed, the orbit frame of B.  Per step,
    lazily on each next(): the flowed pair at t, the orbit frame of its B
    (the fixed one on side 'second', a new one on side 'first', since B
    moves), its _label and its action variables.  K(u_t) reuses the frame's
    Lambda, so a step builds Lambda at most once: the frame's xi, read from
    the spectrum of B_t, equals |u_t|^2 + y to the accuracy of the label.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not math.isfinite(t_final):
        raise ValueError(f"t_final (--t) must be finite, got {t_final}")
    if h.kind == "spectral":
        spectral_index(h.index, c.n)
    return _trajectory(u, h, t_final, steps, c)


def _trajectory(u, h, t_final, steps, c):
    rep = _lift(u, c)
    at = flow_map(rep, h)
    fixed = _orbit_frame(rep.B, c) if h.side == "second" else None
    for k in range(steps + 1):
        t = t_final * k / steps if steps else 0.0
        pt = at(t)
        frame = fixed or _orbit_frame(pt.B, c)
        ut = _label(pt.A, frame, c)
        yield k, t, ut, moment_J(ut, c), _eigen_alcove(_lax_from(ut, frame[1]), np.empty(c.n))[: c.n - 1]
