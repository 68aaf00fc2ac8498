"""Sections of the reduced space, the toric identifications and the duality.

The constraint surface mu(A,B) = mu0 is covered by explicit chart sections
F_j of the projection to the reduced space P; labelling each gauge orbit by
the projective point recovered from the Lax-matrix entries makes the
identification beta-map a computable bijection.  The second identification
is alpha = nu o beta o Gamma, the self-duality map is their composition.
Every map on P (S and its inverse, mapping-class words, reduced Hamiltonian
flows) is f_beta_inv(act(_lift(u))): a point is canonicalized where it is
lifted and where it is labelled, and nowhere in between.
"""

import math

import numpy as np

from .coupling import check_shifted_alcove
from .double import DoublePoint, apply_word, auto_apply, flow, flow_map
from .errors import ConstraintViolation
from .lax import _lambda_parts, _lax_from, global_lax, reflection_g
from .projective import (
    _norm,
    canonicalize,
    chart_gauge,
    chart_index,
    involution,
    moment_J,
    moment_J_full,
)
from .sun import alcove_exponents, alcove_point, dagger, spectral_index, spectral_xi


def _chart_lift(u, j, c):
    """(xi, K(u), G_y^j(u)) with xi = |u|^2 + y: u is put into the chart-j
    gauge and xi validated once, and K and G share one pass over the
    W-factor data.  The unitary gauge G_y^j(u), Delta(tau)^{-1} g_y^j(xi)
    Delta_j(tau) on the dense part, is the chart reflection of the unit
    vector conj(u_k) v_k / r_k; the smooth factors v_k / r_k > 0 extend it
    to the whole chart |u_j| > 0."""
    u = chart_gauge(u, j)
    xi = check_shifted_alcove(moment_J_full(u, c), c)
    lam, w_plus = _lambda_parts(xi, c)
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
    return DoublePoint(Gi @ K @ G, Gi @ (delta[:, None] * G))


def _lift(u, c):
    """Canonicalize u and lift it through the section of its own chart."""
    u = canonicalize(u, c)
    return section_F(u, chart_index(u), c)


def constraint_residual(p, c):
    """Frobenius distance of mu(A,B) mu0^{-1} from the identity, evaluated
    as |AB - mu0 BA|_F: right multiplication by the unitary BA mu0^{-1}
    preserves the norm, and mu0 is diagonal."""
    A, B = p.A, p.B
    return _norm(A @ B - c.mu0.diagonal()[:, None] * (B @ A))


def _orbit_frame(B, c):
    """The part of f_beta_inv that reads only the second factor B.

    Returns (g, xi, j, Lambda^y(xi)): the diagonalizer g of B = g^dagger
    delta(xi) g, its alcove point xi (checked to 1e-7 in the sum, the
    entries and the wall alike) clipped onto the walls xi_k >= y, the
    chart index j = argmax xi (0-based) and the smooth cofactor matrix.
    """
    xi, g = spectral_xi(B)
    xi = check_shifted_alcove(xi, c, tol=1e-7)
    # clip onto the walls xi_k >= y; the largest xi_j (>= pi/n > y) gives up
    # the excess, so sum(xi) stays pi and xi_j still selects the chart
    j = int(xi.argmax())
    clipped = np.maximum(xi, c.y)
    clipped[j] -= (clipped - xi).sum()
    return g, clipped, j, _lambda_parts(clipped, c)[0]


def _label(A, frame, c):
    """The part of f_beta_inv that reads the first factor A, given the
    _orbit_frame of the second: conjugate A by g, rotate by the torus
    element that matches its cyclic superdiagonal against Lambda, and read
    the chart coordinates off the remaining entries."""
    g, xi, j, lam = frame
    n = c.n
    K = g @ A @ g.conj().T

    ratio = K.diagonal(1) / lam.diagonal(1)
    mag = abs(ratio)
    if not mag.min() >= 1e-13:
        raise ConstraintViolation("vanishing superdiagonal in conjugated factor")
    zeta = np.ones(n, dtype=complex)
    (ratio / mag).cumprod(out=zeta[1:])
    np.multiply(zeta[:, None], K, out=K)
    K *= zeta.conj()

    closure = K[n - 1, 0] / lam[n - 1, 0]
    if abs(closure / abs(closure) - 1.0) > 1e-5:
        raise ConstraintViolation(
            f"cyclic superdiagonal phase fails to close (off by {closure:.6g})"
        )

    col = (j + 1) % n
    rj = math.sqrt(xi[j] - c.y)
    u = (K[:, col] / (rj * lam[:, col])).conj()
    u[j] = rj
    return canonicalize(u, c)


def f_beta_inv(p, c, frame=None):
    """Label of the gauge orbit of a constrained pair: the unique projective
    point u with F_j(u) gauge-equivalent to (A, B).

    Steps: read xi from the spectrum of B; diagonalize B; rotate the
    diagonalizer by the torus element that matches the cyclic superdiagonal
    of the conjugated A against the nowhere-zero Lambda factors; read the
    chart coordinates off the remaining entries.  The pair must satisfy the
    constraint to 1e-6, and the superdiagonal phases must close to 1e-5.
    A caller that holds B fixed passes its _orbit_frame once as frame.
    """
    res = constraint_residual(p, c)
    if res > 1e-6:
        raise ConstraintViolation(f"moment residual {res:.3e} exceeds 1e-6")
    return _label(p.A, frame or _orbit_frame(p.B, c), c)


def f_alpha(u, c):
    """Second toric identification alpha = nu o beta o Gamma.

    Returns the representative, nu applied to a section of Gamma(u); its
    first factor has spectrum J-full(u) and its second the reversed spectrum
    of K(u).
    """
    return auto_apply("nu", _lift(involution("Gamma", u), c))


def f_alpha_inv(p, c):
    """Inverse of the alpha identification on the constraint surface."""
    return canonicalize(involution("Gamma", f_beta_inv(auto_apply("nu", p), c)), c)


def duality(which, u, c):
    """Self-duality maps of the compactified phase space.

    'S' is the symplectic duality map (alpha-inverse after beta), 'S_inv'
    its inverse, and 'R' = C o S the anti-symplectic involutive version
    that plainly exchanges positions and actions.
    """
    if which == "S":
        return f_alpha_inv(_lift(u, c), c)
    if which == "S_inv":
        return f_beta_inv(f_alpha(u, c), c)
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
    return f_beta_inv(apply_word(word, _lift(u, c)), c)


def reduced_flow(u, h, t, c):
    """Reduced Hamiltonian flow: lift through a chart section, apply the
    exact unreduced flow, project back to the canonical label."""
    return f_beta_inv(flow(_lift(u, c), h, t), c)


def action_variables(u, c):
    """Action variables Xi_k(K(u)), k = 1..n-1.

    Read from the eigenvalues of K(u) alone (sun.alcove_point): K(u) is
    unitary, so its eigenphases are perfectly conditioned, and on the
    shifted alcove xi >= y they are at least 2y apart.
    """
    return alcove_point(global_lax(canonicalize(u, c), c))[: c.n - 1]


def reduced_trajectory(u, h, t_final, steps, c):
    """Sampled reduced flow; an iterator of (step, t, u_t, J(u_t), Xi(K(u_t))).

    steps, t_final and a spectral Hamiltonian's index are checked when it
    is called.  The unreduced flow is exact for every t, so each sample is
    produced from the single initial lift with no accumulated integration
    error.  At the first next(), once per trajectory: the lift, the
    decomposition of the frozen factor's gradient (flow_map) and, for side
    'second' flows, which leave B fixed, the orbit frame of B.  Per step,
    lazily on each next(): the flowed pair at t, its f_beta_inv (with the
    orbit frame of B for side 'second', and the whole map for side 'first',
    since B moves) and the action variables of the label, which is
    canonical already.
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
    frame = _orbit_frame(rep.B, c) if h.side == "second" else None
    for k in range(steps + 1):
        t = t_final * k / steps if steps else 0.0
        ut = f_beta_inv(at(t), c, frame)
        yield k, t, ut, moment_J(ut, c), alcove_point(global_lax(ut, c))[: c.n - 1]
