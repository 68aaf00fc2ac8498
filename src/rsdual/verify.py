"""Property/acceptance engine: every structural identity as a named check.

run_suite sweeps a configurable grid of (n, y) couplings, evaluates each
selected check on seeded random samples and reports the worst residual per
check against its tolerance.  Each check is a draw and a residual function
(Stacked): the draw makes all trials of a (check, n) cell at once, as
stacks with a leading trial axis, and the residual function evaluates them.
Checks are deterministic given the seed and independent across cells, so
any cell can be run on its own.
"""

from collections import namedtuple
from dataclasses import asdict, dataclass
import math
import os
import platform
import subprocess
import time

import numpy as np
import scipy

from . import __version__
from .coupling import Coupling, random_shifted_alcove
from .double import (
    DoublePoint, DoubleTangent, InvariantHamiltonian, apply_word, auto_apply, conjugate, flow,
    geodesic_tangent, hamiltonian_gradient, moment, omega_eval, random_double_point,
    vertical_tangent,
)
from .errors import RSDualError
from .lax import global_lax, local_hamiltonian, local_lax, mu_of_v, v_vector
from .projective import (
    _fro, canonicalize, chart_index, from_chart, fs_omega_eval, involution, moment_J,
    moment_J_full, point_to_json, projective_distance, random_point, to_chart, vertex_points,
)
from .reduction import (
    _from_alpha, _relabel, action_variables, constraint_residual, duality, f_beta_inv,
    reduced_flow, section_F,
)
from .sun import (
    alcove_delta, alcove_point, dagger, random_special_unitary, random_su_algebra, scalar_product,
)

FD_STEP = 1e-5  # step of every central finite-difference check


def _central(values):
    """d/ds f(curve(s)) at s = 0 from values = (f(curve(FD_STEP)), f(curve(-FD_STEP))),
    one array of both: the one numerical derivative the checks take."""
    return (values[0] - values[1]) / (2.0 * FD_STEP)


def _chart_gradient(f, u, j, c):
    """Central-difference gradient of f (scalar- or vector-valued) in the real
    chart-j coordinates: row k is d/dq_k and row m + k is d/dp_k, where
    w_k = q_k + i p_k are the m = n-1 chart coordinates of u.  f runs once,
    on the stack (2, ..., 2m, n) of all 4m points w0 +- FD_STEP * axis of
    each point of u (..., n), each in its own chart j (...)."""
    w0 = to_chart(u, j)[..., None, :]
    m = w0.shape[-1]
    axes = np.concatenate((np.eye(m), 1j * np.eye(m)))
    step = np.reshape((FD_STEP, -FD_STEP), (2,) + (1,) * w0.ndim)
    return _central(f(from_chart(w0 + step * axes, np.expand_dims(j, -1), c)))


def _stack(p):
    return np.stack((p.A, p.B), axis=-3)


def _ends(p, v):
    """p + FD_STEP v and p - FD_STEP v, stacked on a new axis 0: the ends of
    the straight line through p along v."""
    s = np.reshape((FD_STEP, -FD_STEP), (2,) + (1,) * np.ndim(v.dA))
    return DoublePoint(p.A + s * v.dA, p.B + s * v.dB)


def _split(v):
    """The tangents along axis 0 of a stacked tangent v."""
    return (DoubleTangent(dA, dB) for dA, dB in zip(v.dA, v.dB))


def _push(f, p, v):
    """Pushforward of the tangent v at p through the map f of the double:
    the central difference along the line p + s v.  f is a polynomial in A,
    B and their adjoints, and d(A^dagger) = d(A^{-1}) on a tangent, so every
    curve through p with velocity v gives this derivative.  It is projected
    onto the tangent space at f(p) to remove its O(FD_STEP^2) normal part."""
    q = f(_ends(p, v))
    return DoubleTangent(_central(q.A), _central(q.B)).project(f(p))


# ---------------------------------------------------------------------------
# individual checks: each a draw and a residual function (see Stacked)


def _points(bias):
    """The draw of a cell whose trials draw one point each."""
    return lambda c, rng, count: {"u": random_point(c, rng, bias, count)}


def _unitaries_and_algebra(c, rng, count, m, k):
    """m SU(n) elements of each of count trials, then k elements of su(n) of
    each, as stacks (count, m or k, n, n) of one sampler call each."""
    g = random_special_unitary(c.n, rng, count * m).reshape(count, m, c.n, c.n)
    return g, random_su_algebra(c.n, rng, count * k).reshape(count, k, c.n, c.n)


def _alcove_and_uniform(c, rng, count, low, high, size):
    """random_shifted_alcove(c, rng, 0.02, count), then rng.uniform(low, high,
    (count, size))."""
    return random_shifted_alcove(c, rng, 0.02, count), rng.uniform(low, high, (count, size))


def _all_charts(u, c):
    """F_j(u) for j = 1..n of each point of a stack u (..., n), by one call;
    axis -3 of A and B runs over the charts."""
    shape = u.shape[:-1] + (c.n, c.n)
    return section_F(np.broadcast_to(u[..., None, :], shape), np.arange(1, c.n + 1), c)


def _draw_pullback(c, rng, count):
    # the points, then a and b of five pairs at each, as a.re, a.im, b.re, b.im
    return {"u": random_point(c, rng, 0.08, count),
            "ab": rng.standard_normal((count, 5, 4, 1, c.n - 1))}


def _check_pullback(c, U, Z):
    # |F_j^* omega(a, b) - chi0 omega_FS(a, b)| for five pairs (a, b) of
    # chart tangents at each point, one row per pair
    lead = np.shape(U)[:-1]
    j = chart_index(U)
    p0 = section_F(U, j, c)
    # one chart Jacobian of F_j per point: rows d/dq_k, then d/dp_k, of (A, B)
    jj = np.expand_dims(j, -1)
    jac = _chart_gradient(lambda uu: _stack(section_F(uu, jj, c)), U, j, c)
    jac = jac.reshape(lead + (2, c.n - 1, -1))
    # a and b of the pairs pushed as one stack of vector-matrix products,
    # axes (a or b, pair, ...)
    z = np.moveaxis(Z, (-4, -3), (1, 0))
    ab = z[0::2] + 1j * z[1::2]
    d = ab.real @ jac[..., 0, :, :] + ab.imag @ jac[..., 1, :, :]
    d = d.reshape((2, 5) + lead + (2, c.n, c.n))
    v = DoubleTangent(d[..., 0, :, :], d[..., 1, :, :]).project(p0)
    a, b = _split(v)
    r = abs(omega_eval(p0, a, b) - fs_omega_eval(U, ab[0, ..., 0, :], ab[1, ..., 0, :], j=j))
    return np.moveaxis(r, 0, -1)


def _check_constraint(c, U):
    return constraint_residual(_all_charts(U, c), c)


def _check_intertwine(c, U):
    # Xi of K(u), of the n chart A's and of the n chart B's by one call
    K = global_lax(U, c)[..., None, :, :]
    p = _all_charts(U, c)
    xi = alcove_point(np.concatenate((K, p.A, p.B), -3))
    xiA, xiB = xi[..., 1 : c.n + 1, :], xi[..., c.n + 1 :, :]
    jj = moment_J_full(U, c)[..., None, :]
    return np.maximum(np.abs(xiA - xi[..., :1, :]).max(-1), np.abs(xiB - jj).max(-1))


def _check_duality_squares(c, U):
    su = duality("S", U, c)
    ss = duality("S", np.stack((su, involution("C", su))), c)
    r1 = projective_distance(ss[0], involution("sigma", U))
    # R(R(u)) = C(S(C(S(u)))), from the same S(u)
    r2 = projective_distance(involution("C", ss[1]), U)
    return np.maximum(r1, r2)


def _check_duality_exchange(c, U):
    su = duality("S", U, c)
    xi = action_variables(np.stack((U, su)), c)
    r1 = np.abs(moment_J(su, c) - xi[0]).max(-1)
    r2 = np.abs(xi[1] - moment_J(U, c)[..., ::-1]).max(-1)
    return np.maximum(r1, r2)


def _check_mapclass_origin(c, U):
    labels = _relabel(U, c, lambda p: auto_apply("S", p), lambda p: auto_apply("nu", p))
    return projective_distance(labels[..., 0, :], _from_alpha(labels[..., 1, :], c))


def _check_dehn_decomposition(c, U):
    # nu (for S(u)), the Dehn flows and the twists T, Ttilde of one lift of u
    nu, T, Tt = ((lambda p, g=g: auto_apply(g, p)) for g in ("nu", "T", "Ttilde"))
    h = [InvariantHamiltonian("dehn", 1, side) for side in ("second", "first")]
    labels = _relabel(U, c, nu, lambda p: flow(p, h[0], 1.0), T, lambda p: flow(p, h[1], 1.0), Tt)
    su = _from_alpha(labels[..., 0, :], c)
    r1 = projective_distance(_relabel(su, c, lambda p: apply_word(["T", "Ttilde", "T"], p)), U)
    r2 = projective_distance(labels[..., 1, :], labels[..., 2, :])
    r3 = projective_distance(labels[..., 3, :], labels[..., 4, :])
    return np.maximum(np.maximum(r1, r2), r3)


def _draw_double(c, rng, count):
    p = random_double_point(c.n, rng, count)
    return {"A": p.A, "B": p.B}


def _check_central_twist(c, A, B):
    p = DoublePoint(A, B)
    q1, q2 = apply_word(["S", "S", "S", "S"], p), auto_apply("Q", p)
    return np.maximum(_fro(q1.A - q2.A), _fro(q1.B - q2.B))


def _draw_local_lax(c, rng, count):
    # an interior xi, then a torus element Theta = diag(e^{i theta}) of det 1
    xi, phases = _alcove_and_uniform(c, rng, count, 0, 2 * math.pi, c.n - 1)
    theta = np.exp(1j * np.concatenate((phases, -phases.sum(-1, keepdims=True)), -1))
    return {"xi": xi, "theta": theta}


def _check_lax_conjugation(c, xi, theta):
    L = local_lax(xi, theta, c)
    d = alcove_delta(xi)
    mu = mu_of_v(v_vector(xi, c)[0], c)
    return _fro(L @ d @ dagger(L) - mu @ d)


def _draw_lax_unitarity(c, rng, count):
    # one trial per cell: all local Lax draws come before the point draws
    drawn = _draw_local_lax(c, rng, count)
    u = (random_point(c, rng, count=count), vertex_points(c), vertex_points(c, 1e-4, rng))
    return {key: x[None] for key, x in drawn.items()} | {"u": np.concatenate(u)[None]}


def _check_lax_unitarity(c, xi, theta, u):
    # the one trial's local matrices, then K(u) of its points
    M = np.concatenate((local_lax(xi[0], theta[0], c), global_lax(u, c)[0]))
    det = np.linalg.det(M) - 1.0
    # |det - 1| by the scalar abs's bits; np.abs of an array differs
    return np.maximum(_fro(dagger(M) @ M - np.eye(c.n)), np.hypot(det.real, det.imag))


def _draw_lax_hamiltonian(c, rng, count):
    xi, p = _alcove_and_uniform(c, rng, count, -math.pi, math.pi, c.n)
    p[:, -1] = -p[:, :-1].sum(-1)
    return {"xi": xi, "p": p}


def _check_lax_hamiltonian(c, xi, p):
    H = local_hamiltonian(xi, p, c)
    L = local_lax(xi, np.exp(-1j * p), c)
    return abs(H - np.trace(L, 0, -2, -1).real)


def _draw_gradients(c, rng, count):
    # the X of every trial, then its four zetas for each of the n + 3 Hamiltonians
    X, zeta = _unitaries_and_algebra(c, rng, count, 1, 4 * c.n + 12)
    return {"X": X[:, 0], "zeta": zeta}


def _check_gradients(c, X, zeta):
    # d/ds h(X + s zeta X) at s = 0 against <zeta, grad h(X)>, a row per zeta
    kinds = [("spectral", j) for j in range(1, c.n)]
    kinds += [("re_trace", 1), ("re_trace", 2), ("im_trace", 1), ("dehn", 1)]
    rows = []
    for i, ham in enumerate(InvariantHamiltonian(*kind) for kind in kinds):
        grad = hamiltonian_gradient(ham, X)[:, None]
        z = zeta[:, 4 * i : 4 * i + 4]
        M = X[:, None] + np.multiply.outer((FD_STEP, -FD_STEP), z @ X[:, None])
        rows.append(abs(_central(ham.value(DoublePoint(M, M))) - scalar_product(z, grad)))
    return np.concatenate(rows, -1)


def _draw_xi(c, rng, count):
    return {"xi": random_shifted_alcove(c, rng, count=count)}


def _check_normalization(c, xi):
    return abs(v_vector(xi, c)[1].sum(-1) - 1.0)  # z = v^2 sums to one


def _check_mu_spectrum(c, xi):
    vs = v_vector(xi, c)[0]
    d = alcove_delta(xi)
    mu = mu_of_v(vs, c)
    e1 = np.sort(np.angle(np.linalg.eigvals(mu @ d)))
    e2 = np.sort(np.angle(np.diagonal(d, 0, -2, -1)))
    return np.abs(e1 - e2).max(-1)


def _draw_global_lax(c, rng, count):
    return {"u": random_point(c, rng, count=count), "gamma": rng.uniform(0, 2 * math.pi, count)}


def _check_global_lax(c, U, gamma):
    # K(u) and K(e^{i gamma} u) of every trial by one call
    K = global_lax(np.stack((U, np.exp(1j * gamma)[..., None] * U)), c)
    return _fro(K[1] - K[0])


def _draw_boundary_limit(c, rng, count):
    # point k of a trial on the wall u_k = 0; the re, then the im parts of
    # each point, by one call
    z = rng.standard_normal((count, c.n, 2, c.n))
    return {"u": np.where(np.eye(c.n, dtype=bool), 0.0, z[..., 0, :] + 1j * z[..., 1, :])}


def _check_boundary_limit(c, U):
    # one row per wall point, all n of each trial through each stage at once
    u0 = canonicalize(U, c)
    K0 = global_lax(u0, c)
    # step off the wall on the sphere |u|^2 = chi0 itself, so that the step
    # is 1e-8 sqrt(2) long whatever the scale of z
    wall = np.eye(c.n, dtype=bool)
    return _fro(global_lax(canonicalize(np.where(wall, 1e-8 * (1.0 + 1j), u0), c), c) - K0)


def _draw_poisson(c, rng, count):
    # n = 2 has no pair k < l to bracket: its trials draw nothing, and a
    # zero vector stands for their point
    return {"u": random_point(c, rng, 0.08, count) if c.n > 2 else np.zeros((count, c.n))}


def _check_poisson(c, U):
    # {Xi_k, Xi_l} = -(1/2) sum (f_q g_p - f_p g_q) of every pair k < l, in
    # np.triu_indices order, one row per pair: the scaled Fubini-Study form
    # is -2 sum dq ^ dp
    m = c.n - 1
    k, l = np.triu_indices(m, 1)
    if not len(k):
        return np.empty(np.shape(U)[:-1] + (0,))

    def actions(uu):
        return alcove_point(global_lax(uu, c))[..., :m]

    # one chart Jacobian of all Xi_k per point; row k - 1 is the gradient of Xi_k
    jac = np.ascontiguousarray(np.swapaxes(_chart_gradient(actions, U, chart_index(U), c), -1, -2))
    ga, gb = jac[..., k, :], jac[..., l, :]
    return abs(-0.5 * (np.vecdot(ga[..., :m], gb[..., m:]) - np.vecdot(ga[..., m:], gb[..., :m])))


def _check_conservation(c, U):
    # every point flowed to all seven times by one call, one time per row
    times = np.linspace(0.5, 10.0, 7)
    ham = InvariantHamiltonian("re_trace", 1, "first")
    shape = U.shape[:-1] + (len(times), c.n)
    ut = reduced_flow(np.broadcast_to(U[..., None, :], shape), ham, times, c)
    # the actions of the start point and of the flowed points by one call
    xi = action_variables(np.concatenate((U[..., None, :], ut), -2), c)
    return np.abs(xi[..., 1:, :] - xi[..., :1, :]).max(-1)


def _check_polytope_image(c, U):
    # J and Xi o K of every point as one (..., 2, n) stack
    vec = np.stack((moment_J_full(U, c), alcove_point(global_lax(U, c))), -2)
    r = np.maximum((c.y - vec).max(-1), abs(vec.sum(-1) - math.pi))
    return np.maximum(r, 0.0)


def _draw_polytope_vertices(c, rng, _count):
    # one trial per cell, whatever the count: vertex_points draws all n
    # perturbations at once
    return {"u": np.array(vertex_points(c, eps=1e-4, rng=rng))[None]}


def _check_polytope_vertices(c, U):
    # each vertex of the polytope must be approached by J on near-vertex
    # points and by Xi o K on their duality preimages
    vert = c.y + c.chi0 * np.eye(c.n, c.n - 1)  # row k: the vertex next to U[..., k, :]
    r1 = np.abs(moment_J(U, c) - vert).max(-1)
    r2 = np.abs(action_variables(duality("S_inv", U, c), c) - vert).max(-1)
    return np.maximum(r1, r2)


def _draw_axiom_a2(c, rng, count):
    # the points, then zeta, X and Y of each of three tangents at each
    AB, zxy = _unitaries_and_algebra(c, rng, count, 2, 9)
    return {"A": AB[:, 0], "B": AB[:, 1], "zxy": zxy.reshape(-1, 3, 3, c.n, c.n)}


def _check_axiom_a2(c, A, B, zxy):
    # omega(zeta_M, v) = (1/2) <mu^{-1} dmu(v) + dmu(v) mu^{-1}, zeta> for
    # the three (zeta, v = (A X, B Y)) of each point, one row each
    p = DoublePoint(A[:, None], B[:, None])
    zeta, X, Y = zxy[:, :, 0], zxy[:, :, 1], zxy[:, :, 2]
    v = geodesic_tangent(p, X, Y)
    dmu = _central(moment(_ends(p, v)))
    mu_inv = dagger(moment(p))
    rhs = 0.5 * scalar_product(mu_inv @ dmu + dmu @ mu_inv, zeta)
    return abs(omega_eval(p, vertical_tangent(p, zeta), v) - rhs)


def _draw_equivariance(c, rng, count):
    g = random_special_unitary(c.n, rng, 3 * count).reshape(-1, 3, c.n, c.n)
    return {"A": g[:, 0], "B": g[:, 1], "g": g[:, 2]}


def _check_equivariance(c, A, B, g):
    p = DoublePoint(A, B)
    return _fro(moment(conjugate(p, g)) - g @ moment(p) @ dagger(g))


def _draw_flow_moment(c, rng, count):
    p = random_double_point(c.n, rng, count)
    return {"A": p.A, "B": p.B, "t": rng.uniform(-5, 5, count)}


def _check_flow_moment(c, A, B, t):
    # mu along the flow of each Hamiltonian for time t, one row each
    hams = [("spectral", 1, "first"), ("spectral", 1, "second"), ("re_trace", 2, "first"),
            ("im_trace", 1, "second"), ("dehn", 1, "first")]
    p = DoublePoint(A, B)
    mu = moment(p)
    return np.stack([_fro(moment(flow(p, InvariantHamiltonian(*h), t)) - mu) for h in hams], -1)


def _draw_omega_morphisms(c, rng, count):
    # the points, then X and Y of v, then of w, at each
    AB, XY = _unitaries_and_algebra(c, rng, count, 2, 4)
    return {"A": AB[:, 0], "B": AB[:, 1], "XY": XY.reshape(-1, 2, 2, c.n, c.n)}


def _check_omega_morphisms(c, A, B, XY):
    # omega(f_* v, f_* w) = +-omega(v, w) for each generator f, one row each
    p = DoublePoint(A, B)
    # v and w as one stacked tangent, axis 0
    vw = geodesic_tangent(p, np.moveaxis(XY[:, :, 0], 1, 0), np.moveaxis(XY[:, :, 1], 1, 0))
    v, w = _split(vw)
    val = omega_eval(p, v, w)
    rows = []
    for gen, sign in (("S", 1.0), ("T", 1.0), ("Ttilde", 1.0), ("nu", -1.0)):
        f = lambda q, g=gen: auto_apply(g, q)
        rows.append(abs(omega_eval(f(p), *_split(_push(f, p, vw))) - sign * val))
    return np.stack(rows, -1)


def _check_section_consistency(c, U):
    labels = f_beta_inv(_all_charts(U, c), c)  # (..., chart, n)
    return projective_distance(labels[..., :1, :], labels[..., 1:, :]).max(-1)


# A check: draw(c, rng, count) makes the draws of a cell's count trials,
# samples // per but at least one (_run_cell; per = 1 unless set), by name,
# in order, each variable by one public sampler or rng call (A and B of the
# double share one) as a stack with the trials on axis 0; residuals(c,
# *stacks) evaluates a group of trials, one call a stage.  lax-unitarity stacks its count draws
# into one trial, and polytope-vertices draws one trial of n near-vertex
# points whatever the count.
Stacked = namedtuple("Stacked", "residuals draw per", defaults=(1,))

# Most matrix entries one stacked call holds.  No trial but lax-unitarity's
# one (count local matrices through one local_lax call, count + 2n points
# through one global_lax call) puts more than 4n points, 4n n x n
# matrices, through one call (a chart Jacobian takes 4(n - 1)), so a group
# holds max(1, STACK_ENTRIES // (4 n^3)) trials: a whole cell at n <= 4,
# 8 trials at n = 16, one trial from n = 32 on.
STACK_ENTRIES = 2**17


# name: (check, tolerance)
CHECKS = {
    "constraint": (Stacked(_check_constraint, _points(0.02)), 1e-10),
    "pullback": (Stacked(_check_pullback, _draw_pullback), 1e-5),
    "intertwine": (Stacked(_check_intertwine, _points(0.02)), 1e-9),
    "duality-squares": (Stacked(_check_duality_squares, _points(0.0)), 1e-8),
    "duality-exchange": (Stacked(_check_duality_exchange, _points(0.0)), 1e-8),
    "mapclass-origin": (Stacked(_check_mapclass_origin, _points(0.0)), 1e-8),
    "dehn-decomposition": (Stacked(_check_dehn_decomposition, _points(0.0)), 1e-8),
    "central-twist": (Stacked(_check_central_twist, _draw_double), 1e-10),
    "lax-conjugation": (Stacked(_check_lax_conjugation, _draw_local_lax), 1e-10),
    "lax-unitarity": (Stacked(_check_lax_unitarity, _draw_lax_unitarity), 1e-9),
    "lax-hamiltonian": (Stacked(_check_lax_hamiltonian, _draw_lax_hamiltonian), 1e-12),
    "gradients": (Stacked(_check_gradients, _draw_gradients, 10), 1e-6),
    "normalization": (Stacked(_check_normalization, _draw_xi), 1e-12),
    "mu-spectrum": (Stacked(_check_mu_spectrum, _draw_xi), 1e-10),
    "global-lax": (Stacked(_check_global_lax, _draw_global_lax), 1e-9),
    "boundary-limit": (Stacked(_check_boundary_limit, _draw_boundary_limit, 5), 1e-6),
    "poisson": (Stacked(_check_poisson, _draw_poisson), 1e-5),
    "conservation": (Stacked(_check_conservation, _points(0.0), 10), 1e-8),
    "polytope-image": (Stacked(_check_polytope_image, _points(0.0)), 1e-9),
    "polytope-vertices": (Stacked(_check_polytope_vertices, _draw_polytope_vertices), 1e-3),
    "axiom-a2": (Stacked(_check_axiom_a2, _draw_axiom_a2, 10), 1e-5),
    "equivariance": (Stacked(_check_equivariance, _draw_equivariance), 1e-12),
    "flow-moment": (Stacked(_check_flow_moment, _draw_flow_moment, 5), 1e-10),
    "omega-morphisms": (Stacked(_check_omega_morphisms, _draw_omega_morphisms, 10), 1e-5),
    "section-consistency": (Stacked(_check_section_consistency, _points(0.03)), 1e-9),
}


@dataclass
class SuiteConfig:
    """Configuration of a verification sweep.

    y_rule is None (the default coupling y = pi/(2n) of every n), one y for
    every n, or a list with one entry per n, each a y or None.  samples and
    seed are ints >= 0; samples = 0 runs one trial per cell (see CHECKS).
    checks is a sequence (not a str) of stripped, non-empty substrings of
    check names.  A bad config raises ValueError.
    """

    n_list: tuple = (2, 3)
    y_rule: object = None
    samples: int = 50
    seed: int = 0
    checks: tuple = ()

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("n_list is empty; a sweep needs at least one n")
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (self.samples, self.seed)):
            raise ValueError(f"samples, seed must be ints >= 0, got {self.samples}, {self.seed}")
        if isinstance(self.checks, str):
            raise ValueError(f"checks must be a sequence, not the str {self.checks!r}")
        twice = sorted({n for n in self.n_list if self.n_list.count(n) > 1})
        if twice:
            raise ValueError(f"n_list repeats n = {twice}; each n runs once")
        ys = self.y_rule
        if not (ys is None or np.isscalar(ys)) and len(ys) != len(self.n_list):
            raise ValueError(f"y list has {len(ys)} entries, n_list {len(self.n_list)}")
        self.couplings()  # every (n, y) must make a Coupling
        self.checks = tuple(term.strip() for term in self.checks)
        for term in self.checks:
            if not term:
                raise ValueError(f"empty check selector in {','.join(self.checks)!r}")
            if not any(term in name for name in CHECKS):
                raise ValueError(f"no check matches selector {term!r}")

    def couplings(self):
        ys = self.y_rule
        if ys is None or np.isscalar(ys):
            ys = [ys] * len(self.n_list)
        return [
            Coupling.default(n) if y is None else Coupling(n, float(y))
            for n, y in zip(self.n_list, ys)
        ]

    def selected_checks(self):
        hits = (name for term in self.checks for name in CHECKS if term in name)
        return list(dict.fromkeys(hits)) if self.checks else list(CHECKS)


@dataclass
class CheckResult:
    name: str
    n: int
    y: float
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    wall_time: float
    failure: dict = None

    def to_json(self):
        fields = asdict(self)
        if self.failure is None:
            del fields["failure"]
        return fields


# the versions a report names in its header
VERSIONS = {
    "rsdual": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
    "python": platform.python_version(),
}


@dataclass
class SuiteReport:
    """The cells of a run_suite call and the run's total wall_time."""

    results: list
    seed: int
    wall_time: float

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "wall_time": self.wall_time,
            "versions": dict(VERSIONS),
            "git_sha": _git_sha(),
            "checks": [r.to_json() for r in self.results],
        }


def _git_sha():
    """HEAD of the git checkout the package runs from; None outside one."""
    git = ["git", "-C", os.path.dirname(__file__), "rev-parse", "--verify", "-q", "HEAD"]
    try:
        return subprocess.run(git, capture_output=True, text=True).stdout.strip() or None
    except OSError:  # no git
        return None


def _run_cell(name, c, cfg):
    """Run one (check, n) cell: draw all its trials on the cell's own rng,
    then evaluate them in consecutive groups bounded by STACK_ENTRIES.

    A row over tolerance, or a trial raising a library error or ValueError,
    fails the cell; the first failure in trial order is reported, its "data"
    the trial's draw by name, and the other trials' rows still count.  Any
    other exception, numpy's AxisError (a ValueError) among them, is a bug
    and propagates.  A row's "data" names its "row" too: its index among
    the trial's rows, in the order its residual function gives them.
    """
    check, tol = CHECKS[name]
    rng = np.random.default_rng([cfg.seed, list(CHECKS).index(name), c.n])
    start = time.perf_counter()
    drawn = check.draw(c, rng, max(1, cfg.samples // check.per))
    trials = len(next(iter(drawn.values())))
    size = max(1, STACK_ENTRIES // (4 * c.n**3))
    groups = (range(first, min(first + size, trials)) for first in range(0, trials, size))
    blocks = [b for group in groups for b in _trials(check.residuals, c, drawn, group)]
    residuals, failure = [], None
    for first, rows in blocks:
        if isinstance(rows, Exception):
            if failure is None:
                error = {"trial": first, "error": type(rows).__name__, "message": str(rows)}
                failure = {**error, "data": _to_json(drawn, first)}
            continue
        bad = failure is None and ~(rows <= tol)  # so that NaN fails
        if np.any(bad):
            at = int(np.argmax(bad))
            data = {"row": at % rows.shape[1], **_to_json(drawn, first + at // rows.shape[1])}
            index = sum(map(np.size, residuals)) + at
            failure = {"sample_index": index, "residual": float(rows.flat[at]), "data": data}
        residuals.append(rows.ravel())
    residuals = np.concatenate(residuals) if residuals else np.empty(0)
    wall = time.perf_counter() - start
    return CheckResult(
        name=name,
        n=c.n,
        y=c.y,
        samples=residuals.size,
        max_residual=float(np.max(residuals)) if residuals.size else 0.0,
        tolerance=tol,
        passed=failure is None,
        wall_time=wall,
        failure=failure,
    )


def _to_json(drawn, i):
    """Trial i's draw as JSON, entry by entry, a complex one by point_to_json."""
    return {key: point_to_json(x[i]) if np.iscomplexobj(x) else x[i].tolist()
            for key, x in drawn.items()}


def _trials(residuals, c, drawn, group):
    """The blocks (first trial, rows, a row of residuals per trial) of a
    group (a range of trials): one, by one call on the group's rows of each
    drawn stack, each laid out as one array.  If the call raises, each trial
    is evaluated alone and gives its block or (trial, the exception it
    raises alone), so that the other trials' rows still count."""
    stacks = [np.ascontiguousarray(x[group.start : group.stop]) for x in drawn.values()]
    try:
        return [(group.start, np.reshape(residuals(c, *stacks), (len(group), -1)))]
    except np.exceptions.AxisError:
        raise
    except (RSDualError, ValueError) as exc:
        if len(group) == 1:
            return [(group.start, exc)]
        return [b for i in group for b in _trials(residuals, c, drawn, range(i, i + 1))]


def run_suite(cfg):
    """Run the selected checks over the configured couplings."""
    start = time.perf_counter()
    couplings = cfg.couplings()
    names = cfg.selected_checks()
    results = [_run_cell(name, c, cfg) for name in names for c in couplings]
    return SuiteReport(results=results, seed=cfg.seed, wall_time=time.perf_counter() - start)
