"""Sections, orbit labels, toric intertwinings, duality, mapping classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from rsdual.coupling import Coupling, check_shifted_alcove, random_shifted_alcove
from rsdual.double import (
    DoublePoint,
    DoubleTangent,
    InvariantHamiltonian,
    auto_apply,
    conjugate,
    hamiltonian_gradient,
    moment,
    omega_eval,
    random_double_point,
    rho_embedding,
)
from rsdual.errors import ChartViolation, ConstraintViolation
from rsdual.lax import _lambda_parts, global_lax, local_lax, reflection_g, v_vector, w_factors
from rsdual.projective import (
    CHART_TOL,
    canonicalize,
    chart_index,
    e_param,
    from_chart,
    fs_omega_eval,
    involution,
    moment_J_full,
    projective_distance,
    random_point,
    to_chart,
    vertex_points,
)
from rsdual import reduction
from rsdual.reduction import (
    _chart_lift,
    action_variables,
    constraint_residual,
    duality,
    f_alpha,
    f_alpha_inv,
    f_beta_inv,
    mapclass_on_P,
    reduced_flow,
    reduced_trajectory,
    section_F,
)
from rsdual.sun import alcove_delta, alcove_point, dagger, spectral_xi
from rsdual.verify import FD_STEP

RNG = np.random.default_rng(31415)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_duality_exchange_property(n, seed):
    # J o S = Xi o K and (Xi o K) o S = reversed J, for arbitrary points
    rng = np.random.default_rng(seed)
    c = Coupling.default(n)
    u = random_point(c, rng)
    su = duality("S", u, c)
    jj = moment_J_full(u, c)[: n - 1]
    assert np.abs(moment_J_full(su, c)[: n - 1] - action_variables(u, c)).max() < 1e-8
    assert np.abs(action_variables(su, c) - jj[::-1]).max() < 1e-8


def rand_u(c, bias=0.0):
    return random_point(c, RNG, interior_bias=bias)


def delta_embedding(theta, n, j=None):
    """Diagonal embeddings Delta(tau) = diag(tau_1, ..., tau_{n-1}, 1) and
    their chart variants Delta_j with slots j and n swapped."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n - 1,):
        raise ValueError(f"need {n - 1} angles")
    d = np.append(np.exp(1j * theta), 1.0)
    if j is not None and j != n:
        d[[j - 1, n - 1]] = d[[n - 1, j - 1]]
    return np.diag(d)


def section_local(xi, theta, c):
    """Interior section built from the local Lax matrix:
    (g_y^{-1} L(delta, rho(tau)^{-1}) g_y, g_y^{-1} delta g_y)."""
    xi = check_shifted_alcove(xi, c)
    v, _ = v_vector(xi, c)
    g = reflection_g(v, len(v)).astype(complex)
    rho_inv = np.conjugate(np.diagonal(rho_embedding(np.asarray(theta, float), c.n)))
    L = local_lax(xi, rho_inv, c)
    delta = alcove_delta(xi)
    gi = dagger(g)
    return DoublePoint(gi @ L @ g, gi @ delta @ g)


def stabilizer_element(n, rng):
    """Random element of the U(n) stabilizer of mu0 (block U(n-1) x U(1))."""
    from rsdual.sun import random_special_unitary

    h = np.zeros((n, n), dtype=complex)
    block = random_special_unitary(n - 1, rng) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    h[: n - 1, : n - 1] = block
    h[n - 1, n - 1] = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constraint_residual_matches_mu_mu0_inverse_formula(n):
    # |AB - mu0 BA|_F is |mu mu0^{-1} - 1|_F, since right multiplication by
    # the unitary BA mu0^{-1} keeps the Frobenius norm.  Random pairs agree
    # to 1e-15 relative; on constrained pairs both are rounding noise of
    # size ~6e-15 (the four-product formula's own error), so they agree to
    # 1e-14
    c = Coupling.default(n)

    def old_residual(p):
        return np.linalg.norm(moment(p) @ dagger(c.mu0) - np.eye(n))

    for _ in range(50):
        u = rand_u(c)
        p = section_F(u, chart_index(u), c)
        assert abs(constraint_residual(p, c) - old_residual(p)) <= 1e-14
        p = random_double_point(n, RNG)
        old = old_residual(p)
        assert abs(constraint_residual(p, c) - old) <= 1e-15 * old


@pytest.mark.parametrize("n", [2, 3, 4])
def test_section_moment_residual_every_chart(n):
    c = Coupling.default(n)
    for _ in range(20):
        u = rand_u(c, bias=0.05)
        for j in range(1, n + 1):
            p = section_F(u, j, c)
            assert constraint_residual(p, c) < 1e-10
            for m in (p.A, p.B):
                assert np.linalg.norm(m.conj().T @ m - np.eye(n)) <= 1e-9
                assert abs(np.linalg.det(m) - 1.0) <= 1e-9


def test_smooth_chart_gauge_is_unitary_everywhere():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        pts = [rand_u(c) for _ in range(10)]
        # boundary-ish points with one tiny coordinate
        for k in range(n):
            z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            z[k] = 1e-9 * z[k]
            pts.append(canonicalize(z, c))
        for u in pts:
            j = chart_index(u)
            G = _chart_lift(u, j, c)[2]
            assert np.linalg.norm(dagger(G) @ G - np.eye(n)) < 1e-10


def test_smooth_chart_gauge_interior_formula():
    # on the dense part G_y^j(u) = Delta(tau)^{-1} g_y^j(xi) Delta_j(tau)
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(10):
            xi = random_shifted_alcove(c, RNG, margin=0.04)
            theta = RNG.uniform(0, 2 * math.pi, n - 1)
            u = e_param(xi, theta, c)
            delta_n = delta_embedding(theta, n)
            v, _ = v_vector(xi, c)
            for j in range(1, n + 1):
                expected = (
                    dagger(delta_n) @ reflection_g(v, j) @ delta_embedding(theta, n, j)
                )
                assert np.linalg.norm(_chart_lift(u, j, c)[2] - expected) < 1e-12


def test_section_intertwines_toric_maps():
    # Xi(B-part) = J-full(u); Xi(A-part) = Xi(K(u)), every chart
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(10):
            u = rand_u(c, bias=0.03)
            xiK = spectral_xi(global_lax(u, c))[0]
            for j in range(1, n + 1):
                p = section_F(u, j, c)
                assert np.abs(spectral_xi(p.B)[0] - moment_J_full(u, c)).max() < 1e-9
                assert np.abs(spectral_xi(p.A)[0] - xiK).max() < 1e-9


def test_section_charts_agree_on_overlaps():
    for n in (2, 3):
        c = Coupling.default(n)
        u = rand_u(c, bias=0.05)
        labels = [f_beta_inv(section_F(u, j, c), c) for j in range(1, n + 1)]
        for lab in labels[1:]:
            assert projective_distance(labels[0], lab) < 1e-9


def test_section_representative_independent_of_input_phase():
    # F_j(e^{i gamma} u) = F_j(u) in every chart that contains u: interior
    # points, points with one |u_k|^2 next to a wall, and near-vertices
    for n in (2, 3, 4, 8):
        c = Coupling.default(n)
        pts = [rand_u(c, bias=0.05) for _ in range(3)]
        for wall in (1e-5, 1e-8, 1e-12):
            z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            k = int(RNG.integers(n))
            z[k] = 0.0
            z *= math.sqrt(c.chi0 - wall) / np.linalg.norm(z)
            z[k] = math.sqrt(wall) * np.exp(1j * RNG.uniform(0, 2 * math.pi))
            pts.append(z)
        pts += vertex_points(c, eps=1e-4, rng=RNG)
        for u in pts:
            for j in range(1, n + 1):
                if abs(u[j - 1]) <= CHART_TOL:
                    continue
                p1 = section_F(u, j, c)
                for gamma in (1.3, -2.9, RNG.uniform(0, 2 * math.pi)):
                    p2 = section_F(np.exp(1j * gamma) * u, j, c)
                    assert np.linalg.norm(p1.A - p2.A) < 1e-12
                    assert np.linalg.norm(p1.B - p2.B) < 1e-12


def test_section_local_agrees_with_charts():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG, margin=0.05)
        theta = RNG.uniform(0, 2 * math.pi, n - 1)
        u = e_param(xi, theta, c)
        p0 = section_local(xi, theta, c)
        assert constraint_residual(p0, c) < 1e-10
        assert projective_distance(f_beta_inv(p0, c), u) < 1e-9


def test_section_chart_violation():
    c = Coupling.default(3)
    u = np.zeros(3, dtype=complex)
    u[2] = math.sqrt(c.chi0)
    with pytest.raises(ChartViolation):
        section_F(u, 1, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_f_beta_inv_round_trip_all_charts(n):
    c = Coupling.default(n)
    for _ in range(15):
        u = rand_u(c, bias=0.02)
        for j in range(1, n + 1):
            ub = f_beta_inv(section_F(u, j, c), c)
            assert projective_distance(ub, u) < 1e-9


def test_f_beta_inv_boundary_points():
    # points with a vanishing coordinate still reconstruct correctly
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for k in range(n):
            z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            z[k] = 0.0
            u = canonicalize(z, c)
            j = chart_index(u)
            ub = f_beta_inv(section_F(u, j, c), c)
            assert projective_distance(ub, u) < 1e-9


@pytest.mark.parametrize("delta", [1e-9, 5e-9, 5e-8])
def test_f_beta_inv_accepts_xi_just_below_a_wall(delta):
    # B carries xi_1 = y - delta: the pair is constrained to ~3 delta, inside
    # the 1e-6 bound, and xi sits within the 1e-7 wall tolerance, so the
    # label must come back next to the wall point instead of raising
    c = Coupling.default(3)
    rng = np.random.default_rng(3)
    for _ in range(3):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z[0] = 0.0
        u = canonicalize(z, c)
        j = chart_index(u)
        G = _chart_lift(u, j, c)[2]
        xi = moment_J_full(u, c)
        xi[0] -= delta
        xi[1] += delta
        p = DoublePoint(section_F(u, j, c).A, dagger(G) @ alcove_delta(xi) @ G)
        assert constraint_residual(p, c) < 1e-6
        # |u_k| = sqrt(xi_k - y) moves by at most delta / (2 |u_k|) in the
        # two slots that take up the clipped delta
        bound = delta / np.min(np.abs(u[1:]))
        assert projective_distance(f_beta_inv(p, c), u) <= bound


def ref_f_beta_inv(p, c):
    """f_beta_inv with its torus phases and chart read-off as entry loops."""
    n = c.n
    xi, g = spectral_xi(p.B)
    lam = _lambda_parts(np.maximum(xi, c.y), c)[0]
    K0 = g @ p.A @ dagger(g)
    zeta = np.ones(n, dtype=complex)
    for k in range(1, n):
        ratio = K0[k - 1, k] / lam[k - 1, k]
        zeta[k] = zeta[k - 1] * ratio / abs(ratio)
    K = zeta[:, None] * K0 * np.conjugate(zeta)[None, :]
    j = int(np.argmax(xi))
    col = (j + 1) % n
    rj = math.sqrt(xi[j] - c.y)
    u = np.empty(n, dtype=complex)
    u[j] = rj
    for k in range(n):
        if k != j:
            u[k] = np.conjugate(K[k, col] / (rj * lam[k, col]))
    return canonicalize(u, c)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_f_beta_inv_matches_entry_loops(n):
    c = Coupling.default(n)
    rng = np.random.default_rng([17, n])
    for k in range(n):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z[k] = 0.0
        for u in (canonicalize(z, c), rand_u(c)):
            for j in range(1, n + 1):
                if abs(u[j - 1]) > CHART_TOL:
                    p = conjugate(section_F(u, j, c), stabilizer_element(n, rng))
                    assert np.abs(f_beta_inv(p, c) - ref_f_beta_inv(p, c)).max() < 1e-12


def test_f_beta_inv_gauge_invariance():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c, bias=0.05)
    p = section_F(u, chart_index(u), c)
    for _ in range(20):
        h = stabilizer_element(n, RNG)
        assert projective_distance(f_beta_inv(conjugate(p, h), c), u) < 1e-9


def test_f_beta_inv_rejects_off_constraint():
    n = 3
    c = Coupling.default(n)
    from rsdual.double import random_double_point

    with pytest.raises(ConstraintViolation):
        f_beta_inv(random_double_point(n, RNG), c)


def test_f_beta_inv_moment_map_identity():
    n = 4
    c = Coupling.default(n)
    u = rand_u(c)
    p = section_F(u, chart_index(u), c)
    assert np.abs(moment_J_full(f_beta_inv(p, c), c) - spectral_xi(p.B)[0]).max() < 1e-9


def test_f_alpha_toric_values():
    # Xi(A) = J(u), Xi_k(B) = Xi_{n-k}(K(u))
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(10):
            u = rand_u(c)
            rep = f_alpha(u, c)
            assert constraint_residual(rep, c) < 1e-10
            assert np.abs(spectral_xi(rep.A)[0] - moment_J_full(u, c)).max() < 1e-9
            xiK = spectral_xi(global_lax(u, c))[0]
            flip = np.concatenate([xiK[: n - 1][::-1], xiK[n - 1 :]])
            assert np.abs(spectral_xi(rep.B)[0] - flip).max() < 1e-9


def test_f_alpha_matches_local_formula():
    # interior formula: (delta(xi), L_{-y}(delta, rho(tau))) conjugated by
    # the reversed-coupling reflection lies in the same gauge orbit
    for n in (2, 3):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG, margin=0.05)
        theta = RNG.uniform(0, 2 * math.pi, n - 1)
        u = e_param(xi, theta, c)
        rho = np.diagonal(rho_embedding(theta, n))
        # L(delta, rho; -y) = L(delta, 1)^dagger rho and v(xi, -y) has the
        # components sqrt(sin y / sin ny) W_k(delta, -y)
        L_neg = dagger(local_lax(xi, np.ones(n), c)) * rho
        v_neg = math.sqrt(math.sin(c.y) / math.sin(n * c.y)) * w_factors(xi, c)[1]
        g_neg = reflection_g(v_neg, len(v_neg)).astype(complex)
        rep2 = DoublePoint(
            dagger(g_neg) @ alcove_delta(xi) @ g_neg, dagger(g_neg) @ L_neg @ g_neg
        )
        assert constraint_residual(rep2, c) < 1e-9
        lhs = f_beta_inv(rep2, c)
        rhs = f_beta_inv(f_alpha(u, c), c)
        assert projective_distance(lhs, rhs) < 1e-8


def test_f_alpha_inv_round_trip():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    assert projective_distance(f_alpha_inv(f_alpha(u, c), c), u) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_duality_exchange(n):
    c = Coupling.default(n)
    for _ in range(25):
        u = rand_u(c)
        su = duality("S", u, c)
        xiK = action_variables(u, c)
        assert np.abs(moment_J_full(su, c)[: n - 1] - xiK).max() < 1e-8
        assert np.abs(action_variables(su, c) - moment_J_full(u, c)[: n - 1][::-1]).max() < 1e-8


@pytest.mark.parametrize("n", [3, 4])
def test_duality_squares(n):
    c = Coupling.default(n)
    for _ in range(25):
        u = rand_u(c)
        ssu = duality("S", duality("S", u, c), c)
        assert projective_distance(ssu, involution("sigma", u)) < 1e-8
        rru = duality("R", duality("R", u, c), c)
        assert projective_distance(rru, u) < 1e-8


def test_duality_square_is_identity_n2():
    c = Coupling.default(2)
    for _ in range(25):
        u = rand_u(c)
        assert projective_distance(duality("S", duality("S", u, c), c), u) < 1e-8


def test_duality_inverse():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    assert projective_distance(duality("S_inv", duality("S", u, c), c), u) < 1e-9
    assert projective_distance(duality("S", duality("S_inv", u, c), c), u) < 1e-9


def test_duality_R_swaps_exactly():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    ru = duality("R", u, c)
    assert np.abs(moment_J_full(ru, c)[: n - 1] - action_variables(u, c)).max() < 1e-8
    assert np.abs(action_variables(ru, c) - moment_J_full(u, c)[: n - 1]).max() < 1e-8


def test_intertwine_identity():
    # f_beta^{-1} f_alpha = Gamma o (f_beta^{-1} f_alpha) o C, pointwise
    for n in (2, 3, 4):
        c = Coupling.default(n)
        u = rand_u(c)
        lhs = duality("S_inv", u, c)
        rhs = canonicalize(
            involution(
                "Gamma", duality("S_inv", canonicalize(involution("C", u), c), c)
            ),
            c,
        )
        assert projective_distance(lhs, rhs) < 1e-8


def test_flip_identities_for_trace_hamiltonians():
    # (h o K) o S = h-flip o (delta o J) for h = Re tr(.^m) and Xi_k
    for n in (2, 3):
        c = Coupling.default(n)
        u = rand_u(c)
        su = duality("S", u, c)
        d = alcove_delta(moment_J_full(u, c))
        Ksu = global_lax(su, c)
        for m in (1, 2):
            lhs = np.trace(np.linalg.matrix_power(Ksu, m)).real
            rhs = np.trace(np.linalg.matrix_power(dagger(d), m)).real
            assert abs(lhs - rhs) < 1e-8
        # and the other direction: (h o delta o J) o S = h o K
        dsu = alcove_delta(moment_J_full(su, c))
        K = global_lax(u, c)
        for m in (1, 2):
            assert abs(np.trace(np.linalg.matrix_power(dsu, m)) - np.trace(np.linalg.matrix_power(K, m))) < 1e-8


def test_mapclass_single_s_is_duality():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(10):
            u = rand_u(c)
            assert projective_distance(mapclass_on_P(["S"], u, c), duality("S", u, c)) < 1e-8


def test_mapclass_dehn_decomposition():
    # S_P = (T_P Ttilde_P T_P)^{-1}: applying the word after S gives the identity
    for n in (2, 3):
        c = Coupling.default(n)
        for _ in range(10):
            u = rand_u(c)
            su = duality("S", u, c)
            assert projective_distance(mapclass_on_P(["T", "Ttilde", "T"], su, c), u) < 1e-8


def test_mapclass_empty_word():
    c = Coupling.default(3)
    u = rand_u(c)
    assert projective_distance(mapclass_on_P([], u, c), u) < 1e-14


def test_mapclass_rejects_unknown():
    c = Coupling.default(3)
    with pytest.raises(ValueError):
        mapclass_on_P(["X"], rand_u(c), c)


def test_dehn_flows_reproduce_twists():
    for n in (2, 3):
        c = Coupling.default(n)
        u = rand_u(c)
        tw = reduced_flow(u, InvariantHamiltonian("dehn", 1, "second"), 1.0, c)
        assert projective_distance(tw, mapclass_on_P(["T"], u, c)) < 1e-8
        tw2 = reduced_flow(u, InvariantHamiltonian("dehn", 1, "first"), 1.0, c)
        assert projective_distance(tw2, mapclass_on_P(["Ttilde"], u, c)) < 1e-8


def test_reduced_beta_flow_is_rotation():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c, bias=0.05)
    t = 0.8
    for j in (1, 2):
        got = reduced_flow(u, InvariantHamiltonian("spectral", j, "second"), t, c)
        th = np.zeros(n - 1)
        th[j - 1] = t
        from rsdual.projective import rot_action

        assert projective_distance(got, canonicalize(rot_action(th, u), c)) < 1e-9


def test_reduced_flows_2pi_periodic():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    for side in ("first", "second"):
        got = reduced_flow(u, InvariantHamiltonian("spectral", 1, side), 2 * math.pi, c)
        assert projective_distance(got, u) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_action_variables_take_any_phase(n):
    # K(u) depends only on the phase class, so Xi o K is the same on every
    # representative of the point
    c = Coupling.default(n)
    rng = np.random.default_rng(n)
    for _ in range(10):
        u = random_point(c, rng)
        xiK = action_variables(u, c)
        turned = np.exp(1j * rng.uniform(0, 2 * math.pi)) * u
        assert np.abs(action_variables(turned, c) - xiK).max() < 1e-13


def test_reduced_trace_flow_conserves_actions():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    xiK = action_variables(u, c)
    ham = InvariantHamiltonian("re_trace", 1, "first")
    for t in np.linspace(0.0, 10.0, 9):
        ut = reduced_flow(u, ham, float(t), c)
        assert np.abs(action_variables(ut, c) - xiK).max() < 1e-8


def test_reduced_flow_conserves_complementary_map():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    # side 'second' Hamiltonians conserve J
    ham = InvariantHamiltonian("im_trace", 2, "second")
    ut = reduced_flow(u, ham, 3.7, c)
    assert np.abs(moment_J_full(ut, c) - moment_J_full(u, c)).max() < 1e-9


def test_reduced_trajectory_schema():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    rows = list(reduced_trajectory(u, InvariantHamiltonian("re_trace", 1, "first"), 2.0, 4, c))
    assert len(rows) == 5
    k, t, ut, J, xiK = rows[-1]
    assert k == 4 and abs(t - 2.0) < 1e-14
    assert J.shape == (n - 1,) and xiK.shape == (n - 1,)
    assert projective_distance(rows[0][2], u) < 1e-10


def expm_flow(p, h, t):
    """The unreduced flow through the matrix exponential of the gradient."""
    if h.side == "first":
        return DoublePoint(p.A, p.B @ expm(-t * hamiltonian_gradient(h, p.A)))
    return DoublePoint(p.A @ expm(t * hamiltonian_gradient(h, p.B)), p.B)


@pytest.mark.parametrize(
    "kind,side",
    [("re_trace", "first"), ("dehn", "first"), ("spectral", "second"), ("dehn", "second")],
)
def test_reduced_trajectory_matches_per_sample_flow(kind, side):
    # the trajectory decomposes the gradient (and, on side 'second', B) once;
    # every 100th sample is recomputed from scratch and through expm
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    ham = InvariantHamiltonian(kind, 1, side)
    rep = section_F(u, chart_index(u), c)
    for k, t, ut, J, xiK in reduced_trajectory(u, ham, 10.0, 1500, c):
        if k % 100:
            continue
        assert np.abs(ut - reduced_flow(u, ham, t, c)).max() < 1e-12
        assert np.abs(ut - f_beta_inv(expm_flow(rep, ham, t), c)).max() < 1e-12
        assert np.abs(J - moment_J_full(ut, c)[: n - 1]).max() == 0.0
        assert np.abs(xiK - alcove_point(global_lax(ut, c))[: n - 1]).max() == 0.0


@pytest.mark.parametrize("kind,side", [("re_trace", "first"), ("dehn", "second")])
def test_reduced_trajectory_canonicalizes_once_per_step(monkeypatch, kind, side):
    # the label of a step is canonical already: its action variables are
    # read from it directly, with no second canonicalize
    calls = []

    def counted(u, c):
        calls.append(1)
        return canonicalize(u, c)

    c = Coupling.default(3)
    rows = reduced_trajectory(rand_u(c), InvariantHamiltonian(kind, 1, side), 1.0, 10, c)
    monkeypatch.setattr(reduction, "canonicalize", counted)
    next(rows)
    calls.clear()
    assert sum(1 for _ in rows) == 10
    assert len(calls) == 10


def test_reduced_trajectory_rejects_negative_steps():
    c = Coupling.default(3)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        reduced_trajectory(rand_u(c), InvariantHamiltonian("dehn"), 1.0, -1, c)


@pytest.mark.parametrize(
    "ham, t_final, message",
    [
        (InvariantHamiltonian("dehn"), math.nan, "t_final"),
        (InvariantHamiltonian("dehn"), -math.inf, "t_final"),
        (InvariantHamiltonian("spectral", 5, "first"), 1.0, "spectral index"),
        (InvariantHamiltonian("spectral", 0, "second"), 1.0, "spectral index"),
    ],
)
def test_reduced_trajectory_rejects_bad_arguments_when_called(monkeypatch, ham, t_final, message):
    # the arguments are checked at the call, before any next(); the lift
    # waits for the first next() even when they are valid
    c = Coupling.default(3)
    lifted = []
    monkeypatch.setattr(reduction, "_lift", lambda u, c: lifted.append(u))
    with pytest.raises(ValueError, match=message):
        reduced_trajectory(rand_u(c), ham, t_final, 10, c)
    reduced_trajectory(rand_u(c), InvariantHamiltonian("spectral", 2), 1.0, 10, c)
    assert lifted == []


def test_symplectic_pullback_through_sections():
    # omega(dF v1, dF v2) = chi0 omega_FS(v1, v2), finite-difference pushforward
    for n in (2, 3):
        c = Coupling.default(n)
        h = FD_STEP
        for _ in range(8):
            u = rand_u(c, bias=0.08)
            j = chart_index(u)
            w = to_chart(u, j)
            p0 = section_F(from_chart(w, j, c), j, c)

            def push(a):
                pp = section_F(from_chart(w + h * a, j, c), j, c)
                pm = section_F(from_chart(w - h * a, j, c), j, c)
                raw = DoubleTangent((pp.A - pm.A) / (2 * h), (pp.B - pm.B) / (2 * h))
                return raw.project(p0)

            for _ in range(3):
                a = RNG.standard_normal(n - 1) + 1j * RNG.standard_normal(n - 1)
                b = RNG.standard_normal(n - 1) + 1j * RNG.standard_normal(n - 1)
                lhs = omega_eval(p0, push(a), push(b))
                rhs = fs_omega_eval(u, a, b, j=j)
                assert abs(lhs - rhs) < 1e-5


def test_darboux_pullback_through_local_section():
    # pullback of omega by the interior parametrization is sum dtheta ^ dxi
    n = 3
    c = Coupling.default(n)
    h = FD_STEP
    xi = random_shifted_alcove(c, RNG, margin=0.08)
    theta = RNG.uniform(0, 2 * math.pi, n - 1)
    p0 = section_local(xi, theta, c)

    def push(dxi, dth):
        pp = section_local(np.append(xi[:-1] + h * dxi, math.pi - (xi[:-1] + h * dxi).sum()), theta + h * dth, c)
        pm = section_local(np.append(xi[:-1] - h * dxi, math.pi - (xi[:-1] - h * dxi).sum()), theta - h * dth, c)
        raw = DoubleTangent((pp.A - pm.A) / (2 * h), (pp.B - pm.B) / (2 * h))
        return raw.project(p0)

    for _ in range(5):
        dxi1, dxi2 = RNG.standard_normal((2, n - 1))
        dth1, dth2 = RNG.standard_normal((2, n - 1))
        lhs = omega_eval(p0, push(dxi1, dth1), push(dxi2, dth2))
        expected = float(np.dot(dth1, dxi2) - np.dot(dth2, dxi1))
        assert abs(lhs - expected) < 1e-5


def test_twist_descends_to_identity_on_quotient():
    # Q is a pure gauge motion on the constraint surface: same orbit label
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    p = section_F(u, chart_index(u), c)
    q = auto_apply("Q", p)
    assert projective_distance(f_beta_inv(q, c), u) < 1e-9


def test_mapclass_words_insensitive_to_central_twists():
    # words differing by Q powers on the double agree after projection
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    w1 = mapclass_on_P(["S", "S", "S", "S", "T"], u, c)
    rep = auto_apply("T", auto_apply("Q", section_F(u, chart_index(u), c)))
    w2 = f_beta_inv(rep, c)
    assert projective_distance(w1, w2) < 1e-9


def test_reduced_point_equality_semantics():
    n = 3
    c = Coupling.default(n)
    u = rand_u(c)
    p = section_F(u, chart_index(u), c)
    h = stabilizer_element(n, RNG)
    assert projective_distance(f_beta_inv(p, c), f_beta_inv(conjugate(p, h), c)) < 1e-9
