"""Lax matrices: coupling factors, local matrix, global extension."""

import math

import numpy as np
import pytest

from rsdual.coupling import Coupling, check_shifted_alcove, random_shifted_alcove
from rsdual.errors import (
    DomainViolation,
    NormViolation,
    PoleAtMinusOne,
    SingularDenominator,
)
from rsdual.lax import (
    _lambda_parts,
    global_lax,
    local_hamiltonian,
    local_lax,
    mu_of_v,
    reflection_g,
    v_vector,
    w_factors,
)
from rsdual.projective import canonicalize, e_param, vertex_points
from rsdual.sun import alcove_delta, dagger, spectral_xi

RNG = np.random.default_rng(1234)
C26 = Coupling(2, math.pi / 6)
XI22 = np.array([math.pi / 2, math.pi / 2])
L_HAND = np.array([[math.sqrt(3) / 2, -0.5j], [-0.5j, math.sqrt(3) / 2]])


def antidiag(n):
    return np.eye(n)[::-1]


def test_w_factors_hand_value_n2():
    Wp, Wm, wp, wm = w_factors(XI22, C26)
    expected = math.sqrt(math.sqrt(3) / 2)
    assert np.allclose(Wp, expected, atol=1e-12)
    assert np.allclose(Wm, expected, atol=1e-12)
    assert abs(expected - 0.93060) < 5e-6
    r = math.sqrt(math.pi / 2 - math.pi / 6)
    assert np.allclose(wp * r, Wp, atol=1e-12)


def test_w_factors_relates_to_z():
    # W_k(+y)^2 = z_k * sin(ny)/sin(y)
    for n in (2, 3, 4, 5):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG)
        Wp, _, _, _ = w_factors(xi, c)
        _, z = v_vector(xi, c)
        assert np.allclose(Wp**2, z * math.sin(n * c.y) / math.sin(c.y), atol=1e-10)


def test_w_factors_boundary_zero_with_finite_smooth_part():
    c = Coupling.default(3)
    xi = np.array([c.y, 1.2, math.pi - c.y - 1.2])
    Wp, Wm, wp, wm = w_factors(xi, c)
    assert abs(Wp[0]) < 1e-14
    assert abs(Wm[1]) < 1e-14  # W_2(-y) carries r_1
    assert np.all(wp > 0) and np.all(wm > 0)
    assert np.all(np.isfinite(wp)) and np.all(np.isfinite(wm))


def test_w_factors_domain_violation():
    c = Coupling.default(3)
    bad = np.array([c.y / 2, 1.0, math.pi - c.y / 2 - 1.0])
    with pytest.raises(DomainViolation):
        w_factors(bad, c)


def test_v_vector_hand_value_and_normalization():
    v, z = v_vector(XI22, C26)
    assert np.allclose(z, [0.5, 0.5], atol=1e-12)
    assert np.allclose(v, 1 / math.sqrt(2), atol=1e-12)
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(125):
            _, z = v_vector(random_shifted_alcove(c, RNG), c)
            assert abs(z.sum() - 1.0) < 1e-12
            assert np.all(z >= -1e-15)


def test_mu_of_v_corner_and_spectrum():
    c = Coupling.default(3)
    e3 = np.zeros(3)
    e3[-1] = 1.0
    assert np.allclose(mu_of_v(e3, c), c.mu0, atol=1e-14)
    v = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    v /= np.linalg.norm(v)
    mu = mu_of_v(v, c)
    eig = np.sort_complex(np.linalg.eigvals(mu))
    expected = np.sort_complex(np.diagonal(c.mu0))
    assert np.allclose(eig, expected, atol=1e-10)
    with pytest.raises(NormViolation):
        mu_of_v(2 * v, c)


def test_mu_of_v_conjugated_by_reflection():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG, margin=0.05)
        v, _ = v_vector(xi, c)
        g = reflection_g(v, len(v))
        assert np.linalg.norm(dagger(g) @ mu_of_v(v, c) @ g - c.mu0) < 1e-12


def test_spectra_of_mu_v_delta_match():
    # char poly identity: spec(mu_v delta) = spec(delta) as multisets
    for n in (2, 3, 4):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG)
        v, _ = v_vector(xi, c)
        d = alcove_delta(xi)
        e1 = np.sort(np.angle(np.linalg.eigvals(mu_of_v(v, c) @ d)))
        e2 = np.sort(np.angle(np.diagonal(d)))
        assert np.allclose(e1, e2, atol=1e-10)


def test_reflection_g_identity_and_orthogonality():
    assert np.allclose(reflection_g(np.array([0.0, 0.0, 1.0]), 3), np.eye(3), atol=1e-15)
    for n in (2, 3, 5):
        v = RNG.standard_normal(n)
        v /= np.linalg.norm(v)
        if v[-1] < -0.9:
            v = -v
        g = reflection_g(v, len(v))
        assert np.linalg.norm(g.T @ g - np.eye(n)) < 1e-12
        assert np.allclose(g[:, -1], v, atol=1e-14)
        assert abs(np.linalg.det(g) - 1.0) < 1e-10  # connected to g(e_n) = 1
    with pytest.raises(PoleAtMinusOne):
        reflection_g(np.array([0.0, 0.0, -1.0]), 3)


def test_reflection_g_chart_all_charts_conjugate_mu():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG, margin=0.05)
        v, _ = v_vector(xi, c)
        mu_v = mu_of_v(v, c)
        for j in range(1, n + 1):
            g = reflection_g(v, j)
            assert np.allclose(g[:, -1], v, atol=1e-13)
            assert np.linalg.norm(dagger(g) @ mu_v @ g - c.mu0) < 1e-12


def test_reflection_g_chart_matches_displayed_n3_matrices():
    c = Coupling.default(3)
    xi = random_shifted_alcove(c, RNG, margin=0.05)
    v, _ = v_vector(xi, c)
    d1, d2 = 1 + v[0], 1 + v[1]
    g1 = np.array(
        [
            [-v[2], -v[1], v[0]],
            [-v[1] * v[2] / d1, 1 - v[1] ** 2 / d1, v[1]],
            [1 - v[2] ** 2 / d1, -v[2] * v[1] / d1, v[2]],
        ]
    )
    g2 = np.array(
        [
            [1 - v[0] ** 2 / d2, -v[0] * v[2] / d2, v[0]],
            [-v[0], -v[2], v[1]],
            [-v[2] * v[0] / d2, 1 - v[2] ** 2 / d2, v[2]],
        ]
    )
    assert np.allclose(reflection_g(v, 1), g1, atol=1e-12)
    assert np.allclose(reflection_g(v, 2), g2, atol=1e-12)


def test_local_lax_hand_value_n2():
    L = local_lax(XI22, np.ones(2), C26)
    assert np.allclose(L, L_HAND, atol=1e-14)
    assert abs(np.linalg.det(L) - 1.0) < 1e-12
    assert np.linalg.norm(dagger(L) @ L - np.eye(2)) < 1e-12


def test_local_lax_unitary_det_one_samples():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(67):
            xi = random_shifted_alcove(c, RNG, margin=0.02)
            phases = RNG.uniform(0, 2 * math.pi, n - 1)
            theta = np.exp(1j * np.append(phases, -phases.sum()))
            L = local_lax(xi, theta, c)
            assert np.linalg.norm(dagger(L) @ L - np.eye(n)) < 1e-9
            assert abs(np.linalg.det(L) - 1.0) < 1e-9


def test_local_lax_conjugation_identity():
    # L delta L^{-1} = mu_v delta on the interior
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(30):
            xi = random_shifted_alcove(c, RNG, margin=0.02)
            phases = RNG.uniform(0, 2 * math.pi, n)
            L = local_lax(xi, np.exp(1j * phases), c)
            d = alcove_delta(xi)
            v, _ = v_vector(xi, c)
            lhs = L @ d @ dagger(L)
            rhs = mu_of_v(v, c) @ d
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_local_lax_singular_at_wall():
    c = Coupling.default(3)
    xi = np.array([c.y, 1.2, math.pi - c.y - 1.2])
    with pytest.raises(SingularDenominator):
        local_lax(xi, np.ones(3), c)


def test_local_hamiltonian_hand_value_and_trace():
    assert abs(local_hamiltonian(XI22, np.zeros(2), C26) - math.sqrt(3)) < 1e-12
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(20):
            xi = random_shifted_alcove(c, RNG, margin=0.02)
            p = RNG.uniform(-math.pi, math.pi, n)
            p[-1] = -p[:-1].sum()
            H = local_hamiltonian(xi, p, c)
            L = local_lax(xi, np.exp(-1j * p), c)
            assert abs(H - np.trace(L).real) < 1e-12


def test_local_lax_and_hamiltonian_reject_wrong_lengths():
    c = Coupling.default(3)
    xi = np.array([1.0, 1.0, math.pi - 2.0])
    with pytest.raises(ValueError, match="Theta must be a diagonal of length 3"):
        local_lax(xi, np.ones(2), c)
    with pytest.raises(ValueError, match="need 3 momentum angles"):
        local_hamiltonian(xi, np.zeros(2), c)


def test_local_lax_rejects_negative_w_squares_inside_the_wall_tolerance():
    # xi_1 = y - 5e-11 passes the 1e-10 wall tolerance of the alcove check,
    # but W_1(y)^2 is negative there
    c = Coupling(3, 0.3)
    xi = np.array([c.y - 5e-11, 1.2, math.pi - (c.y - 5e-11) - 1.2])
    check_shifted_alcove(xi, c)
    with pytest.raises(DomainViolation, match=r"W\^2 factors negative"):
        local_lax(xi, np.ones(3), c)


def test_local_hamiltonian_momentum_shift_flips_sign():
    p = np.array([0.7, -0.7])
    H1 = local_hamiltonian(XI22, p, C26)
    H2 = local_hamiltonian(XI22, p + math.pi, C26)
    assert abs(H1 + H2) < 1e-12


def test_lambda_matrix_nowhere_zero_including_vertices():
    for n in (2, 3, 4, 5):
        c = Coupling.default(n)
        samples = [random_shifted_alcove(c, RNG) for _ in range(50)]
        for k in range(n):
            vertex = np.full(n, c.y)
            vertex[k] += c.chi0
            samples.append(vertex)
        for xi in samples:
            lam = _lambda_parts(xi, c)[0]
            assert np.all(np.abs(lam) > 1e-12), (n, xi)


def test_lambda_matrix_reassembles_local_lax():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        xi = random_shifted_alcove(c, RNG, margin=0.02)
        lam = _lambda_parts(xi, c)[0]
        r = np.sqrt(xi - c.y)
        L = local_lax(xi, np.ones(n), c)
        for k in range(n):
            for l in range(n):
                if l == (k + 1) % n:
                    assert abs(lam[k, l] - L[k, l]) < 1e-10
                else:
                    assert abs(r[k] * r[(l - 1) % n] * lam[k, l] - L[k, l]) < 1e-10


def test_global_lax_equals_conjugated_local_on_dense_part():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        from rsdual.double import rho_embedding

        for _ in range(20):
            xi = random_shifted_alcove(c, RNG, margin=0.03)
            theta = RNG.uniform(0, 2 * math.pi, n - 1)
            u = e_param(xi, theta, c)
            K = global_lax(u, c)
            tau = np.exp(1j * theta)
            delta_tau = np.diag(np.append(tau, 1.0))
            rho_inv = np.conjugate(np.diagonal(rho_embedding(theta, n)))
            L = local_lax(xi, rho_inv, c)
            assert np.linalg.norm(dagger(delta_tau) @ L @ delta_tau - K) < 1e-10


def test_global_lax_n2_hand_value():
    c = C26
    u = np.array([math.sqrt(math.pi / 3), math.sqrt(math.pi / 3)], dtype=complex)
    assert np.allclose(global_lax(u, c), L_HAND, atol=1e-12)


def test_global_lax_phase_invariance_and_norm_check():
    c = Coupling.default(3)
    u = canonicalize(RNG.standard_normal(3) + 1j * RNG.standard_normal(3), c)
    K1 = global_lax(u, c)
    K2 = global_lax(np.exp(0.7j) * u, c)
    assert np.linalg.norm(K1 - K2) < 1e-12
    with pytest.raises(NormViolation):
        global_lax(2.0 * u, c)


def test_global_lax_unitary_everywhere_including_vertices():
    for n in (2, 3, 4, 5):
        c = Coupling.default(n)
        pts = [canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c) for _ in range(40)]
        pts += vertex_points(c)
        pts += vertex_points(c, eps=1e-3, rng=RNG)
        for u in pts:
            K = global_lax(u, c)
            assert np.linalg.norm(dagger(K) @ K - np.eye(n)) < 1e-9
            assert abs(np.linalg.det(K) - 1.0) < 1e-9


def test_global_lax_boundary_case_n2():
    c = C26
    u = np.array([0.0, math.sqrt(c.chi0)], dtype=complex)
    K = global_lax(u, c)
    assert np.all(np.isfinite(K))
    assert np.linalg.norm(dagger(K) @ K - np.eye(2)) < 1e-12
    # limit of interior samples approaching the boundary
    for eps in (1e-3, 1e-5):
        ueps = canonicalize(np.array([eps, math.sqrt(c.chi0)]), c)
        assert np.linalg.norm(global_lax(ueps, c) - K) < 2e-2 * math.sqrt(eps) / 1e-3


def test_global_lax_continuity_across_chart_boundary():
    for n in (2, 3):
        c = Coupling.default(n)
        base = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        base[0] = 0.0
        u0 = canonicalize(base, c)
        K0 = global_lax(u0, c)
        prev = np.inf
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            pert = base.copy()
            pert[0] = eps * (1 + 1j)
            diff = np.linalg.norm(global_lax(canonicalize(pert, c), c) - K0)
            assert diff < prev + 1e-12
            prev = diff
        assert prev < 1e-6


def test_global_lax_spectrum_in_shifted_alcove():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(30):
            u = canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c)
            xi = spectral_xi(global_lax(u, c))[0]
            assert np.all(xi >= c.y - 1e-9)
            assert np.all(xi <= math.pi - (n - 1) * c.y + 1e-9)


def test_kid_symmetry_identities():
    # K(Gamma u) = eta0 K^t eta0 exactly; for C and sigma the matrix identity
    # carries a delta(xi)-conjugation twist (the plain form, which holds on
    # the level of spectra, is checked separately below)
    from rsdual.projective import involution, moment_J_full

    for n in (2, 3, 4):
        c = Coupling.default(n)
        eta0 = antidiag(n)
        for _ in range(15):
            u = canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c)
            K = global_lax(u, c)
            d = alcove_delta(moment_J_full(u, c))
            KC = global_lax(canonicalize(involution("C", u), c), c)
            KG = global_lax(canonicalize(involution("Gamma", u), c), c)
            KS = global_lax(canonicalize(involution("sigma", u), c), c)
            assert np.linalg.norm(KC - dagger(d) @ np.conjugate(K) @ d) < 1e-10
            assert np.linalg.norm(KG - eta0 @ K.T @ eta0) < 1e-10
            assert np.linalg.norm(KS - eta0 @ d @ dagger(K) @ dagger(d) @ eta0) < 1e-10


def test_kid_identities_on_spectra():
    # the conjugation twist is invisible to class functions: under C and
    # sigma the action spectrum reverses, under Gamma it is preserved
    from rsdual.projective import involution

    for n in (3, 4):
        c = Coupling.default(n)
        for _ in range(10):
            u = canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c)
            xi = spectral_xi(global_lax(u, c))[0]
            flip = np.concatenate([xi[: n - 1][::-1], xi[n - 1 :]])
            for which, expect in (("C", flip), ("Gamma", xi), ("sigma", flip)):
                w = canonicalize(involution(which, u), c)
                got = spectral_xi(global_lax(w, c))[0]
                assert np.abs(got - expect).max() < 1e-10


def test_delta_of_moment_map_identities():
    from rsdual.projective import involution, moment_J_full

    for n in (3, 4):
        c = Coupling.default(n)
        eta0 = antidiag(n)
        u = canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c)
        d = alcove_delta(moment_J_full(u, c))
        dC = alcove_delta(moment_J_full(involution("C", u), c))
        dG = alcove_delta(moment_J_full(involution("Gamma", u), c))
        assert np.linalg.norm(dC - d) < 1e-12
        assert np.linalg.norm(dG - eta0 @ dagger(d) @ eta0) < 1e-10
