"""Alcove spectral decomposition and the su(n) pairing; the spectral
gradient and real powers through the one implementation in double."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, schur

from rsdual.coupling import Coupling, check_alcove, random_shifted_alcove
from rsdual.double import DoublePoint, InvariantHamiltonian, flow, hamiltonian_gradient
from rsdual.errors import AlcoveViolation, NonRegular
from rsdual.lax import global_lax
from rsdual.projective import canonicalize, vertex_points
from rsdual.sun import (
    PHASE_TOL,
    _phases_to_alcove,
    _schur,
    alcove_delta,
    alcove_exponents,
    alcove_point,
    dagger,
    random_special_unitary,
    random_su_algebra,
    scalar_product,
    spectral_xi,
    traceless_antihermitian,
)
from rsdual.verify import FD_STEP

RNG = np.random.default_rng(20260809)


def random_alcove(n, rng, margin=0.02):
    w = rng.dirichlet(np.ones(n))
    return margin * math.pi / n + (1 - margin) * math.pi * w


def xi_gradient(A, j):
    """grad Xi_j(A) through the one gradient implementation."""
    return hamiltonian_gradient(InvariantHamiltonian("spectral", j), A)


def real_power(C, s):
    """C^s as the time-s Dehn flow of C from the identity, exp(s grad h(C))."""
    one = np.eye(C.shape[-1], dtype=complex)
    return flow(DoublePoint(one, C), InvariantHamiltonian("dehn", 1, "second"), s).A


def test_alcove_delta_n2_hand_value():
    d = alcove_delta([math.pi / 2, math.pi / 2])
    assert np.allclose(d, np.diag([-1j, 1j]), atol=1e-14)


def test_alcove_delta_n3_equal_gaps():
    xi = np.full(3, math.pi / 3)
    d = alcove_delta(xi)
    w = np.exp(-2j * math.pi / 3)
    assert np.allclose(d, np.diag([w, 1.0, np.conjugate(w)]), atol=1e-14)
    got, _ = spectral_xi(d)
    assert np.allclose(np.diff(sorted(np.angle(np.diag(d)))), 2 * math.pi / 3)
    assert np.allclose(got, xi, atol=1e-12)


def test_alcove_delta_rejects_bad_points():
    with pytest.raises(AlcoveViolation):
        alcove_delta([1.0, 1.0, 1.0])
    with pytest.raises(AlcoveViolation):
        alcove_delta([-0.2, 0.2, math.pi])


def test_alcove_delta_special_unitary():
    for _ in range(20):
        xi = random_alcove(4, RNG)
        d = alcove_delta(xi)
        assert abs(np.linalg.det(d) - 1) < 1e-12
        assert np.allclose(d @ dagger(d), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spectral_round_trip(n):
    for _ in range(25):
        xi = random_alcove(n, RNG)
        got, _ = spectral_xi(alcove_delta(xi))
        assert np.allclose(got, xi, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectral_reconstructs_matrix(n):
    for _ in range(25):
        A = random_special_unitary(n, RNG)
        xi, g = spectral_xi(A)
        rebuilt = dagger(g) @ alcove_delta(xi) @ g
        assert np.linalg.norm(rebuilt - A) < 1e-10
        assert abs(xi.sum() - math.pi) < 1e-12
        assert np.all(xi >= -1e-12)


def test_spectral_identity_matrix():
    with pytest.raises(NonRegular):
        spectral_xi(np.eye(3))
    assert np.allclose(alcove_point(np.eye(3)), [0.0, 0.0, math.pi], atol=1e-12)


def test_spectral_conjugation_invariance():
    A = random_special_unitary(3, RNG)
    xi = spectral_xi(A)[0]
    for _ in range(100):
        g = random_special_unitary(3, RNG)
        assert np.allclose(spectral_xi(g @ A @ dagger(g))[0], xi, atol=1e-10)


def test_spectral_insensitive_to_torus_redefinition():
    # downstream quantities built from g must not see left torus factors;
    # the spectral gradient is the canary
    A = random_special_unitary(3, RNG)
    g = spectral_xi(A)[1]
    grad = xi_gradient(A, 1)
    zeta = np.exp(1j * RNG.uniform(0, 2 * math.pi, 3))
    g2 = zeta[:, None] * g
    d = np.zeros(3, dtype=complex)
    d[1], d[0] = 1j, -1j
    assert np.allclose(dagger(g2) @ (d[:, None] * g2), grad, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_spectral_phase_convention(n):
    # each eigenvector (row of g) has its first entry of modulus above
    # PHASE_TOL real positive; permuted delta points put exact zeros first
    perm = np.eye(n)[RNG.permutation(n)]
    mats = [random_special_unitary(n, RNG) for _ in range(5)]
    mats += [perm @ alcove_delta(random_alcove(n, RNG)) @ perm.T]
    for A in mats:
        for row in spectral_xi(A)[1]:
            lead = np.conjugate(row[np.argmax(np.abs(row) > PHASE_TOL)])
            assert lead.real > 0.0 and abs(lead.imag) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_schur_is_scipy_schur_bit_for_bit(n):
    # one zgees call with the per-n workspace size is the call
    # scipy.linalg.schur makes after its checks and workspace query
    for _ in range(20):
        A = random_special_unitary(n, RNG)
        T, Z = _schur(A)
        T0, Z0 = schur(A, output="complex")
        assert T.tobytes() == T0.tobytes() and Z.tobytes() == Z0.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_spectral_xi_rejects_non_finite_input(bad):
    A = random_special_unitary(3, RNG)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral_xi(A)


def test_spectral_xi_rejects_non_square_input():
    with pytest.raises(ValueError, match="square"):
        spectral_xi(random_special_unitary(3, RNG)[:2])


def ref_phases_to_alcove(phases, n):
    """The phase convention through np.argsort, np.round, np.concatenate and
    np.diff."""
    order = np.argsort(phases, kind="stable")
    psi = phases[order]
    shift = (-int(np.round(psi.sum() / (2.0 * math.pi)))) % n
    perm = np.concatenate([order[shift:], order[:shift]])
    lifted = np.concatenate([psi[shift:], psi[:shift] + 2.0 * math.pi])
    xi = np.empty(n)
    xi[:-1] = 0.5 * np.diff(lifted)
    xi[-1] = math.pi - xi[:-1].sum()
    return xi, perm


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_phases_to_alcove_matches_reference_bit_for_bit(n):
    # random SU(n), and the center elements e^{2 pi i k/n}, whose equal
    # phases tie in the sort and reach shifts that random points miss
    mats = [random_special_unitary(n, RNG) for _ in range(40)]
    mats += [np.exp(2j * math.pi * k / n) * np.eye(n) for k in range(n)]
    shifts = set()
    for A in mats:
        phases = np.angle(np.linalg.eigvals(A))
        xi, perm = _phases_to_alcove(phases, n)
        xi0, perm0 = ref_phases_to_alcove(phases, n)
        assert xi.tobytes() == xi0.tobytes() and (perm == perm0).all()
        shifts.add(round(np.sort(phases).sum() / (2.0 * math.pi)) % n)
    assert len(shifts) > 1


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_spectral_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    xi = random_alcove(n, rng, margin=0.05)
    got, _ = spectral_xi(alcove_delta(xi))
    assert np.allclose(got, xi, atol=1e-11)


# alcove_point reads xi from the eigenvalues alone; it must agree with the
# Schur diagonal read by spectral_xi's convention to rounding (a tolerance,
# since zgeev and zgees need not round alike on every LAPACK build).  The
# Schur reference is read directly, so that degenerate points are covered
# where spectral_xi raises NonRegular.
XI_TOL = 1e-13


def schur_xi(A):
    return _phases_to_alcove(np.angle(np.diagonal(schur(A, output="complex")[0])), A.shape[-1])[0]


def assert_alcove_point_matches(A):
    assert np.max(np.abs(alcove_point(A) - schur_xi(A))) <= XI_TOL


@pytest.mark.parametrize("n", range(2, 9))
def test_alcove_point_matches_spectral_xi(n):
    for _ in range(50):
        assert_alcove_point_matches(random_special_unitary(n, RNG))


def near_wall_u(c, rng, wall):
    """A canonical point with |u_k|^2 = wall for one random slot k."""
    u = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
    k = int(rng.integers(c.n))
    u[k] = 0.0
    u *= math.sqrt(c.chi0 - wall) / np.linalg.norm(u)
    u[k] = math.sqrt(wall)
    return canonicalize(u, c)


@pytest.mark.parametrize("n", (2, 3, 4, 8))
@pytest.mark.parametrize("y_scale", ("small", "mid", "top"))
def test_alcove_point_matches_on_global_lax(n, y_scale):
    # K(u) at the polytope vertices, next to them, next to a wall and inside,
    # at both ends of the coupling range 0 < y < pi/n
    y = {"small": 1e-6, "mid": math.pi / (2 * n), "top": math.pi / n * (1 - 1e-3)}[y_scale]
    c = Coupling(n, y)
    pts = vertex_points(c) + vertex_points(c, eps=1e-4, rng=RNG)
    pts += [near_wall_u(c, RNG, w) for w in (1e-12, 1e-8, 1e-5) for _ in range(3)]
    for _ in range(5):
        pts.append(canonicalize(RNG.standard_normal(n) + 1j * RNG.standard_normal(n), c))
    for u in pts:
        assert_alcove_point_matches(global_lax(u, c))


def test_alcove_point_degenerate_and_minus_one():
    assert np.allclose(alcove_point(np.eye(2)), [0.0, math.pi], atol=1e-15)
    assert np.allclose(alcove_point(-np.eye(2)), [math.pi, 0.0], atol=1e-15)
    for A in (np.eye(2), -np.eye(2)):
        assert_alcove_point_matches(A)
    # a diagonal special-unitary matrix (delta(xi) up to the order of its
    # entries) with the eigenvalue -1 exactly: its phase is +pi, and -pi in
    # the complex conjugate; also a unitary conjugate of it
    d = np.diag([-1.0, np.exp(0.3j), -np.exp(-0.3j)])
    g = random_special_unitary(3, RNG)
    for A in (d, np.conjugate(d), g @ d @ dagger(g)):
        assert_alcove_point_matches(A)
        delta = np.diagonal(alcove_delta(alcove_point(A)))
        want = np.linalg.eigvals(A)
        assert np.max(np.min(np.abs(delta[:, None] - want), axis=0)) < 1e-14


@st.composite
def coupled_points(draw):
    """(c, u) over n, the whole coupling range and points whose coordinates
    are zero or tiny on purpose, so that xi hits walls and vertices."""
    n = draw(st.integers(2, 8))
    t = draw(st.sampled_from((1e-6, 1e-3, 0.5, 1 - 1e-3)) | st.floats(1e-3, 0.999))
    c = Coupling(n, t * math.pi / n)
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    scales = st.sampled_from((0.0, 1e-13, 1e-9, 1e-6, 1e-3, 1.0))
    u = (np.array(re) + 1j * np.array(im)) * np.array(
        draw(st.lists(scales, min_size=n, max_size=n))
    )
    if np.linalg.norm(u) < 1e-300:
        u[draw(st.integers(0, n - 1))] = 1.0
    return c, canonicalize(u, c)


@settings(max_examples=150, deadline=None)
@given(coupled_points())
def test_alcove_point_matches_on_global_lax_property(point):
    c, u = point
    assert_alcove_point_matches(global_lax(u, c))


def test_grad_spectral_at_delta_point():
    xi = random_alcove(4, RNG)
    d = alcove_delta(xi)
    for j in range(1, 4):
        e = np.zeros((4, 4), dtype=complex)
        e[j, j] = 1j
        e[j - 1, j - 1] = -1j
        assert np.allclose(xi_gradient(d, j), e, atol=1e-12)


def test_grad_spectral_equivariance():
    A = random_special_unitary(3, RNG)
    g = random_special_unitary(3, RNG)
    for j in (1, 2):
        lhs = xi_gradient(g @ A @ dagger(g), j)
        rhs = g @ xi_gradient(A, j) @ dagger(g)
        assert np.linalg.norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grad_spectral_finite_differences(n):
    h = FD_STEP
    A = random_special_unitary(n, RNG)
    for j in range(1, n):
        grad = xi_gradient(A, j)
        for _ in range(20):
            zeta = random_su_algebra(n, RNG)
            fd = (
                spectral_xi(expm(h * zeta) @ A)[0][j - 1]
                - spectral_xi(expm(-h * zeta) @ A)[0][j - 1]
            ) / (2 * h)
            assert abs(fd - scalar_product(zeta, grad)) < 1e-6


def test_grad_spectral_rejects_degenerate():
    with pytest.raises(NonRegular):
        xi_gradient(np.eye(3), 1)


def test_matrix_power_identity_and_one():
    C = random_special_unitary(3, RNG)
    assert np.allclose(real_power(C, 1.0), C, atol=1e-11)
    assert np.allclose(real_power(C, 0.0), np.eye(3), atol=1e-12)


def test_matrix_power_half_hand_value():
    d = alcove_delta([math.pi / 2, math.pi / 2])
    half = real_power(d, 0.5)
    assert np.allclose(half, np.diag(np.exp([-1j * math.pi / 4, 1j * math.pi / 4])), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_power_semigroup(n):
    for _ in range(10):
        C = random_special_unitary(n, RNG)
        s = RNG.uniform(0, 1)
        lhs = real_power(C, s) @ real_power(C, 1.0 - s)
        assert np.linalg.norm(lhs - C) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_scalar_product_is_the_trace_pairing(n):
    # the entrywise sum equals -tr(eta zeta)/2 of the whole product
    for _ in range(10):
        eta = random_su_algebra(n, RNG)
        zeta = random_su_algebra(n, RNG)
        ref = -0.5 * np.trace(eta @ zeta).real
        assert abs(scalar_product(eta, zeta) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_scalar_product_values_and_symmetry():
    lam1 = 1j * np.diag([0.5, -0.5])  # i lambda_1 for n = 2
    assert abs(scalar_product(lam1, lam1) - 0.25) < 1e-14
    for _ in range(20):
        eta = random_su_algebra(3, RNG)
        zeta = random_su_algebra(3, RNG)
        g = random_special_unitary(3, RNG)
        assert abs(scalar_product(eta, zeta) - scalar_product(zeta, eta)) < 1e-12
        assert (
            abs(
                scalar_product(g @ eta @ dagger(g), g @ zeta @ dagger(g))
                - scalar_product(eta, zeta)
            )
            < 1e-12
        )


def test_spectrum_of_conjugated_matrix_reverses():
    # Xi_k(conj A) = Xi_{n-k}(A) and Xi_n unchanged
    for _ in range(20):
        A = random_special_unitary(4, RNG)
        xi = spectral_xi(A)[0]
        xic = spectral_xi(np.conjugate(A))[0]
        assert np.allclose(xic[:3], xi[:3][::-1], atol=1e-11)
        assert abs(xic[3] - xi[3]) < 1e-11


def test_xi_n_closes_the_sum():
    for _ in range(50):
        A = random_special_unitary(4, RNG)
        xi = spectral_xi(A)[0]
        assert abs(xi[-1] - (math.pi - xi[:-1].sum())) < 1e-12


def test_exponents_match_delta_phases():
    xi = random_alcove(5, RNG)
    e = alcove_exponents(xi)
    assert np.allclose(np.exp(1j * e), np.diag(alcove_delta(xi)), atol=1e-13)


def test_traceless_antihermitian_projection():
    z = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    a = traceless_antihermitian(z)
    assert abs(np.trace(a)) < 1e-12
    assert np.linalg.norm(a + dagger(a)) < 1e-12


def test_random_special_unitary_is_su():
    for n in (2, 3, 5):
        u = random_special_unitary(n, RNG)
        assert np.linalg.norm(u @ dagger(u) - np.eye(n)) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12


def test_shifted_alcove_sampler():
    c = Coupling.default(4)
    for _ in range(50):
        xi = random_shifted_alcove(c, RNG)
        check_alcove(xi, tol=1e-9)
        assert np.all(xi >= c.y - 1e-12)


def test_shifted_alcove_sampler_margin_feasible_for_every_n():
    # the margin is capped at 1/(2n): uncapped, 0.02 of chi0 from each of
    # the 64 walls would exceed chi0 and draw xi below y
    for n in (25, 64):
        c = Coupling.default(n)
        for _ in range(20):
            xi = random_shifted_alcove(c, RNG, margin=0.02)
            check_alcove(xi, tol=1e-9)
            assert np.min(xi - c.y) > 0.0
            assert np.min(xi - c.y) >= 0.99 * min(0.02, 0.5 / n) * c.chi0


def test_coupling_invariants():
    c = Coupling(3, 0.3)
    mu0 = c.mu0
    assert abs(np.linalg.det(mu0) - 1.0) < 1e-12
    assert np.allclose(mu0, np.diag(np.exp(1j * np.array([0.6, 0.6, -1.2]))), atol=1e-14)
    assert c.chi0 == math.pi - 3 * 0.3
    with pytest.raises(ValueError):
        Coupling(3, math.pi / 3)
    with pytest.raises(ValueError):
        Coupling(3, 0.0)
    with pytest.raises(ValueError):
        Coupling(1, 0.1)
