"""Alcove spectral decomposition and the su(n) pairing; the spectral
gradient and real powers through the one implementation in double."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, expm, schur

from rsdual.coupling import Coupling, check_alcove, random_shifted_alcove
from rsdual.double import DoublePoint, InvariantHamiltonian, flow, hamiltonian_gradient
from rsdual.errors import AlcoveViolation, NonRegular
from rsdual.lax import global_lax
from rsdual.projective import canonicalize, vertex_points
from rsdual.sun import (
    PHASE_TOL,
    _phases_to_alcove,
    _schur,
    _stacked_phases_to_alcove,
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
        xi, perm = _phases_to_alcove(phases)
        xi0, perm0 = ref_phases_to_alcove(phases, n)
        assert xi.tobytes() == xi0.tobytes() and (perm == perm0).all()
        shifts.add(round(np.sort(phases).sum() / (2.0 * math.pi)) % n)
    assert len(shifts) > 1


@pytest.mark.parametrize("n", range(2, 17))
def test_one_point_phase_map_is_the_stacked_map_at_every_shift(n):
    # phase sets around 2 pi M / n for n consecutive M reach every shift
    # 0..n-1; each M adds a set with a repeated phase, one of n equal phases
    # and one with -0.0 phases, and -0.0 and +0.0 ties close the stack
    rng = np.random.default_rng([23, n])
    sets = []
    for m in range(-(n // 2), n - n // 2):
        phases = np.full((4, n), 2.0 * math.pi * m / n)
        phases[:2] += rng.uniform(-0.5, 0.5, (2, n)) / n
        phases[1, 1] = phases[1, 0]
        phases[3, ::2] = -0.0
        sets.append(np.clip(phases, -math.pi, math.pi))
    ties = np.zeros((3, n))
    ties[0] = -0.0
    ties[1, 1::2] = -0.0
    ties[2, ::2] = -0.0
    phases = np.concatenate(sets + [ties])
    shifts = {-round(np.sort(row).sum() / (2.0 * math.pi)) % n for row in phases}
    assert shifts == set(range(n))
    xi, perm = _stacked_phases_to_alcove(phases)
    for k, row in enumerate(phases):
        xi1, perm1 = _phases_to_alcove(row)
        xi0, perm0 = ref_phases_to_alcove(row, n)
        assert xi[k].tobytes() == xi1.tobytes() == xi0.tobytes(), k
        assert (perm[k] == perm1).all() and (perm1 == perm0).all(), k


def edge_spectra(n):
    """(mats, regular): special-unitary matrices with the spectra random
    draws miss, and which of them have a regular spectrum.  The n central
    elements e^{2 pi i k/n} I; alcove_delta on a wall xi_1 = 0 and at each
    vertex pi e_k; for n >= 3 a diagonal with the eigenvalue -1 whose
    imaginary part is +0.0 (phase +pi), its conjugate with -0.0 (phase
    -pi), and a unitary conjugate of each."""
    mats = [np.exp(2j * math.pi * k / n) * np.eye(n) for k in range(n)]
    wall = random_alcove(n, RNG)
    wall[1] += wall[0]
    wall[0] = 0.0
    mats.append(alcove_delta(wall))
    mats += [alcove_delta(math.pi * np.eye(n)[k]) for k in range(n)]
    regular = [False] * len(mats)
    if n >= 3:
        a = RNG.uniform(-2.0, 2.0, n - 2)
        d = np.diag(np.concatenate([[-1.0], np.exp(1j * a), [-np.exp(-1j * a.sum())]]))
        g = random_special_unitary(n, RNG)
        mats += [d, d.conj(), g @ d @ dagger(g), g @ d.conj() @ dagger(g)]
        regular += [True] * 4
    return np.array(mats), np.array(regular)


def test_edge_spectra_reach_minus_one_with_both_signed_zeros():
    mats = edge_spectra(3)[0][-4:-2]
    w = np.linalg.eigvals(mats)
    assert (w[:, 0] == -1.0).all() and list(np.signbit(w[:, 0].imag)) == [False, True]
    assert list(np.angle(w[:, 0])) == [math.pi, -math.pi]


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_stacked_phase_map_is_the_one_point_map(n):
    # the loop-free map of a stack against the one-point body and the
    # reference, on the edge spectra, random SU(n) and signed-zero ties
    edge = edge_spectra(n)[0]
    mats = np.concatenate([edge, [random_special_unitary(n, RNG) for _ in range(10 + len(edge) % 2)]])
    phases = np.angle(np.linalg.eigvals(mats))
    ties = np.zeros((2, n))
    ties[0, ::2] = -0.0
    ties[1, 1::2] = -0.0
    ties[1, 0] = -math.pi
    phases = np.concatenate([phases, ties])
    xi, perm = _stacked_phases_to_alcove(phases)
    for k, row in enumerate(phases):
        xi1, perm1 = _phases_to_alcove(row)
        xi0, perm0 = ref_phases_to_alcove(row, n)
        assert xi[k].tobytes() == xi1.tobytes() == xi0.tobytes(), k
        assert (perm[k] == perm1).all() and (perm1 == perm0).all(), k
    xi2, perm2 = _stacked_phases_to_alcove(phases.reshape(2, -1, n))
    assert xi2.tobytes() == xi.tobytes() and (perm2.reshape(perm.shape) == perm).all()


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_edge_spectra_stacked_rows_are_the_one_point_calls(n):
    mats, regular = edge_spectra(n)
    mats = np.concatenate([mats, [random_special_unitary(n, RNG) for _ in range(len(mats) % 2 + 4)]])
    regular = np.concatenate([regular, [True] * (len(mats) - len(regular))])
    xi = alcove_point(mats)
    for k, A in enumerate(mats):
        assert xi[k].tobytes() == alcove_point(A).tobytes(), k
    assert alcove_point(mats.reshape((2, -1, n, n))).tobytes() == xi.tobytes()
    xi, g = spectral_xi(mats[regular])
    for k, A in enumerate(mats[regular]):
        x1, g1 = spectral_xi(A)
        assert xi[k].tobytes() == x1.tobytes() and g[k].tobytes() == g1.tobytes(), k
        assert g[k].strides == g1.strides
    for A in mats[~regular]:
        with pytest.raises(NonRegular) as alone:
            spectral_xi(A)
        with pytest.raises(NonRegular) as stacked:
            spectral_xi(np.stack([mats[-1], A, mats[-1]]))
        assert str(stacked.value) == str(alone.value)


def roll_spectra(n):
    """(mats, regular): diagonal SU(n) matrices whose eigenphases sum to
    2 pi M for every M that n phases in (-pi, pi] reach, so that the phase
    map rolls by every shift (-M) % n (M = n/2 only at -I, n even), a
    unitary conjugate of each regular one, and a diagonal with a -0.0 phase."""
    offsets = (np.arange(n) - (n - 1) / 2) / (2.0 * n * n)  # distinct, summing to 0
    phases = [2 * math.pi * M / n + offsets for M in range(-((n - 1) // 2), (n + 1) // 2)]
    regular = [True] * len(phases)
    if n % 2 == 0:
        phases.append(np.full(n, math.pi))
        regular.append(False)
    diag = [np.diag(np.exp(1j * p)) for p in phases]
    g = random_special_unitary(n, RNG)
    conj = [g @ d @ dagger(g) for d, r in zip(diag, regular) if r]
    a = np.linspace(0.3, 1.1, n - 2)
    signed = np.diag(np.concatenate([[complex(1.0, -0.0)], np.exp(1j * a), [np.exp(-1j * a.sum())]]))
    return np.array(diag + conj + [signed]), np.array(regular + [True] * len(conj) + [n > 2])


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_flat_offset_rows_are_the_one_matrix_calls(n):
    # stacks of leading shape (2, 3), (1,) and (0,) of the edge spectra
    # (tied phases, phases +-pi), every roll shift and a -0.0 phase: each
    # row has the bits of its one-matrix call, the phase map's perm
    # included, and g the C layout of the one-matrix g
    mats, regular = (np.concatenate(m) for m in zip(edge_spectra(n), roll_spectra(n)))
    phases = np.angle(np.linalg.eigvals(mats))
    assert set(np.signbit(phases[phases == 0.0])) == {False, True}  # +0.0 and -0.0
    shifts = {round(np.sort(row).sum() / (2 * math.pi)) % n for row in phases}
    assert shifts == set(range(n))
    for pool, spectral in ((mats, False), (mats[regular], True)):
        pad = [random_special_unitary(n, RNG) for _ in range(-len(pool) % 6)]
        pool = np.concatenate([pool, np.reshape(pad, (-1, n, n))])
        for lead in ((2, 3), (1,), (0,)):
            size = math.prod(lead)
            for first in range(0, len(pool), size) if size else [0]:
                stack = pool[first : first + size].reshape(lead + (n, n))
                one = stack.reshape(-1, n, n)
                if spectral:
                    xi, g = spectral_xi(stack)
                    assert xi.shape == lead + (n,) and g.shape == lead + (n, n)
                    assert g.flags.c_contiguous
                    for k, (x1, g1) in enumerate(map(spectral_xi, one)):
                        at = np.unravel_index(k, lead)
                        assert xi[at].tobytes() == x1.tobytes() and g[at].tobytes() == g1.tobytes()
                        assert g1.flags.c_contiguous and g[at].strides == g1.strides
                    continue
                xi = alcove_point(stack)
                assert xi.shape == lead + (n,)
                assert xi.tobytes() == b"".join(alcove_point(A).tobytes() for A in one)
                xi2, perm = _stacked_phases_to_alcove(np.angle(np.linalg.eigvals(stack)))
                assert xi2.tobytes() == xi.tobytes() and perm.shape == lead + (n,)
                for k, A in enumerate(one):
                    perm1 = _phases_to_alcove(np.angle(np.linalg.eigvals(A)))[1]
                    assert (perm[np.unravel_index(k, lead)] == perm1).all()


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
    phases = np.angle(np.diagonal(schur(A, output="complex")[0]))
    return _phases_to_alcove(phases)[0]


def assert_alcove_point_matches(A):
    assert np.max(np.abs(alcove_point(A) - schur_xi(A))) <= XI_TOL


@pytest.mark.parametrize("n", range(2, 9))
def test_alcove_point_matches_spectral_xi(n):
    for _ in range(50):
        assert_alcove_point_matches(random_special_unitary(n, RNG))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_alcove_point_is_eigvals_bit_for_bit(n):
    # one zgeev call with no eigenvectors is the LAPACK routine
    # np.linalg.eigvals calls for a complex matrix
    c = Coupling.default(n)
    mats = [random_special_unitary(n, RNG) for _ in range(20)]
    mats += [global_lax(u, c) for u in vertex_points(c, eps=1e-4, rng=RNG)[:5]]
    for A in mats:
        want = _phases_to_alcove(np.angle(np.linalg.eigvals(A)))[0]
        assert alcove_point(A).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_alcove_point_rejects_non_finite_input(bad):
    A = random_special_unitary(3, RNG)
    A[1, 2] = bad
    with pytest.raises(LinAlgError, match="infs or NaNs"):
        alcove_point(A)


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
        check_alcove(xi)
        assert np.all(xi >= c.y - 1e-12)


def test_shifted_alcove_sampler_margin_feasible_for_every_n():
    # the margin is capped at 1/(2n): uncapped, 0.02 of chi0 from each of
    # the 64 walls would exceed chi0 and draw xi below y
    for n in (25, 64):
        c = Coupling.default(n)
        for _ in range(20):
            xi = random_shifted_alcove(c, RNG, margin=0.02)
            check_alcove(xi)
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
