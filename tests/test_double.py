"""The quasi-Hamiltonian double: form, moment map, flows, automorphisms."""

import inspect
import math

import numpy as np
import pytest
from scipy.linalg import expm

from rsdual import double, lax, projective, sun
from rsdual.coupling import Coupling
from rsdual.double import (
    DoublePoint,
    DoubleTangent,
    InvariantHamiltonian,
    apply_word,
    auto_apply,
    conjugate,
    flow,
    geodesic_tangent,
    hamiltonian_gradient,
    moment,
    omega_eval,
    random_double_point,
    rho_embedding,
    torus_action,
    vertical_tangent,
)
from rsdual.errors import NonRegular, TangencyViolation
from rsdual.reduction import _orbit_frame
from rsdual.sun import (
    alcove_exponents,
    alcove_delta,
    dagger,
    random_special_unitary,
    random_su_algebra,
    scalar_product,
    spectral_xi,
    traceless_antihermitian,
)
from rsdual.verify import FD_STEP, _central, _ends, _push

RNG = np.random.default_rng(424242)


def rand_p(n):
    return random_double_point(n, RNG)


def rand_tangent(p, n):
    return geodesic_tangent(p, random_su_algebra(n, RNG), random_su_algebra(n, RNG))


def ref_weights(n):
    """Fundamental weights lambda_k = sum_{j<=k} E_jj - (k/n) 1_n of su(n),
    k = 1..n-1, as the rows of an (n-1, n) array of diagonals."""
    lam = np.zeros((n - 1, n))
    for k in range(1, n):
        lam[k - 1, :k] = 1.0
        lam[k - 1] -= k / n
    return lam


def ref_dehn_value(xi):
    """|sum_k xi_k lambda_k|^2 from the explicit weights."""
    n = len(xi)
    lam = np.sum(xi[: n - 1, None] * ref_weights(n), axis=0)
    return float(np.sum(lam * lam))


def test_moment_with_identity_and_commuting():
    n = 3
    A = random_special_unitary(n, RNG)
    p = DoublePoint(A, np.eye(n, dtype=complex))
    assert np.allclose(moment(p), np.eye(n), atol=1e-12)
    d1 = np.diag(np.exp(1j * np.array([0.3, -0.5, 0.2])))
    d2 = np.diag(np.exp(1j * np.array([1.3, 0.1, -1.4])))
    assert np.allclose(moment(DoublePoint(d1, d2)), np.eye(n), atol=1e-12)


def test_moment_equivariance():
    n = 4
    p = rand_p(n)
    g = random_special_unitary(n, RNG)
    lhs = moment(conjugate(p, g))
    rhs = g @ moment(p) @ dagger(g)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_omega_antisymmetry_and_invariance():
    n = 3
    p = rand_p(n)
    v = rand_tangent(p, n)
    w = rand_tangent(p, n)
    assert abs(omega_eval(p, v, v)) < 1e-12
    val = omega_eval(p, v, w)
    assert abs(val + omega_eval(p, w, v)) < 1e-12
    g = random_special_unitary(n, RNG)
    pg = conjugate(p, g)
    vg = DoubleTangent(g @ v.dA @ dagger(g), g @ v.dB @ dagger(g))
    wg = DoubleTangent(g @ w.dA @ dagger(g), g @ w.dB @ dagger(g))
    assert abs(omega_eval(pg, vg, wg) - val) < 1e-11


def test_omega_rejects_non_tangent():
    n = 3
    p = rand_p(n)
    bad = DoubleTangent(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))
    with pytest.raises(TangencyViolation):
        omega_eval(p, bad, bad)


def test_axiom_a2_against_moment_differential():
    # omega(zeta_M, v) = <mu^*(theta + bar theta)(v), zeta> / 2
    n = 3
    c = Coupling.default(n)
    h = FD_STEP
    p = rand_p(n)
    for _ in range(5):
        zeta = random_su_algebra(n, RNG)
        X = random_su_algebra(n, RNG)
        Y = random_su_algebra(n, RNG)
        v = geodesic_tangent(p, X, Y)

        def mu_at(s):
            return moment(DoublePoint(p.A @ expm(s * X), p.B @ expm(s * Y)))

        dmu = (mu_at(h) - mu_at(-h)) / (2 * h)
        mu0v = np.linalg.inv(mu_at(0.0))
        pairing = 0.5 * scalar_product(mu0v @ dmu + dmu @ mu0v, zeta)
        lhs = omega_eval(p, vertical_tangent(p, zeta), v)
        assert abs(lhs - pairing) < 1e-5


@pytest.mark.parametrize(
    "kind,side", [("spectral", "first"), ("spectral", "second"), ("re_trace", "first"), ("im_trace", "second"), ("dehn", "first")]
)
def test_flow_conserves_moment_and_t0(kind, side):
    n = 3
    p = rand_p(n)
    ham = InvariantHamiltonian(kind, 1, side)
    assert np.linalg.norm(flow(p, ham, 0.0).A - p.A) < 1e-14
    q = flow(p, ham, 1.7)
    assert np.linalg.norm(moment(q) - moment(p)) < 1e-10
    if side == "first":
        assert np.linalg.norm(q.A - p.A) < 1e-14
    else:
        assert np.linalg.norm(q.B - p.B) < 1e-14


def test_spectral_flow_2pi_periodic():
    n = 4
    p = rand_p(n)
    for j in (1, 2, 3):
        ham = InvariantHamiltonian("spectral", j, "first")
        q = flow(p, ham, 2 * math.pi)
        assert np.linalg.norm(q.A - p.A) < 1e-12
        assert np.linalg.norm(q.B - p.B) < 1e-10


def test_alpha_flows_commute():
    n = 3
    p = rand_p(n)
    s, t = RNG.uniform(0, 3, 2)
    h1 = InvariantHamiltonian("spectral", 1, "first")
    h2 = InvariantHamiltonian("spectral", 2, "first")
    q1 = flow(flow(p, h1, s), h2, t)
    q2 = flow(flow(p, h2, t), h1, s)
    assert np.linalg.norm(q1.A - q2.A) < 1e-12
    assert np.linalg.norm(q1.B - q2.B) < 1e-11


def test_flow_preserves_spectrum_of_flowing_side():
    n = 3
    p = rand_p(n)
    xiA = spectral_xi(p.A)[0]
    q = flow(p, InvariantHamiltonian("spectral", 1, "first"), 0.9)
    assert np.allclose(spectral_xi(q.A)[0], xiA, atol=1e-12)


def test_trace_gradients_against_finite_differences():
    n = 3
    h = FD_STEP
    X = random_special_unitary(n, RNG)
    for kind, m in (("re_trace", 1), ("re_trace", 2), ("im_trace", 1), ("im_trace", 3), ("dehn", 1), ("spectral", 2)):
        ham = InvariantHamiltonian(kind, m, "first")
        grad = hamiltonian_gradient(ham, X)

        def val(M):
            if kind == "re_trace":
                return np.trace(np.linalg.matrix_power(M, m)).real
            if kind == "im_trace":
                return np.trace(np.linalg.matrix_power(M, m)).imag
            xi = spectral_xi(M)[0]
            if kind == "spectral":
                return xi[m - 1]
            return ref_dehn_value(xi)

        for _ in range(20):
            zeta = random_su_algebra(n, RNG)
            fd = (val(expm(h * zeta) @ X) - val(expm(-h * zeta) @ X)) / (2 * h)
            assert abs(fd - scalar_product(zeta, grad)) < 1e-6


def test_dehn_flow_is_lax_multiplication():
    # side 'second' at time s multiplies A by B^s; at s = 1 this is T
    n = 3
    p = rand_p(n)
    ham = InvariantHamiltonian("dehn", 1, "second")
    s = 0.6
    q = flow(p, ham, s)
    one = np.eye(n, dtype=complex)
    power = flow(DoublePoint(one, p.B), ham, s).A
    assert np.linalg.norm(q.A - p.A @ power) < 1e-11
    q1 = flow(p, ham, 1.0)
    t = auto_apply("T", p)
    assert np.linalg.norm(q1.A - t.A) < 1e-11
    ham_t = InvariantHamiltonian("dehn", 1, "first")
    q2 = flow(p, ham_t, 1.0)
    tt = auto_apply("Ttilde", p)
    assert np.linalg.norm(q2.B - tt.B) < 1e-11


def ref_hamiltonian_gradient(h, X):
    """grad h(X) from its defining formulas: the conjugated spectral
    generator, the traceless anti-Hermitian part of -m X^m resp. i m X^m,
    and the conjugated alcove logarithm."""
    if h.kind == "re_trace":
        return traceless_antihermitian(-2.0 * h.index * np.linalg.matrix_power(X, h.index))
    if h.kind == "im_trace":
        return traceless_antihermitian(2j * h.index * np.linalg.matrix_power(X, h.index))
    xi, g = spectral_xi(X)
    if h.kind == "spectral":
        e = np.zeros(X.shape[-1])
        e[h.index], e[h.index - 1] = 1.0, -1.0
        return dagger(g) @ np.diag(1j * e) @ g
    return dagger(g) @ np.diag(1j * alcove_exponents(xi)) @ g


def ref_flow(p, h, t):
    """The flow through the matrix exponential of the gradient."""
    if h.side == "first":
        return DoublePoint(p.A, p.B @ expm(-t * ref_hamiltonian_gradient(h, p.A)))
    return DoublePoint(p.A @ expm(t * ref_hamiltonian_gradient(h, p.B)), p.B)


def _hamiltonians(n, side):
    for j in range(1, n):
        yield InvariantHamiltonian("spectral", j, side)
    for m in (1, 2):
        yield InvariantHamiltonian("re_trace", m, side)
        yield InvariantHamiltonian("im_trace", m, side)
    yield InvariantHamiltonian("dehn", 1, side)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_flow_matches_expm_reference(n):
    p = rand_p(n)
    for side in ("first", "second"):
        for ham in _hamiltonians(n, side):
            X = p.A if side == "first" else p.B
            grad = hamiltonian_gradient(ham, X)
            assert np.abs(grad - ref_hamiltonian_gradient(ham, X)).max() < 1e-12
            for t in (0.0, 1.0, -3.0, 10.0):
                q, want = flow(p, ham, t), ref_flow(p, ham, t)
                assert np.abs(q.A - want.A).max() < 1e-12
                assert np.abs(q.B - want.B).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_dehn_time_one_flow_is_the_factor(n):
    # exp(grad h(X)) = X for the Dehn Hamiltonian, so from the identity the
    # time-one flow reaches X (side 'second') and X^{-1} (side 'first')
    X = random_special_unitary(n, RNG)
    one = np.eye(n, dtype=complex)
    q = flow(DoublePoint(one, X), InvariantHamiltonian("dehn", 1, "second"), 1.0)
    assert np.abs(q.A - X).max() < 1e-13
    q = flow(DoublePoint(X, one), InvariantHamiltonian("dehn", 1, "first"), 1.0)
    assert np.abs(q.B - dagger(X)).max() < 1e-13


def test_torus_action_group_law_and_triviality():
    n = 4
    p = rand_p(n)
    zero = np.zeros(n - 1)
    q = torus_action(p, "a", zero)
    assert np.linalg.norm(q.B - p.B) < 1e-13
    th1 = RNG.uniform(0, 2 * math.pi, n - 1)
    th2 = RNG.uniform(0, 2 * math.pi, n - 1)
    for side in ("a", "b"):
        q1 = torus_action(torus_action(p, side, th1), side, th2)
        q2 = torus_action(p, side, th1 + th2)
        assert np.linalg.norm(q1.A - q2.A) < 1e-10
        assert np.linalg.norm(q1.B - q2.B) < 1e-10


def test_torus_action_fixes_own_spectrum():
    n = 3
    p = rand_p(n)
    th = RNG.uniform(0, 2 * math.pi, n - 1)
    qa = torus_action(p, "a", th)
    assert np.allclose(spectral_xi(qa.A)[0], spectral_xi(p.A)[0], atol=1e-12)
    qb = torus_action(p, "b", th)
    assert np.allclose(spectral_xi(qb.B)[0], spectral_xi(p.B)[0], atol=1e-12)


def test_torus_action_matches_spectral_flow():
    # the alpha_j flow at time t is the side-a action with angle t in slot j
    n = 3
    p = rand_p(n)
    t = 1.234
    q_flow = flow(p, InvariantHamiltonian("spectral", 2, "first"), t)
    th = np.zeros(n - 1)
    th[1] = t
    q_act = torus_action(p, "a", th)
    assert np.linalg.norm(q_flow.B - q_act.B) < 1e-11


def test_rho_embedding_values():
    th = np.array([0.4, -1.1])
    rho = rho_embedding(th, 3)
    expected = np.diag(np.exp(1j * np.array([0.4, -1.5, 1.1])))
    assert np.allclose(rho, expected, atol=1e-14)
    assert abs(np.linalg.det(rho) - 1.0) < 1e-14


def test_torus_maps_and_generators_reject_bad_arguments():
    p = rand_p(3)
    with pytest.raises(ValueError, match="need 2 angles"):
        rho_embedding(np.zeros(3), 3)
    with pytest.raises(ValueError, match="side must be 'a' or 'b', got 'c'"):
        torus_action(p, "c", np.zeros(2))
    with pytest.raises(ValueError, match="unknown generator 'R'"):
        auto_apply("R", p)


def test_s_fourth_power_is_twist():
    for n in (2, 3, 4):
        for _ in range(34):
            p = rand_p(n)
            s4 = apply_word(["S", "S", "S", "S"], p)
            q = auto_apply("Q", p)
            assert np.linalg.norm(s4.A - q.A) < 1e-10
            assert np.linalg.norm(s4.B - q.B) < 1e-10


def test_ttilde_equals_inverse_tst_exactly():
    # composing the explicit formulas: observed central factor is Q^0
    n = 3
    for _ in range(25):
        p = rand_p(n)
        tst = apply_word(["T", "S", "T"], p)
        # invert: find x with TST(x) = p, i.e. x = (TST)^{-1}(p) = Ttilde(p)
        tt = auto_apply("Ttilde", p)
        back = apply_word(["T", "S", "T"], tt)
        assert np.linalg.norm(back.A - p.A) < 1e-12
        assert np.linalg.norm(back.B - p.B) < 1e-12


def test_t_ttilde_t_is_s_inverse_exactly():
    n = 3
    p = rand_p(n)
    w = apply_word(["T", "Ttilde", "T"], p)
    s = auto_apply("S", w)
    assert np.linalg.norm(s.A - p.A) < 1e-12
    assert np.linalg.norm(s.B - p.B) < 1e-12


def test_automorphisms_preserve_moment():
    n = 3
    p = rand_p(n)
    mu = moment(p)
    for gen in ("S", "T", "Ttilde", "Q"):
        q = auto_apply(gen, p)
        if gen == "Q":
            m = moment(p)
            expected = np.linalg.inv(m) @ mu @ m
        else:
            expected = mu
        assert np.linalg.norm(moment(q) - expected) < 1e-11, gen


def test_nu_is_involution_and_conjugates_moment():
    n = 3
    p = rand_p(n)
    q = auto_apply("nu", auto_apply("nu", p))
    assert np.linalg.norm(q.A - p.A) < 1e-14
    nu_p = auto_apply("nu", p)
    assert np.linalg.norm(moment(nu_p) - np.conjugate(np.linalg.inv(moment(p)))) < 1e-11


def test_automorphisms_preserve_omega():
    n = 3
    c = Coupling.default(n)
    p = rand_p(n)
    for gen in ("S", "T", "Ttilde"):
        f = lambda q: auto_apply(gen, q)
        v = rand_tangent(p, n)
        w = rand_tangent(p, n)
        val = omega_eval(p, v, w)
        fv = _push(f, p, v)
        fw = _push(f, p, w)
        assert abs(omega_eval(f(p), fv, fw) - val) < 1e-5, gen


def test_nu_reverses_omega():
    n = 3
    c = Coupling.default(n)
    p = rand_p(n)
    f = lambda q: auto_apply("nu", q)
    v = rand_tangent(p, n)
    w = rand_tangent(p, n)
    val = omega_eval(p, v, w)
    fv = _push(f, p, v)
    fw = _push(f, p, w)
    assert abs(omega_eval(f(p), fv, fw) + val) < 1e-5


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_push_and_moment_difference_are_the_tangent_maps(n):
    # the central differences along the straight line p + s v against the
    # product-rule tangents of v = (A X, B Y), so they are checked as
    # derivatives and not only through the 2-form they preserve
    rng = np.random.default_rng(n)
    for _ in range(20):
        p = random_double_point(n, rng)
        A, B, Ai, Bi = p.A, p.B, dagger(p.A), dagger(p.B)
        X, Y = random_su_algebra(n, rng), random_su_algebra(n, rng)
        dA, dB = A @ X, B @ Y
        exact = {
            "S": (-Bi @ dB @ Bi, dB @ A @ Bi + B @ dA @ Bi - B @ A @ Bi @ dB @ Bi),
            "T": (dA @ B + A @ dB, dB),
            "Ttilde": (dA, dB @ Ai - B @ Ai @ dA @ Ai),
            "nu": (np.conjugate(dB), np.conjugate(dA)),
        }
        v = geodesic_tangent(p, X, Y)
        for gen, (eA, eB) in exact.items():
            got = _push(lambda q: auto_apply(gen, q), p, v)
            assert max(np.linalg.norm(got.dA - eA), np.linalg.norm(got.dB - eB)) < 1e-7, gen
        dmu = dA @ B @ Ai @ Bi + A @ dB @ Ai @ Bi + A @ B @ dagger(dA) @ Bi
        dmu += A @ B @ Ai @ dagger(dB)
        fd = _central(moment(_ends(p, v)))
        assert np.linalg.norm(fd - dmu) < 1e-7


def _stack_of(points):
    return DoublePoint(np.array([q.A for q in points]), np.array([q.B for q in points]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hamiltonian_value_rows_are_the_one_point_calls(n):
    # on a stack of pairs each row of the value has the bits of its
    # one-point call, for every kind and both sides
    rng = np.random.default_rng(100 + n)
    points = [random_double_point(n, rng) for _ in range(3)]
    kinds = [("spectral", j) for j in range(1, n)]
    kinds += [("re_trace", 1), ("re_trace", 2), ("im_trace", 1), ("im_trace", 3), ("dehn", 1)]
    for kind, index in kinds:
        for side in ("first", "second"):
            ham = InvariantHamiltonian(kind, index, side)
            got = ham.value(_stack_of(points))
            assert got.shape == (3,)
            assert np.array_equal(got, [ham.value(q) for q in points]), (kind, index, side)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_push_rows_are_the_one_point_pushes(n):
    # _push of a stack of three tangents at three points is the three
    # one-point pushes, bit for bit, through every generator
    rng = np.random.default_rng(200 + n)
    points = [random_double_point(n, rng) for _ in range(3)]
    tangents = [
        geodesic_tangent(q, random_su_algebra(n, rng), random_su_algebra(n, rng)) for q in points
    ]
    p = _stack_of(points)
    v = DoubleTangent(np.array([t.dA for t in tangents]), np.array([t.dB for t in tangents]))
    for gen in ("S", "T", "Ttilde", "nu"):
        f = lambda q, g=gen: auto_apply(g, q)
        got = _push(f, p, v)
        for i, (q, t) in enumerate(zip(points, tangents)):
            one = _push(f, q, t)
            assert np.array_equal(got.dA[i], one.dA) and np.array_equal(got.dB[i], one.dB), gen


def test_spectral_flow_rejects_degenerate():
    n = 3
    p = DoublePoint(np.eye(n, dtype=complex), random_special_unitary(n, RNG))
    with pytest.raises(NonRegular):
        flow(p, InvariantHamiltonian("spectral", 1, "first"), 0.5)


def _degenerate_factors(n):
    """The identity and a delta point with two equal eigenphases (xi_n = 0)."""
    xi = np.full(n, math.pi / (n - 1))
    xi[-1] = 0.0
    return np.eye(n, dtype=complex), alcove_delta(xi)


# every consumer of the decomposition (xi, g) of one factor X
DECOMPOSITION_CONSUMERS = {
    "gradient-spectral": lambda X, c: hamiltonian_gradient(InvariantHamiltonian("spectral", 1), X),
    "gradient-dehn": lambda X, c: hamiltonian_gradient(InvariantHamiltonian("dehn", 1), X),
    "flow": lambda X, c: flow(DoublePoint(X, X), InvariantHamiltonian("dehn", 1, "second"), 0.5),
    "torus-a": lambda X, c: torus_action(DoublePoint(X, X), "a", np.full(c.n - 1, 0.3)),
    "torus-b": lambda X, c: torus_action(DoublePoint(X, X), "b", np.full(c.n - 1, 0.3)),
    "orbit-frame": lambda X, c: _orbit_frame(X, c),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("consumer", list(DECOMPOSITION_CONSUMERS))
def test_every_decomposition_consumer_rejects_degenerate(consumer, n):
    # the regularity rule lives in spectral_xi alone; each consumer of
    # (xi, g) raises its NonRegular on a degenerate factor
    c = Coupling.default(n)
    for X in _degenerate_factors(n):
        with pytest.raises(NonRegular):
            DECOMPOSITION_CONSUMERS[consumer](X, c)


def test_invariant_hamiltonian_validation():
    with pytest.raises(ValueError):
        InvariantHamiltonian("bogus", 1, "first")
    with pytest.raises(ValueError):
        InvariantHamiltonian("re_trace", 0, "first")
    with pytest.raises(ValueError):
        InvariantHamiltonian("spectral", 1, "third")


def test_hamiltonian_value_reads_correct_side():
    n = 3
    p = rand_p(n)
    h1 = InvariantHamiltonian("spectral", 1, "first")
    h2 = InvariantHamiltonian("spectral", 1, "second")
    assert abs(h1.value(p) - spectral_xi(p.A)[0][0]) < 1e-14
    assert abs(h2.value(p) - spectral_xi(p.B)[0][0]) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_dehn_value_matches_weight_formula(n):
    for _ in range(10):
        p = rand_p(n)
        for side, X in (("first", p.A), ("second", p.B)):
            value = InvariantHamiltonian("dehn", 1, side).value(p)
            assert abs(value - ref_dehn_value(spectral_xi(X)[0])) <= 1e-13


@pytest.mark.parametrize("index", [0, 3, 4])
def test_spectral_value_rejects_index_outside_range(index):
    # Xi_j exists for j = 1..n-1; the value raises as the gradient does
    # before the factor is decomposed: a NaN pair raises the index error too
    n = 3
    nan = np.full((n, n), np.nan, dtype=complex)
    for p in (rand_p(n), DoublePoint(nan, nan)):
        for side in ("first", "second"):
            ham = InvariantHamiltonian("spectral", index, side)
            with pytest.raises(ValueError, match="spectral index must be in 1..2"):
                ham.value(p)
            with pytest.raises(ValueError, match="spectral index must be in 1..2"):
                flow(p, ham, 0.5)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_sun_and_double_take_no_coupling():
    # n is the size of the matrix or vector a function acts on; a Coupling
    # is taken only where y, chi0, mu0 or v_scale is read
    found = dict(_public_functions(sun)) | dict(_public_functions(double))
    assert {"alcove_delta", "spectral_xi", "flow", "InvariantHamiltonian.value"} <= set(found)
    found.update(chart_gauge=projective.chart_gauge, to_chart=projective.to_chart,
                 fs_omega_eval=projective.fs_omega_eval, _lax_from=lax._lax_from)
    takes_c = [name for name, f in found.items() if "c" in inspect.signature(f).parameters]
    assert takes_c == []
