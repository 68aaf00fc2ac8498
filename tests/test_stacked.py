"""The per-point core on stacks: every row of a stacked call is the one-point
call bit for bit, and a stack with one bad row raises that row's error."""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from rsdual import sun
from rsdual.coupling import Coupling, check_alcove, random_shifted_alcove
from rsdual.double import (
    DoublePoint,
    DoubleTangent,
    InvariantHamiltonian,
    _gradient_eig,
    apply_word,
    auto_apply,
    flow,
    flow_map,
    omega_eval,
    random_double_point,
)
from rsdual.errors import (
    AlcoveViolation,
    ChartViolation,
    ConstraintViolation,
    DomainViolation,
    NonRegular,
    NormViolation,
    SingularDenominator,
    TangencyViolation,
    ZeroVector,
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
from rsdual.projective import (
    canonicalize,
    chart_gauge,
    chart_index,
    from_chart,
    involution,
    moment_J,
    moment_J_full,
    projective_distance,
    random_point,
    rot_action,
    to_chart,
    vertex_points,
)
from rsdual.reduction import (
    _from_alpha,
    _label,
    _lift,
    _orbit_frame,
    _relabel,
    action_variables,
    constraint_residual,
    duality,
    f_beta_inv,
    mapclass_on_P,
    reduced_flow,
    section_F,
)
from rsdual.sun import (
    alcove_delta,
    alcove_exponents,
    alcove_point,
    random_special_unitary,
    random_su_algebra,
    spectral_xi,
)

NS = (2, 3, 4, 8, 16)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def sample_points(c, rng):
    """Random points, points next to each wall u_k = 0, and near-vertex
    points, as one (count, n) array."""
    pts = [random_point(c, rng) for _ in range(4)]
    for k in range(c.n):
        z = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
        z[k] *= 1e-7
        pts.append(canonicalize(z, c))
    pts += vertex_points(c, eps=1e-4, rng=rng)
    return np.array(pts)


@pytest.mark.parametrize("n", NS + (32,))
def test_global_lax_and_alcove_point_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    U = sample_points(c, np.random.default_rng(n))
    K = global_lax(U, c)
    xi = alcove_point(K)
    for u, Ku, xu in zip(U, K, xi):
        assert same_bits(Ku, global_lax(u, c))
        assert same_bits(xu, alcove_point(Ku))
    # two leading axes, as the chart Jacobians stack them
    assert same_bits(alcove_point(global_lax(U.reshape(2, -1, n), c)).reshape(xi.shape), xi)


@pytest.mark.parametrize("n", NS)
def test_vertex_points_are_the_per_vertex_draws(n):
    # one draw of all n perturbations is the stream of n (re, im) draws, and
    # the result stays a list: list + vertex_points(...) must concatenate
    c = Coupling.default(n)
    pts = vertex_points(c, eps=1e-4, rng=np.random.default_rng(n))
    assert isinstance(pts, list) and len(pts) == n
    rng = np.random.default_rng(n)
    for k, u in enumerate(pts):
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert same_bits(u, canonicalize(np.eye(n, dtype=complex)[k] + 1e-4 * noise, c))
    for k, u in enumerate(vertex_points(c)):
        assert same_bits(u, canonicalize(np.eye(n, dtype=complex)[k], c))


@pytest.mark.parametrize("n", (2, 3, 4, 8, 32))
def test_sampler_counts_are_the_one_point_draws(n):
    # each sampler's count form gives the rows of that many one-point calls
    # on the same rng, bit for bit, and leaves the rng where they leave it
    c = Coupling.default(n)
    count = 12
    samplers = {
        "point": lambda rng, k=None: random_point(c, rng, 0.0, k),
        "interior point": lambda rng, k=None: random_point(c, rng, 1.0 / n, k),
        "SU(n)": lambda rng, k=None: random_special_unitary(n, rng, k),
        "su(n)": lambda rng, k=None: random_su_algebra(n, rng, k),
        "alcove": lambda rng, k=None: random_shifted_alcove(c, rng, 0.02, k),
        "double": lambda rng, k=None: _pair_stack(random_double_point(n, rng, k)),
    }
    for name, draw in samplers.items():
        one, stacked = np.random.default_rng(n), np.random.default_rng(n)
        rows = draw(stacked, count)
        assert len(rows) == count, name
        for row in rows:
            assert same_bits(row, draw(one)), name
        assert one.bit_generator.state == stacked.bit_generator.state, name
    # the interior points are those of the per-candidate loop, which rejects
    # about two candidates in three at bias 1/n
    rng = np.random.default_rng(n)
    want, candidates = [], 0
    while len(want) < count:
        u = canonicalize(rng.standard_normal(n) + 1j * rng.standard_normal(n), c)
        candidates += 1
        if np.min(np.abs(u) ** 2) > c.chi0 / n**2:
            want.append(u)
    assert candidates > count
    assert same_bits(random_point(c, np.random.default_rng(n), 1.0 / n, count), np.array(want))


def _pair_stack(p):
    """A and B of a pair, or of each pair of a stack, on axis -3."""
    return np.stack((p.A, p.B), -3)


@pytest.mark.parametrize("n", NS)
def test_w_factors_and_v_vector_rows_are_the_one_point_calls(n):
    # a stack of exactly n rows once gathered r_{k-1} along the wrong axis
    c = Coupling.default(n)
    U = sample_points(c, np.random.default_rng(800 + n))
    for xi in (moment_J_full(U, c), moment_J_full(U[:n], c)):
        W = w_factors(xi, c)
        v, z = v_vector(xi, c)
        for k, x in enumerate(xi):
            for part, one in zip(W, w_factors(x, c)):
                assert same_bits(part[k], one)
            v1, z1 = v_vector(x, c)
            assert same_bits(v[k], v1) and same_bits(z[k], z1)
    # the functions of the local Lax matrix, on interior points and next to
    # each wall, also at y = 1e-6 with xi_k - y = 1e-11, where local_lax's
    # unitarity is hardest to keep
    rng = np.random.default_rng(900 + n)
    for c in (Coupling.default(n), Coupling(n, 1e-6)):
        xi, theta, p = local_draws(c, rng)
        for rows in (slice(None), slice(n)):
            L = local_lax(xi[rows], theta[rows], c)
            H = local_hamiltonian(xi[rows], p[rows], c)
            v = v_vector(xi[rows], c)[0]
            mu, d = mu_of_v(v, c), alcove_delta(xi[rows])
            for k, x in enumerate(xi[rows]):
                assert same_bits(L[k], local_lax(x, theta[k], c))
                assert same_bits(H[k], local_hamiltonian(x, p[k], c))
                assert same_bits(mu[k], mu_of_v(v[k], c))
                assert same_bits(d[k], alcove_delta(x))
                assert same_bits(d[k], np.diag(np.exp(1j * alcove_exponents(x))))


def local_draws(c, rng):
    """Alcove points (interior, then xi_k - y = 1e-11 for each k in turn),
    each with a torus diagonal Theta of det 1 and momenta summing to 0."""
    xi = [random_shifted_alcove(c, rng) for _ in range(4)]
    for k in range(c.n):
        x = random_shifted_alcove(c, rng)
        rest, x[k] = x[k] - (c.y + 1e-11), c.y + 1e-11
        x[x.argmax()] += rest
        xi.append(x)
    phases = rng.uniform(-np.pi, np.pi, (len(xi), c.n))
    phases[:, -1] = -phases[:, :-1].sum(-1)
    return np.array(xi), np.exp(1j * phases), phases


@pytest.mark.parametrize("n", NS)
def test_chart_maps_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    U = sample_points(c, np.random.default_rng(850 + n))
    charts = np.array([chart_index(u) for u in U])
    W = to_chart(U, charts)
    assert W.shape == (len(U), n - 1)
    for k, (u, j) in enumerate(zip(U, charts)):
        assert same_bits(W[k], to_chart(u, j))
    inside = U[np.abs(U[:, 0]) > 0.1]
    for k, w in enumerate(to_chart(inside, 1)):
        assert same_bits(w, to_chart(inside[k], 1))
    # two leading axes, one chart per row
    square = to_chart(U.reshape(2, -1, n), charts.reshape(2, -1))
    assert same_bits(square.reshape(W.shape), W)
    # and back: a per-row chart once put u_j into the wrong slots, silently
    back = from_chart(W, charts, c)
    for k, j in enumerate(charts):
        assert same_bits(back[k], from_chart(W[k], j, c))
    assert same_bits(from_chart(square, charts.reshape(2, -1), c).reshape(back.shape), back)


@pytest.mark.parametrize("n", NS)
def test_section_F_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    rng = np.random.default_rng(100 + n)
    U = sample_points(c, rng)

    def agree(p, points, charts):
        res = constraint_residual(p, c)
        for k, (u, j) in enumerate(zip(points, charts)):
            q = section_F(u, j, c)
            assert same_bits(p.A[k], q.A) and same_bits(p.B[k], q.B)
            assert same_bits(res[k], constraint_residual(q, c))

    # each point in its own chart (mixed charts), then every chart of one point
    charts = np.array([chart_index(u) for u in U])
    agree(section_F(U, charts, c), U, charts)
    u = random_point(c, rng, interior_bias=0.02)
    every = np.arange(1, n + 1)
    agree(section_F(np.broadcast_to(u, (n, n)), every, c), [u] * n, every)
    # one chart for the whole stack: the points well inside chart j
    for j in (1, n):
        inside = U[np.abs(U[:, j - 1]) > 0.1]
        agree(section_F(inside, j, c), inside, [j] * len(inside))


@pytest.mark.parametrize("n", NS)
def test_omega_eval_rows_are_the_one_point_calls(n):
    rng = np.random.default_rng(200 + n)
    p = random_double_point(n, rng)

    def tangents():
        X = np.array([random_su_algebra(n, rng) for _ in range(10)])
        return DoubleTangent(p.A @ X[:5], p.B @ X[5:])

    v, w = tangents(), tangents()
    om = omega_eval(p, v, w)
    assert om.shape == (5,)
    for k in range(5):
        one = omega_eval(p, DoubleTangent(v.dA[k], v.dB[k]), DoubleTangent(w.dA[k], w.dB[k]))
        assert same_bits(om[k], one)


def test_a_bad_row_raises_what_it_raises_alone():
    c = Coupling.default(3)
    rng = np.random.default_rng(5)
    U = np.array([random_point(c, rng) for _ in range(4)])

    def raises_as_alone(f, stack, k, error):
        with pytest.raises(error):
            f(stack[k])
        with pytest.raises(error):
            f(stack)

    off_norm = U.copy()
    off_norm[2] *= 1.01
    raises_as_alone(lambda u: global_lax(u, c), off_norm, 2, NormViolation)
    off_chart = U.copy()
    off_chart[1, 0] = 0.0
    raises_as_alone(lambda u: section_F(u, 1, c), off_chart, 1, ChartViolation)
    per_row = lambda u: section_F(u, np.ones(u.shape[:-1], int), c)
    raises_as_alone(per_row, off_chart, 1, ChartViolation)
    xi = np.abs(U) ** 2 + c.y
    xi[3] = [2.8, 0.9, np.pi - 3.7]  # past the walls, only wp^2 < 0
    raises_as_alone(lambda x: _lambda_parts(x, c), xi, 3, DomainViolation)
    x = np.array([[0.6, 0.0, 0.8], [0.6, 0.0, 0.81]])
    raises_as_alone(lambda x: reflection_g(x, 3), x, 1, NormViolation)


def test_a_bad_row_of_the_local_lax_functions_raises_what_it_raises_alone():
    # rows 1 and 3 are bad, each in its own way; the stack reports row 1
    c = Coupling.default(3)
    xi, theta, p = local_draws(c, np.random.default_rng(6))
    xi, theta, p = xi[:4], theta[:4], p[:4]

    def raises_as_alone(f, error, *stacks):
        with pytest.raises(error) as alone:
            f(*(stack[1] for stack in stacks))
        with pytest.raises(error) as stacked:
            f(*stacks)
        assert str(stacked.value) == str(alone.value)

    wall = xi.copy()
    for row, k in ((1, 1), (3, 0)):  # xi_k = y: a vanishing denominator
        wall[row, 2] += wall[row, k] - c.y
        wall[row, k] = c.y
    raises_as_alone(lambda x, t: local_lax(x, t, c), SingularDenominator, wall, theta)
    v = v_vector(xi, c)[0]
    v[1] *= 1.5
    v[3] *= 0.5
    raises_as_alone(lambda v: mu_of_v(v, c), NormViolation, v)
    off = p.copy()
    off[1, 0] += 0.5
    off[3, 0] += 0.25
    raises_as_alone(lambda x, q: local_hamiltonian(x, q, c), DomainViolation, xi, off)
    off = xi.copy()
    off[1, 0] += 0.1
    off[3, 0] += 0.2
    raises_as_alone(alcove_delta, AlcoveViolation, off)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_chart_maps_reject_a_non_finite_entry_off_the_chart(bad):
    # only |u_j| was checked, so a NaN in another entry came back as NaN
    c = Coupling.default(3)
    rng = np.random.default_rng(13)
    U = np.array([random_point(c, rng, interior_bias=0.5) for _ in range(4)])
    U[1, 2] = bad
    U[3, 0] = 0.0  # off chart 1: a later row's ChartViolation does not mask row 1
    maps = (lambda u: chart_gauge(u, 1), lambda u: to_chart(u, 1), lambda u: section_F(u, 1, c))
    for f in maps:
        with pytest.raises(ValueError, match="non-finite") as alone:
            f(U[1])
        for stack in (U, U.reshape(2, 2, 3)):
            with pytest.raises(ValueError, match="non-finite") as stacked:
                f(stack)
            assert str(stacked.value) == str(alone.value)
        with pytest.raises(ChartViolation):
            f(U[[0, 3, 1]])  # an earlier row off the chart raises first


def test_a_bad_row_of_the_eigensolvers_raises_what_it_raises_alone():
    # both stacked eigensolvers take the whole stack at once; the first bad
    # row still raises what it raises alone, with one leading axis or two
    rng = np.random.default_rng(9)
    mats = np.array([random_special_unitary(3, rng) for _ in range(6)])

    def raises_as_alone(f, error, stack, k):
        with pytest.raises(error) as alone:
            f(stack[k])
        for shaped in (stack, stack.reshape((2, -1) + stack.shape[1:])):
            with pytest.raises(error) as stacked:
                f(shaped)
            assert str(stacked.value) == str(alone.value)

    for bad in (np.nan, np.inf):
        off = mats.copy()
        off[2, 0, 1] = bad
        raises_as_alone(alcove_point, LinAlgError, off, 2)
    flat = mats.copy()  # two non-regular rows, with different gaps
    flat[2] = np.diag(np.exp(1j * np.array([0.3, 0.3, -0.6])))
    flat[4] = np.diag(np.exp(1j * np.array([0.3, 0.3 + 1e-9, -0.6 - 1e-9])))
    raises_as_alone(spectral_xi, NonRegular, flat, 2)
    raises_as_alone(spectral_xi, NonRegular, flat[[0, 4, 1, 2]], 1)


def test_a_failed_lapack_call_in_a_stack_raises_the_first_bad_row(monkeypatch):
    # LAPACK failing on row 3 (never seen on unitary input, so forced here):
    # the stacked eigvals falls back on the rows in order, and the zgees
    # loop first tests the gaps of the rows before it
    rng = np.random.default_rng(10)
    mats = np.array([random_special_unitary(3, rng) for _ in range(5)])
    fails = mats[3]
    zgees, zgeev = sun.zgees, sun.zgeev

    def failing_zgees(select, A):
        *out, info = zgees(select, A)
        return (*out, 1 if np.array_equal(A, fails) else info)

    def failing_zgeev(A, **kw):
        *out, info = zgeev(A, **kw)
        return (*out, 1 if np.array_equal(A, fails) else info)

    def no_convergence(A):
        raise LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sun, "zgees", failing_zgees)
    monkeypatch.setattr(sun, "zgeev", failing_zgeev)
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    for f in (alcove_point, spectral_xi):
        with pytest.raises(LinAlgError) as alone:
            f(fails)
        assert "info=1" in str(alone.value)
        with pytest.raises(LinAlgError) as stacked:
            f(mats)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(LinAlgError, match="did not converge"):
        alcove_point(np.delete(mats, 3, 0))  # no row fails alone
    flat = mats.copy()
    flat[1] = np.diag(np.exp(1j * np.array([0.3, 0.3, -0.6])))
    with pytest.raises(NonRegular) as alone:
        spectral_xi(flat[1])
    with pytest.raises(NonRegular) as stacked:
        spectral_xi(flat)
    assert str(stacked.value) == str(alone.value)


def nan_row_cases():
    """(function, error, stacks, (stack, entry)) of each guarded function:
    the entry of row 1 of that stack that is set to NaN."""
    c = Coupling.default(3)
    rng = np.random.default_rng(12)
    u = np.array([random_point(c, rng) for _ in range(3)])
    xi, theta, p = (a[:3] for a in local_draws(c, rng))
    unit = u / np.sqrt(c.chi0)
    A = np.array([random_special_unitary(3, rng) for _ in range(3)])
    dA = A @ np.array([random_su_algebra(3, rng) for _ in range(3)])

    def check_tangent(A, dA):
        v = DoubleTangent(dA, np.zeros_like(dA))
        return omega_eval(DoublePoint(A, A), v, v)

    return {
        "mu_of_v": (lambda v: mu_of_v(v, c), NormViolation, [v_vector(xi, c)[0]], (0, 0)),
        "reflection_g": (lambda x: reflection_g(x, 3), NormViolation, [unit], (0, 1)),
        "chart_gauge": (lambda v: chart_gauge(v, 1), ChartViolation, [u], (0, 0)),
        "to_chart": (lambda v: to_chart(v, 1), ChartViolation, [u], (0, 0)),
        "from_chart": (lambda w: from_chart(w, 1, c), ChartViolation, [to_chart(u, 1)], (0, 1)),
        "local_lax": (lambda x, t: local_lax(x, t, c), ValueError, [xi, theta], (1, 2)),
        "local_hamiltonian": (lambda x, q: local_hamiltonian(x, q, c), DomainViolation, [xi, p], (1, 0)),
        "canonicalize": (lambda v: canonicalize(v, c), ValueError, [u], (0, 2)),
        "global_lax": (lambda v: global_lax(v, c), NormViolation, [u], (0, 1)),
        "tangent_check": (check_tangent, TangencyViolation, [A, dA], (1, 2)),
    }


@pytest.mark.parametrize("name", list(nan_row_cases()))
def test_a_nan_in_row_one_raises_that_rows_error(name):
    # a guard written value > bound lets NaN through; each is written so
    # that NaN fails it, and the stack reports row 1 as row 1 alone does
    f, error, stacks, (which, entry) = nan_row_cases()[name]
    stacks = [np.array(s, dtype=complex if np.iscomplexobj(s) else float) for s in stacks]
    stacks[which][1, entry] = np.nan
    with pytest.raises(error) as alone:
        f(*(s[1] for s in stacks))
    with pytest.raises(error) as stacked:
        f(*stacks)
    assert str(stacked.value) == str(alone.value)


# ---------------------------------------------------------------------------
# the relabel half: every map on CP(n-1) runs on a stack of points


def alone_and_stacked(f, stack):
    """f on the whole stack and on each row alone."""
    return f(stack), [f(row) for row in stack]


def assert_rows(stacked, alone):
    for k, one in enumerate(alone):
        assert same_bits(stacked[k], one), k


def lifted_pairs(c, rng):
    """Points of sample_points and their section lifts, stacked."""
    U = sample_points(c, rng)
    return U, _lift(U, c)


@pytest.mark.parametrize("n", NS + (32,))
def test_spectral_xi_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    rng = np.random.default_rng(300 + n)
    U, p = lifted_pairs(c, rng)
    mats = np.concatenate([p.B, global_lax(U, c), [random_special_unitary(n, rng)]])
    xi, g = spectral_xi(mats)
    for k, M in enumerate(mats):
        x1, g1 = spectral_xi(M)
        assert same_bits(xi[k], x1) and same_bits(g[k], g1)
        assert g[k].strides == g1.strides  # the layout matmuls see
    # two leading axes
    xi2, g2 = spectral_xi(mats[:8].reshape(2, 4, n, n))
    assert same_bits(xi2.reshape(8, n), xi[:8]) and same_bits(g2.reshape(8, n, n), g[:8])


@pytest.mark.parametrize("n", NS)
def test_relabel_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    U, p = lifted_pairs(c, np.random.default_rng(400 + n))
    frames = _orbit_frame(p.B, c)
    labels = f_beta_inv(p, c)
    for k, u in enumerate(U):
        one = DoublePoint(p.A[k], p.B[k])
        frame = _orbit_frame(one.B, c)
        for part in (0, 1, 3, 5):  # g, lam, den, rj
            assert same_bits(frames[part][k], frame[part])
        assert same_bits(_label(one.A, frame, c), labels[k])
        assert same_bits(f_beta_inv(one, c), labels[k])
        assert projective_distance(labels[k], u) < 1e-12
    # two leading axes, as section-consistency stacks its charts
    square = DoublePoint(*(m.reshape((2, -1) + m.shape[1:]) for m in (p.A, p.B)))
    assert same_bits(f_beta_inv(square, c).reshape(labels.shape), labels)


@pytest.mark.parametrize("n", NS)
def test_projective_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    rng = np.random.default_rng(500 + n)
    U = sample_points(c, rng)
    raw = U * rng.uniform(0.5, 2.0, (len(U), 1)) * np.exp(1j * rng.uniform(0, 6, (len(U), 1)))
    raw[0] *= 1e-200  # rows the norm guard rescales, beside ordinary ones
    raw[1] *= 1e200
    tie = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    raw = np.concatenate([raw, [tie]])
    assert_rows(*alone_and_stacked(lambda u: canonicalize(u, c), raw))
    assert_rows(*alone_and_stacked(chart_index, raw))
    for which in ("C", "Gamma", "sigma"):
        assert_rows(*alone_and_stacked(lambda u: involution(which, u), raw))
    V = np.roll(U, 1, axis=0)
    dist = projective_distance(U, V)
    assert_rows(dist, [projective_distance(u, v) for u, v in zip(U, V)])
    assert same_bits(projective_distance(U, U[:1]), projective_distance(U, U[0]))
    assert_rows(*alone_and_stacked(lambda u: moment_J(u, c), U))
    # one theta for all rows, then one per row; at n = 2 the stack once had
    # whole rows rotated (a global phase, so no point moved)
    theta = rng.uniform(0.0, 2.0 * np.pi, (len(U), n - 1))
    assert_rows(*alone_and_stacked(lambda u: rot_action(theta[0], u), U))
    assert_rows(rot_action(theta, U), [rot_action(t, u) for t, u in zip(theta, U)])


HAMILTONIANS = [
    InvariantHamiltonian(kind, 1, side)
    for kind in ("spectral", "re_trace", "im_trace", "dehn")
    for side in ("first", "second")
]


@pytest.mark.parametrize("n", NS)
def test_flow_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    rng = np.random.default_rng(600 + n)
    _, p = lifted_pairs(c, rng)
    t = rng.uniform(-5.0, 5.0, len(p.A))
    for h in HAMILTONIANS:
        V, lam = _gradient_eig(h, p.A)
        at = flow_map(p, h)
        for k in range(len(p.A)):
            one = DoublePoint(p.A[k], p.B[k])
            V1, lam1 = _gradient_eig(h, one.A)
            assert same_bits(V[k], V1) and same_bits(np.broadcast_to(lam, V.shape[:-1])[k], lam1)
            for q, q1 in ((at(t), flow(one, h, t[k])), (at(1.0), flow_map(one, h)(1.0))):
                assert same_bits(q.A[k], q1.A) and same_bits(q.B[k], q1.B)


@pytest.mark.parametrize("n", NS)
def test_maps_on_P_rows_are_the_one_point_calls(n):
    c = Coupling.default(n)
    rng = np.random.default_rng(700 + n)
    U = sample_points(c, rng)
    t = rng.uniform(0.5, 10.0, len(U))
    maps = [lambda u, w=w: duality(w, u, c) for w in ("S", "S_inv", "R")]
    maps += [lambda u: mapclass_on_P(["T", "Ttilde", "S"], u, c)]
    maps += [lambda u: action_variables(u, c)]
    for f in maps:
        assert_rows(*alone_and_stacked(f, U))
    lifts = _lift(U, c)
    for k, u in enumerate(U):
        one = _lift(u, c)
        assert same_bits(lifts.A[k], one.A) and same_bits(lifts.B[k], one.B)
    for h in (InvariantHamiltonian("re_trace", 1, "first"), InvariantHamiltonian("dehn", 1, "second")):
        flowed = reduced_flow(U, h, t, c)
        assert_rows(flowed, [reduced_flow(u, h, tk, c) for u, tk in zip(U, t)])
        # every point at three times, one per row of a broadcast stack, as
        # conservation flows its points
        times = t[:3]
        spread = reduced_flow(np.broadcast_to(U[:, None, :], (len(U), 3, n)), h, times, c)
        for k, u in enumerate(U):
            assert_rows(spread[k], [reduced_flow(u, h, tk, c) for tk in times])


@pytest.mark.parametrize("y", [None, 1e-4])
@pytest.mark.parametrize("n", (2, 3, 4, 8))
def test_maps_of_one_lift_label_as_the_public_maps_alone(n, y):
    # the stages of the relabelling checks: several maps of one lift,
    # labelled by one call, are each public map called on one point alone,
    # bit for bit
    c = Coupling.default(n) if y is None else Coupling(n, y)
    U = sample_points(c, np.random.default_rng(800 + n))
    dehn = [InvariantHamiltonian("dehn", 1, side) for side in ("second", "first")]
    stages = [
        (partial(auto_apply, "nu"), lambda u: duality("S", u, c)),  # by _from_alpha
        (lambda p: flow(p, dehn[0], 1.0), lambda u: reduced_flow(u, dehn[0], 1.0, c)),
        (partial(auto_apply, "T"), lambda u: mapclass_on_P(["T"], u, c)),
        (lambda p: flow(p, dehn[1], 1.0), lambda u: reduced_flow(u, dehn[1], 1.0, c)),
        (partial(auto_apply, "Ttilde"), lambda u: mapclass_on_P(["Ttilde"], u, c)),
        (partial(auto_apply, "S"), lambda u: mapclass_on_P(["S"], u, c)),
    ]
    labels = _relabel(U, c, *(act for act, _ in stages))
    su = _from_alpha(labels[:, 0], c)
    assert_rows(su, [stages[0][1](u) for u in U])
    for i, (_, f) in enumerate(stages[1:], 1):
        assert_rows(labels[:, i], [f(u) for u in U])
    word = ["T", "Ttilde", "T"]
    assert_rows(_relabel(su, c, partial(apply_word, word)), [mapclass_on_P(word, v, c) for v in su])
    # S of S(u) and C(S(u)), and Xi of u and S(u), each as one stack
    for f, stack in ((lambda v: duality("S", v, c), np.stack((su, involution("C", su)))),
                     (lambda v: action_variables(v, c), np.stack((U, su)))):
        got = f(stack)
        assert_rows(got.reshape((-1,) + got.shape[2:]), [f(v) for v in stack.reshape(-1, n)])


def test_a_bad_row_of_the_relabel_raises_what_it_raises_alone():
    c = Coupling.default(3)
    rng = np.random.default_rng(8)
    U = np.array([random_point(c, rng) for _ in range(4)])

    def raises_as_alone(f, stack, k, error):
        with pytest.raises(error) as alone:
            f(stack[k])
        with pytest.raises(error) as stacked:
            f(stack)
        assert str(stacked.value) == str(alone.value)

    mats = np.array([random_special_unitary(3, rng) for _ in range(4)])
    mats[2] = np.diag(np.exp(1j * np.array([0.3, 0.3, -0.6])))  # a repeated eigenvalue
    raises_as_alone(spectral_xi, mats, 2, NonRegular)
    p = _lift(U, c)
    A = p.A.copy()
    A[1] = A[1] @ random_special_unitary(3, rng)  # off the constraint surface
    pairs = np.stack((A, p.B), 1)
    raises_as_alone(lambda q: f_beta_inv(DoublePoint(q[..., 0, :, :], q[..., 1, :, :]), c), pairs, 1, ConstraintViolation)
    zero = U.copy()
    zero[3] = 0.0
    raises_as_alone(lambda u: canonicalize(u, c), zero, 3, ZeroVector)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_empty_stacks_give_empty_results(n):
    # a stack of no alcove points, points or pairs, (0, n) or (0, n, n),
    # goes through every layer and comes out empty, with no guard raising
    c = Coupling.default(n)
    xi, u, M = np.empty((0, n)), np.empty((0, n), complex), np.empty((0, n, n), complex)
    assert check_alcove(xi).shape == (0, n)
    assert [w.shape for w in w_factors(xi, c)] == [(0, n)] * 4
    assert local_lax(xi, np.ones((0, n)), c).shape == (0, n, n)
    assert alcove_delta(xi).shape == (0, n, n)
    assert global_lax(u, c).shape == (0, n, n)
    p = section_F(u, 1, c)
    assert p.A.shape == p.B.shape == (0, n, n)
    assert f_beta_inv(DoublePoint(M, M), c).shape == (0, n)
    assert reduced_flow(u, InvariantHamiltonian("dehn", 1, "first"), 1.0, c).shape == (0, n)
    assert mapclass_on_P(["T", "Ttilde"], u, c).shape == (0, n)
    for which in ("S", "S_inv", "R"):
        assert duality(which, u, c).shape == (0, n)
    assert [x.shape for x in spectral_xi(M)] == [(0, n), (0, n, n)]
    assert alcove_point(M).shape == canonicalize(u, c).shape == (0, n)
