"""The per-point core on stacks: every row of a stacked call is the one-point
call bit for bit, and a stack with one bad row raises that row's error."""

import numpy as np
import pytest

from rsdual.coupling import Coupling
from rsdual.double import DoubleTangent, omega_eval, random_double_point
from rsdual.errors import ChartViolation, DomainViolation, NormViolation
from rsdual.lax import _lambda_parts, global_lax, reflection_g
from rsdual.projective import canonicalize, chart_index, random_point, vertex_points
from rsdual.reduction import constraint_residual, section_F
from rsdual.sun import alcove_point, random_su_algebra

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


@pytest.mark.parametrize("n", NS)
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
