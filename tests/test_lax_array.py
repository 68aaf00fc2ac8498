"""The array core of the Lax layer against a per-entry reference.

The reference functions below build every matrix entry in a Python loop,
one scalar formula per entry.  The library builds the same objects as
whole-matrix numpy expressions.  W+-, Lambda and K(u) must agree with the
reference to 1e-12 on the interior, next to the walls of the moment
polytope (xi_k - y below 1e-4) and on the walls.  The chart gauge G_y^j(u)
must agree with its entry-by-entry assembly to 1e-14 in every chart.
L(delta, Theta) and H agree with it wherever the reference itself keeps
1e-12, and so does L(delta, 1)^dagger Theta with the reference at -y; next
to and on the walls, where the reference loses digits, they are checked
against K(u) instead, and L for unitarity at small y.
"""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from rsdual.coupling import Coupling, check_shifted_alcove
from rsdual.errors import AlcoveViolation, DomainViolation, SingularDenominator
from rsdual.lax import (
    _lambda_parts,
    global_lax,
    local_hamiltonian,
    local_lax,
    w_factors,
)
from rsdual.projective import (
    CHART_TOL,
    canonicalize,
    chart_gauge,
    moment_J_full,
    random_point,
    vertex_points,
)
from rsdual.reduction import _chart_lift
from rsdual.sun import alcove_exponents, dagger

NS = (2, 3, 4, 8, 16)
TOL = 1e-12
GAUGE_TOL = 1e-14


# ---------------------------------------------------------------------------
# per-entry reference


def sinratio(x):
    """sin(x)/x, 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def ref_partial_sums(xi):
    cum = np.cumsum(xi)

    def S(i, j):
        return cum[j] - (cum[i - 1] if i > 0 else 0.0)

    return S


def ref_pair_angle(S, k, l):
    if k == l:
        return 0.0
    if k > l:
        return S(l, k - 1)
    return -S(k, l - 1)


def ref_w_factor_data(xi, y):
    n = len(xi)
    S = ref_partial_sums(xi)
    wp2 = np.ones(n)
    wm2 = np.ones(n)
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            a = S(j, k - 1) if j < k else S(k, j - 1)
            sa = math.sin(a)
            if (j == k + 1) or (k == n - 1 and j == 0):
                wp2[k] *= sinratio(xi[k] - y) / sa
            else:
                wp2[k] *= math.sin(a + (y if j < k else -y)) / sa
            if (j == k - 1) or (k == 0 and j == n - 1):
                wm2[k] *= sinratio(xi[(k - 1) % n] - y) / sa
            else:
                wm2[k] *= math.sin(a + (-y if j < k else y)) / sa
    return wp2, wm2


def ref_w_factors(xi, c):
    wp2, wm2 = ref_w_factor_data(xi, c.y)
    r = np.sqrt(np.maximum(xi - c.y, 0.0))
    wp, wm = np.sqrt(wp2), np.sqrt(wm2)
    rm = np.array([r[(k - 1) % c.n] for k in range(c.n)])
    return r * wp, rm * wm, wp, wm


def ref_lambda_matrix(xi, c):
    n, y = c.n, c.y
    _, _, wp, wm = ref_w_factors(xi, c)
    S = ref_partial_sums(xi)
    siny = math.sin(y)
    lam = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            if l == (k + 1) % n:
                lam[k, l] = (
                    -siny * np.exp(1j * xi[k]) * wp[k] * wm[l] / sinratio(xi[k] - y)
                )
            else:
                phi = ref_pair_angle(S, k, l)
                lam[k, l] = siny * np.exp(-1j * phi) * wp[k] * wm[l] / math.sin(phi + y)
    return lam


def ref_global_lax(u, c):
    n = c.n
    u = u * math.sqrt(c.chi0 / float(np.vdot(u, u).real))
    lam = ref_lambda_matrix(np.abs(u) ** 2 + c.y, c)
    K = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            if l == (k + 1) % n:
                K[k, l] = lam[k, l]
            else:
                K[k, l] = np.conjugate(u[k]) * u[(l - 1) % n] * lam[k, l]
    return K


def ref_local_lax(xi, theta, c, y):
    n = c.n
    S = ref_partial_sums(xi)
    Wp = np.ones(n)
    Wm = np.ones(n)
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            a = S(j, k - 1) if j < k else S(k, j - 1)
            sa = math.sin(a)
            Wp[k] *= math.sin(a + (y if j < k else -y)) / sa
            Wm[k] *= math.sin(a + (-y if j < k else y)) / sa
    Wp = np.sqrt(np.maximum(Wp, 0.0))
    Wm = np.sqrt(np.maximum(Wm, 0.0))
    d = np.exp(1j * alcove_exponents(xi))
    num = np.exp(1j * y) - np.exp(-1j * y)
    L = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            den = np.exp(1j * y) * d[k] / d[l] - np.exp(-1j * y)
            L[k, l] = num / den * Wp[k] * Wm[l] * theta[l]
    return L


def ref_local_hamiltonian(xi, p, c):
    S = ref_partial_sums(xi)
    siny2 = math.sin(c.y) ** 2
    total = 0.0
    for j in range(c.n):
        prod = 1.0
        for k in range(c.n):
            if k == j:
                continue
            a = S(min(j, k), max(j, k) - 1)
            prod *= max(1.0 - siny2 / math.sin(a) ** 2, 0.0)
        total += math.cos(p[j]) * math.sqrt(prod)
    return total


def ref_smooth_chart_gauge(u, j, c):
    """G_y^j(u) entry by entry from conj(u_a) u_b and the smooth factors
    v_k / r_k, with the last chart j = n written out separately."""
    n = c.n
    u = chart_gauge(u, j)
    _, _, w_plus, _ = w_factors(moment_J_full(u, c), c)
    wh = math.sqrt(math.sin(c.y) / math.sin(c.n * c.y)) * w_plus
    jj = j - 1
    last = n - 1
    d = 1.0 + u[jj].real * wh[jj]
    G = np.zeros((n, n), dtype=complex)
    if jj == last:
        for a in range(n - 1):
            for b in range(n - 1):
                G[a, b] = (a == b) - np.conjugate(u[a]) * u[b] * wh[a] * wh[b] / d
            G[a, last] = np.conjugate(u[a]) * wh[a]
            G[last, a] = -u[a] * wh[a]
        G[last, last] = u[last].real * wh[last]
        return G
    others = [a for a in range(n) if a not in (jj, last)]
    for a in others:
        for b in others:
            G[a, b] = (a == b) - np.conjugate(u[a]) * u[b] * wh[a] * wh[b] / d
        G[a, jj] = -np.conjugate(u[a]) * u[last] * wh[a] * wh[last] / d
        G[a, last] = np.conjugate(u[a]) * wh[a]
        G[jj, a] = -u[a] * wh[a]
        G[last, a] = -np.conjugate(u[last]) * u[a] * wh[last] * wh[a] / d
    G[jj, jj] = -u[last] * wh[last]
    G[jj, last] = u[jj].real * wh[jj]
    G[last, jj] = 1.0 - (abs(u[last]) * wh[last]) ** 2 / d
    G[last, last] = np.conjugate(u[last]) * wh[last]
    return G


# ---------------------------------------------------------------------------
# inputs


def _random_u(c, rng):
    return canonicalize(rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n), c)


def _near_wall_u(c, rng, wall):
    """A point with |u_k|^2 = wall for one random slot k."""
    u = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
    k = int(rng.integers(c.n))
    u[k] = 0.0
    u *= math.sqrt(c.chi0 - wall) / np.linalg.norm(u)
    u[k] = math.sqrt(wall) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return canonicalize(u, c)


def _points(c, rng, walls=(1e-5, 1e-8, 1e-12)):
    """Interior points, points next to a wall and the polytope vertices."""
    pts = [_random_u(c, rng) for _ in range(3)]
    pts += [_near_wall_u(c, rng, w) for w in walls]
    return pts + vertex_points(c)


def _assert_lax_core_matches(u, c):
    xi = moment_J_full(u, c)
    for got, want in zip(w_factors(xi, c), ref_w_factors(xi, c)):
        assert np.max(np.abs(got - want)) <= TOL
    assert np.max(np.abs(_lambda_parts(xi, c)[0] - ref_lambda_matrix(xi, c))) <= TOL
    assert np.max(np.abs(global_lax(u, c) - ref_global_lax(u, c))) <= TOL


def _assert_gauge_matches(u, c):
    """G_y^j(u) against the entry assembly in every chart that contains u."""
    for j in range(1, c.n + 1):
        if abs(u[j - 1]) > CHART_TOL:
            got = _chart_lift(u, j, c)[2]
            assert np.max(np.abs(got - ref_smooth_chart_gauge(u, j, c))) <= GAUGE_TOL


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("n", NS)
def test_w_lambda_and_global_lax_match_reference(n):
    c = Coupling.default(n)
    rng = np.random.default_rng([71, n])
    for u in _points(c, rng):
        _assert_lax_core_matches(u, c)


def ref_lambda_expression(xi, c):
    """(Lambda, w_plus, w_minus) as one expression per step, with a
    temporary per product: every arc summed from its own start, and each
    sine and phase of the shorter of an arc and its complement."""
    n, y = c.n, c.y
    k = np.arange(n)
    sup = (k, (k + 1) % n)
    table = np.zeros((n, n))
    table[:, 1:] = np.cumsum(xi[(k[:, None] + k[:-1]) % n], axis=1)
    a = table[k, (k[:, None] - k) % n]
    short = np.minimum(a, a.T)
    s0 = np.sin(short)
    sp = np.sin(np.minimum(a + y, a.T - y))
    e = np.copysign(np.cos(short), a.T - a) + 0j  # cos a = -cos(pi - a) past pi/2
    e.imag = -s0
    sp[sup] = [s / g if g else 1.0 for s, g in zip(sp[sup], xi - y)]
    siny = math.sin(y)
    np.fill_diagonal(s0, siny)
    np.fill_diagonal(sp, siny)
    ratio = sp / s0
    wp, wm = np.sqrt(ratio.prod(axis=1)), np.sqrt(ratio.prod(axis=0))
    return siny * e * wp[:, None] * wm / sp, wp, wm


@pytest.mark.parametrize("n", NS)
def test_lambda_is_the_expression_bit_for_bit(n):
    # products in place, in the same order, give the same bits
    c = Coupling.default(n)
    rng = np.random.default_rng([73, n])
    for u in _points(c, rng) + vertex_points(c, eps=1e-4, rng=rng):
        xi = moment_J_full(u, c)
        got, want = _lambda_parts(xi, c), ref_lambda_expression(xi, c)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", NS)
def test_smooth_chart_gauge_matches_reference(n):
    c = Coupling.default(n)
    rng = np.random.default_rng([76, n])
    for u in _points(c, rng) + vertex_points(c, eps=1e-4, rng=rng):
        _assert_gauge_matches(u, c)


@pytest.mark.parametrize("n", NS)
def test_series_branch_points_take_the_series(n):
    # the near-wall inputs above do reach xi_k - y < 1e-4
    c = Coupling.default(n)
    u = _near_wall_u(c, np.random.default_rng(5), 1e-8)
    xi = moment_J_full(u, c)
    assert np.min(xi - c.y) < 1e-4
    _assert_lax_core_matches(u, c)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("sign", (1, -1))
def test_local_lax_matches_reference(n, sign):
    c = Coupling.default(n)
    rng = np.random.default_rng([72, n])
    for _ in range(4):
        xi = moment_J_full(random_point(c, rng, interior_bias=0.05), c)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        if sign > 0:
            got = local_lax(xi, theta, c)
        else:  # L(delta, Theta; -y) = L(delta, 1)^dagger Theta
            got = dagger(local_lax(xi, np.ones(n), c)) * theta
        assert np.max(np.abs(got - ref_local_lax(xi, theta, c, sign * c.y))) <= TOL


@pytest.mark.parametrize("n", NS)
def test_local_lax_next_to_a_wall(n):
    # The reference's denominator e^{iy} delta_k / delta_l - e^{-iy} loses
    # digits as 1/(xi_k - y) next to a wall (~1e-11 at xi_k - y = 1e-5,
    # ~1e-8 at 1e-8), so there L is checked against its assembly
    # r_k r_{l-1} Lambda_kl Theta_l, which K(r) is.
    c = Coupling.default(n)
    rng = np.random.default_rng([74, n])
    for wall in (1e-5, 1e-6, 1e-8):
        xi = moment_J_full(_near_wall_u(c, rng, wall), c)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        L = local_lax(xi, theta, c)
        K = global_lax(np.sqrt(xi - c.y), c)
        assert np.max(np.abs(L - K * theta)) <= TOL


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("y", (1e-6, 1e-4))
def test_local_lax_unitary_next_to_a_wall_at_small_y(n, y):
    # L keeps the 1e-9 lax-unitarity bound next to a wall at small y too
    c = Coupling(n, y)
    rng = np.random.default_rng([75, n])
    for wall in (1e-5, 1e-8, 1e-11):
        for _ in range(3):
            xi = moment_J_full(_near_wall_u(c, rng, wall), c)
            L = local_lax(xi, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)), c)
            assert np.linalg.norm(dagger(L) @ L - np.eye(n)) <= 1e-9


def test_local_lax_raises_at_a_wall():
    c = Coupling.default(4)
    for u in vertex_points(c):
        with pytest.raises(SingularDenominator):
            local_lax(moment_J_full(u, c), np.ones(4), c)


@pytest.mark.parametrize("n", NS)
def test_local_hamiltonian_matches_reference(n):
    # On a wall the reference's bracket 1 - sin^2 y / sin^2(x_j - x_k) is a
    # rounding error (~1e-16) instead of 0 and its root leaves ~4e-8 in H;
    # the walls are checked against Re tr K(u) below.
    c = Coupling.default(n)
    rng = np.random.default_rng([73, n])
    for u in _points(c, rng, walls=(1e-5, 1e-6))[: -c.n]:
        xi = moment_J_full(u, c)
        p = rng.uniform(-math.pi, math.pi, n)
        p -= p.mean()
        got = local_hamiltonian(xi, p, c)
        assert abs(got - ref_local_hamiltonian(xi, p, c)) <= TOL


def _assert_hamiltonian_is_trace_of_K(u, c):
    """H(xi, p) = Re tr K(u) at u_k = e^{i theta_k} sqrt(xi_k - y) and
    p_k = theta_{k-1} - theta_k, on walls too: K_kk = conj(u_k) u_{k-1}
    Lambda_kk and Lambda_kk = w_k^+ w_k^-.  u is rebuilt from xi because
    |u_k| and sqrt(xi_k - y) differ by ~1e-16 / |u_k| next to a wall."""
    xi = moment_J_full(u, c)
    theta = np.angle(u)
    p = np.roll(theta, 1) - theta
    K = global_lax(np.sqrt(np.maximum(xi - c.y, 0.0)) * np.exp(1j * theta), c)
    assert abs(local_hamiltonian(xi, p, c) - np.trace(K).real) <= TOL


@pytest.mark.parametrize("n", NS)
def test_local_hamiltonian_on_walls_is_trace_of_global_lax(n):
    c = Coupling.default(n)
    rng = np.random.default_rng([75, n])
    for u in _points(c, rng):
        _assert_hamiltonian_is_trace_of_K(u, c)
    for u in vertex_points(c):
        assert local_hamiltonian(moment_J_full(u, c), np.zeros(n), c) == 0.0


@st.composite
def wall_points(draw):
    """(n, u) with some coordinates set to zero or to a tiny modulus, so
    that xi hits walls and vertices of the moment polytope on purpose."""
    n = draw(st.sampled_from(NS))
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    u = np.array(re) + 1j * np.array(im)
    scales = st.sampled_from((0.0, 1e-13, 1e-9, 1e-6, 1e-3, 1.0))
    u = u * np.array(draw(st.lists(scales, min_size=n, max_size=n)))
    if np.linalg.norm(u) < 1e-300:
        u[draw(st.integers(0, n - 1))] = 1.0
    c = Coupling.default(n)
    return c, canonicalize(u, c)


@settings(max_examples=150, deadline=None)
@given(wall_points())
def test_lax_core_matches_reference_on_walls(point):
    c, u = point
    _assert_lax_core_matches(u, c)
    _assert_hamiltonian_is_trace_of_K(u, c)
    _assert_gauge_matches(u, c)


@pytest.mark.parametrize("n", (2, 3, 8))
def test_domain_violation_off_the_shifted_alcove(n):
    c = Coupling.default(n)
    xi = np.full(n, math.pi / n)
    shift = xi[0] - 0.5 * c.y
    xi[0] -= shift
    xi[1] += shift
    with pytest.raises(DomainViolation):
        check_shifted_alcove(xi, c)
    with pytest.raises(DomainViolation):
        w_factors(xi, c)
    with pytest.raises(DomainViolation):
        local_lax(xi, np.ones(n), c)
    with pytest.raises(DomainViolation):
        local_hamiltonian(xi, np.zeros(n), c)


def test_nan_fails_the_alcove_and_positivity_guards():
    # min-based guards fail on NaN, where np.any(x < bound) passed it on
    c = Coupling.default(3)
    xi = np.array([math.nan, 1.0, 1.0])
    with pytest.raises(AlcoveViolation, match="negative alcove coordinate"):
        check_shifted_alcove(xi, c)
    with pytest.raises(DomainViolation, match="not positive"):
        _lambda_parts(xi, c)


@pytest.mark.parametrize(
    "xi", ([2.8, 0.9, math.pi - 3.7], [0.9, 2.8, math.pi - 3.7]), ids=("w_plus", "w_minus")
)
def test_positivity_guard_on_one_factor_alone(xi):
    # off the shifted alcove, past check_shifted_alcove: the first xi makes
    # only a product W_k(+y)^2 / r_k^2 negative, the second (its mirror
    # image) only a W_k(-y)^2 / r_(k-1)^2; either one alone must raise
    c = Coupling.default(3)
    with pytest.raises(DomainViolation, match="not positive"):
        _lambda_parts(np.array(xi), c)
