"""Projective phase-space model: representatives, charts, form, actions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsdual.coupling import Coupling
from rsdual.errors import ChartViolation, DomainViolation, ZeroVector
from rsdual.lax import global_lax
from rsdual.sun import dagger
from rsdual.projective import (
    CHART_TOL,
    canonicalize,
    chart_gauge,
    chart_index,
    e_param,
    from_chart,
    fs_omega_eval,
    involution,
    moment_J,
    moment_J_full,
    point_from_json,
    point_to_json,
    projective_distance,
    random_point,
    rot_action,
    to_chart,
    vertex_points,
)
from rsdual.verify import FD_STEP

RNG = np.random.default_rng(777)


def rand_u(c, bias=0.0):
    return random_point(c, RNG, interior_bias=bias)


def e_param_inv(u, c):
    """Invert the Darboux parametrization on the dense open part.

    Requires every coordinate nonzero; returns (full xi, theta) with the
    gauge u_n > 0.
    """
    u = np.asarray(u, dtype=complex)
    if np.any(np.abs(u) < 1e-12):
        raise ChartViolation("some coordinate vanishes; point outside CP(n-1)_0")
    u = u * (np.conjugate(u[-1]) / abs(u[-1]))
    xi = np.abs(u) ** 2 + c.y
    theta = np.angle(u[:-1])
    return xi, theta


def chart_transition(u, j, k, a, c):
    """Exact differential of the chart-j to chart-k coordinate change at u.

    a is a chart-j tangent (length n-1); the result is the corresponding
    chart-k tangent.  The transition composes the sphere completion of the
    j-th coordinate with the phase gauge that makes u_k real positive.
    """
    uj = chart_gauge(u, j)
    w = np.delete(uj, j - 1)
    a = np.asarray(a, dtype=complex)
    du = np.empty(c.n, dtype=complex)
    du[np.arange(c.n) != j - 1] = a
    du[j - 1] = -np.sum((np.conjugate(w) * a).real) / uj[j - 1].real
    uk = uj[k - 1]
    if abs(uk) <= CHART_TOL:
        raise ChartViolation(f"point not in chart {k}")
    dalpha = (np.conjugate(uk) * du[k - 1]).imag / abs(uk) ** 2
    phase = np.conjugate(uk) / abs(uk)
    dup = phase * (du - 1j * uj * dalpha)
    return np.delete(dup, k - 1)


def index_reversal(x):
    """sigma on R^{n-1}: component k goes to component n-k."""
    return np.asarray(x)[::-1].copy()


def test_canonicalize_axis_point():
    c = Coupling.default(3)
    u = canonicalize(np.array([0, 0, 1j - 2j]), c)
    assert np.allclose(u, [0, 0, math.sqrt(c.chi0)], atol=1e-14)


def test_canonicalize_phase_invariance_and_idempotence():
    c = Coupling.default(4)
    for _ in range(100):
        z = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        u = canonicalize(z, c)
        gamma = RNG.uniform(0, 2 * math.pi)
        assert np.allclose(canonicalize(np.exp(1j * gamma) * z, c), u, atol=1e-12)
        assert np.allclose(canonicalize(u, c), u, atol=1e-14)
        assert abs(np.vdot(u, u).real - c.chi0) < 1e-12


def test_canonicalize_zero_vector():
    with pytest.raises(ZeroVector):
        canonicalize(np.zeros(3), Coupling.default(3))


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 5e-324, 1e200, 1e300])
def test_canonicalize_tiny_and_huge_inputs(scale):
    # |z * scale|^2 is subnormal, zero or infinite in floating point; at
    # 5e-324 the entries of z * scale are exact multiples of that subnormal.
    # The guard that rescales them raises no warning.
    c = Coupling.default(3)
    z = np.array([2.0, 1j, -1.0 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = canonicalize(z * scale, c)
    assert np.max(np.abs(u - canonicalize(z, c))) < 1e-14
    K = global_lax(u, c)
    assert np.linalg.norm(dagger(K) @ K - np.eye(3)) < 1e-12


def ref_canonicalize(u, c):
    """canonicalize through np.linalg.norm, np.abs and np.argmax."""
    u = np.asarray(u, dtype=complex)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(u)
    if not 1e-150 < nrm < 1e150:
        top = np.abs(u).max()
        u = u.real / top + 1j * (u.imag / top)
        nrm = np.linalg.norm(u)
    u = u * (math.sqrt(c.chi0) / nrm)
    mags = np.abs(u)
    jstar = int(np.argmax(mags >= mags.max() - 1e-12))
    if mags[jstar] > 0:
        u = u * (np.conjugate(u[jstar]) / mags[jstar])
    return u


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_canonicalize_matches_reference_bit_for_bit(n):
    # random points at every scale the guard sees, and ties for the
    # largest modulus
    rng = np.random.default_rng([17, n])
    c = Coupling.default(n)
    for scale in (1.0, 1e-160, 1e-200, 1e200, 1e300):
        for _ in range(20):
            z = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert canonicalize(z, c).tobytes() == ref_canonicalize(z, c).tobytes()
        tie = scale * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        assert canonicalize(tie, c).tobytes() == ref_canonicalize(tie, c).tobytes()


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_canonicalize_property(seed):
    rng = np.random.default_rng(seed)
    c = Coupling.default(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = canonicalize(z, c)
    mags = np.abs(u)
    jstar = int(np.argmax(mags >= mags.max() - 1e-12))
    assert u[jstar].real >= 0 and abs(u[jstar].imag) < 1e-12 * (1 + mags[jstar])
    assert projective_distance(u, z * math.sqrt(c.chi0) / np.linalg.norm(z)) < 1e-10


def test_e_param_hand_value():
    c = Coupling(2, math.pi / 6)
    u = e_param([math.pi / 2, math.pi / 2], [0.0], c)
    assert np.allclose(u, np.sqrt([math.pi / 3, math.pi / 3]), atol=1e-13)
    assert abs(np.vdot(u, u).real - 2 * math.pi / 3) < 1e-13


def test_e_param_round_trip():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(25):
            xi = c.y + RNG.dirichlet(np.ones(n)) * c.chi0 * 0.9 + 0.1 * c.chi0 / n
            theta = RNG.uniform(-math.pi, math.pi, n - 1)
            u = e_param(xi, theta, c)
            xi2, theta2 = e_param_inv(u, c)
            assert np.allclose(xi2, xi, atol=1e-12)
            assert np.allclose(np.exp(1j * theta2), np.exp(1j * theta), atol=1e-11)


def test_e_param_accepts_polytope_coordinates():
    c = Coupling.default(3)
    xi = np.array([1.0, 0.9])
    u1 = e_param(xi, [0.3, -0.4], c)
    u2 = e_param(np.append(xi, math.pi - xi.sum()), [0.3, -0.4], c)
    assert projective_distance(u1, u2) < 1e-14


def test_e_param_domain_and_inverse_chart_errors():
    c = Coupling.default(3)
    with pytest.raises(DomainViolation):
        e_param([c.y / 2, 1.0], [0.0, 0.0], c)
    u = np.zeros(3, dtype=complex)
    u[2] = math.sqrt(c.chi0)
    with pytest.raises(ChartViolation):
        e_param_inv(u, c)


def test_moment_map_values():
    c = Coupling.default(3)
    xi = np.array([1.0, 0.9, math.pi - 1.9])
    u = e_param(xi, [0.5, 1.1], c)
    assert np.allclose(moment_J(u, c), xi[:2], atol=1e-13)
    assert np.allclose(moment_J_full(u, c), xi, atol=1e-13)
    vert = vertex_points(c)[2]
    assert np.allclose(moment_J(vert, c), [c.y, c.y], atol=1e-14)


def test_moment_map_image_in_polytope():
    for n in (2, 3, 4):
        c = Coupling.default(n)
        for _ in range(167):
            jj = moment_J_full(rand_u(c), c)
            assert np.all(jj >= c.y - 1e-12)
            assert abs(jj.sum() - math.pi) < 1e-12


def test_chart_roundtrip_and_gauge():
    c = Coupling.default(4)
    for _ in range(30):
        u = rand_u(c, bias=0.05)
        j = chart_index(u)
        w = to_chart(u, j)
        u2 = from_chart(w, j, c)
        assert projective_distance(u, u2) < 1e-12
        g = chart_gauge(u, j)
        assert g[j - 1].imag == pytest.approx(0.0, abs=1e-14)
        assert g[j - 1].real > 0


def test_chart_errors():
    c = Coupling.default(3)
    u = np.zeros(3, dtype=complex)
    u[2] = math.sqrt(c.chi0)
    with pytest.raises(ChartViolation):
        to_chart(u, 1)
    with pytest.raises(ChartViolation):
        from_chart(np.array([2.0 + 0j, 2.0]), 1, c)


def test_fs_omega_antisymmetry_and_values():
    c = Coupling.default(3)
    u = rand_u(c, bias=0.05)
    a = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    b = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    j = chart_index(u)
    assert fs_omega_eval(u, a, a, j) == pytest.approx(0.0, abs=1e-14)
    assert fs_omega_eval(u, a, b, j) == pytest.approx(-fs_omega_eval(u, b, a, j), abs=1e-14)


def test_fs_omega_darboux_through_e_param():
    # pullback through the (xi, theta) parametrization is sum dtheta_k ^ dxi_k
    from rsdual.coupling import random_shifted_alcove

    c = Coupling.default(3)
    h = FD_STEP
    for _ in range(10):
        xi = random_shifted_alcove(c, RNG, margin=0.05)
        theta = RNG.uniform(-2, 2, 2)
        j = chart_index(e_param(xi, theta, c))

        def chart_coords(dxi, dtheta, s):
            return to_chart(e_param(xi[:2] + s * dxi, theta + s * dtheta, c), j)

        rng_dirs = []
        for _ in range(2):
            dxi = RNG.standard_normal(2)
            dth = RNG.standard_normal(2)
            tang = (chart_coords(dxi, dth, h) - chart_coords(dxi, dth, -h)) / (2 * h)
            rng_dirs.append((dxi, dth, tang))
        (dxi1, dth1, t1), (dxi2, dth2, t2) = rng_dirs
        expected = float(np.dot(dth1, dxi2) - np.dot(dth2, dxi1))
        got = fs_omega_eval(e_param(xi, theta, c), t1, t2, j=j)
        assert abs(got - expected) < 1e-5


def test_fs_omega_chart_overlap_agreement():
    # exact transition differential: agreement at the strict 1e-9 level
    c = Coupling.default(3)
    for _ in range(20):
        u = rand_u(c, bias=0.1)
        j = chart_index(u)
        k = 1 if j != 1 else 2
        a = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        b = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        ta = chart_transition(u, j, k, a, c)
        tb = chart_transition(u, j, k, b, c)
        v1 = fs_omega_eval(u, a, b, j=j)
        v2 = fs_omega_eval(u, ta, tb, j=k)
        assert abs(v1 - v2) < 1e-9


def test_chart_transition_matches_finite_differences():
    c = Coupling.default(3)
    h = FD_STEP
    u = rand_u(c, bias=0.1)
    j = chart_index(u)
    k = 1 if j != 1 else 2
    wj = to_chart(u, j)
    a = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)

    def transit(w):
        return to_chart(from_chart(w, j, c), k)

    fd = (transit(wj + h * a) - transit(wj - h * a)) / (2 * h)
    assert np.linalg.norm(chart_transition(u, j, k, a, c) - fd) < 1e-7


def test_rot_action_preserves_moment_and_composes():
    c = Coupling.default(4)
    u = rand_u(c)
    th1 = RNG.uniform(0, 2 * math.pi, 3)
    th2 = RNG.uniform(0, 2 * math.pi, 3)
    assert projective_distance(rot_action(np.zeros(3), u), u) < 1e-14
    assert np.allclose(moment_J(rot_action(th1, u), c), moment_J(u, c), atol=1e-13)
    lhs = rot_action(th1, rot_action(th2, u))
    rhs = rot_action(th1 + th2, u)
    assert projective_distance(lhs, rhs) < 1e-12


def test_rot_action_free_on_interior():
    c = Coupling.default(3)
    u = rand_u(c, bias=0.1)
    for _ in range(20):
        th = RNG.uniform(0.1, 2 * math.pi - 0.1, 2)
        assert projective_distance(rot_action(th, u), u) > 1e-3


def test_rot_action_hamiltonian_generator():
    # the flow of J_k with respect to the chart Darboux form is rotation of
    # slot k at unit rate: check omega(X, v) = dJ_k(v) by finite differences
    c = Coupling.default(3)
    h = FD_STEP
    u = rand_u(c, bias=0.1)
    j = chart_index(u)
    w = to_chart(u, j)
    slots = [s for s in range(1, 4) if s != j]
    for k_slot, pos in zip(slots, range(2)):
        X = np.zeros(2, dtype=complex)
        X[pos] = 1j * w[pos]  # rotation tangent of that chart coordinate
        for _ in range(5):
            v = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)

            def Jk(wvec):
                return moment_J_full(from_chart(wvec, j, c), c)[k_slot - 1]

            dJ = (Jk(w + h * v) - Jk(w - h * v)) / (2 * h)
            assert abs(fs_omega_eval(u, X, v, j=j) - dJ) < 1e-6


def test_involutions_square_to_identity():
    c = Coupling.default(4)
    for which in ("C", "Gamma", "sigma"):
        u = rand_u(c)
        assert projective_distance(involution(which, involution(which, u)), u) < 1e-14


def test_involutions_n2_degeneration():
    c = Coupling.default(2)
    u = rand_u(c)
    assert projective_distance(involution("C", u), involution("Gamma", u)) < 1e-14
    assert projective_distance(involution("sigma", u), u) < 1e-14


def test_involutions_commute_to_sigma():
    c = Coupling.default(4)
    u = rand_u(c)
    cg = involution("C", involution("Gamma", u))
    gc = involution("Gamma", involution("C", u))
    assert projective_distance(cg, involution("sigma", u)) < 1e-14
    assert projective_distance(gc, involution("sigma", u)) < 1e-14


def test_moment_map_involution_identities():
    c = Coupling.default(4)
    u = rand_u(c)
    assert np.allclose(moment_J(involution("C", u), c), moment_J(u, c), atol=1e-13)
    assert np.allclose(
        moment_J(involution("Gamma", u), c), index_reversal(moment_J(u, c)), atol=1e-13
    )
    assert np.allclose(
        moment_J(involution("sigma", u), c), index_reversal(moment_J(u, c)), atol=1e-13
    )


def test_involutions_symplectic_signs():
    # C and Gamma flip the form, sigma preserves it (pushforward by FD)
    c = Coupling.default(3)
    h = FD_STEP
    for which, sign in (("C", -1.0), ("Gamma", -1.0), ("sigma", 1.0)):
        u = rand_u(c, bias=0.1)
        j = chart_index(u)
        w = to_chart(u, j)
        img = canonicalize(involution(which, from_chart(w, j, c)), c)
        k = chart_index(img)

        def mapped(wvec):
            return to_chart(involution(which, from_chart(wvec, j, c)), k)

        a = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        b = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        ta = (mapped(w + h * a) - mapped(w - h * a)) / (2 * h)
        tb = (mapped(w + h * b) - mapped(w - h * b)) / (2 * h)
        lhs = fs_omega_eval(img, ta, tb, j=k)
        rhs = sign * fs_omega_eval(u, a, b, j=j)
        assert abs(lhs - rhs) < 1e-5


def test_json_round_trip():
    c = Coupling.default(3)
    u = rand_u(c)
    data = point_to_json(u)
    v = point_from_json(data, c)
    assert projective_distance(u, v) < 1e-12


def test_full_moment_sums_to_pi():
    c = Coupling.default(5)
    for _ in range(50):
        assert abs(moment_J_full(rand_u(c), c).sum() - math.pi) < 1e-12


def test_chart_transition_round_trip():
    c = Coupling.default(4)
    u = rand_u(c, bias=0.1)
    for j in (1, 2):
        for k in (3, 4):
            w = to_chart(u, j)
            there = to_chart(from_chart(w, j, c), k)
            back = to_chart(from_chart(there, k, c), j)
            assert np.linalg.norm(back - w) < 1e-12
            a = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            ta = chart_transition(u, j, k, a, c)
            taa = chart_transition(from_chart(there, k, c), k, j, ta, c)
            assert np.linalg.norm(taa - a) < 1e-10


def test_random_point_interior_bias_bound():
    # min_k |u_k|^2 <= chi0 / n always, so a bias of 1 or more (or NaN)
    # could never accept a draw; below 1 the bound holds on every point
    c = Coupling.default(2)
    for bias in (1.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="interior_bias must be < 1"):
            random_point(c, RNG, interior_bias=bias)
    for _ in range(5):
        u = random_point(c, RNG, interior_bias=0.9)
        assert np.min(np.abs(u) ** 2) > 0.9 * c.chi0 / c.n
