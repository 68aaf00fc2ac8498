"""A 50-digit reference for the W layer: Lambda^y(xi) and K(u).

The reference takes the double inputs as exact numbers and replaces the
largest xi_j by pi minus the sum of the others, so that sum(xi) = pi holds
exactly; every arc is then summed at 50 digits.  Without that step a
high-precision Lambda of the double xi keeps the rounding of sum(xi) and
reproduces the very loss it should measure.  The reference is checked
against identities that hold exactly (K(u) unitary with det 1) as well as
against the library.
"""

from mpmath import mp
import numpy as np
import pytest

from rsdual.coupling import Coupling
from rsdual.lax import _lambda_parts, global_lax
from rsdual.projective import moment_J_full, random_point, vertex_points

DPS = 50
EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # distances of the near-vertex points
SMALL_Y = (1e-8, 1e-6, 1e-4, 1e-3)


def on_the_simplex(x):
    """x with its largest entry replaced by pi minus the sum of the others."""
    j = max(range(len(x)), key=x.__getitem__)
    return x[:j] + [mp.pi - mp.fsum(x[:j] + x[j + 1 :])] + x[j + 1 :]


def ref_lambda(x, y):
    """Lambda^y at the exact point x (sum x = pi), in the split-root form:
    sin y e^{-i a_kl} w+_k w-_l / sin(a_kl + y), with a_kl = x_l + ... +
    x_{k-1} the arc from l forward to k, and with r_k^2 = x_k - y split off
    sin(a_kl + y) = sin(x_k - y) on the cyclic superdiagonal and off the
    ratios that build w+-."""
    n = len(x)

    def arc(k, l):
        return mp.fsum(x[(l + m) % n] for m in range((k - l) % n))

    def den(k, l):
        if l == (k + 1) % n:
            g = x[k] - y
            return mp.sin(g) / g if g else mp.one
        return mp.sin(arc(k, l) + y)

    ratio = [[den(k, l) / mp.sin(arc(k, l)) if k != l else mp.one for l in range(n)]
             for k in range(n)]
    wp = [mp.sqrt(mp.fprod(row)) for row in ratio]
    wm = [mp.sqrt(mp.fprod(row[l] for row in ratio)) for l in range(n)]
    return mp.matrix([[mp.sin(y) * mp.expj(-arc(k, l)) * wp[k] * wm[l] / den(k, l)
                       for l in range(n)] for k in range(n)])


def ref_global_lax(u, y):
    """K(u)_kl = conj(u_k) u_{l-1} Lambda_kl off the cyclic superdiagonal
    and Lambda_kl on it, at the exact point with x_k = |u_k|^2 + y: u is the
    double u but for its largest entry, whose modulus becomes sqrt(x_j - y)."""
    n = len(u)
    y = mp.mpf(y)
    v = [mp.mpc(complex(z)) for z in u]
    x = on_the_simplex([abs(z) ** 2 + y for z in v])
    j = max(range(n), key=x.__getitem__)
    v[j] *= mp.sqrt(x[j] - y) / abs(v[j])
    lam = ref_lambda(x, y)
    return mp.matrix([[lam[k, l] if l == (k + 1) % n else mp.conj(v[k]) * v[l - 1] * lam[k, l]
                       for l in range(n)] for k in range(n)])


def _points(c, rng):
    """Near-vertex points at every distance of EPS, the exact vertices and
    two random points."""
    pts = [u for eps in EPS for u in vertex_points(c, eps, rng)]
    return pts + list(vertex_points(c)) + [random_point(c, rng) for _ in range(2)]


def _max_abs(m):
    return max(abs(z) for z in m)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_reference_is_special_unitary(n):
    # to 1e-43 at y = 1e-8, 1e-48 at y = 1e-3: its 50 digits lose about y^-1
    with mp.workdps(DPS):
        for y in SMALL_Y + (Coupling.default(n).y,):
            c = Coupling(n, y)
            for u in _points(c, np.random.default_rng([7, n])):
                K = ref_global_lax(u, y)
                assert _max_abs(K * K.H - mp.eye(n)) <= 1e-40
                assert abs(mp.det(K) - 1) <= 1e-40


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("y", SMALL_Y)
def test_lambda_is_the_reference_to_a_few_ulp_near_the_vertices(n, y):
    # relative per entry: Lambda is nowhere zero on the polytope
    c = Coupling(n, y)
    with mp.workdps(DPS):
        for u in _points(c, np.random.default_rng(7)):
            xi = moment_J_full(u, c)
            want = ref_lambda(on_the_simplex([mp.mpf(float(v)) for v in xi]), mp.mpf(y))
            got = _lambda_parts(xi, c)[0]
            err = max(abs((complex(got[k, l]) - want[k, l]) / want[k, l])
                      for k in range(n) for l in range(n))
            assert err <= 2.5e-15


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("y", SMALL_Y)
def test_global_lax_is_the_reference_and_unitary_near_the_vertices(n, y):
    c = Coupling(n, y)
    with mp.workdps(DPS):
        for u in _points(c, np.random.default_rng(7)):
            K = global_lax(u, c)
            want = ref_global_lax(u, y)
            assert max(abs(complex(K[k, l]) - want[k, l]) for k in range(n) for l in range(n)) <= 2e-15
            assert np.max(np.abs(K @ K.conj().T - np.eye(n))) <= 2e-15
