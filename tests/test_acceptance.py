"""Acceptance suite: one test per criterion, at the pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every criterion is evaluated through the verification engine
(fixed seeds), except the closed-form n=2 values which are asserted
directly.
"""

import json
import math

import numpy as np

from rsdual.coupling import Coupling
from rsdual.lax import local_hamiltonian, local_lax
from rsdual.projective import chart_index, projective_distance, random_point
from rsdual.reduction import _chart_lift, duality
from rsdual.verify import CHECKS, SuiteConfig, run_suite

SEED = 20260809


# The acceptance tolerance of every check.  verify.CHECKS must carry exactly
# these values: the criteria below run at the suite's own tolerances, so a
# loosened entry there would otherwise pass unnoticed.
PINNED_TOLERANCES = {
    "constraint": 1e-10,
    "pullback": 1e-5,
    "intertwine": 1e-9,
    "duality-squares": 1e-8,
    "duality-exchange": 1e-8,
    "mapclass-origin": 1e-8,
    "dehn-decomposition": 1e-8,
    "central-twist": 1e-10,
    "lax-conjugation": 1e-10,
    "lax-unitarity": 1e-9,
    "lax-hamiltonian": 1e-12,
    "gradients": 1e-6,
    "normalization": 1e-12,
    "mu-spectrum": 1e-10,
    "global-lax": 1e-9,
    "boundary-limit": 1e-6,
    "poisson": 1e-5,
    "conservation": 1e-8,
    "polytope-image": 1e-9,
    "polytope-vertices": 1e-3,
    "axiom-a2": 1e-5,
    "equivariance": 1e-12,
    "flow-moment": 1e-10,
    "omega-morphisms": 1e-5,
    "section-consistency": 1e-9,
}


def test_tolerances_are_pinned():
    assert {name: tol for name, (_, tol) in CHECKS.items()} == PINNED_TOLERANCES


def _run(criterion, desc, checks, n_list, samples, seed=SEED):
    report = run_suite(SuiteConfig(n_list=n_list, samples=samples, seed=seed, checks=checks))
    worst = max(r.max_residual for r in report.results)
    tol = min(r.tolerance for r in report.results)
    status = "PASS" if report.all_passed else "FAIL"
    print(
        f"criterion {criterion:>2} {status}  {desc}: "
        f"max residual {worst:.3e} (tol {tol:.1e}, n in {list(n_list)})"
    )
    assert report.all_passed, f"criterion {criterion} failed: {json.dumps(report.to_json())}"
    return report


def test_criterion_01_constraint_residual():
    _run(1, "moment constraint on every chart section", ("constraint",),
         (2, 3, 4, 5), 100)


def test_criterion_02_symplectic_pullback():
    _run(2, "sections pull the reduced form back to chi0*omega_FS", ("pullback",),
         (2, 3), 50)


def test_criterion_03_toric_intertwining():
    _run(3, "Xi of section factors equals (Xi o K, J-full)", ("intertwine",),
         (2, 3, 4, 5), 100)


def test_criterion_04_duality_identities():
    _run(4, "S^2 = sigma and R^2 = id", ("duality-squares",), (3, 4), 100)
    # n = 2 is special: sigma is the identity there, so S^2 = id
    c = Coupling.default(2)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        u = random_point(c, rng)
        worst = max(worst, projective_distance(duality("S", duality("S", u, c), c), u))
    print(f"criterion  4 {'PASS' if worst <= 1e-8 else 'FAIL'}  n=2 special case S^2 = id: "
          f"max residual {worst:.3e} (tol 1.0e-08)")
    assert worst <= 1e-8


def test_criterion_05_duality_exchange():
    _run(5, "S converts positions to actions and actions to flipped positions",
         ("duality-exchange",), (2, 3, 4), 100)


def test_criterion_06_mapping_class_origin():
    _run(6, "the duality map descends from the mapping-class generator S",
         ("mapclass-origin",), (2, 3, 4), 100)


def test_criterion_07_dehn_decomposition():
    _run(7, "S_P = (T_P Ttilde_P T_P)^{-1} and twist flows at time 1",
         ("dehn-decomposition",), (2, 3), 100)


def test_criterion_08_central_twist():
    _run(8, "S^4 equals the central twist Q on the double", ("central-twist",),
         (2, 3, 4), 100)


def test_criterion_09_lax_identities():
    _run(9, "Lax conjugation identity", ("lax-conjugation",), (2, 3, 4), 100)
    _run(9, "Lax unitarity and det 1 incl. polytope vertices", ("lax-unitarity",),
         (2, 3, 4), 100)
    _run(9, "H equals Re tr L", ("lax-hamiltonian",), (2, 3, 4), 100)
    c = Coupling(2, math.pi / 6)
    xi = np.array([math.pi / 2, math.pi / 2])
    L = local_lax(xi, np.ones(2), c)
    hand = np.array([[math.sqrt(3) / 2, -0.5j], [-0.5j, math.sqrt(3) / 2]])
    r1 = float(np.abs(L - hand).max())
    r2 = abs(local_hamiltonian(xi, np.zeros(2), c) - math.sqrt(3))
    ok = r1 <= 1e-12 and r2 <= 1e-12
    print(f"criterion  9 {'PASS' if ok else 'FAIL'}  n=2 closed forms (L matrix, H = sqrt 3): "
          f"max residual {max(r1, r2):.3e} (tol 1.0e-12)")
    assert ok


def test_criterion_10_gradients():
    _run(10, "analytic gradients match central differences", ("gradients",),
         (2, 3, 4), 200)


def test_criterion_11_normalization():
    _run(11, "sum z_l = 1 over the thick-walled alcove", ("normalization",),
         (2, 3, 4, 5), 500)
    _run(11, "spectra of mu_v delta and delta agree", ("mu-spectrum",),
         (2, 3, 4, 5), 100)


def test_criterion_12_global_lax_regularity():
    _run(12, "K is representative-independent (chart overlaps)", ("global-lax",),
         (2, 3, 4), 100)
    _run(12, "K is continuous across chart boundaries", ("boundary-limit",),
         (2, 3, 4), 25)


def test_criterion_13_commutativity():
    _run(13, "action variables Poisson-commute in the FS structure", ("poisson",),
         (3,), 50)
    _run(13, "trace flows conserve every action variable over t in [0,10]",
         ("conservation",), (2, 3), 100)


def test_criterion_14_polytope_image():
    _run(14, "sampled (J, Xi o K) lie in the moment polytope", ("polytope-image",),
         (2, 3, 4, 5), 125)
    _run(14, "both toric maps approach every polytope vertex", ("polytope-vertices",),
         (2, 3, 4, 5), 10)


# Checks still open at the upper coupling edge: pullback's finite-difference
# step is not small against the chart scale sqrt(chi0), and normalization,
# mu-spectrum and lax-conjugation draw xi directly, so the gap xi - y ~ chi0/n
# carries a relative error of ulp(pi/n)/(chi0/n) before the library sees it.
UPPER_EDGE_OPEN = {"pullback", "normalization", "mu-spectrum", "lax-conjugation"}


def test_large_n_cell():
    # the domain is every n >= 2: all checks hold at n = 16 as well
    report = run_suite(SuiteConfig(n_list=(16,), samples=4, seed=SEED))
    worst = max(r.max_residual / r.tolerance for r in report.results)
    print(f"n = 16: {len(report.results)} checks, worst residual/tolerance {worst:.3f}")
    assert len(report.results) == len(CHECKS)
    assert report.all_passed, json.dumps(report.to_json())


def test_upper_coupling_edge():
    # every other check holds as y -> pi/n at its pinned tolerance
    n_list = (2, 3, 4)
    rows = {
        "pi/n (1 - 1e-3)": [math.pi / n * (1 - 1e-3) for n in n_list],
        "pi/n - 1e-6": [math.pi / n - 1e-6 for n in n_list],
        "pi/n (1 - 1e-9)": [math.pi / n * (1 - 1e-9) for n in n_list],
    }
    for label, ys in rows.items():
        report = run_suite(SuiteConfig(n_list=n_list, y_rule=ys, samples=20, seed=SEED))
        bad = [r.to_json() for r in report.results
               if not r.passed and r.name not in UPPER_EDGE_OPEN]
        print(f"upper edge y = {label}: {len(bad)} failing cells outside "
              f"{sorted(UPPER_EDGE_OPEN)}")
        assert not bad, json.dumps(bad)


def test_lower_coupling_edge_chart_lift():
    # the v(xi, y) scale stays accurate as y -> 0: the chart gauge is unitary
    # and its reflection vector has unit norm (no NormViolation)
    rng = np.random.default_rng(SEED)
    for y in (1e-6, 1e-8):
        for n in (2, 3, 4):
            c = Coupling(n, y)
            for _ in range(20):
                u = random_point(c, rng)
                G = _chart_lift(u, chart_index(u), c)[2]
                assert np.linalg.norm(G.conj().T @ G - np.eye(n)) < 1e-12
