"""Acceptance suite: one test per criterion, at the pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every criterion is evaluated through the verification engine
(fixed seeds), except the closed-form n=2 values, which are asserted
directly, and the lower coupling edge's near-vertex inputs, which go
through the checks' residual functions or the library alone.
"""

import json
import math

import numpy as np

from rsdual.coupling import Coupling
from rsdual.double import InvariantHamiltonian
from rsdual.lax import local_hamiltonian, local_lax, v_vector
from rsdual.projective import (
    chart_index,
    moment_J_full,
    projective_distance,
    random_point,
    vertex_points,
)
from rsdual.reduction import _chart_lift, duality, reduced_trajectory
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


# The coupling rows of the edge ledger, each a y per n
EDGE_ROWS = {
    "1e-8": lambda n: 1e-8,
    "1e-6": lambda n: 1e-6,
    "1e-4": lambda n: 1e-4,
    "1e-3": lambda n: 1e-3,
    "pi/n (1 - 1e-3)": lambda n: math.pi / n * (1 - 1e-3),
    "pi/n - 1e-6": lambda n: math.pi / n - 1e-6,
    "pi/n (1 - 1e-9)": lambda n: math.pi / n * (1 - 1e-9),
}
# Every failing cell of run_suite(SuiteConfig(n_list=(2, 3, 4, 8),
# y_rule=<row>, samples=8, seed=7)) over the rows above: (row, n, check) ->
# (the exception type the cell reports, or the decade floor(log10(max
# residual / tolerance)), and the ROADMAP item that owns the cell).  Item
# 15: the label's eps/y at the lower edge, which n = 8 reaches at y = 1e-6.  Item 2: boundary-limit measures the map's slope 2/sqrt(y)
# at a wall.  Item 3: pullback's finite-difference step is not small against
# sqrt(chi0).  Item 18: a drawn xi carries its gaps xi - y only to ulp(pi/n).
# Every cell not listed passes.
EDGE_LEDGER = {
    ("1e-8", 2, "boundary-limit"): (2, 2),
    ("1e-8", 3, "boundary-limit"): (2, 2),
    ("1e-8", 4, "boundary-limit"): (2, 2),
    ("1e-8", 8, "boundary-limit"): (2, 2),
    ("1e-8", 3, "duality-squares"): (0, 15),
    ("1e-8", 4, "duality-squares"): (1, 15),
    ("1e-8", 8, "duality-squares"): (1, 15),
    ("1e-8", 3, "duality-exchange"): (0, 15),
    ("1e-8", 4, "duality-exchange"): (0, 15),
    ("1e-8", 8, "duality-exchange"): (0, 15),
    ("1e-8", 3, "mapclass-origin"): (0, 15),
    ("1e-8", 4, "mapclass-origin"): (1, 15),
    ("1e-8", 8, "mapclass-origin"): (1, 15),
    ("1e-8", 3, "dehn-decomposition"): (1, 15),
    ("1e-8", 4, "dehn-decomposition"): (0, 15),
    ("1e-8", 8, "dehn-decomposition"): (1, 15),
    ("1e-8", 3, "conservation"): (0, 15),
    ("1e-8", 4, "conservation"): (0, 15),
    ("1e-8", 8, "conservation"): (1, 15),
    ("1e-8", 3, "section-consistency"): (1, 15),
    ("1e-8", 4, "section-consistency"): (2, 15),
    ("1e-8", 8, "section-consistency"): (2, 15),
    ("1e-6", 2, "boundary-limit"): (1, 2),
    ("1e-6", 3, "boundary-limit"): (1, 2),
    ("1e-6", 4, "boundary-limit"): (1, 2),
    ("1e-6", 8, "boundary-limit"): (1, 2),
    ("1e-6", 8, "section-consistency"): (0, 15),
    ("1e-4", 2, "boundary-limit"): (0, 2),
    ("1e-4", 3, "boundary-limit"): (0, 2),
    ("1e-4", 4, "boundary-limit"): (0, 2),
    ("1e-4", 8, "boundary-limit"): (0, 2),
    ("pi/n (1 - 1e-3)", 2, "pullback"): (0, 3),
    ("pi/n (1 - 1e-3)", 3, "pullback"): (1, 3),
    ("pi/n (1 - 1e-3)", 4, "pullback"): (1, 3),
    ("pi/n (1 - 1e-3)", 8, "pullback"): (1, 3),
    ("pi/n - 1e-6", 2, "pullback"): (6, 3),
    ("pi/n - 1e-6", 3, "pullback"): (7, 3),
    ("pi/n - 1e-6", 4, "pullback"): (7, 3),
    ("pi/n - 1e-6", 8, "pullback"): (6, 3),
    ("pi/n - 1e-6", 3, "normalization"): (1, 18),
    ("pi/n - 1e-6", 4, "normalization"): (1, 18),
    ("pi/n - 1e-6", 8, "normalization"): (0, 18),
    ("pi/n (1 - 1e-9)", 2, "pullback"): (12, 3),
    ("pi/n (1 - 1e-9)", 3, "pullback"): (13, 3),
    ("pi/n (1 - 1e-9)", 4, "pullback"): (13, 3),
    ("pi/n (1 - 1e-9)", 8, "pullback"): (13, 3),
    ("pi/n (1 - 1e-9)", 2, "lax-conjugation"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 3, "lax-conjugation"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 4, "lax-conjugation"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 8, "lax-conjugation"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 3, "normalization"): (4, 18),
    ("pi/n (1 - 1e-9)", 4, "normalization"): (4, 18),
    ("pi/n (1 - 1e-9)", 8, "normalization"): (4, 18),
    ("pi/n (1 - 1e-9)", 3, "mu-spectrum"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 4, "mu-spectrum"): ("NormViolation", 18),
    ("pi/n (1 - 1e-9)", 8, "mu-spectrum"): ("NormViolation", 18),
}


def test_edge_ledger():
    # strict both ways: a new failing cell, a moved decade or type, and a
    # ledger cell that now passes all fail this test
    n_list = (2, 3, 4, 8)
    failing = {}
    for label, y in EDGE_ROWS.items():
        cfg = SuiteConfig(n_list=n_list, y_rule=[y(n) for n in n_list], samples=8, seed=7)
        for r in run_suite(cfg).results:
            if not r.passed:
                ratio = r.max_residual / r.tolerance
                kind = r.failure.get("error") or math.floor(math.log10(ratio))
                failing[(label, r.n, r.name)] = kind
                print(f"edge ledger y = {label}, n = {r.n}, {r.name}: {kind} ({ratio:.3g})")
    assert failing == {cell: kind for cell, (kind, _) in EDGE_LEDGER.items()}


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


# vertex_points(Coupling(n, 1e-4), eps, rng) for eps = 1e-2, 1e-3, ..., 1e-6
# in turn, with rng = np.random.default_rng(7), written out so that they stay
# the inputs whatever the sampler becomes.  Next to a vertex one xi_k is
# close to pi - (n - 1) y, and a sine or phase of an argument near pi loses
# ulp(pi) / y there unless it is taken from the shorter arc.
NEAR_VERTEX_Y_1E_4 = {
    3: [
        [(1.772249212390298-2.1604375349502828e-19j), (0.005365785955749059-0.008010013621916045j),
         (-0.004701460577244246-0.01761610237974877j)],
        [(0.0009993560852222902-0.010856100362449704j), (1.7723037968876185-4.81749484778281e-19j),
         (-0.008577659266227146+0.006282934137054021j)],
        [(0.0018121247441710761+0.012333287899839418j), (-0.016384127187972043-0.023902639077183416j),
         (1.7720884526526095-3.3558326751065064e-19j)],
        [(1.7723632293538283-7.317908302955471e-21j), (-0.002289352606404902-0.0022511937661582955j),
         (-0.003270554572991405+0.0004809244411196031j)],
        [(0.00027791814173084087-0.000954924552193447j), (1.7723633147916784-1.2182306403073548e-21j),
         (-0.004461456299356031+0.000200645812091312j)],
        [(-0.002713454240982821-0.001437152593554093j), (-0.0008491035608693829+0.0018814553284804934j),
         (1.7723653586372328+8.360890297305607e-20j)],
        [(1.7723692103537763+2.9907519379916245e-22j), (0.00015674682814331709+1.9580139204929314e-05j),
         (-0.00010343600646667427+1.1303366647258246e-05j)],
        [(-0.0002171470278456727-0.00027419040388731753j), (1.772369169447812-1.9017555138793226e-20j),
         (0.00024083365636928518+2.1133081804140866e-05j)],
        [(-0.0001136958250322221-0.00021253550998227936j), (0.0003545213977604004+1.31855766800122e-05j),
         (1.7723691685516392-2.6509757086817037e-21j)],
        [(1.7723692201819718+1.5770497866968045e-21j), (1.2103884347964666e-05+2.549589900870458e-05j),
         (-1.1790146387139285e-06-1.197524450938753e-05j)],
        [(3.600504780548557e-06-2.1041547026169412e-05j), (1.772369220314126+1.6705453488746526e-22j),
         (2.2556967427340672e-06-3.477320076882906e-06j)],
        [(1.592990567754168e-05-1.4083865718443371e-05j), (2.0297602554789696e-05+1.1466073316012119e-05j),
         (1.7723692201666708-6.1157597605157444e-21j)],
        [(1.7723692204459083-1.4189281266427065e-22j), (-1.724288322883794e-07-5.799431442577345e-07j),
         (2.2278952369204707e-06-6.532544085885208e-07j)],
        [(-4.43438141159389e-07-5.382327968261736e-07j), (1.7723692204472197+5.504858139047016e-23j),
         (-7.586171534957186e-07-2.1404922602054067e-07j)],
        [(-3.4966101080562816e-07-7.861894870656903e-07j), (-1.9745369869695732e-06+2.066810290985641e-06j),
         (1.7723692204450188-1.2787689849374196e-22j)],
    ],
    4: [
        [(1.7720096265633403+6.289684677044893e-19j), (0.005373516594952331-0.017547424745692777j),
         (-0.004862434450207969+0.0010436295206518002j), (-0.015888826469422516+0.023676210062139744j)],
        [(-0.008794382331573503+0.0017975197078558918j), (1.772241878430806+2.3609767002596515e-18j),
         (0.008739504804621701-0.0004398237443628392j), (0.0062477500923130945+0.012457885766609212j)],
        [(-0.02384298543375905-0.03357006189167022j), (-0.008208382386500835-0.004351833865767357j),
         (1.7716784712090108-9.653853858053116e-19j), (-0.023348641884519683+0.004597407665250093j)],
        [(0.002796061184371221-0.0008504452552634067j), (-0.0033391427166196423+0.0020021667517621036j),
         (-0.04469538893181464-0.02746874408995995j), (1.7715577168512135-8.049940987277032e-19j)],
        [(1.7723378421972438+5.277130758243033e-22j), (-0.001434988034935785+0.001568926185165776j),
         (0.0018821461622520145-0.0010352889710809928j), (-0.0014326196633876371-0.00019821413984658708j)],
        [(0.00019204127884773958+0.0024084370181753022j), (1.7723373606795507+2.9175520024129223e-19j),
         (-0.0021734247136854664+0.0015196565162339422j), (0.00013461001178980146+0.00021173035551518308j)],
        [(-0.0011360594082526223+0.00013175283168505541j), (0.003542515252304829+0.0010219769542429047j),
         (1.7723351201153783-4.8013182297201265e-21j), (-0.00212415092767158+0.001209023258989448j)],
        [(-0.00011839875526793012+0.0003601331526872818j), (0.0011843626311085424-0.000820286037849707j),
         (0.0025510010686618095+0.00022874579861674254j), (1.7723385326625727+7.526372286142694e-20j)],
        [(1.7723409457847596+1.7378958895573417e-20j), (-3.4755987067368984e-05-0.0001408504797916777j),
         (0.00015928565019666022+0.00011468106777058039j), (0.0002030308833825024-0.0003531183009662705j)],
        [(-8.208815362522794e-05-5.7996964774110114e-05j), (1.7723409672081063-1.5036071203467445e-21j),
         (0.00022278971561168204-4.4335375647872605e-05j), (0.00012217711361792478+0.000270028487295472j)],
        [(-7.585790025584939e-05-3.496434705899896e-05j), (-5.3820394996874845e-05-0.0001974437871155418j),
         (1.7723409937406926+6.940982035506656e-23j), (-2.140379581547511e-05-7.861497133549255e-05j)],
        [(0.00020666027754554848-6.024450309603509e-05j), (0.00011575269254382617+0.00018645345140250514j),
         (-4.278841301835547e-06-9.56672704467527e-07j), (1.772340982731349+3.3528086884632318e-21j)],
        [(1.7723410082458029-4.7990353202880545e-23j), (6.1444805563439305e-06-1.5949973222599687e-05j),
         (-2.9921128977544604e-05+2.907521403659552e-06j), (-3.607355635153961e-05+3.978514597465129e-05j)],
        [(-1.4741056564847815e-05-3.1265669131545628e-06j), (1.7723410092398135+4.609202924695386e-22j),
         (3.640455446507866e-06+1.245012420687269e-05j), (8.737912288667086e-06+9.214611749312121e-06j)],
        [(-1.8320209440997227e-05+4.6054113985548125e-06j), (-1.4035102975903207e-06-1.5205895476736866e-05j),
         (1.7723410091285523-9.842041534142926e-23j), (-1.868902358809371e-05+3.4162953167921534e-06j)],
        [(1.5826773198937041e-06-2.0052812580529902e-05j), (-1.0475192694112628e-05+6.430975715858134e-06j),
         (-2.1025319455928883e-06-3.7726202456405174e-05j), (1.7723410088372946-1.814852823998257e-21j)],
        [(1.7723410093898393+8.872253085426298e-24j), (1.341200666836933e-06-2.723800520992126e-06j),
         (-1.4985113913192046e-06+2.2139216176230966e-06j), (1.380640590067527e-06+2.5552009960943996e-06j)],
        [(-1.1662982251936044e-07+1.947070836711825e-06j), (1.7723410093943366-3.487413686622981e-24j),
         (-2.8333880819333634e-07-9.072704637524598e-08j), (-1.7283021621747059e-06-1.4059930714074596e-06j)],
        [(-1.109614823426721e-06+1.7119395741862446e-06j), (-2.2645618546921794e-06+2.3614127338680843e-08j),
         (1.772341009394098-3.523287058411923e-23j), (-2.730949796740535e-07-5.789971452651382e-07j)],
        [(-9.929191233108734e-07-2.4433058464841325e-06j), (1.4107201982187728e-08-1.4300065452044316e-06j),
         (-6.651029766598604e-07+2.9315544584306267e-06j), (1.772341009391747+6.783107793578322e-23j)],
    ],
}
NEAR_VERTEX_CHECKS = (
    "duality-squares", "dehn-decomposition", "mapclass-origin", "section-consistency",
    "constraint",
)
VERTEX_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def test_lower_coupling_edge_near_the_vertices():
    for n, points in NEAR_VERTEX_Y_1E_4.items():
        c = Coupling(n, 1e-4)
        for name in NEAR_VERTEX_CHECKS:
            check, tol = CHECKS[name]
            worst = float(np.max(check.residuals(c, np.array(points))))
            print(f"y = 1e-4 near vertices, n = {n}, {name}: residual/tolerance {worst / tol:.3g}")
            assert worst <= tol, (n, name, worst)


def test_lower_coupling_edge_row():
    # at y = 1e-6 every cell holds but boundary-limit.  That cell steps
    # 1e-8 sqrt(2) off a wall, where the map's slope |dK|/|du| is 2/sqrt(y)
    # (w+^2 carries 1/sin xi_k -> 1/sin y): its residual is that slope
    # times the step, 28 times the tolerance, until the check scales its
    # step or its bound with sqrt(y)
    y = 1e-6
    report = run_suite(SuiteConfig(n_list=(2, 3, 4), y_rule=y, samples=8, seed=7))
    failing = [(r.name, r.n) for r in report.results if not r.passed]
    print(f"y = 1e-6: failing cells {failing}")
    assert failing == [("boundary-limit", n) for n in (2, 3, 4)], json.dumps(report.to_json())
    for cell in report.results:
        if cell.name == "boundary-limit":
            slope = cell.max_residual / (math.sqrt(2) * 1e-8)
            assert abs(slope * math.sqrt(y) / 2 - 1) <= 1e-6, (cell.n, slope)


def test_lower_coupling_edge_v_is_unit_near_the_vertices():
    # mu_of_v rejects |v| - 1 over 1e-9
    for n in range(2, 17):
        c = Coupling(n, 1e-6)
        rng = np.random.default_rng(7)
        U = np.array([u for eps in VERTEX_EPS for u in vertex_points(c, eps, rng)])
        v = v_vector(moment_J_full(U, c), c)[0]
        assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) <= 1e-14, n


def test_lower_coupling_edge_trajectories_conserve_the_actions():
    # side-first flows from near-vertex points at n = 8 keep Xi o K to the
    # conservation tolerance
    n = 8
    c = Coupling(n, 1e-3 * math.pi / n)
    for kind in ("re_trace", "dehn"):
        h = InvariantHamiltonian(kind, 1, "first")
        for u in vertex_points(c, 1e-4, np.random.default_rng(7)):
            xi = np.array([row[4] for row in reduced_trajectory(u, h, 10.0, 200, c)])
            drift = float(np.max(np.abs(xi - xi[0])))
            assert drift <= PINNED_TOLERANCES["conservation"], (kind, drift)
