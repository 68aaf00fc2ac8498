"""Verification engine determinism/selectors and the CLI surface."""

import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from rsdual import cli
from rsdual.cli import main
from rsdual.coupling import Coupling, random_shifted_alcove
from rsdual.double import DoublePoint, InvariantHamiltonian, random_double_point
from rsdual.errors import ConstraintViolation, NormViolation
from rsdual.projective import (
    chart_index,
    involution,
    moment_J,
    point_from_json,
    point_to_json,
    projective_distance,
    random_point,
    vertex_points,
)
from rsdual.lax import global_lax
from rsdual.reduction import action_variables, duality, mapclass_on_P, reduced_flow
from rsdual.sun import random_special_unitary, random_su_algebra, spectral_xi
from rsdual import verify
from rsdual.verify import (
    CHECKS,
    Stacked,
    SuiteConfig,
    SuiteReport,
    _chart_gradient,
    run_suite,
)


def _bracket(ga, gb):
    """{f, g} = -(1/2) sum (f_q g_p - f_p g_q) from two stacked chart
    gradients: the scaled Fubini-Study form is -2 sum dq ^ dp."""
    m = len(ga) // 2
    return -0.5 * float(np.dot(ga[:m], gb[m:]) - np.dot(ga[m:], gb[:m]))


def poisson_bracket_fs(fa, fb, u, c, j=None):
    """Poisson bracket of two scalar functions of u in the chart Darboux
    structure, with central-difference gradients.

    In real chart coordinates u_k = q_k + i p_k the scaled Fubini-Study
    form is -2 sum dq ^ dp, so {f, g} = -(1/2) sum (f_q g_p - f_p g_q).
    """
    if j is None:
        j = chart_index(u)
    # _chart_gradient evaluates f once on a stack of points: map f over it
    fa2, fb2 = (lambda uu, f=f: np.apply_along_axis(f, -1, uu) for f in (fa, fb))
    return _bracket(_chart_gradient(fa2, u, j, c), _chart_gradient(fb2, u, j, c))


# rows per (n = 2, n = 3) cell of run_suite(n_list=(2, 3), samples=6): a
# check's trial count is max(1, samples // per), or one whole-cell trial
ROWS_AT_SIX = {
    "constraint": (12, 18),
    "pullback": (30, 30),
    "intertwine": (12, 18),
    "duality-squares": (6, 6),
    "duality-exchange": (6, 6),
    "mapclass-origin": (6, 6),
    "dehn-decomposition": (6, 6),
    "central-twist": (6, 6),
    "lax-conjugation": (6, 6),
    "lax-unitarity": (16, 18),
    "lax-hamiltonian": (6, 6),
    "gradients": (20, 24),
    "normalization": (6, 6),
    "mu-spectrum": (6, 6),
    "global-lax": (6, 6),
    "boundary-limit": (2, 3),
    "poisson": (0, 6),
    "conservation": (7, 7),
    "polytope-image": (12, 12),
    "polytope-vertices": (2, 3),
    "axiom-a2": (3, 3),
    "equivariance": (6, 6),
    "flow-moment": (5, 5),
    "omega-morphisms": (4, 4),
    "section-consistency": (6, 6),
}
# rows at n = 2, samples=10, where samples // 5 and samples // 10 differ
ROWS_AT_TEN = {
    "gradients": 20,
    "boundary-limit": 4,
    "conservation": 7,
    "axiom-a2": 3,
    "flow-moment": 10,
    "omega-morphisms": 4,
}


def test_default_suite_passes_quickly():
    rep = run_suite(SuiteConfig(n_list=(2, 3), samples=6, seed=3))
    assert rep.all_passed
    names = {r.name for r in rep.results}
    assert names == set(CHECKS)
    assert all(isinstance(check, Stacked) for check, _ in CHECKS.values())  # one trial path
    rows = {}
    for r in rep.results:
        rows.setdefault(r.name, []).append(r.samples)
    assert {name: tuple(v) for name, v in rows.items()} == ROWS_AT_SIX
    rep = run_suite(SuiteConfig(n_list=(2,), samples=10, seed=3, checks=tuple(ROWS_AT_TEN)))
    assert {r.name: r.samples for r in rep.results} == ROWS_AT_TEN


def test_suite_determinism():
    cfg = SuiteConfig(n_list=(3,), samples=5, seed=11, checks=("duality", "pullback"))
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert [a.max_residual for a in r1.results] == [b.max_residual for b in r2.results]


@pytest.mark.parametrize("n", [3, 4])
def test_poisson_check_equals_pairwise_brackets(n):
    # one Jacobian of all Xi_k per sample, of all samples at once, gives bit
    # for bit the brackets that poisson_bracket_fs computes pair by pair
    c = Coupling.default(n)
    check = CHECKS["poisson"][0]
    trial_rng = np.random.default_rng(8)
    U = check.draw(c, trial_rng, 3)["u"]
    rows = list(np.ravel(check.residuals(c, U)))
    rng = np.random.default_rng(8)
    want = []
    for _ in range(3):
        u = random_point(c, rng, interior_bias=0.08)
        for k in range(1, n):
            for l in range(k + 1, n):
                fa = lambda uu, kk=k: float(spectral_xi(global_lax(uu, c))[0][kk - 1])
                fb = lambda uu, ll=l: float(spectral_xi(global_lax(uu, c))[0][ll - 1])
                want.append(abs(poisson_bracket_fs(fa, fb, u, c)))
    assert rows == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chart_jacobian_is_one_stacked_call(monkeypatch, n):
    # the chart Jacobians of all trials of a cell are one stack of their
    # 4(n-1) points w0 +- FD_STEP * axis each: a pullback cell lifts twice
    # (its points, their Jacobian points), and a poisson cell builds K(u)
    # once, never at n = 2, which has no pair k < l.  Per trial they made 2
    # and 1 calls, point by point 1 + 4(n-1) and 4(n-1)
    calls = []
    for name in ("section_F", "global_lax"):
        def counted(*args, f=getattr(verify, name), name=name):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(verify, name, counted)
    for check, want in (("pullback", ["section_F"] * 2), ("poisson", ["global_lax"] * (n > 2))):
        calls.clear()
        (cell,) = run_suite(SuiteConfig(n_list=(n,), samples=20, checks=(check,))).results
        assert cell.passed and calls == want
    # nor does a poisson trial draw at n = 2, where it has nothing to bracket
    rng = np.random.default_rng(1)
    CHECKS["poisson"][0].draw(Coupling.default(n), rng, 1)
    assert (rng.bit_generator.state == np.random.default_rng(1).bit_generator.state) == (n == 2)


def test_selector_restricts_checks():
    cfg = SuiteConfig(n_list=(2,), samples=3, checks=("duality",))
    rep = run_suite(cfg)
    assert {r.name for r in rep.results} == {"duality-squares", "duality-exchange"}
    with pytest.raises(ValueError):
        SuiteConfig(checks=("no-such-check",)).selected_checks()


def test_y_rule_variants():
    # None, the default, is Coupling.default per n, also as a list entry;
    # the literal pi/(2n) is the CLI's to parse, not a rule
    assert SuiteConfig().y_rule is None
    assert [c.y for c in SuiteConfig(n_list=(2, 4)).couplings()] == [
        math.pi / 4,
        math.pi / 8,
    ]
    assert [c.y for c in SuiteConfig(n_list=(3,), y_rule=0.3).couplings()] == [0.3]
    assert [c.y for c in SuiteConfig(n_list=(2, 3), y_rule=[0.3, None]).couplings()] == [
        0.3,
        math.pi / 6,
    ]
    with pytest.raises(ValueError):
        SuiteConfig(n_list=(3,), y_rule="pi/(2n)").couplings()
    with pytest.raises(ValueError):  # Coupling validates 0 < y < pi/n
        SuiteConfig(n_list=(3,), y_rule=2.0).couplings()
    with pytest.raises(ValueError):
        SuiteConfig(n_list=(2, 3), y_rule=[0.1]).couplings()


def test_failure_payload_names_first_bad_sample(monkeypatch):
    trial, _ = CHECKS["global-lax"]
    monkeypatch.setitem(CHECKS, "global-lax", (trial, 1e-30))
    rep = run_suite(SuiteConfig(n_list=(3,), samples=4, checks=("global-lax",)))
    (res,) = rep.results
    assert not res.passed
    assert res.failure is not None and "data" in res.failure
    assert res.failure["residual"] > 1e-30


def _scripted(events, started):
    """A stand-in check: trial i of a cell draws {"i": i} and has
    events.get(i, (i + 1) * 1e-14) as its one row, or raises it when it is
    an exception, whether it is evaluated in its group or alone; started
    records the n of every trial drawn."""

    def draw(c, rng, count):
        started.extend([c.n] * count)
        return {"i": np.arange(count)}

    def residuals(c, i):
        rows = [events.get(int(k), (k + 1) * 1e-14) for k in i]
        for event in rows:
            if isinstance(event, Exception):
                raise event
        return np.array(rows)

    return Stacked(residuals, draw)


FORCED = {
    "trial": 2, "error": "ConstraintViolation", "message": "forced failure in trial 2",
    "data": {"i": 2},
}


def _forced(started):
    return (_scripted({2: ConstraintViolation(FORCED["message"])}, started), 1e-12)


def test_throwing_trial_fails_its_cell_not_the_sweep(monkeypatch):
    started = []
    monkeypatch.setitem(CHECKS, "normalization", _forced(started))
    cfg = SuiteConfig(n_list=(2, 3), samples=5, seed=1, checks=("normalization", "mu-spectrum"))
    rep = run_suite(cfg)
    assert [(r.name, r.n) for r in rep.results] == [
        ("normalization", 2), ("normalization", 3), ("mu-spectrum", 2), ("mu-spectrum", 3),
    ]
    # the trials after the throwing one still run, and so do the other cells
    assert started == [2] * 5 + [3] * 5
    for cell in rep.results[:2]:
        assert not cell.passed
        assert cell.failure == FORCED
        assert cell.samples == 4
        assert cell.max_residual == 5 * 1e-14
    assert all(cell.passed for cell in rep.results[2:])
    assert not rep.all_passed


@pytest.mark.parametrize(
    "events, failure",
    [
        (
            {1: 1.0, 2: np.linalg.LinAlgError("singular")},
            {"sample_index": 1, "residual": 1.0, "data": {"row": 0, "i": 1}},
        ),
        (
            {1: np.linalg.LinAlgError("singular"), 3: 1.0},
            {"trial": 1, "error": "LinAlgError", "message": "singular", "data": {"i": 1}},
        ),
        ({0: math.nan}, {"sample_index": 0, "residual": math.nan, "data": {"row": 0, "i": 0}}),
    ],
)
def test_cell_reports_its_first_failure_in_trial_order(monkeypatch, events, failure):
    monkeypatch.setitem(CHECKS, "normalization", (_scripted(events, []), 1e-12))
    (cell,) = run_suite(SuiteConfig(n_list=(3,), samples=5, checks=("normalization",))).results
    assert not cell.passed
    assert json.dumps(cell.failure) == json.dumps(failure)


@pytest.mark.parametrize("entries", [verify.STACK_ENTRIES, 1])
def test_failing_row_inside_a_trial_names_its_trial_and_row(monkeypatch, entries):
    # three rows a trial: trial 1's last row is the first over tolerance,
    # whether the cell is one group or a group per trial
    def residuals(c, i):
        rows = np.full((len(i), 3), 1e-14)
        rows[i == 1, 2] = 1.0
        rows[i == 3, 0] = 2.0
        return rows

    draw = lambda c, rng, count: {"i": np.arange(count)}
    monkeypatch.setitem(CHECKS, "normalization", (Stacked(residuals, draw), 1e-12))
    monkeypatch.setattr(verify, "STACK_ENTRIES", entries)
    (cell,) = run_suite(SuiteConfig(n_list=(3,), samples=5, checks=("normalization",))).results
    assert cell.failure == {"sample_index": 5, "residual": 1.0, "data": {"row": 2, "i": 1}}
    assert (cell.samples, cell.max_residual) == (15, 2.0)


def test_exception_outside_the_library_errors_propagates(monkeypatch):
    # anything but a library error or ValueError is a bug, not a failed cell
    trial = _scripted({2: KeyError("bug")}, [])
    monkeypatch.setitem(CHECKS, "normalization", (trial, 1e-12))
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(n_list=(3,), samples=5, checks=("normalization",)))


def test_boundary_limit_steps_on_the_sphere():
    # Suite seed 952743807, n = 2, third sample, slot 1: there |z| = 0.024.
    # A step of 1e-8 (1 + i) added to z before normalising was 7.4e-7 long
    # on the sphere |u|^2 = chi0 and left a residual of 1.48e-6 over the
    # 1e-6 tolerance; stepped from the canonical point it is 1.4e-8 long.
    cfg = SuiteConfig(
        checks=("boundary-limit",), n_list=(2,), samples=20, seed=952743807
    )
    (cell,) = run_suite(cfg).results
    assert cell.passed
    assert cell.max_residual < 3e-8 * 1.01


def test_fd_residual_monotone_in_step(monkeypatch):
    # first-order checks: central-difference residual shrinks with the step
    c = Coupling.default(3)
    rng = np.random.default_rng(0)
    u = random_point(c, rng, interior_bias=0.1)
    res = {}
    for step in (1e-4, 1e-5):
        monkeypatch.setattr(verify, "FD_STEP", step)
        worst = 0.0
        for k, l in ((1, 2),):
            fa = lambda uu: float(action_variables(uu, c)[k - 1])
            fb = lambda uu: float(action_variables(uu, c)[l - 1])
            worst = max(worst, abs(poisson_bracket_fs(fa, fb, u, c)))
        res[step] = worst
    assert res[1e-5] <= res[1e-4] + 1e-12


def test_poisson_bracket_properties():
    c = Coupling.default(3)
    rng = np.random.default_rng(1)
    u = random_point(c, rng, interior_bias=0.1)
    from rsdual.projective import moment_J_full

    J1 = lambda uu: float(moment_J_full(uu, c)[0])
    J2 = lambda uu: float(moment_J_full(uu, c)[1])
    assert abs(poisson_bracket_fs(J1, J2, u, c)) < 1e-8
    assert abs(poisson_bracket_fs(J1, J1, u, c)) < 1e-12
    f = lambda uu: float(np.abs(uu[0]) ** 2 - 0.3 * np.abs(uu[1]) ** 2)
    ab = poisson_bracket_fs(f, J1, u, c)
    ba = poisson_bracket_fs(J1, f, u, c)
    assert abs(ab + ba) < 1e-9


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_verify_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "verify", "--n", "2", "--samples", "3", "--seed", "1", "--checks", "lax,duality",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert all(ch["passed"] for ch in report["checks"])


def test_cli_verify_report_header(tmp_path, monkeypatch):
    # argv, the versions, the git sha and the run's total wall_time head the
    # report; the sha is None outside a git checkout and before its first
    # commit
    out = tmp_path / "report.json"
    argv = ["verify", "--n", "2,3", "--samples", "2", "--checks", "lax", "--out", str(out)]
    assert run_cli(*argv) == 0
    report = json.loads(out.read_text())
    keys = ["argv", "seed", "all_passed", "wall_time", "versions", "git_sha", "checks"]
    assert list(report) == keys
    assert report["git_sha"] is None or re.fullmatch("[0-9a-f]{40}", report["git_sha"])
    git_dir = tmp_path / "git"
    git_dir.mkdir()
    monkeypatch.setenv("GIT_DIR", str(git_dir))
    assert SuiteReport([], 0, 0.0).to_json()["git_sha"] is None
    (git_dir / "objects").mkdir()
    (git_dir / "refs").mkdir()
    (git_dir / "HEAD").write_text("ref: refs/heads/main\n")  # no commit yet
    assert SuiteReport([], 0, 0.0).to_json()["git_sha"] is None
    assert report["argv"] == argv
    assert set(report["versions"]) == {"rsdual", "numpy", "scipy", "python"}
    assert report["versions"]["numpy"] == np.__version__
    assert all(isinstance(v, str) for v in report["versions"].values())
    cells = report["checks"]
    assert len(cells) == 8 and report["wall_time"] >= sum(cell["wall_time"] for cell in cells)


def test_cli_verify_writes_report_when_a_trial_raises(tmp_path, monkeypatch):
    monkeypatch.setitem(CHECKS, "normalization", _forced([]))
    out = tmp_path / "r.json"
    code = run_cli(
        "verify", "--n", "3", "--samples", "5", "--checks", "normalization,mu-spectrum",
        "--out", str(out),
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    bad, good = report["checks"]
    assert list(bad) == [
        "name", "n", "y", "samples", "max_residual", "tolerance", "passed", "wall_time",
        "failure",
    ]
    assert (bad["name"], bad["passed"], bad["failure"]) == ("normalization", False, FORCED)
    assert good["name"] == "mu-spectrum" and good["passed"] and "failure" not in good


def test_cli_map_point_duality_flow_round_trip(tmp_path):
    c = Coupling(3, 0.3)
    full = tmp_path / "full.json"
    assert run_cli("map-point", "--n", "3", "--y", "0.3", "--xi", "0.9,1.1",
                   "--tau", "0.5,1.2", "--out", str(full)) == 0
    data = json.loads(full.read_text())
    assert abs(np.array(data["J"]) - [0.9, 1.1]).max() < 1e-12
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(data["point"]))

    r1 = tmp_path / "r1.json"
    assert run_cli("duality", "--n", "3", "--y", "0.3", "--which", "R",
                   "--point", str(pfile), "--out", str(r1)) == 0
    img = json.loads(r1.read_text())
    # R swaps positions and actions
    assert np.abs(np.array(img["after"]["J"]) - np.array(img["before"]["XiK"])).max() < 1e-8
    imgfile = tmp_path / "img.json"
    imgfile.write_text(json.dumps(img["image"]))
    r2 = tmp_path / "r2.json"
    assert run_cli("duality", "--n", "3", "--y", "0.3", "--which", "R",
                   "--point", str(imgfile), "--out", str(r2)) == 0
    back = point_from_json(json.loads(r2.read_text())["image"], c)
    orig = point_from_json(data["point"], c)
    assert projective_distance(back, orig) < 1e-8


def test_cli_flow_csv_schema_and_periodicity(tmp_path):
    pfile = tmp_path / "p.json"
    full = tmp_path / "full.json"
    run_cli("map-point", "--n", "3", "--y", "0.3", "--xi", "1.0,1.0",
            "--tau", "0.2,0.4", "--out", str(full))
    pfile.write_text(json.dumps(json.loads(full.read_text())["point"]))
    traj = tmp_path / "traj.csv"
    code = run_cli(
        "flow", "--n", "3", "--y", "0.3", "--hamiltonian", "position:1",
        "--t", "6.283185307179586", "--steps", "8", "--point", str(pfile),
        "--out", str(traj),
    )
    assert code == 0
    rows = list(csv.DictReader(traj.open()))
    assert len(rows) == 9
    assert set(rows[0]) == {
        "step", "t", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3",
        "J1", "J2", "XiK1", "XiK2",
    }
    c = Coupling(3, 0.3)
    u0 = np.array([complex(float(rows[0][f"re_u{k}"]), float(rows[0][f"im_u{k}"])) for k in (1, 2, 3)])
    u1 = np.array([complex(float(rows[-1][f"re_u{k}"]), float(rows[-1][f"im_u{k}"])) for k in (1, 2, 3)])
    assert projective_distance(u0, u1) < 1e-9
    # J is conserved along position flows
    assert abs(float(rows[4]["J1"]) - float(rows[0]["J1"])) < 1e-12


def test_cli_mapclass_word(tmp_path):
    c = Coupling(3, 0.3)
    full = tmp_path / "full.json"
    run_cli("map-point", "--n", "3", "--y", "0.3", "--xi", "0.8,1.2",
            "--tau", "1.0,2.0", "--out", str(full))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(json.loads(full.read_text())["point"]))
    sfile = tmp_path / "s.json"
    run_cli("duality", "--n", "3", "--y", "0.3", "--which", "S",
            "--point", str(pfile), "--out", str(sfile))
    mfile = tmp_path / "m.json"
    # apply the word to the S-image: must return the original point
    simg = tmp_path / "simg.json"
    simg.write_text(json.dumps(json.loads(sfile.read_text())["image"]))
    code = run_cli("mapclass", "--word", "T Ttilde T", "--n", "3", "--y", "0.3",
                   "--point", str(simg), "--out", str(mfile))
    assert code == 0
    back = point_from_json(json.loads(mfile.read_text())["image"], c)
    orig = point_from_json(json.loads(pfile.read_text()), c)
    assert projective_distance(back, orig) < 1e-8


def test_cli_map_point_output_feeds_other_commands_directly(tmp_path):
    # command outputs are themselves valid --point inputs
    full = tmp_path / "full.json"
    run_cli("map-point", "--n", "3", "--y", "0.3", "--xi", "1.0,0.9",
            "--tau", "0.1,0.7", "--out", str(full))
    d1 = tmp_path / "d1.json"
    assert run_cli("duality", "--n", "3", "--y", "0.3", "--which", "S",
                   "--point", str(full), "--out", str(d1)) == 0
    # and duality output feeds flow
    traj = tmp_path / "t.csv"
    assert run_cli("flow", "--n", "3", "--y", "0.3", "--hamiltonian", "retrace:1",
                   "--side", "first", "--t", "1.0", "--steps", "2",
                   "--point", str(d1), "--out", str(traj)) == 0
    assert len(list(csv.DictReader(traj.open()))) == 3


def test_cli_polytope_csv(tmp_path, monkeypatch):
    out = tmp_path / "poly.csv"
    shapes = []
    for name in ("moment_J", "action_variables"):
        def counted(u, c, f=getattr(cli, name)):
            shapes.append(np.shape(u))
            return f(u, c)
        monkeypatch.setattr(cli, name, counted)
    code = run_cli("polytope", "--n", "4", "--y", "0.2", "--samples", "50",
                   "--seed", "9", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 50
    assert shapes == [(50, 4), (50, 4)]  # one call of each on the stack of all points
    c = Coupling(4, 0.2)
    for row in rows:
        J = [float(row[f"J{k}"]) for k in (1, 2, 3)]
        X = [float(row[f"XiK{k}"]) for k in (1, 2, 3)]
        for vec in (J, X):
            assert min(vec) >= c.y - 1e-9
            assert sum(vec) <= math.pi - c.y + 1e-9
    # the points mapped as one stack write the bytes of the one-point calls
    rng = np.random.default_rng(9)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["J1", "J2", "J3", "XiK1", "XiK2", "XiK3"])
    for _ in range(50):
        u = random_point(c, rng)
        writer.writerow([f"{x:.15g}" for x in np.append(moment_J(u, c), action_variables(u, c))])
    assert out.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", [0, 9])
def test_cli_polytope_counted_draws_write_the_per_point_csv(tmp_path, monkeypatch, n, seed):
    # each group's points come from one counted random_point call; the CSV
    # is byte-equal to the one of a per-point draw loop, over groups of 7
    monkeypatch.setattr(cli, "STACK_ENTRIES", 7 * n**2)
    out = tmp_path / "poly.csv"
    assert run_cli("polytope", "--n", str(n), "--samples", "30", "--seed", str(seed),
                   "--out", str(out)) == 0
    c = Coupling.default(n)
    rng = np.random.default_rng(seed)
    u = np.array([random_point(c, rng) for _ in range(30)])
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow([f"{name}{k}" for name in ("J", "XiK") for k in range(1, n)])
    rows = np.concatenate((moment_J(u, c), action_variables(u, c)), -1)
    writer.writerows([f"{x:.15g}" for x in row] for row in rows)
    assert out.read_bytes() == expected.getvalue().encode()


def test_cli_verify_rejects_y_outside_domain(capsys):
    assert run_cli("verify", "--n", "3", "--y", "2.0", "--samples", "1") == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "0 < y < pi/n" in diag["message"]


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    code = run_cli("duality", "--n", "3", "--y", "0.3", "--point", str(bad))
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "ZeroVector" in err


@pytest.mark.parametrize("spec", ["position:3", "action:3", "position:0"])
def test_cli_flow_rejects_spectral_index_out_of_range(tmp_path, capsys, spec):
    # spectral Hamiltonians take j in 1..n-1; anything else is a typed
    # ValueError in the JSON diagnostic, not a traceback
    code = run_cli("flow", "--n", "3", "--hamiltonian", spec, "--t", "1",
                   "--out", str(tmp_path / "traj.csv"))
    assert code == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError"
    assert "spectral index must be in 1..2" in diag["message"]


def test_cli_flow_failing_at_step_zero_writes_no_file(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli("flow", "--n", "3", "--hamiltonian", "position:3", "--t", "1",
                   "--out", str(out))
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[[1.0, 0.0], [0.0, 1.0]]", "got shape (2, 2)"),
        ("[[1.0, 0.0], [NaN, 1.0], [0.0, 1.0]]", "non-finite"),
        ("[[1.0, 0.0], [1.0], [0.0, 1.0]]", "ragged"),
    ],
)
def test_cli_rejects_malformed_point(tmp_path, capsys, recwarn, text, problem):
    # a point of the wrong length, with a NaN or with a ragged pair is a
    # ValueError naming the problem, raised before any numerics run
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli("duality", "--n", "3", "--point", str(bad)) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and problem in diag["message"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_rejects_negative_samples(tmp_path, capsys):
    # samples = 0 keeps its one-trial meaning; below it nothing is certified
    # or written
    with pytest.raises(ValueError):
        SuiteConfig(samples=-1)
    code = run_cli("verify", "--n", "2", "--samples", "-3", "--checks", "lax-unitarity,constraint")
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    out = tmp_path / "poly.csv"
    assert run_cli("polytope", "--n", "3", "--samples", "-2", "--out", str(out)) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()
    assert run_cli("verify", "--n", "2", "--samples", "0", "--checks", "constraint") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("duality", "--n", "3", "--point", "{tmp}/missing.json"),
        ("polytope", "--n", "3", "--samples", "2", "--out", "{tmp}/missing/x.csv"),
    ],
    ids=["missing-point", "out-in-missing-dir"],
)
def test_cli_reports_file_errors_as_json(tmp_path, capsys, argv):
    # a file that cannot be opened gets the one-line JSON error, not a traceback
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_cli_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--n", "3"])
    assert exc.value.code == 2


def test_cli_y_literal():
    code = run_cli("verify", "--n", "2", "--y", "pi/(2n)", "--samples", "2",
                   "--checks", "normalization")
    assert code == 0


@pytest.mark.parametrize(
    "argv, name",
    [
        (("map-point", "--n", "3", "--xi", "nan,1.1", "--tau", "0.5,1.2"), "xi"),
        (("map-point", "--n", "3", "--xi", "0.9,1.1", "--tau", "nan,1.2"), "theta (--tau)"),
        (("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "nan"), "t_final (--t)"),
        (("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "inf"), "t_final (--t)"),
    ],
    ids=["xi-nan", "tau-nan", "t-nan", "t-inf"],
)
def test_cli_rejects_non_finite_numbers(capsys, recwarn, argv, name):
    # a NaN or infinite xi, tau or t is a ValueError naming the argument,
    # raised before any numerics run
    assert run_cli(*argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and diag["message"].startswith(f"{name} ")
    assert "finite" in diag["message"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--hamiltonian", "dehn", "--t", "nan"), "t_final (--t)"),
        (("--hamiltonian", "action:5", "--t", "1"), "spectral index"),
        (("--hamiltonian", "dehn", "--t", "1", "--steps", "-2"), "steps"),
    ],
    ids=["t-nan", "index", "steps"],
)
def test_cli_flow_bad_arguments_print_no_csv(capsys, argv, message):
    # the trajectory checks its arguments before the CSV header is written
    assert run_cli("flow", "--n", "3", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["message"].startswith(message)


def test_suite_rejects_duplicate_n(capsys):
    # a repeated n would run the same cells twice under one rng key
    with pytest.raises(ValueError, match=r"repeats n = \[3\]"):
        SuiteConfig(n_list=(2, 3, 4, 3))
    assert run_cli("verify", "--n", "2,2", "--samples", "1") == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "[2]" in diag["message"]


@pytest.mark.parametrize(
    "spec, side, problem",
    [
        ("position:1", "first", "fixes its own side"),
        ("action:1", "second", "fixes its own side"),
        ("dehn:5", None, "takes no index"),
    ],
    ids=["position-side", "action-side", "dehn-index"],
)
def test_cli_flow_rejects_ignored_input(tmp_path, capsys, spec, side, problem):
    # each Hamiltonian has one spelling: --side is not silently dropped for
    # position/action, nor an index for dehn
    out = tmp_path / "traj.csv"
    argv = ["flow", "--n", "3", "--hamiltonian", spec, "--t", "1", "--out", str(out)]
    if side:
        argv += ["--side", side]
    assert run_cli(*argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and problem in diag["message"]
    assert not out.exists()


def test_cli_flow_reads_imtrace_and_rejects_an_unknown_hamiltonian(tmp_path, capsys):
    # imtrace:m is Im tr of the chosen factor's m-th power, on side first
    # unless --side says otherwise
    assert cli._parse_hamiltonian("imtrace:2", None) == InvariantHamiltonian("im_trace", 2, "first")
    assert cli._parse_hamiltonian("ImTrace", "second") == InvariantHamiltonian("im_trace", 1, "second")
    out = tmp_path / "traj.csv"
    argv = ["flow", "--n", "3", "--t", "1", "--steps", "2", "--out", str(out)]
    assert run_cli(*argv, "--hamiltonian", "imtrace:1") == 0
    assert len(out.read_text().splitlines()) == 4
    assert run_cli(*argv, "--hamiltonian", "trace:1") == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "unknown hamiltonian 'trace:1'" in diag["message"]


@pytest.mark.parametrize("selector", ["duality,", ",duality", "duality,,pullback", " "])
def test_cli_rejects_empty_check_selector(capsys, selector):
    # an empty term is a substring of every check name and would select all
    assert run_cli("verify", "--n", "2", "--samples", "1", "--checks", selector) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "empty check selector" in diag["message"]


def test_cli_check_selectors_are_stripped(tmp_path):
    out = tmp_path / "r.json"
    argv = ("verify", "--n", "2", "--samples", "1", "--checks", " duality, pullback ")
    assert run_cli(*argv, "--out", str(out)) == 0
    names = [cell["name"] for cell in json.loads(out.read_text())["checks"]]
    assert names == ["duality-squares", "duality-exchange", "pullback"]


def test_coupling_stores_integral_n_as_int():
    c = Coupling(3.0, 0.3)
    assert c.n == 3 and type(c.n) is int
    for bad in (3.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be an integer"):
            Coupling(bad, 0.3)
    report = run_suite(SuiteConfig(n_list=(3.0,), samples=1, checks=("constraint",)))
    assert report.all_passed and [cell.n for cell in report.results] == [3]


@pytest.mark.parametrize(
    "kwargs", [{"n_list": (1,)}, {"n_list": (2, 3.5)}, {"y_rule": 2.0}, {"n_list": ()}]
)
def test_suite_config_rejects_bad_coupling_when_built(kwargs):
    with pytest.raises(ValueError):
        SuiteConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"checks": "pullback"}, {"samples": 2.5}, {"seed": -1}, {"seed": 1.5}]
)
def test_suite_config_rejects_bad_selectors_samples_and_seed_when_built(kwargs):
    # a bare str would be split into one-letter selectors, and a float
    # sample count or a negative or fractional seed failed only in the run
    with pytest.raises(ValueError):
        SuiteConfig(**kwargs)
    assert SuiteConfig(checks=["pullback"], samples=np.int64(2), seed=np.int64(3)).checks == (
        "pullback",
    )


def test_cli_flow_final_point_chains_into_point(tmp_path):
    # --final-point writes the last trajectory point as a --point input
    traj, end, img = tmp_path / "traj.csv", tmp_path / "end.json", tmp_path / "img.json"
    assert run_cli("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "1", "--steps", "5",
                   "--out", str(traj), "--final-point", str(end)) == 0
    last = list(csv.DictReader(traj.open()))[-1]
    u = np.array([complex(float(last[f"re_u{k}"]), float(last[f"im_u{k}"])) for k in (1, 2, 3)])
    point = np.array(json.loads(end.read_text())) @ [1, 1j]
    assert np.abs(point - u).max() <= 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("duality", "--n", "3", "--point", str(end), "--out", str(img)) == 0
    assert np.abs(np.array(json.loads(img.read_text())["point"]) @ [1, 1j] - point).max() <= 1e-14


def test_cli_verify_opens_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    # a report path in a missing directory fails at once, not after the sweep
    def sweep(cfg):
        raise AssertionError("run_suite ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", sweep)
    code = run_cli("verify", "--n", "2", "--samples", "1",
                   "--out", str(tmp_path / "nodir" / "r.json"))
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_cli_flow_bad_final_point_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "1", "--steps", "5",
                   "--out", str(out), "--final-point", str(tmp_path / "nodir" / "e.json"))
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
    assert list(tmp_path.iterdir()) == []


def test_cli_failing_flow_keeps_an_existing_out_file(tmp_path, capsys):
    # the new file replaces the old one only when the whole command succeeds
    out = tmp_path / "t.csv"
    out.write_bytes(b"step,t\r\n0,0\r\n")
    code = run_cli("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "1", "--steps", "5",
                   "--out", str(out), "--final-point", str(tmp_path / "nodir" / "e.json"))
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
    assert out.read_bytes() == b"step,t\r\n0,0\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_cli_flow_rejects_final_point_at_the_out_path(tmp_path, capsys, monkeypatch):
    # the two outputs of one run would overwrite each other
    monkeypatch.chdir(tmp_path)
    code = run_cli("flow", "--n", "3", "--hamiltonian", "dehn", "--t", "1", "--steps", "2",
                   "--out", "same.txt", "--final-point", "./same.txt")
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the stacked checks: all trials of a cell in one call per stage

STACKED = tuple(CHECKS)
# samples to a trial, the divisor of a cell's count = max(1, samples // per)
PER = {name: check.per for name, (check, _) in CHECKS.items()}
# the checks whose cell is one trial whatever the count
ONE_TRIAL = ("lax-unitarity", "polytope-vertices")

# max_residual of every cell at n = 2, 3, 4 in the pinned sweeps
# run_suite(SuiteConfig(n_list=(2, 3, 4), samples=20, seed=s)), as
# float.hex: the bits of each cell's draws (one sampler or rng call per
# variable, see verify.Stacked) through its residual function, evaluated as
# one stack per stage
PINNED_MAX_RESIDUAL = {
    "constraint": {
        7: ("0x1.b97d073ceeab6p-49", "0x1.602589a284bc7p-48", "0x1.fb8459c54067cp-49"),
        11: ("0x1.3165e9efdfa9fp-49", "0x1.f354e0ab4c08bp-49", "0x1.57ee116a95822p-48"),
    },
    "pullback": {
        7: ("0x1.097ae00000000p-31", "0x1.bd55a00000000p-30", "0x1.9e34000000000p-29"),
        11: ("0x1.e414c00000000p-31", "0x1.439d380000000p-29", "0x1.9ed7800000000p-29"),
    },
    "intertwine": {
        7: ("0x1.0000000000000p-50", "0x1.c000000000000p-50", "0x1.8000000000000p-50"),
        11: ("0x1.3000000000000p-49", "0x1.8000000000000p-50", "0x1.8000000000000p-50"),
    },
    "duality-squares": {
        7: ("0x1.1e5d20d481a64p-50", "0x1.35558282c713fp-49", "0x1.e77604394dae8p-49"),
        11: ("0x1.d2a8e7060c04fp-51", "0x1.179cd57b460c0p-49", "0x1.df92124965bd3p-49"),
    },
    "duality-exchange": {
        7: ("0x1.0000000000000p-51", "0x1.8000000000000p-50", "0x1.4000000000000p-50"),
        11: ("0x1.8000000000000p-50", "0x1.4000000000000p-50", "0x1.0000000000000p-49"),
    },
    "mapclass-origin": {
        7: ("0x1.bcd374794f7a1p-51", "0x1.b2459fc960a9bp-50", "0x1.ae7e18c85fe52p-49"),
        11: ("0x1.dfd3b39223b8fp-51", "0x1.1926605ce1c0dp-49", "0x1.72f2a460aed9dp-49"),
    },
    "dehn-decomposition": {
        7: ("0x1.adf38071a0bbdp-50", "0x1.4b4fb6c51cdedp-49", "0x1.c1cf5f499b7e9p-49"),
        11: ("0x1.21629c16e1111p-49", "0x1.0990433116729p-48", "0x1.1742e94e2d69dp-48"),
    },
    "central-twist": {
        7: ("0x1.3b48e81f21541p-47", "0x1.2cffe01b3597cp-47", "0x1.72d4acbcb2223p-47"),
        11: ("0x1.432017c493acep-47", "0x1.3594ad02476ecp-47", "0x1.87e697fe3601bp-47"),
    },
    "lax-conjugation": {
        7: ("0x1.4296eaf19f7eap-50", "0x1.9132bd9678480p-50", "0x1.0481d7b3a5062p-49"),
        11: ("0x1.ea8cfb64547abp-51", "0x1.86583f889e4bbp-50", "0x1.78d01d8d9ab79p-50"),
    },
    "lax-unitarity": {
        7: ("0x1.0fcf77c243b4ep-50", "0x1.2f9422c23c47cp-50", "0x1.ace0381c0a5b6p-50"),
        11: ("0x1.def2c8fc09563p-51", "0x1.282ec6683d3c3p-50", "0x1.2564d8cd4886ep-49"),
    },
    "lax-hamiltonian": {
        7: ("0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-51"),
        11: ("0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-51"),
    },
    "gradients": {
        7: ("0x1.37f4800000000p-32", "0x1.86c0d00000000p-31", "0x1.584d900000000p-28"),
        11: ("0x1.7c22980000000p-32", "0x1.afe3f00000000p-29", "0x1.a9f7ac0000000p-30"),
    },
    "normalization": {
        7: ("0x1.0000000000000p-51", "0x1.4000000000000p-51", "0x1.0000000000000p-51"),
        11: ("0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-52"),
    },
    "mu-spectrum": {
        7: ("0x1.8000000000000p-51", "0x1.2000000000000p-50", "0x1.0000000000000p-50"),
        11: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x1.0000000000000p-50"),
    },
    "global-lax": {
        7: ("0x1.87eb1990b697ap-51", "0x1.238a6d972a468p-51", "0x1.ab3f4ea454d26p-51"),
        11: ("0x1.3ec0fa93cb495p-51", "0x1.d0c6cdafc64ccp-51", "0x1.acc7124d52169p-51"),
    },
    "boundary-limit": {
        7: ("0x1.e5eb8a5cd53edp-26", "0x1.25ebe2541de55p-25", "0x1.55b02ec33765ap-25"),
        11: ("0x1.e5eb8a5cd53edp-26", "0x1.25fb19cf542c6p-25", "0x1.5693a86d1f52ep-25"),
    },
    "poisson": {
        7: ("0x0.0p+0", "0x1.0c61600000000p-35", "0x1.4d6ea60000000p-35"),
        11: ("0x0.0p+0", "0x1.41ce280000000p-36", "0x1.b01b800000000p-35"),
    },
    "conservation": {
        7: ("0x1.0000000000000p-52", "0x1.8000000000000p-50", "0x1.e000000000000p-49"),
        11: ("0x1.0000000000000p-52", "0x1.0000000000000p-50", "0x1.a000000000000p-50"),
    },
    "polytope-image": {
        7: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x1.0000000000000p-50"),
        11: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x1.0000000000000p-50"),
    },
    "polytope-vertices": {
        7: ("0x1.421add0000000p-26", "0x1.219781d000000p-23", "0x1.1b2a778000000p-23"),
        11: ("0x1.2f0f490000000p-24", "0x1.1ca0293000000p-23", "0x1.88e02fc000000p-24"),
    },
    "axiom-a2": {
        7: ("0x1.fd57000000000p-34", "0x1.8131f00000000p-33", "0x1.d454000000000p-31"),
        11: ("0x1.fa24800000000p-33", "0x1.d9df400000000p-31", "0x1.0e60a00000000p-31"),
    },
    "equivariance": {
        7: ("0x1.d256c448631f7p-50", "0x1.a2e707d42bbf0p-49", "0x1.9db1214c88517p-49"),
        11: ("0x1.60b9fd68a4554p-49", "0x1.7eb430fa554f8p-49", "0x1.71a2e51067779p-49"),
    },
    "flow-moment": {
        7: ("0x1.42cb79bf7a9aap-48", "0x1.4daf4a8f5de54p-48", "0x1.e1e5202e25a08p-47"),
        11: ("0x1.a310ccf3b3760p-50", "0x1.3093acf937f6bp-48", "0x1.7a06f1096b364p-48"),
    },
    "omega-morphisms": {
        7: ("0x1.bbd6800000000p-33", "0x1.9b89580000000p-32", "0x1.0aba9c0000000p-30"),
        11: ("0x1.5850200000000p-32", "0x1.eb4cc00000000p-34", "0x1.7203100000000p-30"),
    },
    "section-consistency": {
        7: ("0x1.894dcfe8f68e6p-51", "0x1.7b6b7fbd3f68dp-50", "0x1.8104238ce21aep-49"),
        11: ("0x1.021684cd81520p-50", "0x1.d2423135b5e6dp-50", "0x1.62a9f3e833a93p-49"),
    },
}
# rows of those cells at n = 2, 3, 4 where a cell has other than 20
PINNED_ROWS = {
    "constraint": (40, 60, 80),  # one row per chart
    "pullback": (100, 100, 100),  # five pairs (a, b)
    "intertwine": (40, 60, 80),
    "lax-unitarity": (44, 46, 48),  # 20 local matrices, then 20 + 2n points
    "gradients": (40, 48, 56),  # two trials of four zetas for n + 3 Hamiltonians
    "boundary-limit": (8, 12, 16),  # four trials of n slots
    "poisson": (0, 20, 60),  # (n-1)(n-2)/2 pairs k < l
    "conservation": (14, 14, 14),
    "polytope-image": (40, 40, 40),  # J and Xi o K
    "polytope-vertices": (2, 3, 4),  # one trial of n vertices
    "axiom-a2": (6, 6, 6),  # two trials of three tangents
    "omega-morphisms": (8, 8, 8),  # two trials of four generators
}


@pytest.mark.parametrize("seed", [7, 11])
def test_stacked_cells_keep_their_pinned_residuals(seed):
    rep = run_suite(SuiteConfig(n_list=(2, 3, 4), samples=20, seed=seed))
    got, rows = {}, {}
    for cell in rep.results:
        assert cell.passed
        got.setdefault(cell.name, []).append(float(cell.max_residual).hex())
        rows.setdefault(cell.name, []).append(cell.samples)
    assert got == {name: list(PINNED_MAX_RESIDUAL[name][seed]) for name in STACKED}
    assert rows == {name: list(PINNED_ROWS.get(name, (20, 20, 20))) for name in STACKED}


@pytest.mark.parametrize(
    "seed, pinned",
    [(7, ("0x1.3b2af1ea91bdcp-50", "0x1.716380ce70399p-50")),
     (11, ("0x1.b9297f7faf31fp-50", "0x1.09eeacab398f2p-49"))],
)
def test_lax_unitarity_keeps_its_residuals_at_the_upper_edge(seed, pinned):
    # at y = pi/n (1 - 1e-9) |det L - 1| of a local matrix is taken one matrix
    # at a time: np.abs of the stack of dets moves these bits by an ulp
    ys = [math.pi / n * (1 - 1e-9) for n in (3, 4)]
    cfg = SuiteConfig(n_list=(3, 4), y_rule=ys, samples=20, seed=seed, checks=("lax-unitarity",))
    cells = run_suite(cfg).results
    assert all(cell.passed for cell in cells)
    assert [float(cell.max_residual).hex() for cell in cells] == list(pinned)
    assert [cell.samples for cell in cells] == [46, 48]


# the library call counted in each cell, which of its arguments holds the
# trials' stack, and its calls per cell: one per stage, whatever the number
# of trials (one per trial before); None where the call takes one point and
# is made once per trial
CALLS_PER_CELL = {
    "constraint": ("section_F", 0, 1),  # all charts of all points
    "pullback": ("section_F", 0, 2),  # the points, then their chart Jacobian points
    "intertwine": ("section_F", 0, 1),
    "duality-squares": ("f_beta_inv", 0, 2),  # S(u), then S(S(u)) and S(C(S(u)))
    "duality-exchange": ("f_beta_inv", 0, 1),
    "mapclass-origin": ("f_beta_inv", 0, 1),  # S and nu of one lift
    "dehn-decomposition": ("f_beta_inv", 0, 2),  # nu, flows, T, Ttilde; then T Ttilde T
    "central-twist": ("apply_word", 1, 1),
    "lax-conjugation": ("v_vector", 0, 1),
    "lax-unitarity": ("global_lax", 0, 1),  # the one trial's points
    "lax-hamiltonian": ("local_lax", 0, 1),
    "gradients": ("hamiltonian_gradient", 1, 6),  # one per Hamiltonian
    "normalization": ("v_vector", 0, 1),
    "mu-spectrum": ("v_vector", 0, 1),
    "global-lax": ("global_lax", 0, 1),  # K(u) and K(e^{i gamma} u)
    "boundary-limit": ("global_lax", 0, 2),  # on the walls, then off them
    "poisson": ("global_lax", 0, 1),  # the chart Jacobian points
    "conservation": ("f_beta_inv", 0, 1),
    "polytope-image": ("global_lax", 0, 1),
    "polytope-vertices": ("duality", 1, 1),
    "axiom-a2": ("omega_eval", 0, 1),
    "equivariance": ("conjugate", 0, 1),
    "flow-moment": ("flow", 0, 5),  # one per Hamiltonian
    "omega-morphisms": ("omega_eval", 0, 5),  # omega(v, w), then one per generator
    "section-consistency": ("f_beta_inv", 0, 1),
}


def _lead(x):
    """The leading shape of a stack of points (..., n) or of pairs."""
    return x.A.shape[:-2] if isinstance(x, DoublePoint) else np.shape(x)[:-1]


@pytest.mark.parametrize("samples", [6, 20])
@pytest.mark.parametrize("name", STACKED)
def test_stacked_check_labels_each_stage_in_one_call(monkeypatch, name, samples):
    from rsdual import reduction

    target, arg, calls = CALLS_PER_CELL[name]
    stacks = []

    def counted(*args, f=getattr(verify, target)):
        stacks.append(_lead(args[arg]))
        return f(*args)

    monkeypatch.setattr(verify, target, counted)
    if target == "f_beta_inv":  # the maps on CP(n-1) label in reduction
        monkeypatch.setattr(reduction, target, counted)
    (cell,) = run_suite(SuiteConfig(n_list=(3,), samples=samples, checks=(name,))).results
    assert cell.passed
    trials = 1 if name in ONE_TRIAL else max(1, samples // PER[name])
    assert len(stacks) == calls
    # the trials on axis 0, or on axis 1 behind the two central-difference
    # steps of a chart Jacobian or the pair K(u), K(e^{i gamma} u)
    assert all(trials in shape[:2] for shape in stacks)


# the library call of each check that the forced failure breaks, and which
# of its arguments holds the draw's first entry (the point, xi, or X)
FORCED_AT = {
    "constraint": ("section_F", 0),
    "pullback": ("section_F", 0),
    "intertwine": ("section_F", 0),  # after K(u)
    "duality-squares": ("duality", 1),
    "duality-exchange": ("duality", 1),
    "mapclass-origin": ("_relabel", 0),
    "dehn-decomposition": ("_relabel", 0),
    "central-twist": ("apply_word", 1),
    "lax-conjugation": ("local_lax", 0),
    "lax-unitarity": ("local_lax", 0),
    "lax-hamiltonian": ("local_hamiltonian", 0),
    "gradients": ("hamiltonian_gradient", 1),
    "normalization": ("v_vector", 0),
    "mu-spectrum": ("alcove_delta", 0),  # after v(xi)
    "global-lax": ("global_lax", 0),
    "boundary-limit": ("canonicalize", 0),
    "poisson": ("to_chart", 0),  # the chart coordinates of the points
    "conservation": ("reduced_flow", 0),
    "polytope-image": ("global_lax", 0),  # after J(u), whose row is dropped too
    "polytope-vertices": ("duality", 1),  # after J(u)
    "axiom-a2": ("omega_eval", 0),  # after dmu
    "equivariance": ("conjugate", 0),
    "flow-moment": ("flow", 0),
    "omega-morphisms": ("omega_eval", 0),
    "section-consistency": ("section_F", 0),
}
# rows of one trial at n = 3 where it is not one (poisson has one pair k < l)
ROWS_PER_TRIAL = {
    "constraint": 3, "pullback": 5, "intertwine": 3, "lax-unitarity": 16, "gradients": 24,
    "boundary-limit": 3, "conservation": 7, "polytope-image": 2, "polytope-vertices": 3,
    "axiom-a2": 3, "flow-moment": 5, "omega-morphisms": 4,
}


def _alone(check, c, drawn):
    """The residuals of one trial evaluated alone, as a group of one."""
    return np.ravel(check.residuals(c, *(np.array([x]) for x in drawn.values())))


def _each_trial(drawn):
    """A cell's draw (stacks by name) as the draw of each of its trials."""
    count = len(next(iter(drawn.values())))
    return [{key: x[i] for key, x in drawn.items()} for i in range(count)]


@pytest.mark.parametrize("name", STACKED)
def test_failing_stacked_trial_is_reported_as_one_trial_alone(monkeypatch, name):
    # trial 2's draw (the one trial's, for lax-unitarity and polytope-vertices)
    # makes the library call raise, in the cell's stack and alone; the cell
    # must report what running each trial by itself reports
    check, tol = CHECKS[name]
    cfg = SuiteConfig(n_list=(3,), samples=5 * PER[name], seed=3, checks=(name,))
    (c,) = cfg.couplings()
    rng = np.random.default_rng([cfg.seed, list(CHECKS).index(name), c.n])
    stacks = check.draw(c, rng, 5)
    draws = _each_trial(stacks)
    t = 0 if name in ONE_TRIAL else 2
    first = next(iter(draws[t].values()))
    target, arg = FORCED_AT[name]
    f = getattr(verify, target)

    def forced(*args):
        x = args[arg].A if isinstance(args[arg], DoublePoint) else args[arg]
        if np.all(x == first, -1).any():
            raise ConstraintViolation(f"forced failure in {target}")
        return f(*args)

    groups = []

    def recorded(c, *stacks):
        groups.append(len(stacks[0]))
        return check.residuals(c, *stacks)

    monkeypatch.setattr(verify, target, forced)
    monkeypatch.setitem(CHECKS, name, (check._replace(residuals=recorded), tol))
    (cell,) = run_suite(cfg).results

    rows, failure = [], None
    for i, drawn in enumerate(draws):
        try:
            rows += list(_alone(check, c, drawn))
        except ConstraintViolation as exc:
            failure = failure or {"trial": i, "error": "ConstraintViolation", "message": str(exc)}
    assert failure == {
        "trial": t, "error": "ConstraintViolation",
        "message": f"forced failure in {target}",
    }
    assert not cell.passed and cell.failure == {**failure, "data": verify._to_json(stacks, t)}
    assert cell.samples == len(rows) == (len(draws) - 1) * ROWS_PER_TRIAL.get(name, 1)
    assert cell.max_residual == max(rows, default=0.0)
    assert groups[0] == len(draws)  # the cell was tried as one stack first


def _json_floats(x):
    """x as the JSON of a report: [re, im] pairs for complex numbers."""
    x = np.asarray(x)
    return np.stack((x.real, x.imag), -1).tolist() if np.iscomplexobj(x) else x.tolist()


def test_stacked_payload_names_the_point_and_its_row(monkeypatch):
    # a failure payload names the trial's draw, entry by entry (the point u,
    # xi and its momenta p, a pair (A, B) of the double ...), and which of its
    # rows failed: the chart j = row + 1 of constraint, the pair (a, b) of
    # pullback, the pair k < l of poisson in np.triu_indices order, the wall
    # of boundary-limit, the Hamiltonian and zeta of gradients, the
    # generator of omega-morphisms
    cases = (
        ("constraint", 3, 3), ("pullback", 3, 5), ("poisson", 4, 3), ("global-lax", 3, 1),
        ("normalization", 3, 1), ("lax-hamiltonian", 3, 1), ("boundary-limit", 3, 3),
        ("gradients", 2, 20), ("omega-morphisms", 3, 4),
    )
    for name, n, rows in cases:
        check, _ = CHECKS[name]
        monkeypatch.setitem(CHECKS, name, (check, 1e-30))
        cfg = SuiteConfig(n_list=(n,), samples=4 * PER[name], seed=5, checks=(name,))
        (c,) = cfg.couplings()
        rng = np.random.default_rng([cfg.seed, list(CHECKS).index(name), c.n])
        drawn = _each_trial(check.draw(c, rng, 4))[0]
        (cell,) = run_suite(cfg).results
        assert not cell.passed and cell.samples == 4 * rows
        assert cell.failure["sample_index"] == 0
        data = cell.failure["data"]
        assert data == {"row": 0, **{k: _json_floats(x) for k, x in drawn.items()}}
        if "u" in drawn and drawn["u"].ndim == 1:
            assert data["u"] == point_to_json(drawn["u"])


def _squares_by_map(c, U):
    su = duality("S", U, c)
    r1 = projective_distance(duality("S", su, c), involution("sigma", U))
    return np.maximum(r1, projective_distance(duality("R", involution("C", su), c), U))


def _exchange_by_map(c, U):
    su = duality("S", U, c)
    r1 = np.abs(moment_J(su, c) - action_variables(U, c)).max(-1)
    return np.maximum(r1, np.abs(action_variables(su, c) - moment_J(U, c)[..., ::-1]).max(-1))


def _origin_by_map(c, U):
    return projective_distance(mapclass_on_P(["S"], U, c), duality("S", U, c))


def _dehn_by_map(c, U):
    su = duality("S", U, c)
    r = projective_distance(mapclass_on_P(["T", "Ttilde", "T"], su, c), U)
    for side, gen in (("second", "T"), ("first", "Ttilde")):
        flowed = reduced_flow(U, InvariantHamiltonian("dehn", 1, side), 1.0, c)
        r = np.maximum(r, projective_distance(flowed, mapclass_on_P([gen], U, c)))
    return r


# the relabelling checks as they were evaluated before their stages were
# shared: each map lifts and labels the points alone, in this order
BY_MAP = {
    "duality-squares": _squares_by_map, "duality-exchange": _exchange_by_map,
    "mapclass-origin": _origin_by_map, "dehn-decomposition": _dehn_by_map,
}


@pytest.mark.parametrize("name", BY_MAP)
def test_shared_stages_report_what_the_maps_one_by_one_report(monkeypatch, name):
    # at y = 1e-6 the near-vertex trial 1 fails duality-squares and dehn-
    # decomposition by a residual (the label's eps/y) and passes the other
    # two checks; trial 3, the zero vector, raises in the first lift.  The
    # cell's report, failure record included, is that of the check
    # evaluated map by map
    c = Coupling(4, 1e-6)
    near = vertex_points(c, 1e-6, np.random.default_rng(0))
    u = np.array([random_point(c, np.random.default_rng(1)), near[2], near[0], np.zeros(4)])
    draw = lambda c, rng, count: {"u": u}
    check, tol = CHECKS[name]
    cfg = SuiteConfig(n_list=(4,), y_rule=1e-6, samples=4, checks=(name,))
    reports = []
    for residuals in (check.residuals, BY_MAP[name]):
        monkeypatch.setitem(CHECKS, name, (Stacked(residuals, draw), tol))
        (cell,) = run_suite(cfg).results
        reports.append(json.dumps({**cell.to_json(), "wall_time": None}))
    assert reports[0] == reports[1]
    failure = json.loads(reports[0])["failure"]
    if name in ("duality-squares", "dehn-decomposition"):
        assert "error" not in failure and failure["data"]["u"] == point_to_json(near[2])
    else:
        assert (failure["trial"], failure["error"]) == (3, "ZeroVector")


def _local_lax_cell(c, rng, k):
    xi = random_shifted_alcove(c, rng, 0.02, k)
    phases = rng.uniform(0, 2 * math.pi, (k, c.n - 1))
    return {"xi": xi, "theta": np.exp(1j * np.append(phases, -phases.sum(-1, keepdims=True), -1))}


def _lax_unitarity_cell(c, rng, k):
    drawn = {key: x[None] for key, x in _local_lax_cell(c, rng, k).items()}
    u = (random_point(c, rng, count=k), vertex_points(c), vertex_points(c, 1e-4, rng))
    return drawn | {"u": np.concatenate(u)[None]}


def _lax_hamiltonian_cell(c, rng, k):
    xi = random_shifted_alcove(c, rng, 0.02, k)
    p = rng.uniform(-math.pi, math.pi, (k, c.n))
    p[:, -1] = -p[:, :-1].sum(-1)
    return {"xi": xi, "p": p}


def _double_and_algebra_cell(key, *m):
    def cell(c, rng, k):
        p = random_double_point(c.n, rng, k)
        X = random_su_algebra(c.n, rng, k * math.prod(m)).reshape((k, *m, c.n, c.n))
        return {"A": p.A, "B": p.B, key: X}
    return cell


def _gradients_cell(c, rng, k):
    X = random_special_unitary(c.n, rng, k)
    m = 4 * c.n + 12
    return {"X": X, "zeta": random_su_algebra(c.n, rng, k * m).reshape(k, m, c.n, c.n)}


def _flow_moment_cell(c, rng, k):
    p = random_double_point(c.n, rng, k)
    return {"A": p.A, "B": p.B, "t": rng.uniform(-5, 5, k)}


# the draw of a cell of k trials of each check whose draw is more than one
# sampler call, as the public sampler and rng calls that the draw documents,
# one per variable, in order
CELL_CALLS = {
    "pullback": lambda c, rng, k: {
        "u": random_point(c, rng, 0.08, k), "ab": rng.standard_normal((k, 5, 4, 1, c.n - 1))},
    "lax-conjugation": _local_lax_cell,
    "lax-unitarity": _lax_unitarity_cell,
    "lax-hamiltonian": _lax_hamiltonian_cell,
    "gradients": _gradients_cell,
    "global-lax": lambda c, rng, k: {
        "u": random_point(c, rng, count=k), "gamma": rng.uniform(0, 2 * math.pi, k)},
    "axiom-a2": _double_and_algebra_cell("zxy", 3, 3),
    "flow-moment": _flow_moment_cell,
    "omega-morphisms": _double_and_algebra_cell("XY", 2, 2),
}


@pytest.mark.parametrize("n", [2, 3, 4, 8, 32])
@pytest.mark.parametrize("name", CELL_CALLS)
def test_draws_are_one_sampler_call_per_variable(name, n):
    # every entry keeps the bits of the calls, and the rng ends where they
    # leave it
    c = Coupling.default(n)
    drawn_rng, calls_rng = np.random.default_rng(n), np.random.default_rng(n)
    drawn = CHECKS[name][0].draw(c, drawn_rng, 6)
    want = CELL_CALLS[name](c, calls_rng, 6)
    assert list(drawn) == list(want)
    for key, x in drawn.items():
        w = want[key]
        assert x.dtype == w.dtype and x.shape == w.shape and x.tobytes() == w.tobytes(), key
    assert drawn_rng.bit_generator.state == calls_rng.bit_generator.state


def test_exception_payload_replays_the_trial():
    # at y = pi/n (1 - 1e-9) the lax-conjugation cell raises (|v| misses 1,
    # since the drawn xi carries the gap xi - y only to ulp(pi/n)); its
    # record names the trial's xi and Theta, and they, read back from the
    # JSON report exactly, raise the same error alone
    ys = [math.pi / n * (1 - 1e-9) for n in (2, 3, 4)]
    cfg = SuiteConfig(n_list=(2, 3, 4), y_rule=ys, samples=5, seed=0,
                      checks=("lax-conjugation",))
    record = json.loads(json.dumps(run_suite(cfg).to_json()))
    cells = {cell["n"]: cell for cell in record["checks"]}
    for cell in cells.values():
        failure = cell["failure"]
        assert set(failure) == {"trial", "error", "message", "data"}
        assert [len(x) for x in failure["data"].values()] == [cell["n"]] * 2
    failure = cells[3]["failure"]
    xi = np.array(failure["data"]["xi"])
    theta = np.array(failure["data"]["theta"]) @ [1, 1j]
    c = Coupling(3, ys[1])
    with pytest.raises(NormViolation) as exc:
        CHECKS["lax-conjugation"][0].residuals(c, xi[None], theta[None])
    assert (failure["error"], failure["message"]) == ("NormViolation", str(exc.value))
    # the trial is one that the cell drew
    rng = np.random.default_rng([0, list(CHECKS).index("lax-conjugation"), 3])
    drawn = CHECKS["lax-conjugation"][0].draw(c, rng, 5)
    assert np.array_equal(xi, drawn["xi"][failure["trial"]])
    assert np.array_equal(theta, drawn["theta"][failure["trial"]])


def test_stack_of_a_cell_is_bounded(monkeypatch):
    # at n = 32 a group of trials is one trial: no section_F or global_lax
    # call of a pullback or poisson cell holds more than STACK_ENTRIES
    # matrix entries, and the rows are those of the trials run one at a time
    c = Coupling.default(32)
    sizes = []
    for target in ("section_F", "global_lax"):
        def counted(u, *args, f=getattr(verify, target)):
            sizes.append(np.size(u) // c.n)
            return f(u, *args)

        monkeypatch.setattr(verify, target, counted)
    for name in ("pullback", "poisson"):
        check, tol = CHECKS[name]
        got = []

        def recorded(c, *stacks, check=check):
            rows = check.residuals(c, *stacks)
            got.extend(np.ravel(rows))
            return rows

        monkeypatch.setitem(CHECKS, name, (Stacked(recorded, check.draw), tol))
        sizes.clear()
        run_suite(SuiteConfig(n_list=(32,), samples=20, seed=7, checks=(name,)))
        assert sizes and max(sizes) * c.n**2 <= verify.STACK_ENTRIES
        assert max(sizes) == 4 * (c.n - 1)  # the chart Jacobian of one trial
        rng = np.random.default_rng([7, list(CHECKS).index(name), c.n])
        alone = [_alone(check, c, drawn) for drawn in _each_trial(check.draw(c, rng, 20))]
        assert np.array_equal(got, np.ravel(alone))


def test_axis_error_in_a_check_propagates(monkeypatch):
    # numpy's AxisError is a ValueError, but in a check it is a bug, not a
    # failed cell: a scripted trial, a stacked group and one trial alone raise it
    def misplaced(c, U, *rest):
        if len(U) > 1:
            raise ConstraintViolation("the group fails")
        return np.moveaxis(np.zeros(5), 1, 0)

    def stacked_misplaced(c, U, *rest):
        return np.moveaxis(np.zeros(np.shape(U)[:-1] + (5,)), 2, 0)

    cases = [
        ("normalization", _scripted({1: np.exceptions.AxisError(2, 1)}, [])),
        ("pullback", Stacked(stacked_misplaced, CHECKS["pullback"][0].draw)),
        ("pullback", Stacked(misplaced, CHECKS["pullback"][0].draw)),
    ]
    for name, trial in cases:
        monkeypatch.setitem(CHECKS, name, (trial, 1e-12))
        with pytest.raises(np.exceptions.AxisError):
            run_suite(SuiteConfig(n_list=(3,), samples=3, checks=(name,)))


def test_slot_and_vertex_loops_are_one_call_per_stage(monkeypatch):
    # boundary-limit puts the n wall points of all trials of a cell through
    # each stage in one call (K(u0) before K(u1)), and polytope-vertices all
    # n near-vertex points through one duality call; per slot and per vertex
    # they made n calls, per trial 4
    calls = []
    for name in ("canonicalize", "global_lax", "duality"):
        def counted(*args, f=getattr(verify, name), name=name):
            calls.append((name, np.shape(args[name == "duality"])))
            return f(*args)

        monkeypatch.setattr(verify, name, counted)
    run_suite(SuiteConfig(n_list=(3,), samples=20, checks=("boundary-limit",)))
    assert calls == [("canonicalize", (4, 3, 3)), ("global_lax", (4, 3, 3))] * 2
    calls.clear()
    run_suite(SuiteConfig(n_list=(3,), samples=20, checks=("polytope-vertices",)))
    assert calls == [("duality", (1, 3, 3))]
