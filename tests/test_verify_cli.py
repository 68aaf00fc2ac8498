"""Verification engine determinism/selectors and the CLI surface."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from rsdual import cli
from rsdual.cli import main
from rsdual.coupling import Coupling
from rsdual.errors import ConstraintViolation
from rsdual.projective import chart_index, point_from_json, projective_distance, random_point
from rsdual.lax import global_lax
from rsdual.sun import spectral_xi
from rsdual import verify
from rsdual.verify import (
    CHECKS,
    SuiteConfig,
    _bracket,
    _chart_gradient,
    _check_poisson,
    run_suite,
)


def poisson_bracket_fs(fa, fb, u, c, j=None):
    """Poisson bracket of two scalar functions of u in the chart Darboux
    structure, with central-difference gradients.

    In real chart coordinates u_k = q_k + i p_k the scaled Fubini-Study
    form is -2 sum dq ^ dp, so {f, g} = -(1/2) sum (f_q g_p - f_p g_q).
    """
    if j is None:
        j = chart_index(u)
    return _bracket(_chart_gradient(fa, u, j, c), _chart_gradient(fb, u, j, c))


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
    # one Jacobian of all Xi_k per sample gives bit for bit the brackets
    # that poisson_bracket_fs computes pair by pair
    c = Coupling.default(n)
    trial_rng = np.random.default_rng(8)
    rows = [row for _ in range(3) for row in _check_poisson(c, trial_rng)]
    rng = np.random.default_rng(8)
    want = []
    for _ in range(3):
        u = random_point(c, rng, interior_bias=0.08)
        for k in range(1, n):
            for l in range(k + 1, n):
                fa = lambda uu, kk=k: float(spectral_xi(global_lax(uu, c))[0][kk - 1])
                fb = lambda uu, ll=l: float(spectral_xi(global_lax(uu, c))[0][ll - 1])
                want.append(abs(poisson_bracket_fs(fa, fb, u, c)))
    assert [r for r, _ in rows] == want


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
    trial, _, per = CHECKS["global-lax"]
    monkeypatch.setitem(CHECKS, "global-lax", (trial, 1e-30, per))
    rep = run_suite(SuiteConfig(n_list=(3,), samples=4, checks=("global-lax",)))
    (res,) = rep.results
    assert not res.passed
    assert res.failure is not None and "data" in res.failure
    assert res.failure["residual"] > 1e-30


def _scripted_trial(events, started):
    """A stand-in check: trial i of a cell yields events.get(i, (i + 1) * 1e-14)
    as its one row, or raises it when it is an exception; started records the
    n of every trial begun."""

    def trial(c, rng):
        i = started.count(c.n)
        started.append(c.n)
        event = events.get(i, (i + 1) * 1e-14)
        if isinstance(event, Exception):
            raise event
        yield event, {"trial": i}

    return trial


FORCED = {"trial": 2, "error": "ConstraintViolation", "message": "forced failure in trial 2"}


def _forced(started):
    return (_scripted_trial({2: ConstraintViolation(FORCED["message"])}, started), 1e-12, 1)


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
            {"sample_index": 1, "residual": 1.0, "data": {"trial": 1}},
        ),
        (
            {1: np.linalg.LinAlgError("singular"), 3: 1.0},
            {"trial": 1, "error": "LinAlgError", "message": "singular"},
        ),
        ({0: math.nan}, {"sample_index": 0, "residual": math.nan, "data": {"trial": 0}}),
    ],
)
def test_cell_reports_its_first_failure_in_trial_order(monkeypatch, events, failure):
    monkeypatch.setitem(CHECKS, "normalization", (_scripted_trial(events, []), 1e-12, 1))
    (cell,) = run_suite(SuiteConfig(n_list=(3,), samples=5, checks=("normalization",))).results
    assert not cell.passed
    assert json.dumps(cell.failure) == json.dumps(failure)


def test_exception_outside_the_library_errors_propagates(monkeypatch):
    # anything but a library error or ValueError is a bug, not a failed cell
    trial = _scripted_trial({2: KeyError("bug")}, [])
    monkeypatch.setitem(CHECKS, "normalization", (trial, 1e-12, 1))
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
            from rsdual.reduction import action_variables

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


def test_cli_polytope_csv(tmp_path):
    out = tmp_path / "poly.csv"
    code = run_cli("polytope", "--n", "4", "--y", "0.2", "--samples", "50",
                   "--seed", "9", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 50
    c = Coupling(4, 0.2)
    for row in rows:
        J = [float(row[f"J{k}"]) for k in (1, 2, 3)]
        X = [float(row[f"XiK{k}"]) for k in (1, 2, 3)]
        for vec in (J, X):
            assert min(vec) >= c.y - 1e-9
            assert sum(vec) <= math.pi - c.y + 1e-9


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
