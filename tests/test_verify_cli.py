"""Verification engine determinism/selectors and the CLI surface."""

import csv
import json
import math

import numpy as np
import pytest

from rsdual.cli import main
from rsdual.coupling import Coupling
from rsdual.errors import ConfigError
from rsdual.projective import point_from_json, projective_distance, random_point
from rsdual.lax import global_lax
from rsdual.sun import spectral_xi
from rsdual.verify import CHECKS, SuiteConfig, _check_poisson, poisson_bracket_fs, run_suite


def test_default_suite_passes_quickly():
    rep = run_suite(SuiteConfig(n_list=(2, 3), samples=6, seed=3))
    assert rep.all_passed
    names = {r.name for r in rep.results}
    assert names == set(CHECKS)


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
    rows = _check_poisson(c, 3, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    want = []
    for _ in range(3):
        u = random_point(c, rng, interior_bias=0.08)
        for k in range(1, n):
            for l in range(k + 1, n):
                fa = lambda uu, kk=k: float(spectral_xi(global_lax(uu, c), c).xi[kk - 1])
                fb = lambda uu, ll=l: float(spectral_xi(global_lax(uu, c), c).xi[ll - 1])
                want.append(abs(poisson_bracket_fs(fa, fb, u, c)))
    assert [r for r, _ in rows] == want


def test_selector_restricts_checks():
    cfg = SuiteConfig(n_list=(2,), samples=3, checks=("duality",))
    rep = run_suite(cfg)
    assert {r.name for r in rep.results} == {"duality-squares", "duality-exchange"}
    with pytest.raises(ConfigError):
        SuiteConfig(checks=("no-such-check",)).selected_checks()


def test_y_rule_variants():
    assert [c.y for c in SuiteConfig(n_list=(2, 4)).couplings()] == [
        math.pi / 4,
        math.pi / 8,
    ]
    assert [c.y for c in SuiteConfig(n_list=(3,), y_rule=0.3).couplings()] == [0.3]
    with pytest.raises(ConfigError):
        SuiteConfig(n_list=(3,), y_rule=2.0).couplings()
    with pytest.raises(ConfigError):
        SuiteConfig(n_list=(2, 3), y_rule=[0.1]).couplings()


def test_failure_payload_names_first_bad_sample():
    cfg = SuiteConfig(
        n_list=(3,), samples=4, checks=("global-lax",), tolerances={"global-lax": 1e-30}
    )
    rep = run_suite(cfg)
    (res,) = rep.results
    assert not res.passed
    assert res.failure is not None and "data" in res.failure
    assert res.failure["residual"] > 1e-30


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


def test_fd_residual_monotone_in_step():
    # first-order checks: central-difference residual shrinks with the step
    c = Coupling.default(3)
    rng = np.random.default_rng(0)
    u = random_point(c, rng, interior_bias=0.1)
    res = {}
    for step in (1e-4, 1e-5):
        worst = 0.0
        for k, l in ((1, 2),):
            from rsdual.reduction import action_variables

            fa = lambda uu: float(action_variables(uu, c)[k - 1])
            fb = lambda uu: float(action_variables(uu, c)[l - 1])
            worst = max(worst, abs(poisson_bracket_fs(fa, fb, u, c, step=step)))
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


def test_cli_verify_tol_override_fails(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "verify", "--n", "2", "--samples", "2", "--checks", "global-lax",
        "--tol", "global-lax=1e-30", "--out", str(out),
    )
    assert code == 1
    assert json.loads(out.read_text())["all_passed"] is False


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


def test_cli_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--n", "3"])
    assert exc.value.code == 2


def test_cli_y_literal():
    code = run_cli("verify", "--n", "2", "--y", "pi/(2n)", "--samples", "2",
                   "--checks", "normalization")
    assert code == 0
