"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# as in a benchmark run: idle BLAS threads would add CPU time to the process
run.pin_threads()
run.load_library()

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import workloads as W  # noqa: E402
from spans import LINALG, Tracer  # noqa: E402

import rsdual  # noqa: E402
from rsdual.coupling import Coupling  # noqa: E402
from rsdual.verify import CHECKS, SuiteConfig  # noqa: E402


class ListWorkload(W.Workload):
    name = "list"

    def __init__(self, ops):
        self._ops = ops

    def ops(self):
        return iter(self._ops)


def _first_ops(workload, count):
    stream = workload.ops()
    return [next(stream) for _ in range(count)]


def _bits(value):
    """Bytes of every array and number in a nested output, for exact equality."""
    if isinstance(value, tuple):
        return b"|".join(_bits(v) for v in value)
    return np.asarray(value).tobytes()


def test_same_seed_gives_identical_inputs_and_outputs():
    for make, count in ((W.PolytopeScan, 40), (W.FlowTrajectory, 40)):
        a, b = make(5), make(5)
        outs = []
        for w in (a, b):
            outs.append([_bits(op.call()) for op in _first_ops(w, count)])
        assert outs[0] == outs[1]
    a, b = W.PolytopeScan(5), W.PolytopeScan(6)
    assert _bits(a.point()) != _bits(b.point())

    cells = [_first_ops(W.VerifySweep(5), 2) for _ in range(2)]
    assert [op.call.args for op in cells[0]] == [op.call.args for op in cells[1]]
    results = [[op.call().results[0] for op in ops] for ops in cells]
    for r0, r1 in zip(*results):
        assert (r0.name, r0.n, r0.samples, r0.max_residual) == (
            r1.name, r1.n, r1.samples, r1.max_residual,
        )


def _bound_attributes():
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname == "rsdual" or modname.startswith("rsdual."):
            for attr, value in vars(module).items():
                found[(modname, attr)] = value
    for module, attrs in LINALG:
        for attr in attrs:
            found[(module.__name__, attr)] = getattr(module, attr)
    return found


def test_traced_run_restores_every_wrapped_attribute():
    before = _bound_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert rsdual.verify.section_F is not before[("rsdual.verify", "section_F")]
        assert rsdual.lax.global_lax is not before[("rsdual.lax", "global_lax")]
        assert scipy.linalg.schur is not before[("scipy.linalg", "schur")]
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        m = run.measure(W.PolytopeScan(1), 0.0, tracer)
    finally:
        tracer.restore()
    after = _bound_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert m.ops == 1 and tracer.totals()["lax.global_lax"][0] == 1


def test_numpy_and_scipy_linalg_calls_are_counted(tmp_path):
    a = np.eye(3) + 0.1
    op = W.Op(
        call=lambda: (
            np.linalg.det(a), np.linalg.qr(a), np.linalg.eigvals(a),
            np.linalg.eigh(a), scipy.linalg.eigh(a), scipy.linalg.expm(a),
        ),
        check=lambda out: None,
    )
    tracer = Tracer()
    tracer.install()
    try:
        run.measure(ListWorkload([op]), 60.0, tracer)
    finally:
        tracer.restore()
    totals = tracer.totals()
    calls = {name: totals[f"linalg.{name}"][0] for name in ("det", "qr", "eigvals", "expm")}
    assert calls == {"det": 1, "qr": 1, "eigvals": 1, "expm": 1}
    assert totals["linalg.eigh"][0] == 2  # numpy's and scipy's
    tracer.write(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as saved:
        assert len(saved["name"]) == tracer.span_count >= 6


def _off_norm_point(c):
    return np.full(c.n, 1.1 * np.sqrt(c.chi0 / c.n), dtype=complex)


def test_bad_ops_count_as_failed_and_run_goes_on():
    c = Coupling.default(W.POLY_N)
    bad = _off_norm_point(c)
    good = W.PolytopeScan(2).ops()
    ops = [
        next(good),
        W.polytope_op(bad, c),  # computes, then fails its |u|^2 = chi0 check
        W.Op(call=lambda: rsdual.lax.global_lax(bad, c), check=lambda out: None),
        W.Op(call=lambda: rsdual.reduction.section_F(bad, 1, c), check=lambda out: None),
        next(good),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        m = run.measure(ListWorkload(ops), 60.0, tracer)
    finally:
        tracer.restore()
    assert (m.attempted, m.failed, m.ops) == (5, 3, 5)
    assert m.problems[0].startswith("|u|^2 off chi0")
    assert m.problems[1].startswith("NormViolation")
    assert m.problems[2].startswith("AlcoveViolation")
    totals = tracer.totals()
    assert totals["lax.global_lax"][2] == 1
    # counted once, where it was raised, not again by the callers it left
    assert totals["coupling.check_alcove"][2] == 1
    assert totals["lax.w_factors"][2] == 0
    assert totals["reduction.section_F"][2] == 0


def test_failed_flow_step_fails_the_rest_of_its_trajectory():
    w = W.FlowTrajectory(3)
    w._check = lambda ham, ref, out: "forced failure"
    m = run.measure(w, 0.0)
    assert m.ops == 1
    assert m.attempted == m.failed > 300


def test_one_cell_selects_exactly_one_check():
    for name in CHECKS:
        assert SuiteConfig(checks=(name,)).selected_checks() == [name]
    w = W.VerifySweep(1)
    op = next(w.ops())
    report = op.call()
    assert [(r.name, r.n) for r in report.results] == [W.VERIFY_CELLS[0]]
    assert op.check(report) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = run.measure(W.PolytopeScan(4), 0.0)
    e2e = run.end_to_end_metrics(plain, 1.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in spec["end_to_end"]]

    workload = W.PolytopeScan(4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.measure(workload, 0.2, tracer)
    finally:
        tracer.restore()
    layers = run.layer_metrics(tracer, traced, plain, (workload,))
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert [u for _, u in layers.values()] == [m["unit"] for m in spec["per_layer"]]
    shares = sum(v for k, (v, _) in layers.items() if k.endswith(".self_share"))
    assert 0.5 < shares <= 1.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "polytope-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_waiting_outside_the_process_is_caught():
    sleeper = W.Op(call=lambda: time.sleep(0.02), check=lambda out: None)
    m = run.measure(ListWorkload([sleeper] * 3), 60.0)
    assert m.wall_over_cpu() > run.MAX_WALL_OVER_CPU


def _unscaled(chunk, latencies, aligned=False):
    """A measurement in one block whose reference took REF_SECONDS."""
    return run.Measurement(
        chunk=chunk, aligned=aligned, latencies=latencies,
        blocks=[0] * len(latencies), refs=[[run.REF_SECONDS]],
    )


def test_timings_are_medians_over_whole_chunks():
    # chunks of 2: 2/2.0, 2/0.5 and 2/1.0 ops per second; the last op is no chunk
    m = _unscaled(2, [1.0, 1.0, 0.25, 0.25, 0.5, 0.5, 9.0])
    assert m.ops_per_s() == 2.0
    assert m.chunk_median(max) == 0.5
    e2e = run.end_to_end_metrics(m, 1.0)
    assert e2e["op_p50_ms"][0] == e2e["op_p90_ms"][0] == 500.0
    assert _unscaled(5, [0.5, 1.5]).ops_per_s() == 1.0
    # aligned: each call's median over the chunks makes the typical chunk [1.0, 0.5]
    m = _unscaled(2, [1.0, 0.5, 4.0, 0.25, 0.5, 1.0], aligned=True)
    assert m.chunks() == [[1.0, 0.5]]
    assert m.ops_per_s() == 2 / 1.5


def test_latencies_are_rescaled_by_their_block_reference():
    ref = run.REF_SECONDS
    m = run.Measurement(
        chunk=3, latencies=[1.0, 3.0, 4.0], blocks=[0, 0, 1],
        refs=[[ref, 3 * ref, ref], [2 * ref]],
    )
    assert m.rescaled() == [1.0, 3.0, 2.0]
    assert m.chunks(raw=True) == [[1.0, 3.0, 4.0]]
    assert m.ops_per_s() == 0.5 and m.ops_per_s(raw=True) == 3 / 8


def test_every_block_has_reference_samples():
    m = run.measure(W.PolytopeScan(7), 2.5 * run.BLOCK_SECONDS)
    assert len(m.refs) >= 3 and all(m.refs)
    assert sorted(set(m.blocks)) == list(range(len(m.refs)))
