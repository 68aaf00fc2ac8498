"""Benchmark of the rsdual library: one workload per run, in one process.

Run from the repository root:

    python3 bench/run.py --workload polytope-scan --seed 1 --seconds 30 --trace 0

Workloads: verify-sweep, polytope-scan, flow-trajectory (see bench/NOTES.md).
A run pins BLAS/OpenMP to one thread, makes its inputs from --seed, does one
untimed warm-up operation, runs operations for --seconds seconds and checks
every output. Operations and set-up are timed in process CPU time and
rescaled by a fixed reference work timed beside them (see ``measure`` and
bench/NOTES.md). With --trace 0 it reports the end-to-end metrics. With
--trace 1 it runs half the time untraced and half traced, and reports the
per-layer metrics. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a report with the environment,
fail_ratio and the sample counts. The spans of a traced run are written to
.bench_out/.
"""

import argparse
from dataclasses import dataclass, field
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# named here so that parsing the arguments imports no numpy before the pin
WORKLOAD_NAMES = ("verify-sweep", "polytope-scan", "flow-trajectory")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# Operations are timed in process CPU time, which leaves out the time the
# host takes the vCPU away. That is sound only while the work runs in this
# process; more wall than this per CPU second means it does not, and the run
# fails rather than report CPU time for work done elsewhere.
MAX_WALL_OVER_CPU = 2.0
# A shared host runs this code at speeds up to 2x apart for seconds to
# minutes at a time (see bench/NOTES.md), so every timing is rescaled:
# CPU time x REF_SECONDS / the CPU time that reference_work() took in the
# same process at the same time. Timings are thus given at the speed at
# which reference_work() takes 1 ms. On the 2-vCPU Xeon VM the benchmark was
# built on it took 1.14 ms in the median 0.8 s stretch of 170 s (1.05 and
# 1.31 ms at the 10th and 90th percentile).
REF_SECONDS = 0.001
REF_EVERY_SECONDS = 0.05  # reference samples between operations, at least this apart
BLOCK_SECONDS = 1.0  # operations rescaled by the median reference of their block
SETUP_REF_SAMPLES = 25

# (function, metrics): "calls" gives <function>.calls_per_op and "self" gives
# <function>.self_us_per_op, both per timed operation of the traced run.
FUNCTION_METRICS = (
    ("lax.sinratio", ("calls",)),
    ("lax.w_factors", ("calls", "self")),
    ("lax.lambda_matrix", ("calls", "self")),
    ("lax.global_lax", ("calls", "self")),
    ("sun.spectral_xi", ("calls", "self")),
    ("linalg.schur", ("calls",)),
    ("linalg.expm", ("calls",)),
    ("linalg.eigh", ("calls",)),
    ("double.flow", ("calls", "self")),
    ("double.hamiltonian_gradient", ("calls", "self")),
    ("double.auto_apply", ("calls",)),
    ("double.omega_eval", ("calls",)),
    ("reduction.section_F", ("calls", "self")),
    ("reduction.smooth_chart_gauge", ("self",)),
    ("reduction.f_beta_inv", ("calls", "self")),
    ("reduction.action_variables", ("calls",)),
    ("coupling.check_alcove", ("calls",)),
    ("coupling.check_shifted_alcove", ("calls",)),
    ("projective.canonicalize", ("calls", "self")),
)
LAYER_NAMES = (
    "coupling", "sun", "lax", "projective", "double", "reduction", "verify", "linalg",
)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_library():
    """Import rsdual from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rsdual

    if Path(rsdual.__file__).resolve().parent != src / "rsdual":
        raise ImportError(f"rsdual found at {rsdual.__file__}, not under {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


@dataclass
class Measurement:
    """One timed loop: each operation's process CPU seconds, label and time
    block, the reference CPU seconds sampled in each block, the wall-clock
    sum of the operation calls, and every failure counted. ``chunk`` is the
    workload's number of operations with a fixed mix; ``aligned`` says that
    the i-th operation of every chunk is the same call."""

    chunk: int = 1
    aligned: bool = False
    latencies: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def ops(self):
        return len(self.latencies)

    def rescaled(self):
        """Each operation's CPU seconds x REF_SECONDS / the median reference
        of its block."""
        scale = [REF_SECONDS / statistics.median(refs) for refs in self.refs]
        return [x * scale[b] for x, b in zip(self.latencies, self.blocks)]

    def chunks(self, raw=False):
        """Rescaled (or raw) latencies of each whole chunk, or all of them if
        there is less than one chunk. Aligned chunks give one typical chunk
        instead: each call's median latency over the chunks."""
        lat, size = (self.latencies if raw else self.rescaled()), self.chunk
        if len(lat) < size:
            return [lat]
        whole = [lat[i : i + size] for i in range(0, len(lat) - size + 1, size)]
        if self.aligned:
            return [[statistics.median(call) for call in zip(*whole)]]
        return whole

    def chunk_median(self, stat, raw=False):
        """Median over the chunks of ``stat`` of a chunk's latencies, so that
        a minority of time at another machine speed does not move it."""
        return statistics.median(stat(c) for c in self.chunks(raw))

    def ops_per_s(self, raw=False):
        return self.chunk_median(lambda lat: len(lat) / sum(lat), raw)

    def wall_over_cpu(self):
        return self.wall / sum(self.latencies)

    def record(self, label, cpu_seconds, wall_seconds, problem):
        self.latencies.append(cpu_seconds)
        self.labels.append(label)
        self.blocks.append(len(self.refs) - 1)
        self.wall += wall_seconds
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def measure(workload, seconds, tracer=None):
    """Run operations until ``seconds`` have passed and the workload is at a
    boundary. Only the operation call is timed, in process CPU time and in
    wall time; a raise or a failed check counts as a failed operation, and
    the loop goes on. Between operations, at least REF_EVERY_SECONDS apart,
    the reference work is timed; blocks of about BLOCK_SECONDS close after
    an operation and each gets at least one reference sample.
    """
    from workloads import reference_seconds

    m = Measurement(chunk=workload.chunk, aligned=workload.aligned)
    clock, cpu_clock = time.perf_counter, time.process_time
    deadline = clock() + seconds
    done = 0
    block_end = next_ref = -math.inf
    for op in workload.ops():
        now = clock()
        if now >= block_end:
            m.refs.append([])
            block_end = now + BLOCK_SECONDS
            next_ref = now  # a block's first operation waits for a sample
        if now >= next_ref:
            m.refs[-1].append(reference_seconds())
            next_ref = clock() + REF_EVERY_SECONDS
        if tracer is not None:
            tracer.op = done
        start, start_cpu = clock(), cpu_clock()
        try:
            out = op.call()
            problem = None
        except Exception as exc:  # a failed operation; the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        cpu, wall = cpu_clock() - start_cpu, clock() - start
        if tracer is not None:
            tracer.op = -1
        if problem is None:
            problem = op.check(out)
        m.record(op.label, cpu, wall, problem)
        done += 1
        if problem is not None:
            skipped = workload.abandon()
            m.attempted += skipped
            m.failed += skipped
        if clock() >= deadline and workload.at_boundary(done):
            break
    return m


def setup_seconds(args):
    """Median over fresh processes of the CPU seconds each spends from its
    start to ready, rescaled by the reference work it times after that."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            proc.stdout.read()
            proc.wait(timeout=120)
        if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
        times.append(float(line[1]) * REF_SECONDS / float(line[2]))
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """The q-th of the 99 cut points of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end_metrics(m, setup_s, raw=False):
    """Rescaled (or raw) CPU-time timings, each the median over chunks."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (m.ops_per_s(raw), "1/s"),
        "op_p50_ms": (m.chunk_median(statistics.median, raw) * 1e3, "ms"),
        "op_p90_ms": (m.chunk_median(lambda lat: percentile(lat, 90), raw) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(tracer, traced, plain, workloads):
    """Per-layer metrics of a traced measurement, with the untraced one of the
    same run for the overhead ratio and the per-check cell times. Self times
    are wall time as the spans measured it; cell times and the overhead ratio
    use rescaled CPU time like the end-to-end metrics."""
    from workloads import VERIFY_CELLS, VERIFY_CHECKS

    totals = tracer.totals()
    unseen = (0, 0.0, 0)  # a function the library no longer has: never called
    ops = traced.ops
    out = {}
    for name, kinds in FUNCTION_METRICS:
        calls, self_s, _ = totals.get(name, unseen)
        if "calls" in kinds:
            out[f"{name}.calls_per_op"] = (calls / ops, "calls/op")
        if "self" in kinds:
            out[f"{name}.self_us_per_op"] = (self_s * 1e6 / ops, "us/op")
    calls, _, raised = totals.get("projective.random_point", unseen)
    accepts = calls - raised
    draws = tracer.edge_calls("projective.random_point", "projective.canonicalize")
    out["projective.random_point.draws_per_accept"] = (
        draws / accepts if accepts else 0.0, "draws/accept",
    )
    wall = traced.wall
    for layer in LAYER_NAMES:
        rows = [v for k, v in totals.items() if k.split(".")[0] == layer]
        out[f"{layer}.self_share"] = (sum(r[1] for r in rows) / wall, "ratio")
        out[f"{layer}.raised_per_op"] = (sum(r[2] for r in rows) / ops, "raises/op")
    sweeps = plain.ops / len(VERIFY_CELLS) if workloads[0].name == "verify-sweep" else 0
    cell_seconds = {}
    for t, label in zip(plain.rescaled(), plain.labels):
        cell_seconds[label] = cell_seconds.get(label, 0.0) + t
    for check in VERIFY_CHECKS:
        seconds = cell_seconds.get(check, 0.0)
        out[f"verify.{check}.s"] = (seconds / sweeps if sweeps else 0.0, "s")
    worst = max(getattr(w, "worst_ratio", 0.0) for w in workloads)
    out["verify.worst_residual_ratio"] = (worst, "ratio")
    out["trace.overhead_ratio"] = (plain.ops_per_s() / traced.ops_per_s(), "ratio")
    return out


def environment(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rsdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        load_library()
    except ImportError as exc:
        print(f"bench: cannot import rsdual from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed).warm_up()
        ready = time.process_time()
        from workloads import reference_seconds

        ref = statistics.median(reference_seconds() for _ in range(SETUP_REF_SAMPLES))
        print("ready", repr(ready), repr(ref), flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    make(args.seed).warm_up()
    report = {"env": environment(args)}
    if args.trace:
        from spans import Tracer

        plain_w, traced_w = make(args.seed), make(args.seed)
        plain = measure(plain_w, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(traced_w, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}.npz"
        tracer.write(span_file, seed=args.seed)
        workloads = (plain_w, traced_w)
        metrics = layer_metrics(tracer, traced, plain, workloads)
        runs = (plain, traced)
        report["trace"] = {
            "span_file": str(span_file.relative_to(ROOT)),
            "spans": tracer.span_count,
            "wall_s": traced.wall,
            "self_s": sum(v[1] for v in tracer.totals().values()),
        }
    else:
        workload = make(args.seed)
        run = measure(workload, args.seconds)
        metrics = end_to_end_metrics(run, setup_s)
        runs = (run,)
        workloads = (workload,)
        report["unscaled"] = {
            k: v for k, (v, _) in end_to_end_metrics(run, None, raw=True).items()
            if k in ("ops_per_s", "op_p50_ms", "op_p90_ms")
        }
        # too noisy here for a bound (see bench/NOTES.md), so reported only
        report["tail"] = {"op_p99_ms": percentile([x * 1e3 for x in run.rescaled()], 99)}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report["counts"] = {
        "ops_timed": sum(r.ops for r in runs),
        "latency_samples": runs[-1].ops,
        "chunks": [r.ops // r.chunk for r in runs],
        "blocks": [len(r.refs) for r in runs],
        "ref_ms": [statistics.median(x for b in r.refs for x in b) * 1e3 for r in runs],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "setup_probes": 0 if args.trace else SETUP_PROBES,
        "wall_over_cpu": [r.wall_over_cpu() for r in runs],
        "problems": [p for r in runs for p in r.problems][:5],
    }
    if max(report["counts"]["wall_over_cpu"]) > MAX_WALL_OVER_CPU:
        print(f"bench: operations took over {MAX_WALL_OVER_CPU}x their CPU time in "
              f"wall time; the work is not in this process: {report}", file=sys.stderr)
        return 3
    if args.workload == "polytope-scan":
        points = sum(w.points for w in workloads)
        near = sum(w.near_wall for w in workloads)
        report["near_wall"] = {"points": points, "near_wall": near, "share": near / points}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
