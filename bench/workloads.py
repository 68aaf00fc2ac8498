"""The three benchmark workloads, each a seeded stream of timed operations,
and the fixed reference work that gauges the machine's speed beside them.

A workload turns its seed into the same operations every time. Inputs are
made here with plain numpy, between operations, so that a traced run sees
exactly the library calls one operation makes. The library is called through
its module attributes (``verify.run_suite``, not an imported name), so the
tracer's wrappers on those attributes see the calls.
"""

from dataclasses import dataclass
from functools import partial
import math
import time
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from rsdual import projective, reduction, verify
from rsdual.coupling import Coupling
from rsdual.double import InvariantHamiltonian


@dataclass
class Op:
    """One operation: ``call`` is timed; ``check`` gets its output and returns
    None when the output is correct, else a description of what is wrong."""

    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    label: str = ""


class Workload:
    """Stream of operations; subclasses define ``warm_up`` and ``ops``.
    Every ``chunk`` consecutive operations have the same mix; in an
    ``aligned`` workload the i-th operation of every chunk is the same call."""

    name = ""
    chunk = 300
    aligned = False

    def at_boundary(self, done):
        """True when a run may stop after ``done`` operations."""
        return True

    def abandon(self):
        """Drop the rest of the current unit after a failed operation and
        return how many operations that skips; they count as failed."""
        return 0


def reference_work():
    """Fixed work, mixing scalar Python math, small numpy array and complex
    matrix operations and the library's LAPACK calls (Schur, expm) as the
    library does. Its CPU time tracks how fast the machine runs that kind of
    code at the moment."""
    x = np.arange(1.0, 9.0)
    a = np.outer(x[:3], x[:3]) * 1e-2 + 1j * np.eye(3)
    acc = 0.0
    for i in range(20):
        for j in range(8):
            acc += math.sin(x[j] * 0.001 * i) / (1.0 + j)
        m = np.outer(x, x) * 1e-3 + 1j * np.eye(8)
        acc += float(np.trace(m @ m).real)
        if i % 4 == 0:
            acc += float(scipy.linalg.expm(a)[0, 0].real)
            t, _ = scipy.linalg.schur(m, output="complex")
            acc += float(t[0, 0].real)
    return acc


def reference_seconds():
    start = time.process_time()
    reference_work()
    return time.process_time() - start


def _unit_vector(rng, n, scale):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (scale / np.linalg.norm(z))


def _norm_error(u, c):
    return abs(float(np.vdot(u, u).real) - c.chi0)


# ---------------------------------------------------------------------------
# verify-sweep: one (check, n) cell of the certification suite per operation

# The suite's 25 checks, named here so that the workload stays fixed: a check
# renamed or removed in the library shows as a failed cell.
VERIFY_CHECKS = (
    "constraint", "pullback", "intertwine", "duality-squares", "duality-exchange",
    "mapclass-origin", "dehn-decomposition", "central-twist", "lax-conjugation",
    "lax-unitarity", "lax-hamiltonian", "gradients", "normalization", "mu-spectrum",
    "global-lax", "boundary-limit", "poisson", "conservation", "polytope-image",
    "polytope-vertices", "axiom-a2", "equivariance", "flow-moment",
    "omega-morphisms", "section-consistency",
)
VERIFY_NS = (2, 3, 4)
# The suite's end-to-end row in ROADMAP.md (run_suite(n_list=(2, 3, 4),
# samples=20)): at 20 the checks that run samples // 10 or samples // 5
# trials get 2 or 4 of them, as users see, not the floor of 1.
VERIFY_SAMPLES = 20
VERIFY_CELLS = tuple((name, n) for name in VERIFY_CHECKS for n in VERIFY_NS)


def verify_cell(name, n, seed):
    """The suite restricted to one cell; the rng key [seed, check index, n]
    makes its samples those of the same cell in a full sweep."""
    cfg = verify.SuiteConfig(
        checks=(name,), n_list=(n,), samples=VERIFY_SAMPLES, seed=seed
    )
    return verify.run_suite(cfg)


class VerifySweep(Workload):
    """Whole sweeps over every (check, n) cell, each sweep with a new seed."""

    name = "verify-sweep"
    chunk = len(VERIFY_CELLS)
    aligned = True

    def __init__(self, seed):
        self.rng = np.random.default_rng([seed, 0])
        self.worst_ratio = 0.0

    def warm_up(self):
        verify_cell("intertwine", 3, 0)

    def ops(self):
        while True:
            sweep_seed = int(self.rng.integers(2**31))
            for name, n in VERIFY_CELLS:
                yield Op(
                    call=partial(verify_cell, name, n, sweep_seed),
                    check=partial(self._check, name, n),
                    label=name,
                )

    def at_boundary(self, done):
        return done % self.chunk == 0

    def _check(self, name, n, report):
        cells = report.results
        if len(cells) != 1 or (cells[0].name, cells[0].n) != (name, n):
            return f"cell ({name}, {n}) ran {[(r.name, r.n) for r in cells]}"
        cell = cells[0]
        self.worst_ratio = max(self.worst_ratio, cell.max_residual / cell.tolerance)
        if not cell.passed:
            return (
                f"{name} n={n}: residual {cell.max_residual:.3e} > "
                f"tolerance {cell.tolerance:.1e}"
            )
        return None


# ---------------------------------------------------------------------------
# polytope-scan: u -> (J(u), Xi(K(u))) at n = 8, as `rsdual polytope` does

POLY_N = 8
POLY_TOL = 1e-9  # the polytope-image tolerance of the suite
NEAR_WALL = 1e-4  # |u_k|^2 below this takes sinratio's series branch
NEAR_WALL_RATE = 0.2


class PolytopeScan(Workload):
    """Random points, one in five with a coordinate next to a polytope wall."""

    name = "polytope-scan"

    def __init__(self, seed):
        self.c = Coupling.default(POLY_N)
        self.rng = np.random.default_rng([seed, 1])
        self.points = 0
        self.near_wall = 0

    def point(self):
        rng, n, chi0 = self.rng, POLY_N, self.c.chi0
        if rng.random() >= NEAR_WALL_RATE:
            return _unit_vector(rng, n, math.sqrt(chi0))
        k = int(rng.integers(n))
        wall = 10.0 ** rng.uniform(-12.0, -4.05)
        rest = _unit_vector(rng, n - 1, math.sqrt(chi0 - wall))
        near = math.sqrt(wall) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return np.insert(rest, k, near)

    def warm_up(self):
        u = _unit_vector(np.random.default_rng(0), POLY_N, math.sqrt(self.c.chi0))
        polytope_point(u, self.c)

    def ops(self):
        while True:
            u = self.point()
            self.points += 1
            self.near_wall += bool(np.min(np.abs(u) ** 2) < NEAR_WALL)
            yield polytope_op(u, self.c)


def polytope_point(u, c):
    J = projective.moment_J_full(u, c)[: c.n - 1]
    return J, reduction.action_variables(u, c)


def _in_polytope(vec, c):
    low_ok = float(vec.min()) >= c.y - POLY_TOL
    return low_ok and float(vec.sum()) <= math.pi - c.y + POLY_TOL


def polytope_op(u, c):
    def check(out):
        if _norm_error(u, c) > POLY_TOL:
            return f"|u|^2 off chi0 by {_norm_error(u, c):.3e}"
        J, xiK = out
        if not _in_polytope(J, c):
            return f"J outside the polytope: {J}"
        if not _in_polytope(xiK, c):
            return f"Xi(K(u)) outside the polytope: {xiK}"
        return None

    return Op(call=partial(polytope_point, u, c), check=check)


# ---------------------------------------------------------------------------
# flow-trajectory: one step of reduced_trajectory at n = 3 per operation

FLOW_N = 3
FLOW_T = 10.0
FLOW_STEPS = (300, 1500)
FLOW_TOL = 1e-8  # the conservation tolerance of the suite
FLOW_HAMILTONIANS = (
    InvariantHamiltonian("re_trace", 1, "first"),
    InvariantHamiltonian("spectral", 1, "second"),
    InvariantHamiltonian("dehn", 1, "second"),
)


class FlowTrajectory(Workload):
    """Long trajectories from random points, one per Hamiltonian at a time,
    stepped in turn so that every stretch of operations has the same mix.

    A first-side flow moves B and conserves Xi(K(u)); a second-side flow
    moves A and conserves J(u).
    """

    name = "flow-trajectory"
    chunk = 100 * len(FLOW_HAMILTONIANS)

    def __init__(self, seed):
        self.c = Coupling.default(FLOW_N)
        self.rng = np.random.default_rng([seed, 2])
        self.left = [0] * len(FLOW_HAMILTONIANS)  # steps left per trajectory
        self.lane = 0  # trajectory of the last operation

    def warm_up(self):
        u = _unit_vector(np.random.default_rng(0), FLOW_N, math.sqrt(self.c.chi0))
        next(reduction.reduced_trajectory(u, FLOW_HAMILTONIANS[0], FLOW_T, 1, self.c))

    def ops(self):
        lanes = [self._trajectories(i) for i in range(len(FLOW_HAMILTONIANS))]
        while True:
            for i, lane in enumerate(lanes):
                self.lane = i
                yield next(lane)

    def _trajectories(self, i):
        c, ham = self.c, FLOW_HAMILTONIANS[i]
        while True:
            u0 = _unit_vector(self.rng, FLOW_N, math.sqrt(c.chi0))
            steps = int(self.rng.integers(FLOW_STEPS[0], FLOW_STEPS[1] + 1))
            if ham.side == "first":
                ref = reduction.action_variables(u0, c)
            else:
                ref = projective.moment_J_full(u0, c)[: c.n - 1]
            steps_iter = reduction.reduced_trajectory(u0, ham, FLOW_T, steps, c)
            self.left[i] = steps + 1
            while self.left[i] > 0:
                self.left[i] -= 1
                yield Op(
                    call=partial(next, steps_iter),
                    check=partial(self._check, ham, ref),
                    label=ham.kind,
                )

    def abandon(self):
        skipped, self.left[self.lane] = self.left[self.lane], 0
        return skipped

    def _check(self, ham, ref, out):
        _, t, ut, J, xiK = out
        if _norm_error(ut, self.c) > FLOW_TOL:
            return f"|u_t|^2 off chi0 by {_norm_error(ut, self.c):.3e} at t={t}"
        kept = xiK if ham.side == "first" else J
        drift = float(np.abs(kept - ref).max())
        if drift > FLOW_TOL:
            return f"{ham.kind}/{ham.side}: conserved side drifted {drift:.3e} at t={t}"
        return None


WORKLOADS = {w.name: w for w in (VerifySweep, PolytopeScan, FlowTrajectory)}
