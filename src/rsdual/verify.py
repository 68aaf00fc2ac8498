"""Property/acceptance engine: every structural identity as a named check.

run_suite sweeps a configurable grid of (n, y) couplings, evaluates each
selected check on seeded random samples and reports the worst residual per
check against its tolerance.  Checks are deterministic given the seed and
independent across (check, n) cells, so any cell can be run on its own.
"""

from dataclasses import dataclass, field
import json
import math
import time

import numpy as np
import scipy.linalg

from .coupling import Coupling, random_shifted_alcove
from .double import (
    DoublePoint,
    DoubleTangent,
    InvariantHamiltonian,
    apply_word,
    auto_apply,
    conjugate,
    flow,
    geodesic_tangent,
    hamiltonian_gradient,
    moment,
    omega_eval,
    pushforward,
    random_double_point,
    vertical_tangent,
)
from .errors import ConfigError
from .lax import global_lax, local_hamiltonian, local_lax, mu_of_v, v_vector
from .projective import (
    canonicalize,
    chart_index,
    from_chart,
    fs_omega_eval,
    involution,
    moment_J,
    moment_J_full,
    point_to_json,
    projective_distance,
    random_point,
    to_chart,
    vertex_points,
)
from .reduction import (
    action_variables,
    constraint_residual,
    duality,
    f_beta_inv,
    mapclass_on_P,
    reduced_flow,
    section_F,
)
from .sun import (
    alcove_delta,
    dagger,
    random_special_unitary,
    random_su_algebra,
    scalar_product,
    spectral_xi,
)

FD_STEP = 1e-5  # step of every central finite-difference check


def _chart_gradient(f, u, j, c, h=FD_STEP):
    """Central-difference gradient of f (scalar- or vector-valued) in the real
    chart-j coordinates: row k is d/dq_k and row m + k is d/dp_k, where
    w_k = q_k + i p_k are the n-1 chart coordinates of u."""
    w0 = to_chart(u, j, c)
    m = len(w0)
    rows = []
    for part in (1.0, 1j):
        for k in range(m):
            dw = np.zeros(m, dtype=complex)
            dw[k] = part * h
            rows.append(
                (f(from_chart(w0 + dw, j, c)) - f(from_chart(w0 - dw, j, c))) / (2.0 * h)
            )
    return np.array(rows)


def _bracket(ga, gb):
    """-(1/2) sum (f_q g_p - f_p g_q) from two stacked chart gradients."""
    m = len(ga) // 2
    return -0.5 * float(np.dot(ga[:m], gb[m:]) - np.dot(ga[m:], gb[:m]))


def poisson_bracket_fs(fa, fb, u, c, j=None, step=FD_STEP):
    """Poisson bracket of two scalar functions of u in the chart Darboux
    structure, with central-difference gradients.

    In real chart coordinates u_k = q_k + i p_k the scaled Fubini-Study
    form is -2 sum dq ^ dp, so {f, g} = -(1/2) sum (f_q g_p - f_p g_q).
    """
    if j is None:
        j = chart_index(u)
    return _bracket(_chart_gradient(fa, u, j, c, step), _chart_gradient(fb, u, j, c, step))


# ---------------------------------------------------------------------------
# individual checks; each returns a list of (residual, sample payload)


def _pt(u):
    return {"u": point_to_json(u)}


def _check_constraint(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng, interior_bias=0.02)
        for j in range(1, c.n + 1):
            r = constraint_residual(section_F(u, j, c), c)
            out.append((r, {"chart": j, **_pt(u)}))
    return out


def _check_pullback(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng, interior_bias=0.08)
        j = chart_index(u)
        p0 = section_F(u, j, c)

        def lift(uu):
            p = section_F(uu, j, c)
            return np.stack((p.A, p.B))

        # one chart Jacobian of F_j: rows d/dq_k, then d/dp_k, of (A, B)
        jq, jp = np.split(_chart_gradient(lift, u, j, c), 2)

        def push(a):
            dA, dB = np.tensordot(a.real, jq, 1) + np.tensordot(a.imag, jp, 1)
            return DoubleTangent(dA, dB).project(p0)

        for _ in range(5):
            a = rng.standard_normal(c.n - 1) + 1j * rng.standard_normal(c.n - 1)
            b = rng.standard_normal(c.n - 1) + 1j * rng.standard_normal(c.n - 1)
            r = abs(omega_eval(p0, push(a), push(b)) - fs_omega_eval(u, a, b, c, j=j))
            out.append((r, _pt(u)))
    return out


def _check_intertwine(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng, interior_bias=0.02)
        xiK = spectral_xi(global_lax(u, c), c).xi
        jj = moment_J_full(u, c)
        for j in range(1, c.n + 1):
            p = section_F(u, j, c)
            r = max(
                np.abs(spectral_xi(p.A, c).xi - xiK).max(),
                np.abs(spectral_xi(p.B, c).xi - jj).max(),
            )
            out.append((r, {"chart": j, **_pt(u)}))
    return out


def _check_duality_squares(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        r1 = projective_distance(duality("S", duality("S", u, c), c), involution("sigma", u))
        r2 = projective_distance(duality("R", duality("R", u, c), c), u)
        out.append((max(r1, r2), _pt(u)))
    return out


def _check_duality_exchange(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        su = duality("S", u, c)
        jj = moment_J(u, c)
        r1 = np.abs(moment_J(su, c) - action_variables(u, c)).max()
        r2 = np.abs(action_variables(su, c) - jj[::-1]).max()
        out.append((max(r1, r2), _pt(u)))
    return out


def _check_mapclass_origin(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        r = projective_distance(mapclass_on_P(["S"], u, c), duality("S", u, c))
        out.append((r, _pt(u)))
    return out


def _check_dehn_decomposition(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        su = duality("S", u, c)
        r1 = projective_distance(mapclass_on_P(["T", "Ttilde", "T"], su, c), u)
        r2 = projective_distance(
            reduced_flow(u, InvariantHamiltonian("dehn", 1, "second"), 1.0, c),
            mapclass_on_P(["T"], u, c),
        )
        r3 = projective_distance(
            reduced_flow(u, InvariantHamiltonian("dehn", 1, "first"), 1.0, c),
            mapclass_on_P(["Ttilde"], u, c),
        )
        out.append((max(r1, r2, r3), _pt(u)))
    return out


def _check_central_twist(c, samples, rng):
    out = []
    for _ in range(samples):
        p = random_double_point(c.n, rng)
        q1 = apply_word(["S", "S", "S", "S"], p)
        q2 = auto_apply("Q", p)
        r = max(np.linalg.norm(q1.A - q2.A), np.linalg.norm(q1.B - q2.B))
        out.append((r, None))
    return out


def _random_interior_xi(c, rng):
    return random_shifted_alcove(c, rng, margin=0.02)


def _random_torus_diag(c, rng):
    phases = rng.uniform(0, 2 * math.pi, c.n - 1)
    return np.exp(1j * np.append(phases, -phases.sum()))


def _check_lax_conjugation(c, samples, rng):
    out = []
    for _ in range(samples):
        xi = _random_interior_xi(c, rng)
        L = local_lax(xi, _random_torus_diag(c, rng), c)
        d = alcove_delta(xi, c)
        v, _ = v_vector(xi, c)
        r = np.linalg.norm(L @ d @ dagger(L) - mu_of_v(v, c) @ d)
        out.append((r, {"xi": list(xi)}))
    return out


def _check_lax_unitarity(c, samples, rng):
    out = []
    eye = np.eye(c.n)
    for _ in range(samples):
        xi = _random_interior_xi(c, rng)
        L = local_lax(xi, _random_torus_diag(c, rng), c)
        r = max(np.linalg.norm(dagger(L) @ L - eye), abs(np.linalg.det(L) - 1.0))
        out.append((r, {"xi": list(xi)}))
    pts = [random_point(c, rng) for _ in range(samples)]
    pts += vertex_points(c)
    pts += vertex_points(c, eps=1e-4, rng=rng)
    for u in pts:
        K = global_lax(u, c)
        r = max(np.linalg.norm(dagger(K) @ K - eye), abs(np.linalg.det(K) - 1.0))
        out.append((r, _pt(u)))
    return out


def _check_lax_hamiltonian(c, samples, rng):
    out = []
    for _ in range(samples):
        xi = _random_interior_xi(c, rng)
        p = rng.uniform(-math.pi, math.pi, c.n)
        p[-1] = -p[:-1].sum()
        H = local_hamiltonian(xi, p, c)
        L = local_lax(xi, np.exp(-1j * p), c)
        out.append((abs(H - np.trace(L).real), {"xi": list(xi), "p": list(p)}))
    return out


def _check_gradients(c, samples, rng):
    h = FD_STEP
    out = []
    kinds = [("spectral", j) for j in range(1, c.n)] + [
        ("re_trace", 1),
        ("re_trace", 2),
        ("im_trace", 1),
        ("dehn", 1),
    ]
    for _ in range(max(1, samples // 10)):
        X = random_special_unitary(c.n, rng)
        for kind, idx in kinds:
            ham = InvariantHamiltonian(kind, idx, "first")
            grad = hamiltonian_gradient(ham, X, c)

            def val(M):
                return ham.value(DoublePoint(M, M), c)

            for _ in range(4):
                zeta = random_su_algebra(c.n, rng)
                fd = (
                    val(scipy.linalg.expm(h * zeta) @ X)
                    - val(scipy.linalg.expm(-h * zeta) @ X)
                ) / (2 * h)
                out.append((abs(fd - scalar_product(zeta, grad)), {"kind": kind}))
    return out


def _check_normalization(c, samples, rng):
    out = []
    for _ in range(samples):
        xi = random_shifted_alcove(c, rng)
        _, z = v_vector(xi, c)
        out.append((abs(z.sum() - 1.0), {"xi": list(xi)}))
    return out


def _check_mu_spectrum(c, samples, rng):
    out = []
    for _ in range(samples):
        xi = random_shifted_alcove(c, rng)
        v, _ = v_vector(xi, c)
        d = alcove_delta(xi, c)
        e1 = np.sort(np.angle(np.linalg.eigvals(mu_of_v(v, c) @ d)))
        e2 = np.sort(np.angle(np.diagonal(d)))
        out.append((float(np.abs(e1 - e2).max()), {"xi": list(xi)}))
    return out


def _check_global_lax(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        K = global_lax(u, c)
        gamma = rng.uniform(0, 2 * math.pi)
        r = np.linalg.norm(global_lax(np.exp(1j * gamma) * u, c) - K)
        out.append((r, _pt(u)))
    return out


def _check_boundary_limit(c, samples, rng):
    out = []
    eps = 1e-8
    for _ in range(max(1, samples // 5)):
        for k in range(c.n):
            z = rng.standard_normal(c.n) + 1j * rng.standard_normal(c.n)
            z[k] = 0.0
            u0 = canonicalize(z, c)
            K0 = global_lax(u0, c)
            # step off the wall u_k = 0 on the sphere |u|^2 = chi0 itself, so
            # its length is eps * sqrt(2) whatever the scale of z
            u1 = u0.copy()
            u1[k] = eps * (1.0 + 1j)
            r = np.linalg.norm(global_lax(canonicalize(u1, c), c) - K0)
            out.append((r, {"slot": k + 1, **_pt(u0)}))
    return out


def _check_poisson(c, samples, rng):
    if c.n < 3:
        return []
    out = []
    pairs = [(k, l) for k in range(1, c.n) for l in range(k + 1, c.n)]

    def actions(uu):
        return spectral_xi(global_lax(uu, c), c).xi[: c.n - 1]

    for _ in range(samples):
        u = random_point(c, rng, interior_bias=0.08)
        # one chart Jacobian of all Xi_k; row k - 1 is the gradient of Xi_k
        grad = _chart_gradient(actions, u, chart_index(u), c)
        jac = np.ascontiguousarray(grad.T)
        for k, l in pairs:
            out.append((abs(_bracket(jac[k - 1], jac[l - 1])), {"pair": [k, l], **_pt(u)}))
    return out


def _check_conservation(c, samples, rng):
    out = []
    ham = InvariantHamiltonian("re_trace", 1, "first")
    for _ in range(max(1, samples // 10)):
        u = random_point(c, rng)
        xiK = action_variables(u, c)
        for t in np.linspace(0.5, 10.0, 7):
            ut = reduced_flow(u, ham, float(t), c)
            out.append((float(np.abs(action_variables(ut, c) - xiK).max()), _pt(u)))
    return out


def _check_polytope_image(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng)
        for vec in (moment_J_full(u, c), spectral_xi(global_lax(u, c), c).xi):
            r = max(float((c.y - vec).max()), abs(float(vec.sum()) - math.pi))
            out.append((max(r, 0.0), _pt(u)))
    return out


def _check_polytope_vertices(c, samples, rng):
    # each vertex of the polytope must be approached by J on near-vertex
    # points and by Xi o K on their duality preimages
    out = []
    near = vertex_points(c, eps=1e-4, rng=rng)
    verts = []
    for k in range(c.n):
        v = np.full(c.n - 1, c.y)
        if k < c.n - 1:
            v[k] += c.chi0
        verts.append(v)
    for vert, u in zip(verts, near):
        r1 = float(np.abs(moment_J(u, c) - vert).max())
        pre = duality("S_inv", u, c)
        r2 = float(np.abs(action_variables(pre, c) - vert).max())
        out.append((max(r1, r2), {"vertex": list(vert)}))
    return out


def _check_axiom_a2(c, samples, rng):
    h = FD_STEP
    out = []
    for _ in range(max(1, samples // 10)):
        p = random_double_point(c.n, rng)
        for _ in range(3):
            zeta = random_su_algebra(c.n, rng)
            X = random_su_algebra(c.n, rng)
            Y = random_su_algebra(c.n, rng)
            v = geodesic_tangent(p, X, Y)

            def mu_at(s):
                return moment(
                    DoublePoint(p.A @ scipy.linalg.expm(s * X), p.B @ scipy.linalg.expm(s * Y))
                )

            dmu = (mu_at(h) - mu_at(-h)) / (2 * h)
            mu_inv = dagger(moment(p))
            rhs = 0.5 * scalar_product(mu_inv @ dmu + dmu @ mu_inv, zeta)
            lhs = omega_eval(p, vertical_tangent(p, zeta), v)
            out.append((abs(lhs - rhs), None))
    return out


def _check_equivariance(c, samples, rng):
    out = []
    for _ in range(samples):
        p = random_double_point(c.n, rng)
        g = random_special_unitary(c.n, rng)
        r = np.linalg.norm(moment(conjugate(p, g)) - g @ moment(p) @ dagger(g))
        out.append((r, None))
    return out


def _check_flow_moment(c, samples, rng):
    out = []
    hams = [
        InvariantHamiltonian("spectral", 1, "first"),
        InvariantHamiltonian("spectral", 1, "second"),
        InvariantHamiltonian("re_trace", 2, "first"),
        InvariantHamiltonian("im_trace", 1, "second"),
        InvariantHamiltonian("dehn", 1, "first"),
    ]
    for _ in range(max(1, samples // 5)):
        p = random_double_point(c.n, rng)
        mu = moment(p)
        t = rng.uniform(-5, 5)
        for ham in hams:
            q = flow(p, ham, t, c)
            out.append((np.linalg.norm(moment(q) - mu), {"kind": ham.kind}))
    return out


def _check_omega_morphisms(c, samples, rng):
    out = []
    for _ in range(max(1, samples // 10)):
        p = random_double_point(c.n, rng)
        v = geodesic_tangent(p, random_su_algebra(c.n, rng), random_su_algebra(c.n, rng))
        w = geodesic_tangent(p, random_su_algebra(c.n, rng), random_su_algebra(c.n, rng))
        val = omega_eval(p, v, w)
        for gen, sign in (("S", 1.0), ("T", 1.0), ("Ttilde", 1.0), ("nu", -1.0)):
            f = lambda q, g=gen: auto_apply(g, q)
            fv = pushforward(f, p, v, FD_STEP)
            fw = pushforward(f, p, w, FD_STEP)
            out.append((abs(omega_eval(f(p), fv, fw) - sign * val), {"gen": gen}))
    return out


def _check_section_consistency(c, samples, rng):
    out = []
    for _ in range(samples):
        u = random_point(c, rng, interior_bias=0.03)
        labels = [f_beta_inv(section_F(u, j, c), c) for j in range(1, c.n + 1)]
        r = max(projective_distance(labels[0], lab) for lab in labels[1:])
        out.append((r, _pt(u)))
    return out


CHECKS = {
    "constraint": (_check_constraint, 1e-10),
    "pullback": (_check_pullback, 1e-5),
    "intertwine": (_check_intertwine, 1e-9),
    "duality-squares": (_check_duality_squares, 1e-8),
    "duality-exchange": (_check_duality_exchange, 1e-8),
    "mapclass-origin": (_check_mapclass_origin, 1e-8),
    "dehn-decomposition": (_check_dehn_decomposition, 1e-8),
    "central-twist": (_check_central_twist, 1e-10),
    "lax-conjugation": (_check_lax_conjugation, 1e-10),
    "lax-unitarity": (_check_lax_unitarity, 1e-9),
    "lax-hamiltonian": (_check_lax_hamiltonian, 1e-12),
    "gradients": (_check_gradients, 1e-6),
    "normalization": (_check_normalization, 1e-12),
    "mu-spectrum": (_check_mu_spectrum, 1e-10),
    "global-lax": (_check_global_lax, 1e-9),
    "boundary-limit": (_check_boundary_limit, 1e-6),
    "poisson": (_check_poisson, 1e-5),
    "conservation": (_check_conservation, 1e-8),
    "polytope-image": (_check_polytope_image, 1e-9),
    "polytope-vertices": (_check_polytope_vertices, 1e-3),
    "axiom-a2": (_check_axiom_a2, 1e-5),
    "equivariance": (_check_equivariance, 1e-12),
    "flow-moment": (_check_flow_moment, 1e-10),
    "omega-morphisms": (_check_omega_morphisms, 1e-5),
    "section-consistency": (_check_section_consistency, 1e-9),
}


@dataclass
class SuiteConfig:
    """Configuration of a verification sweep."""

    n_list: tuple = (2, 3)
    y_rule: object = "pi/(2n)"
    samples: int = 50
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    checks: tuple = ()

    def couplings(self):
        ns = list(self.n_list)
        if isinstance(self.y_rule, str):
            if self.y_rule.replace(" ", "") != "pi/(2n)":
                raise ConfigError(f"unknown y rule {self.y_rule!r}")
            ys = [math.pi / (2 * n) for n in ns]
        elif np.isscalar(self.y_rule):
            ys = [float(self.y_rule)] * len(ns)
        else:
            ys = [float(y) for y in self.y_rule]
            if len(ys) != len(ns):
                raise ConfigError("y list must match n list")
        for n, y in zip(ns, ys):
            if not 0.0 < y < math.pi / n:
                raise ConfigError(f"y = {y} outside (0, pi/{n})")
        return [Coupling(n, y) for n, y in zip(ns, ys)]

    def selected_checks(self):
        if not self.checks:
            return list(CHECKS)
        names = []
        for term in self.checks:
            hits = [name for name in CHECKS if term in name]
            if not hits:
                raise ConfigError(f"no check matches selector {term!r}")
            names.extend(h for h in hits if h not in names)
        return names


@dataclass
class CheckResult:
    name: str
    n: int
    y: float
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    wall_time: float
    failure: dict = None

    def to_json(self):
        out = {
            "name": self.name,
            "n": self.n,
            "y": self.y,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_time": self.wall_time,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


@dataclass
class SuiteReport:
    results: list
    seed: int

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [r.to_json() for r in self.results],
        }

    def dumps(self, indent=2):
        return json.dumps(self.to_json(), indent=indent)


def _run_cell(name, c, cfg):
    func, default_tol = CHECKS[name]
    tol = float(cfg.tolerances.get(name, default_tol))
    idx = list(CHECKS).index(name)
    rng = np.random.default_rng([cfg.seed, idx, c.n])
    start = time.perf_counter()
    rows = func(c, cfg.samples, rng)
    wall = time.perf_counter() - start
    if rows:
        residuals = np.array([r for r, _ in rows])
        worst = float(residuals.max())
        passed = worst <= tol
        failure = None
        if not passed:
            first = int(np.argmax(residuals > tol))
            failure = {
                "sample_index": first,
                "residual": float(residuals[first]),
                "data": rows[first][1],
            }
    else:
        worst, passed, failure = 0.0, True, None
    return CheckResult(
        name=name,
        n=c.n,
        y=c.y,
        samples=len(rows),
        max_residual=worst,
        tolerance=tol,
        passed=passed,
        wall_time=wall,
        failure=failure,
    )


def run_suite(cfg):
    """Run the selected checks over the configured couplings."""
    couplings = cfg.couplings()
    names = cfg.selected_checks()
    results = [_run_cell(name, c, cfg) for name in names for c in couplings]
    return SuiteReport(results=results, seed=cfg.seed)
