"""Command-line front end.

Subcommands: verify (property suite), flow (reduced trajectories), duality
(apply S / S_inv / R), mapclass (generator words), polytope (moment-image
samples), map-point (parametrize a point and report its Lax data).
All angles are radians; --y additionally accepts the literal "pi/(2n)".
"""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .coupling import Coupling
from .double import InvariantHamiltonian
from .errors import RSDualError
from .lax import global_lax
from .projective import e_param, load_point, moment_J, point_to_json, random_point
from .reduction import action_variables, duality, mapclass_on_P, reduced_trajectory, section_F
from .verify import STACK_ENTRIES, SuiteConfig, run_suite


def _parse_y(text):
    """None for the literal pi/(2n), the default coupling of each n; else
    the float."""
    text = text.strip().replace(" ", "")
    return None if text == "pi/(2n)" else float(text)


def _coupling(args):
    n = int(args.n)
    y = _parse_y(args.y)
    return Coupling.default(n) if y is None else Coupling(n, y)


@contextlib.contextmanager
def _output(path):
    """Sink of a command output: stdout without a path; else path.part,
    opened at once and moved onto path when the command succeeds, removed
    when it fails, so that a failed run leaves any earlier file as it was."""
    if not path:
        yield sys.stdout
        return
    part = path + ".part"
    fh = open(part, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(part)
        raise
    os.replace(part, path)


def _emit(payload, sink):
    sink.write(json.dumps(payload, indent=2) + "\n")


def _point_from_args(args, c):
    if args.point:
        return load_point(args.point, c)
    return random_point(c, np.random.default_rng(args.seed))


def _parse_hamiltonian(text, side):
    name, colon, idx = text.partition(":")
    index = int(idx) if idx else 1
    name = name.strip().lower()
    if name in ("position", "action") and side:
        raise ValueError(f"{name}:j fixes its own side; drop --side {side}")
    if name == "position":
        return InvariantHamiltonian("spectral", index, "second")
    if name == "action":
        return InvariantHamiltonian("spectral", index, "first")
    if name == "retrace":
        return InvariantHamiltonian("re_trace", index, side or "first")
    if name == "imtrace":
        return InvariantHamiltonian("im_trace", index, side or "first")
    if name == "dehn":
        if colon:
            raise ValueError(f"dehn takes no index, got {text!r}")
        return InvariantHamiltonian("dehn", 1, side or "second")
    raise ValueError(f"unknown hamiltonian {text!r}")


def _point_summary(u, c):
    return {
        "point": point_to_json(u),
        "J": [float(x) for x in moment_J(u, c)],
        "XiK": [float(x) for x in action_variables(u, c)],
    }


def cmd_verify(args, sink):
    n_list = tuple(int(x) for x in args.n.split(","))
    ys = [_parse_y(x) for x in args.y.split(",")]
    cfg = SuiteConfig(
        n_list=n_list,
        y_rule=ys if len(ys) > 1 else ys[0],
        samples=args.samples,
        seed=args.seed,
        checks=tuple(args.checks.split(",")) if args.checks else (),
    )
    report = run_suite(cfg)
    _emit({"argv": args.argv, **report.to_json()}, sink)
    return 0 if report.all_passed else 1


def cmd_flow(args, sink):
    paths = (args.out, args.final_point)
    if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ValueError("--final-point must name another file than --out")
    final = _output(args.final_point) if args.final_point else contextlib.nullcontext()
    with final as final_sink:
        c = _coupling(args)
        u = _point_from_args(args, c)
        ham = _parse_hamiltonian(args.hamiltonian, args.side)
        samples = reduced_trajectory(u, ham, args.t, args.steps, c)
        header = ["step", "t", *(f"{p}_u{k}" for k in range(1, c.n + 1) for p in ("re", "im"))]
        header += [f"{name}{k}" for name in ("J", "XiK") for k in range(1, c.n)]
        writer = csv.writer(sink)
        writer.writerow(header)
        for k, t, ut, J, xiK in samples:
            row = [k, f"{t:.15g}"]
            for z in ut:
                row += [f"{z.real:.15g}", f"{z.imag:.15g}"]
            row += [f"{x:.15g}" for x in J]
            row += [f"{x:.15g}" for x in xiK]
            writer.writerow(row)
        if final_sink:
            json.dump(point_to_json(ut), final_sink)
    return 0


def cmd_duality(args, sink):
    c = _coupling(args)
    u = _point_from_args(args, c)
    image = duality(args.which, u, c)
    payload = {
        "n": c.n,
        "y": c.y,
        "which": args.which,
        "before": _point_summary(u, c),
        "after": _point_summary(image, c),
    }
    payload["point"] = payload["before"]["point"]
    payload["image"] = payload["after"]["point"]
    _emit(payload, sink)
    return 0


def cmd_mapclass(args, sink):
    c = _coupling(args)
    u = _point_from_args(args, c)
    word = args.word.split()
    image = mapclass_on_P(word, u, c)
    payload = {
        "n": c.n,
        "y": c.y,
        "word": word,
        "point": point_to_json(u),
        "image": point_to_json(image),
        "after": _point_summary(image, c),
    }
    _emit(payload, sink)
    return 0


def cmd_polytope(args, sink):
    if args.samples < 0:
        raise ValueError(f"samples must be >= 0, got {args.samples}")
    c = _coupling(args)
    rng = np.random.default_rng(args.seed)
    header = [f"J{k}" for k in range(1, c.n)] + [f"XiK{k}" for k in range(1, c.n)]
    writer = csv.writer(sink)
    writer.writerow(header)
    size = max(1, STACK_ENTRIES // c.n**2)  # points per stack, so that memory stays bounded
    for first in range(0, args.samples, size):
        u = random_point(c, rng, count=min(size, args.samples - first))
        rows = np.concatenate((moment_J(u, c), action_variables(u, c)), -1)
        writer.writerows([f"{x:.15g}" for x in row] for row in rows)
    return 0


def cmd_map_point(args, sink):
    c = _coupling(args)
    xi = np.array([float(x) for x in args.xi.split(",")])
    theta = np.array([float(x) for x in args.tau.split(",")])
    u = e_param(xi, theta, c)
    p = section_F(u, c.n, c)
    payload = {
        "n": c.n,
        "y": c.y,
        **_point_summary(u, c),
        "K": point_to_json(global_lax(u, c)),
        "F": {"A": point_to_json(p.A), "B": point_to_json(p.B)},
    }
    _emit(payload, sink)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsdual",
        description="Compactified Ruijsenaars-Schneider system: verification and maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the property suite")
    pv.add_argument("--n", default="2,3", help="comma list of matrix sizes")
    pv.add_argument("--y", default="pi/(2n)", help="coupling(s); float list or pi/(2n)")
    pv.add_argument("--samples", type=int, default=50)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--checks", default="", help="comma list of check selectors")
    pv.add_argument("--out", default="", help="write report JSON here (default stdout)")
    pv.set_defaults(func=cmd_verify)

    def common(p, needs_point=True):
        p.add_argument("--n", required=True)
        p.add_argument("--y", default="pi/(2n)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="")
        if needs_point:
            p.add_argument("--point", default="", help="point JSON file (random if omitted)")

    pf = sub.add_parser("flow", help="integrate a reduced Hamiltonian flow")
    common(pf)
    pf.add_argument("--hamiltonian", required=True, help="e.g. retrace:1, position:2, dehn")
    pf.add_argument("--side", choices=["first", "second"], default="")
    pf.add_argument("--t", type=float, required=True)
    pf.add_argument("--steps", type=int, default=100)
    pf.add_argument("--final-point", default="", help="also dump the final point JSON here")
    pf.set_defaults(func=cmd_flow)

    pd = sub.add_parser("duality", help="apply a duality map to a point")
    common(pd)
    pd.add_argument("--which", choices=["S", "S_inv", "R"], default="S")
    pd.set_defaults(func=cmd_duality)

    pm = sub.add_parser("mapclass", help="apply a mapping-class word")
    common(pm)
    pm.add_argument("--word", required=True, help='e.g. "T Ttilde T"')
    pm.set_defaults(func=cmd_mapclass)

    pp = sub.add_parser("polytope", help="sample (J, Xi o K) pairs to CSV")
    common(pp, needs_point=False)
    pp.add_argument("--samples", type=int, default=1000)
    pp.set_defaults(func=cmd_polytope)

    pmp = sub.add_parser("map-point", help="parametrize a point and report Lax data")
    pmp.add_argument("--n", required=True)
    pmp.add_argument("--y", default="pi/(2n)")
    pmp.add_argument("--xi", required=True, help="comma list of n-1 polytope coordinates")
    pmp.add_argument("--tau", required=True, help="comma list of n-1 torus angles")
    pmp.add_argument("--out", default="")
    pmp.set_defaults(func=cmd_map_point)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with _output(args.out) as sink:
            return args.func(args, sink)
    except (RSDualError, ValueError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
