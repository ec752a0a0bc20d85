"""Command-line front end: energies, ladder decompositions, scale and
capacity builds, jump-form reports, and the verification suites.

All numeric output is printed with 12 significant digits and no timestamps,
so a run with a fixed configuration and seed reproduces its stdout byte for
byte.  Verdict tables additionally carry wall-clock runtimes in their CSV
column; everything else in the table is deterministic.

``main`` is the one error boundary: a ValueError or OSError from making the
output directory or from a subcommand ends in one ``error:`` line on stderr
and exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .energy import EnergyParams, dirichlet_energy, gagliardo_energy
from .grids import MAX_GRID_NODES, GridFunction, IntervalSet, PlateauSpec, \
    StepFunction, _json_float, count, grid_nodes, make_plateau, \
    positive_number, window
from .ladder import ladder_decompose
from .levy import LevyTriplet, PowerLawDensity, finite_variation_test, \
    growth_exponent_fit, levy_indicator_energy, levy_symbol
from .scalecap import FatCantorSpec, build_fat_cantor, capacity_estimate, \
    scale_from_open_set
from .verify import SUITES, list_checks, run_suite

__all__ = ["main", "emit_table"]


def _fmt(v) -> str:
    if isinstance(v, float) and math.isinf(v):
        return "divergent"
    return f"{v:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 (2 is reserved for verification failures)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def parse_function_literal(text: str, step: float):
    """Grammar: indicator:a,b | plateau:a,b,rho[,profile] | bump:center,width
    | csv:path | json:path.  The library's gates refuse the numbers: the
    indicator's (a, b) and the bump's support (c - w, c + w) are windows."""
    step = positive_number("grid step", step)
    kind, _, rest = text.partition(":")
    if kind == "indicator":
        a, b = window("indicator", [float(t) for t in rest.split(",")])
        return StepFunction(np.array([a, b]), np.array([1.0]))
    if kind == "plateau":
        parts = rest.split(",")
        a, b, rho = (float(t) for t in parts[:3])
        profile = parts[3] if len(parts) > 3 else "linear"
        return make_plateau(PlateauSpec(a, b, rho, profile), step)
    if kind == "bump":
        c, w = (float(t) for t in rest.split(","))
        w = positive_number("bump width", w)
        lo, hi = window("bump support (c - w, c + w)", (c - w, c + w))
        return GridFunction.from_callable(
            lambda u: np.where(np.abs(u - c) < w,
                               np.cos(np.pi * (u - c) / (2.0 * w)) ** 2, 0.0),
            lo, hi, step, pad=4)
    if kind == "csv":
        return GridFunction.from_csv(Path(rest).read_text(encoding="utf-8"))
    if kind == "json":
        return GridFunction.from_json_dict(_read_json(rest))
    raise ValueError(f"unknown function literal {text!r}")


def _pair(option: str, text: str, ends: str) -> tuple:
    """The two finite numbers lo < hi that float() and the window gate read
    from an option's "lo,hi"; anything else is one ValueError that names the
    option and repeats its text."""
    try:
        return window(option, [float(t) for t in text.split(",")])
    except ValueError:
        raise ValueError(f"{option} needs two finite numbers {ends}, got "
                         f"{text!r}") from None


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _write_csv(path, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def emit_table(records, path) -> None:
    """Verdict table with the fixed column schema."""
    _write_csv(path, [["check_id", "status", "measured", "tolerance",
                       "runtime_ms"]]
               + [[rec.check_id, rec.status,
                   ";".join(_fmt(m) for m in rec.measured),
                   _fmt(rec.tolerance), rec.runtime_ms] for rec in records])


# -- subcommand implementations: each reads the parsed arguments -------------


def _cmd_energy(args, out_dir: Path) -> int:
    f = parse_function_literal(args.function, args.step)
    if args.alpha == 2.0:
        print(f"dirichlet_energy = {_fmt(dirichlet_energy(f))}")
        return 0
    rep = gagliardo_energy(f, EnergyParams(alpha=args.alpha),
                           refine_levels=10)
    print(f"alpha = {_fmt(args.alpha)}")
    print(f"energy = {_fmt(rep.value)}"
          + (" (DIVERGENT)" if rep.divergent else ""))
    print(f"l2_norm_sq = {_fmt(rep.l2_norm_sq)}")
    print(f"e1 = {_fmt(rep.e1_value)}")
    for res, est in rep.refinement_trace:
        print(f"trace {res} {_fmt(est)}")
    if args.out:
        _write_json(rep.to_json_dict(), out_dir / args.out)
    return 0


def _cmd_ladder(args, out_dir: Path) -> int:
    f = parse_function_literal(args.function, args.step)
    if isinstance(f, StepFunction):
        f = f.sample(args.step)
    # the decomposition wants non-negative input; split signed functions
    vals = f.values
    parts = {}
    if np.any(vals > 0):
        parts["positive"] = f.with_values(np.maximum(vals, 0.0))
    if np.any(vals < 0):
        parts["negative"] = f.with_values(np.maximum(-vals, 0.0))
    result = {}
    trace_rows = [["part", "nodes", "sup_gap"]]
    for name, part in parts.items():
        tree = ladder_decompose(part, max_nodes=args.max_nodes,
                                sup_tol=args.sup_tol)
        result[name] = tree.to_json_dict()
        flag = "converged" if tree.converged else "NOT_CONVERGED"
        print(f"{name}: nodes = {tree.n_nodes}, gap = {_fmt(tree.sup_gap())}, "
              f"{flag}")
        trace_rows += ([name, n, _fmt(gap)] for n, gap in tree.trace)
    _write_json(result, out_dir / args.tree_out)
    _write_csv(out_dir / args.trace_out, trace_rows)
    return 0


def _cmd_scale(args, out_dir: Path) -> int:
    xs = grid_nodes(-1.5, 1.5, args.step)
    if args.spec:
        spec_data = _read_json(args.spec)
        if not isinstance(spec_data, dict):
            raise ValueError("a scale spec is a JSON object")
        spec = FatCantorSpec(
            alpha=_json_float("alpha", spec_data.get("alpha")),
            budget=_json_float("budget", spec_data.get("budget")),
            a_log=_json_float("a_log", spec_data.get("a_log", 2.0)))
        # a whole number counts; build_fat_cantor refuses anything else
        n_intervals = _json_float("n_intervals",
                                  spec_data.get("n_intervals", 63))
        if n_intervals.is_integer():
            n_intervals = int(n_intervals)
    else:
        spec = FatCantorSpec(alpha=args.alpha, budget=args.budget)
        n_intervals = args.n_intervals
    g = build_fat_cantor(spec, n_intervals)
    s = scale_from_open_set(g, density_window=(-1.0, 1.0))
    print(f"islands = {len(g)}")
    print(f"measure_in_unit_window = {_fmt(g.measure_between(-1.0, 1.0))}")
    print(f"density_depth = {s.density_depth}")
    _write_json(g.to_json_list(), out_dir / args.set_out)
    _write_csv(out_dir / args.scale_out, zip(map(_fmt, xs), map(_fmt, s(xs))))
    return 0


def _cmd_capacity(args, out_dir: Path) -> int:
    target = IntervalSet.from_json_list(
        _read_json(args.target) if args.target.endswith(".json")
        else json.loads(args.target))
    domain = _pair("--domain", args.domain, "lo < hi")
    est = capacity_estimate(target, args.alpha_star, domain, args.step)
    print(f"capacity = {_fmt(est.value)}")
    print(f"residual = {_fmt(est.residual)}")
    print(f"resolution = {_fmt(est.resolution)}")
    print(f"clamp_violation = {_fmt(est.clamp_violation)}")
    if args.out:
        _write_json(est.to_json_dict(), out_dir / args.out)
    return 0


def _parse_atom(text: str) -> tuple:
    x, sep, mass = text.partition(":")
    if not sep:
        raise ValueError(f"an atom is x:mass, got {text!r}")
    return float(x), float(mass)


def _cmd_levy(args, out_dir: Path) -> int:
    if not 0 < args.xi_min < args.xi_max < math.inf:
        raise ValueError(f"the frequency grid needs finite 0 < xi_min < "
                         f"xi_max, got {args.xi_min}, {args.xi_max}")
    count("--n-xi", args.n_xi, 2, MAX_GRID_NODES)
    if args.indicator:
        a, b = _pair("--indicator", args.indicator, "a < b")
    if args.triplet:
        t = LevyTriplet.from_json_dict(_read_json(args.triplet))
    else:
        atoms = tuple(_parse_atom(text) for text in args.atom)
        density = None
        if args.power_alpha is not None:
            density = PowerLawDensity(args.power_alpha, args.power_coef)
        t = LevyTriplet(sigma=args.sigma, atoms=atoms, density=density)
    finite, value = finite_variation_test(t)
    print(f"finite_variation = {finite}"
          + (f" (integral = {_fmt(value)})" if finite else ""))
    if args.indicator:
        print(f"indicator_energy = {_fmt(levy_indicator_energy(a, b, t))}")
    xi = np.geomspace(args.xi_min, args.xi_max, args.n_xi)
    xi = np.concatenate([-xi[::-1], xi])
    curve = levy_symbol(t, xi)
    if args.symbol_out:
        _write_csv(out_dir / args.symbol_out,
                   zip(map(_fmt, curve.xi_grid), map(_fmt, curve.psi_values)))
    # the fit is an observation on a finite window; it decides nothing
    try:
        fit = growth_exponent_fit(curve, max(1.0, args.xi_min))
        rel = "reliable" if fit.reliable else "unreliable"
        print(f"growth_fit alpha_hat = {_fmt(fit.alpha_hat)} "
              f"c_hat = {_fmt(fit.c_hat)} r2 = {_fmt(fit.r_squared)} ({rel})")
    except ValueError as exc:
        print(f"growth_fit skipped: {exc}")
    # The characterization theorem needs psi(xi) >= c|xi| at large |xi|.
    # Atoms keep psi bounded and a density c|x|^(-1-a) grows like |xi|^a, so
    # the hypothesis holds exactly when sigma > 0 or a >= 1.
    if t.sigma > 0:
        evidence = f"sigma = {_fmt(t.sigma)} > 0"
    elif t.density is not None and t.density.alpha >= 1.0:
        evidence = f"density exponent = {_fmt(t.density.alpha)} >= 1"
    else:
        return 0
    print(f"verdict: PROPER-SUBSPACES-EXIST (theorem-backed; exact growth "
          f"psi(xi) >= c|xi| from the triplet: {evidence})")
    return 0


def _cmd_verify(args, out_dir: Path) -> int:
    if args.list:
        for cid, num, doc in list_checks():
            print(f"{num:2d}  {cid}: {doc}")
        return 0
    records = run_suite(args.suite, args.seed)
    print(f"suite = {args.suite}")
    print(f"seed = {args.seed}")
    for rec in records:
        measured = ", ".join(_fmt(m) for m in rec.measured)
        print(f"{rec.check_id}: {rec.status} (measured = [{measured}], "
              f"tolerance = {_fmt(rec.tolerance)})")
    if args.suite == "properness":
        ratio = records[0].measured[0]
        if records[0].status == "PASS" and ratio < 0.9:
            print(f"PROPER (ratio={_fmt(ratio)})")
        else:
            print(f"INCONCLUSIVE (ratio={_fmt(ratio)})")
    emit_table(records, out_dir / args.table_out)
    n_fail = sum(1 for rec in records if not rec.passed)
    print(f"passed {len(records) - n_fail} / {len(records)}")
    return 2 if n_fail else 0


_COMMANDS = {
    "energy": _cmd_energy,
    "ladder": _cmd_ladder,
    "scale": _cmd_scale,
    "capacity": _cmd_capacity,
    "levy": _cmd_levy,
    "verify": _cmd_verify,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracform",
                     description="fractional energies, excursion ladders, "
                                 "scale functions, capacities, jump forms")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None,
                        help="output directory (default: $FSL_OUT_DIR or .)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    pe = sub.add_parser("energy", parents=[common],
                        help="fractional energy of a function")
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--function", required=True)
    pe.add_argument("--step", type=float, default=1.0 / 256.0)
    pe.add_argument("--out", default=None, help="JSON report filename")

    pl = sub.add_parser("ladder", parents=[common], help="excursion decomposition")
    pl.add_argument("--function", required=True)
    pl.add_argument("--step", type=float, default=1.0 / 256.0)
    pl.add_argument("--max-nodes", type=int, default=256)
    pl.add_argument("--sup-tol", type=float, default=1e-6)
    pl.add_argument("--tree-out", default="ladder_tree.json")
    pl.add_argument("--trace-out", default="ladder_trace.csv")

    ps = sub.add_parser("scale", parents=[common], help="build an island set and its scale")
    ps.add_argument("--spec", default=None, help="JSON spec filename")
    ps.add_argument("--alpha", type=float, default=1.5)
    ps.add_argument("--budget", type=float, default=0.1)
    ps.add_argument("--n-intervals", type=int, default=63)
    ps.add_argument("--step", type=float, default=1.0 / 256.0)
    ps.add_argument("--set-out", default="open_set.json")
    ps.add_argument("--scale-out", default="scale.csv")

    pc = sub.add_parser("capacity", parents=[common], help="capacity of an interval set")
    pc.add_argument("--target", required=True,
                    help="JSON file or inline JSON list of [lo, hi] pairs")
    pc.add_argument("--alpha-star", type=float, required=True)
    pc.add_argument("--domain", required=True, help="lo,hi")
    pc.add_argument("--step", type=float, required=True)
    pc.add_argument("--out", default=None)

    pv = sub.add_parser("levy", parents=[common], help="jump-form reports")
    pv.add_argument("--triplet", default=None, help="JSON triplet filename")
    pv.add_argument("--sigma", type=float, default=0.0)
    pv.add_argument("--atom", action="append", default=[],
                    help="x:mass, repeatable")
    pv.add_argument("--power-alpha", type=float, default=None)
    pv.add_argument("--power-coef", type=float, default=1.0)
    pv.add_argument("--indicator", default=None, help="a,b")
    pv.add_argument("--xi-min", type=float, default=0.1)
    pv.add_argument("--xi-max", type=float, default=200.0)
    pv.add_argument("--n-xi", type=int, default=200)
    pv.add_argument("--symbol-out", default=None)

    pf = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--suite", choices=sorted(SUITES), default="core")
    pf.add_argument("--list", action="store_true")
    pf.add_argument("--table-out", default="verdicts.csv")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out_dir or os.environ.get("FSL_OUT_DIR") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
