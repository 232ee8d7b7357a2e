"""Command-line front end: solve, check-expr, gen, oracle, bench.

Exit codes: 0 success (check-expr: clean), 1 usage, 2 parse/validation,
3 non-irredundant expression, 4 oracle instance too large, 5 out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import cwexpr, dp, oracle, sigma_rho
from .cwexpr import ExpressionError, NotIrredundantError
from .dp import SolveStats
from .fvs import solve_fvs
from .sigma_rho import MAX, MIN, MuSetError, SigmaRhoSpec, parse_mu, preset_spec
from .wpsets import NEG_INF, POS_INF

_EMPTY_STATS = SolveStats()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ascii_int(text: str) -> int:
    """An integer option: an optional minus and ASCII digits (``int`` alone
    reads other digits too)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cwsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p, with_expr: bool):
        p.add_argument("--problem", required=True,
                       help="mif|fvs|cds|ctds|perfect-cds|d-regular:<d>|cvc|steiner|custom")
        if with_expr:
            p.add_argument("--expr", required=True, help="expression file")
        p.add_argument("--terminals", help="comma-separated terminal names (steiner)")
        p.add_argument("--sigma", help="custom sigma set: N, N+, {0,1}, N\\{0}")
        p.add_argument("--rho", help="custom rho set")
        p.add_argument("--co", action="store_true",
                       help="custom problem dominates with the complement")
        p.add_argument("--opt", choices=(MIN, MAX), help="override direction")

    ps = sub.add_parser("solve", help="run a solver on an expression file")
    add_problem_args(ps, with_expr=True)
    ps.add_argument("--witness", action="store_true")
    ps.add_argument("--no-reduce", action="store_true",
                    help="unpruned reference path: no reduction, no future filter")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(handler=_cmd_solve)

    pc = sub.add_parser("check-expr", help="validate and report redundant adds")
    pc.add_argument("--expr", required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(handler=_cmd_check_expr)

    pg = sub.add_parser("gen", help="emit a fixture or naive expression")
    pg.add_argument("--kind", required=True,
                    help="clique|path|cycle|star|random-cograph|naive")
    pg.add_argument("--n", type=_ascii_int, default=0)
    pg.add_argument("--seed", type=_ascii_int, default=0)
    pg.add_argument("--graph", help="graph file (kind=naive)")
    pg.set_defaults(handler=_cmd_gen)

    po = sub.add_parser("oracle", help="brute-force reference answer on a graph file")
    add_problem_args(po, with_expr=False)
    po.add_argument("--graph", required=True)
    po.add_argument("--json", action="store_true")
    po.set_defaults(handler=_cmd_oracle)

    pb = sub.add_parser("bench", help="solve and emit per-node-kind stats as CSV")
    add_problem_args(pb, with_expr=True)
    pb.add_argument("--no-reduce", action="store_true")
    pb.set_defaults(handler=_cmd_bench)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ExpressionError(f"cannot read {path}: {exc}") from exc


def _terminal_list(args) -> frozenset[str]:
    if not args.terminals:
        raise UsageError("steiner needs --terminals")
    return frozenset(t.strip() for t in args.terminals.split(",") if t.strip())


def _check_options(args) -> None:
    """Refuse the problem options ``args.problem`` would ignore: the set
    options outside ``custom``, and a direction where it is fixed."""
    if args.problem != "custom":
        given = [f"--{name}" for name in ("sigma", "rho", "co")
                 if getattr(args, name) not in (None, False)]
        if given:
            raise UsageError(f"--problem {args.problem} does not take "
                             f"{', '.join(given)} (only custom does)")
    if args.opt and args.problem in ("mif", "fvs", "steiner"):
        raise UsageError(f"--problem {args.problem} does not take --opt")


def _spec_for(args) -> SigmaRhoSpec:
    name = args.problem
    if name == "custom":
        if not args.sigma or not args.rho:
            raise UsageError("custom problems need --sigma and --rho")
        spec = SigmaRhoSpec(parse_mu(args.sigma), parse_mu(args.rho),
                            args.opt or MIN, co=args.co)
    else:
        spec = preset_spec(name)
        if args.opt and args.opt != spec.direction:
            spec = SigmaRhoSpec(spec.sigma, spec.rho, args.opt, spec.co)
    return spec


def _report(problem: str, optimum, witness, stats, as_json: bool) -> None:
    feasible = optimum not in (POS_INF, NEG_INF)
    payload = {
        "problem": problem,
        "optimum": int(optimum) if feasible else "infeasible",
        "stats": stats.as_dict(),
    }
    if witness is not None:
        payload["witness"] = list(witness)
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"problem:  {problem}")
    print(f"optimum:  {payload['optimum']}")
    if witness is not None:
        print(f"witness:  {' '.join(witness) if witness else '(empty set)'}")
    for key, value in payload["stats"].items():
        print(f"{key}: {value}")


def _solve(args, with_witness: bool) -> tuple:
    """Solve ``args.problem`` on ``args.expr``: (optimum, witness, stats)."""
    _check_options(args)
    expr = cwexpr.parse_expression(_read(args.expr))
    use_reduce = not args.no_reduce
    if args.problem in ("mif", "fvs"):
        res = solve_fvs(expr, with_witness=with_witness, use_reduce=use_reduce)
        if args.problem == "fvs":
            return res.fvs_weight, res.witness, res.stats
        return res.forest_weight, res.forest_witness, res.stats
    if args.problem == "steiner":
        res = sigma_rho.solve_steiner(expr, _terminal_list(args),
                                      with_witness=with_witness,
                                      use_reduce=use_reduce)
    else:
        res = sigma_rho.solve_connected_sigma_rho(
            expr, _spec_for(args), with_witness=with_witness, use_reduce=use_reduce)
    return res.optimum, res.witness, res.stats


def _cmd_solve(args) -> int:
    _report(args.problem, *_solve(args, args.witness), args.json)
    return 0


def _cmd_check_expr(args) -> int:
    expr = cwexpr.parse_expression(_read(args.expr))
    issues = cwexpr.check_irredundant(expr)
    if args.json:
        # future degrees count neighbours only on irredundant expressions
        width = None if issues else dp.live_width(
            expr.program.present, dp.capped_degrees(expr, 1)[1])
        print(json.dumps({
            "irredundant": not issues,
            "issues": [{"node_index": issue.node_index, "i": issue.i,
                        "j": issue.j, "kind": issue.kind} for issue in issues],
            "live_width": width,
        }, sort_keys=True))
    elif not issues:
        print("irredundant")
    else:
        for issue in issues:
            kind = "fully-redundant" if issue.kind == "full" else "partially-redundant"
            print(f"node {issue.node_index}: add {issue.i} {issue.j} is {kind}")
    return 0 if not issues else 3


def _cmd_gen(args) -> int:
    if args.kind == "naive":
        if not args.graph:
            raise UsageError("gen --kind naive needs --graph")
        graph = cwexpr.parse_graph(_read(args.graph))
        expr = cwexpr.naive_expression(graph)
    else:
        if args.n < 1:
            raise UsageError("gen needs --n >= 1")
        expr = cwexpr.fixture(args.kind, args.n, args.seed)
    sys.stdout.write(cwexpr.serialize(expr))
    return 0


def _cmd_oracle(args) -> int:
    _check_options(args)
    graph = cwexpr.parse_graph(_read(args.graph))
    name = args.problem
    if name in ("mif", "fvs"):
        weight, witness = oracle.brute_min_fvs(graph)
        if name == "mif":
            forest = tuple(v for v in sorted(graph.weights) if v not in set(witness))
            _report("mif", graph.total_weight() - weight, forest,
                    _EMPTY_STATS, args.json)
        else:
            _report("fvs", weight, witness, _EMPTY_STATS, args.json)
        return 0
    if name == "steiner":
        weight, witness = oracle.brute_steiner(graph, _terminal_list(args))
    else:
        weight, witness = oracle.brute_sigma_rho(graph, _spec_for(args))
    _report(name, weight, witness, _EMPTY_STATS, args.json)
    return 0


def _cmd_bench(args) -> int:
    _, _, stats = _solve(args, with_witness=False)
    print("metric,value")
    print(f"problem,{args.problem}")
    for kind in ("introduce", "relabel", "add", "union"):
        print(f"nodes_{kind},{stats.node_kinds.get(kind, 0)}")
    for key, value in stats.as_dict().items():
        print(f"{key},{value}")
    print(f"plans_recorded,{stats.plans_recorded}")
    print(f"plans_replayed,{stats.plans_replayed}")
    print(f"entry_replays,{stats.entry_replays}")
    print(f"fused_replays,{stats.fused_replays}")
    return 0


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NotIrredundantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except oracle.InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ExpressionError, MuSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
