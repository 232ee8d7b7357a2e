"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Set-up writes the workload's expression files and checks that each is
irredundant, then prints ``READY``.  The worker then solves every instance in
a fixed order through ``cwsolve.cli.run``, one after another on one thread
(a closed loop), and repeats the pass until ``--seconds`` have gone by.  The
answer gate runs after the timed passes, and the last line of stdout is one
JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import cwsolve
from cwsolve import cli, oracle
from cwsolve.sigma_rho import preset_spec

import speed
import workloads
from checks import check_witness
from spans import LAYER_METRICS, NODE_KINDS, Tracer


class SetupError(Exception):
    pass


class GateError(Exception):
    """The reference answer itself could not be established."""


def setup(workload: str, seed: int, directory: str) -> list[workloads.Instance]:
    """Generate and write the expression files; every one must be irredundant."""
    instances = workloads.build(workload, seed)
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, str] = {}
    for inst in instances:
        expr = inst.expr
        if expr.name not in paths:
            issues = cwsolve.check_irredundant(cwsolve.parse_expression(expr.text))
            if issues:
                raise SetupError(f"generated expression {expr.name} is not irredundant: "
                                 f"{len(issues)} redundant adds, first at node "
                                 f"{issues[0].node_index}")
            path = os.path.join(directory, expr.name + ".cw")
            with open(path, "w", encoding="utf-8") as out:
                out.write(expr.text)
            paths[expr.name] = path
        inst.path = paths[expr.name]
    return instances


def solve_once(argv: list[str]):
    """Run the CLI in-process; returns (seconds, exit code, answer, error)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        started = time.perf_counter()
        try:
            code = cli.run(argv)
            error = None
        except Exception:  # a crash is a failed attempt, not a failed benchmark
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - started
    answer = None
    if code == 0:
        try:
            payload = json.loads(buf.getvalue().splitlines()[-1])
            answer = (payload["optimum"], tuple(payload.get("witness", ())))
        except (IndexError, KeyError, TypeError, ValueError):
            error = f"unreadable answer {buf.getvalue()[-200:]!r}"
    elif error is None:
        error = f"exit code {code}"
    return seconds, code, answer, error


def solve_pass(instances, attempts, tracer=None, speeds=None) -> float:
    """Solve every instance once; with ``speeds``, calibrate before each solve."""
    started = time.perf_counter()
    for idx, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = idx
        if speeds is not None:
            speeds.append(speed.calibrate())
        attempts[idx].append(solve_once(inst.argv()))
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Answer gate.

def _oracle_optimum(inst: workloads.Instance):
    expr = inst.expr
    graph = cwsolve.LabeledGraph(
        weights={expr.names[v]: w for v, w in enumerate(expr.graph.weights)},
        edges={cwsolve.cwexpr.edge_key(expr.names[u], expr.names[v])
               for u, v in expr.graph.edges()})
    if inst.problem == "steiner":
        weight, _ = oracle.brute_steiner(graph, frozenset(inst.terminals))
    else:
        weight, _ = oracle.brute_sigma_rho(graph, preset_spec(inst.problem))
    return "infeasible" if math.isinf(weight) else int(weight)


def reference(workload: str, inst: workloads.Instance):
    """The expected optimum: brute force where it fits, else the unpruned path."""
    if workload == "domination-naive":
        return _oracle_optimum(inst)
    _, code, answer, error = solve_once(inst.argv(no_reduce=True))
    if answer is None:
        raise GateError(f"{inst.label}: reference path failed: {error}")
    return answer[0]


def gate(workload: str, instances, attempts) -> list[str]:
    """Check every attempt; returns one message per failed attempt."""
    failures = []
    refs: dict[int, object] = {}
    for idx, inst in enumerate(instances):
        try:
            refs[idx] = reference(workload, inst)
        except GateError as exc:
            refs[idx] = exc
    totals: dict[str, dict[str, object]] = {}
    for idx, inst in enumerate(instances):
        if inst.problem in ("fvs", "mif") and not inst.witness:
            totals.setdefault(inst.expr.name, {})[inst.problem] = idx
    for name, pair in totals.items():
        if len(pair) == 2:
            fvs, mif = refs[pair["fvs"]], refs[pair["mif"]]
            total = sum(instances[pair["fvs"]].expr.graph.weights)
            if isinstance(fvs, int) and isinstance(mif, int) and fvs + mif != total:
                err = GateError(f"{name}: fvs {fvs} + mif {mif} != total weight {total}")
                refs[pair["fvs"]] = refs[pair["mif"]] = err
    checked: dict[tuple, str | None] = {}
    for idx, inst in enumerate(instances):
        index = {name: v for v, name in enumerate(inst.expr.names)}
        for _, _, answer, error in attempts[idx]:
            ref = refs[idx]
            if isinstance(ref, Exception):
                failures.append(str(ref))
            elif answer is None:
                failures.append(f"{inst.label}: {error.strip().splitlines()[-1]}")
            elif answer[0] != ref:
                failures.append(f"{inst.label}: optimum {answer[0]}, expected {ref}")
            elif inst.witness and ref != "infeasible":
                key = (idx, answer)
                if key not in checked:
                    try:
                        chosen = {index[name] for name in answer[1]}
                    except KeyError as exc:
                        checked[key] = f"unknown vertex {exc} in witness"
                    else:
                        checked[key] = check_witness(
                            inst.expr.graph, inst.problem, chosen, answer[0],
                            {index[t] for t in inst.terminals})
                if checked[key]:
                    failures.append(f"{inst.label}: {checked[key]}")
    return failures


# ---------------------------------------------------------------------------
# Self-time shares in the traced run.

def self_time_groups(workload: str, self_ms: dict, span_ms: dict):
    """Split the traced time into groups; returns (claimed group, {group: ms}).

    Each workload names the group its instances were chosen to stress; the
    groups together cover the traced time once.
    """
    nodes = [f"{layer}.{kind}" for layer in ("fvs", "sigma_rho") for kind in NODE_KINDS]
    prims = ("wpsets.join", "wpsets.reduce", "wpsets.proj")
    groups = {
        "cli": self_ms.get("cli", 0.0),
        "solver driver": self_ms.get("fvs.solve", 0.0) + self_ms.get("sigma_rho.solve", 0.0),
    }
    cwexpr = sum(v for k, v in self_ms.items() if k.startswith("cwexpr."))
    if workload == "forest-union":
        groups["cwexpr"] = cwexpr
        groups.update({name: self_ms.get(name, 0.0) for name in nodes})
        groups.update({name: span_ms.get(name, 0.0) for name in prims})
        return "wpsets.join", groups
    if workload == "domination-naive":
        groups["cwexpr"] = cwexpr
        claimed = "sigma_rho nodes + wpsets"
        groups[claimed] = (sum(self_ms.get(n, 0.0) for n in nodes[4:])
                           + sum(span_ms.get(p, 0.0) for p in prims))
        return claimed, groups
    claimed = "cwexpr + add/ren nodes"
    groups[claimed] = cwexpr + sum(span_ms.get(n, 0.0) for n in nodes
                                   if n.endswith((".add", ".ren")))
    for kind in ("leaf", "union"):
        groups[f"{kind} nodes"] = sum(span_ms.get(n, 0.0) for n in nodes
                                      if n.endswith("." + kind))
    return claimed, groups


# ---------------------------------------------------------------------------

def _another_pass(started: float, last_pass: float, seconds: float) -> bool:
    """Whether one more pass, as long as the last, still ends within the run."""
    return time.perf_counter() - started + last_pass <= seconds


def _untraced(instances, attempts, seconds: float, started: float):
    speeds: list[float] = []
    while _another_pass(started, solve_pass(instances, attempts, speeds=speeds), seconds):
        pass
    speeds.append(speed.calibrate())
    # The j-th solve of the run ran between calibrations j and j + 1.  Each
    # instance's time is the median over the passes of its scaled times.
    raw, scaled = [], []
    for idx, runs in enumerate(attempts):
        marks = [p * len(instances) + idx for p in range(len(runs))]
        raw.append(statistics.median(a[0] for a in runs))
        scaled.append(statistics.median(speed.scale(a[0], speeds[j], speeds[j + 1])
                                        for a, j in zip(runs, marks)))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = [f"host speed: calibration loop {statistics.median(speeds) * 1000:.2f} ms "
               f"(median of {len(speeds)}), reference {speed.REFERENCE_S * 1000:g} ms",
               f"unscaled: wall_s {sum(raw):.4g} s, solve_ms_p50 "
               f"{statistics.median(raw) * 1000:.4g} ms"]
    return {"wall_s": {"value": sum(scaled), "unit": "s"},
            "solve_ms_p50": {"value": statistics.median(scaled) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"}}, summary


def _traced(workload: str, instances, attempts, seconds: float, started: float,
            trace_path: str | None):
    base_wall = solve_pass(instances, attempts)
    passes = []
    with Tracer() as tracer:
        while True:
            wall = solve_pass(instances, attempts, tracer)
            passes.append((wall, *tracer.take_pass()))
            if not _another_pass(started, wall, seconds):
                break
    metrics = {name: {"value": statistics.median(p[1][name] for p in passes), "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    traced_wall = statistics.median(p[0] for p in passes)
    metrics["trace.overhead_ratio"] = {"value": traced_wall / base_wall, "unit": "ratio"}
    metrics["trace.untraced_wall_s"] = {"value": base_wall, "unit": "s"}
    summary = [f"tracing overhead: traced pass {traced_wall:.3f} s / untraced pass "
               f"{base_wall:.3f} s = {traced_wall / base_wall:.2f}x "
               f"({len(passes)} traced passes)"]
    self_ms, span_ms = {}, {}
    for _, _, pass_self, pass_span in passes:
        for key, value in pass_self.items():
            self_ms[key] = self_ms.get(key, 0.0) + value
        for key, value in pass_span.items():
            span_ms[key] = span_ms.get(key, 0.0) + value
    claimed, groups = self_time_groups(workload, self_ms, span_ms)
    whole = sum(groups.values()) or 1.0
    ranked = sorted(groups.items(), key=lambda kv: -kv[1])
    summary.append("self-time shares: " + ", ".join(
        f"{name} {value / whole:.1%}" for name, value in ranked if value))
    verdict = "holds" if ranked[0][0] == claimed else "does NOT hold"
    summary.append(f"claim '{claimed}' has the largest share: {verdict}")
    if tracer.unmeasured:
        summary.append("unmeasured hooks: " + ", ".join(tracer.unmeasured))
    if trace_path:
        tracer.write(trace_path, [inst.label for inst in instances])
        summary.append(f"spans written to {trace_path}")
    return metrics, summary


def run_workload(workload: str, instances, seconds: float, trace: bool,
                 trace_path: str | None = None) -> dict:
    """Timed passes, then the gate; end-to-end metrics, or per-layer ones if traced."""
    attempts = [[] for _ in instances]
    started = time.perf_counter()
    if trace:
        metrics, summary = _traced(workload, instances, attempts, seconds, started,
                                   trace_path)
    else:
        metrics, summary = _untraced(instances, attempts, seconds, started)
    failures = gate(workload, instances, attempts)
    attempted = sum(len(runs) for runs in attempts)
    summary.insert(0, f"{len(instances)} instances x {len(attempts[0])} passes = "
                      f"{attempted} solves; failed_frac {len(failures) / attempted:g} "
                      f"({len(failures)}/{attempted})")
    summary += [f"FAILED {msg}" for msg in failures[:20]]
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics,
            "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="scratch directory for the .cw files")
    parser.add_argument("--trace-out", help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        instances = setup(args.workload, args.seed, args.dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run_workload(args.workload, instances, args.seconds,
                              bool(args.trace), args.trace_out)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
