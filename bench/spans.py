"""Outside-in tracing of cwsolve's layers for the traced benchmark run.

Each hook replaces a function where its caller looks it up (for example
``cwsolve.fvs.acjoin``, which ``fvs_union`` calls) with a wrapper that records
a span.  Node transitions and everything above them are kept as individual
spans (name, start, end, parent span, instance id).  The wpsets primitives run
up to millions of times per instance, so their spans are folded into one
record per (parent span, name) with a call count and total time.

A span's self time is its duration minus the time covered by its child spans.
The wrapper's own bookkeeping is counted as covered by the child, so it shows
in no span's self time; the traced run reports the overall overhead instead.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, kind).  A function bound in several modules
# is hooked in each, under one span name.
HOOKS = (
    ("cwsolve.cli", "run", "cli", "span"),
    ("cwsolve.cli", "solve_fvs", "fvs.solve", "span"),
    ("cwsolve.sigma_rho", "solve_connected_sigma_rho", "sigma_rho.solve", "span"),
    ("cwsolve.sigma_rho", "solve_steiner", "sigma_rho.solve", "span"),
    ("cwsolve.cwexpr", "parse_expression", "cwexpr.parse_expression", "span"),
    ("cwsolve.cwexpr", "validate", "cwexpr.validate", "span"),
    ("cwsolve.fvs", "validate", "cwexpr.validate", "span"),
    ("cwsolve.sigma_rho", "validate", "cwexpr.validate", "span"),
    ("cwsolve.fvs", "check_irredundant", "cwexpr.check_irredundant", "span"),
    ("cwsolve.sigma_rho", "check_irredundant", "cwexpr.check_irredundant", "span"),
    ("cwsolve.fvs", "evaluate", "cwexpr.evaluate", "span"),
    ("cwsolve.sigma_rho", "evaluate", "cwexpr.evaluate", "span"),
    ("cwsolve.fvs", "fvs_leaf", "fvs.leaf", "table"),
    ("cwsolve.fvs", "fvs_add", "fvs.add", "table"),
    ("cwsolve.fvs", "fvs_ren", "fvs.ren", "table"),
    ("cwsolve.fvs", "fvs_union", "fvs.union", "table"),
    ("cwsolve.sigma_rho", "srd_leaf", "sigma_rho.leaf", "table"),
    ("cwsolve.sigma_rho", "co_leaf", "sigma_rho.leaf", "table"),
    ("cwsolve.sigma_rho", "srd_add", "sigma_rho.add", "table"),
    ("cwsolve.sigma_rho", "co_add", "sigma_rho.add", "table"),
    ("cwsolve.sigma_rho", "srd_ren", "sigma_rho.ren", "table"),
    ("cwsolve.sigma_rho", "co_ren", "sigma_rho.ren", "table"),
    ("cwsolve.sigma_rho", "srd_union", "sigma_rho.union", "table"),
    ("cwsolve.sigma_rho", "co_union", "sigma_rho.union", "table"),
    ("cwsolve.fvs", "acjoin", "wpsets.join", "join"),
    ("cwsolve.sigma_rho", "join_sets", "wpsets.join", "join"),
    ("cwsolve.fvs", "ac_reduce", "wpsets.reduce", "reduce"),
    ("cwsolve.sigma_rho", "reduce_set", "wpsets.reduce", "reduce"),
    ("cwsolve.fvs", "proj", "wpsets.proj", "folded"),
    ("cwsolve.sigma_rho", "proj", "wpsets.proj", "folded"),
)

NODE_KINDS = ("leaf", "add", "ren", "union")

# Per-layer metrics: name -> unit.  ``.ms`` is a span's whole duration,
# ``.self_ms`` its self time; both are per pass over the workload.
LAYER_METRICS = {
    "cwexpr.parse_expression.ms": "ms",
    "cwexpr.validate.ms": "ms",
    "cwexpr.check_irredundant.ms": "ms",
    "cwexpr.evaluate.ms": "ms",
    **{f"fvs.{kind}.self_ms": "ms" for kind in NODE_KINDS},
    "fvs.union.calls": "count",
    "fvs.states_total": "count",
    "fvs.states_peak": "count",
    "fvs.entries_total": "count",
    **{f"sigma_rho.{kind}.self_ms": "ms" for kind in NODE_KINDS},
    "sigma_rho.union.key_pairs": "count",
    "sigma_rho.states_total": "count",
    "sigma_rho.states_peak": "count",
    "sigma_rho.entries_total": "count",
    "wpsets.join.calls": "count",
    "wpsets.join.ms": "ms",
    "wpsets.join.pairs": "count",
    "wpsets.join.entries_out": "count",
    "wpsets.join.kept_ratio": "ratio",
    "wpsets.reduce.calls": "count",
    "wpsets.reduce.ms": "ms",
    "wpsets.reduce.entries_in": "count",
    "wpsets.reduce.entries_out": "count",
    "wpsets.reduce.kept_ratio": "ratio",
    "wpsets.proj.calls": "count",
    "wpsets.proj.ms": "ms",
    "cli.self_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the hooks, records spans, and restores the originals on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.instance = -1
        self.spans: list = []
        self.folded: dict[tuple[int, str], list] = {}
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.unmeasured: list[str] = []
        self._stack = [[0.0, -1]]  # [time covered by children, span id]
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, kind in self.hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(f"{module_name}.{attr}")
                print(f"warning: trace hook {module_name}.{attr} not found; "
                      f"{name} is unmeasured", file=sys.stderr)
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, kind: str):
        stack, totals, peaks = self._stack, self.totals, self.peaks
        spans, folded = self.spans, self.folded
        perf = time.perf_counter
        layer = name.split(".", 1)[0]

        if kind in ("join", "reduce", "folded"):
            def primitive(*args, **kwargs):
                t0 = perf()
                out = fn(*args, **kwargs)
                dur = perf() - t0
                parent = stack[-1]
                agg = folded.get((parent[1], name))
                if agg is None:
                    agg = folded[(parent[1], name)] = [0, 0.0, self.instance]
                agg[0] += 1
                agg[1] += dur
                totals[name + ".calls"] += 1
                totals[name + ".ms"] += dur
                if kind == "join":
                    totals[name + ".pairs"] += len(args[0]) * len(args[1])
                    totals[name + ".entries_out"] += len(out)
                elif kind == "reduce":
                    totals[name + ".entries_in"] += len(args[0])
                    totals[name + ".entries_out"] += len(out)
                parent[0] += perf() - t0
                return out
            return primitive

        def span(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            spans[sid] = (name, t0, t1, parent[1], self.instance)
            dur = t1 - t0
            totals[name + ".calls"] += 1
            totals[name + ".ms"] += dur
            totals[name + ".self_ms"] += dur - frame[0]
            if kind == "table":
                table = out[0] if isinstance(out, tuple) else out
                totals[layer + ".states_total"] += len(table)
                totals[layer + ".entries_total"] += sum(len(c) for c in table.values())
                if len(table) > peaks[layer]:
                    peaks[layer] = len(table)
                if name == "sigma_rho.union":
                    totals[name + ".key_pairs"] += len(args[1]) * len(args[3])
            parent[0] += perf() - t0
            return out
        return span

    def take_pass(self):
        """Metrics of the pass since the last call, then reset the sums.

        Returns the per-layer metrics, and the self time and whole duration
        in ms of every span name, for the self-time shares.
        """
        t = self.totals
        metrics = {}
        for metric in LAYER_METRICS:
            if metric.endswith("kept_ratio"):
                prim = metric.rsplit(".", 1)[0]
                base = prim + (".pairs" if prim == "wpsets.join" else ".entries_in")
                metrics[metric] = _ratio(t[prim + ".entries_out"], t[base])
            elif metric.endswith("states_peak"):
                metrics[metric] = float(self.peaks[metric.split(".", 1)[0]])
            elif metric.endswith("ms"):
                metrics[metric] = t[metric] * 1000.0
            else:
                metrics[metric] = t[metric]
        self_ms = {key[:-8]: value * 1000.0 for key, value in t.items()
                   if key.endswith(".self_ms")}
        span_ms = {key[:-3]: value * 1000.0 for key, value in t.items()
                   if key.endswith(".ms") and not key.endswith(".self_ms")}
        t.clear()
        self.peaks.clear()
        return metrics, self_ms, span_ms

    def write(self, path: str, instance_labels: list[str]) -> None:
        """Write the spans as JSON lines: a header, spans, then folded spans."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"instances": instance_labels,
                                  "span": ["id", "name", "start", "end", "parent",
                                           "instance"],
                                  "folded": ["folded", "parent", "name", "calls",
                                             "seconds", "instance"]}) + "\n")
            for sid, span in enumerate(self.spans):
                if span is not None:
                    out.write(json.dumps([sid, *span]) + "\n")
            for (parent, name), (calls, seconds, instance) in self.folded.items():
                out.write(json.dumps(["folded", parent, name, calls, seconds,
                                      instance]) + "\n")
