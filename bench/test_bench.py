"""Tests of the benchmark itself: generators, tracing hooks, metrics and the gate.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cwsolve  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import check_witness  # noqa: E402

# Every metric the benchmark's specification names.
END_TO_END = ("wall_s", "solve_ms_p50", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "cwexpr.parse_expression.ms", "cwexpr.validate.ms", "cwexpr.check_irredundant.ms",
    "cwexpr.evaluate.ms",
    "fvs.leaf.self_ms", "fvs.add.self_ms", "fvs.ren.self_ms", "fvs.union.self_ms",
    "fvs.union.calls", "fvs.states_total", "fvs.states_peak", "fvs.entries_total",
    "sigma_rho.leaf.self_ms", "sigma_rho.add.self_ms", "sigma_rho.ren.self_ms",
    "sigma_rho.union.self_ms", "sigma_rho.union.key_pairs", "sigma_rho.states_total",
    "sigma_rho.states_peak", "sigma_rho.entries_total",
    "wpsets.join.calls", "wpsets.join.ms", "wpsets.join.pairs", "wpsets.join.entries_out",
    "wpsets.join.kept_ratio", "wpsets.reduce.calls", "wpsets.reduce.ms",
    "wpsets.reduce.entries_in", "wpsets.reduce.entries_out", "wpsets.reduce.kept_ratio",
    "wpsets.proj.calls", "wpsets.proj.ms", "cli.self_ms",
    "trace.overhead_ratio", "trace.untraced_wall_s",
)


def small(tmp_path, workload: str, count: int):
    return worker.setup(workload, 1, str(tmp_path))[:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = worker.setup(workload, 5, str(tmp_path / "a"))
    second = worker.setup(workload, 5, str(tmp_path / "b"))
    other = workloads.build(workload, 6)
    for a, b in zip(first, second):
        with open(a.path, "rb") as fa, open(b.path, "rb") as fb:
            assert fa.read() == fb.read()
    assert [i.expr.text for i in first] != [i.expr.text for i in other]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_expressions_are_irredundant(workload):
    for inst in workloads.build(workload, 3):
        expr = cwsolve.parse_expression(inst.expr.text)
        assert cwsolve.check_irredundant(expr) == []


def test_setup_rejects_a_redundant_expression(tmp_path, monkeypatch):
    def redundant(workload, seed):
        text = "cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))\n"
        graph = workloads.Graph([1, 1], [[1], [0]])
        return [workloads.Instance(workloads.Expression("bad", text, graph, ["a", "b"]),
                                   "fvs")]
    monkeypatch.setattr(workloads, "build", redundant)
    with pytest.raises(worker.SetupError, match="not irredundant"):
        worker.setup("forest-union", 1, str(tmp_path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_own_evaluator_matches_cwsolve(workload):
    seen = set()
    for inst in workloads.build(workload, 2):
        expr = inst.expr
        if expr.name in seen or expr.graph.n > 300:
            continue
        seen.add(expr.name)
        graph = cwsolve.evaluate(cwsolve.parse_expression(expr.text))
        assert graph.weights == {expr.names[v]: w for v, w in enumerate(expr.graph.weights)}
        assert graph.edges == {cwsolve.cwexpr.edge_key(expr.names[u], expr.names[v])
                               for u, v in expr.graph.edges()}


def test_witness_checks_reject_infeasible_sets():
    # Path 0-1-2-3 plus the chord 0-2, unit weights.
    graph = workloads.Graph([1, 1, 1, 1], [[1, 2], [0, 2], [1, 3, 0], [2]])
    assert check_witness(graph, "cds", {1, 2}, 2) is None
    assert "dominate" in check_witness(graph, "cds", {0, 1}, 2)
    assert "connected" in check_witness(graph, "steiner", {0, 3}, 2, {0, 3})
    assert "cycle" in check_witness(graph, "fvs", {3}, 1)
    assert check_witness(graph, "fvs", {2}, 1) is None
    assert "cover" in check_witness(graph, "cvc", {0, 1}, 2)
    assert "weight" in check_witness(graph, "cvc", {0, 2}, 3)


def test_tracer_installs_and_restores_every_hook():
    originals = {}
    for module_name, attr, _, _ in spans.HOOKS:
        module = importlib.import_module(module_name)
        originals[(module_name, attr)] = getattr(module, attr)
    with spans.Tracer() as tracer:
        assert tracer.unmeasured == []
        for (module_name, attr), fn in originals.items():
            assert getattr(importlib.import_module(module_name), attr) is not fn
    for (module_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is fn


def test_missing_hook_is_reported_unmeasured(capsys):
    hooks = spans.HOOKS + (("cwsolve.fvs", "no_such_function", "fvs.gone", "span"),)
    with spans.Tracer(hooks) as tracer:
        pass
    assert tracer.unmeasured == ["cwsolve.fvs.no_such_function"]
    assert "unmeasured" in capsys.readouterr().err
    assert not hasattr(importlib.import_module("cwsolve.fvs"), "no_such_function")


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_command_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "domination-naive", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)
    assert any("failed_frac 0" in line for line in out)


def test_scaled_time_follows_the_host_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(1.0, ref, ref) == pytest.approx(1.0)
    # A host running at half speed doubles both the calibration and the solve.
    assert speed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.scale(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert speed.calibrate() > 0


def test_untraced_run_scales_each_solve_between_calibrations(tmp_path, monkeypatch):
    instances = small(tmp_path, "domination-naive", 2)
    monkeypatch.setattr(speed, "calibrate", lambda: 2 * speed.REFERENCE_S)
    monkeypatch.setattr(worker, "solve_once", lambda argv: (0.5, 0, (1, ()), None))
    metrics, summary = worker._untraced(instances, [[], []], 0, 0.0)
    assert metrics["wall_s"]["value"] == pytest.approx(0.5)
    assert metrics["solve_ms_p50"]["value"] == pytest.approx(250.0)
    assert any("unscaled: wall_s 1 s" in line for line in summary)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    instances = small(tmp_path, workload, 2)
    result = worker.run_workload(workload, instances, 0, trace=True,
                                 trace_path=str(tmp_path / "spans.jsonl"))
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    with open(tmp_path / "spans.jsonl") as handle:
        header = json.loads(handle.readline())
        assert header["instances"] == [inst.label for inst in instances]
        assert sum(1 for _ in handle) > 0


def test_wrong_expected_optimum_fails_the_run(tmp_path, monkeypatch):
    right = worker.reference

    def wrong(workload, inst):
        optimum = right(workload, inst)
        return optimum + 1 if isinstance(optimum, int) else 0

    monkeypatch.setattr(worker, "reference", wrong)
    result = worker.run_workload("domination-naive", small(tmp_path, "domination-naive", 3),
                                 0, trace=False)
    assert result["failed"] == result["attempted"] == 3
    assert any("expected" in line for line in result["summary"])
    assert run.finish(result, [0.1], trace=False) == 1
