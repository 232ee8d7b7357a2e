import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

import cwsolve
from cwsolve import cli, fixture, naive_expression, serialize
from cwsolve.cwexpr import edge_key

from conftest import random_expression, random_graph

REPORT_SCHEMA = {
    "type": "object",
    "required": ["problem", "optimum", "stats"],
    "properties": {
        "problem": {"type": "string"},
        "optimum": {"oneOf": [{"type": "integer"}, {"const": "infeasible"}]},
        "witness": {"type": "array", "items": {"type": "string"}},
        "stats": {
            "type": "object",
            "required": ["dp_nodes", "max_cell_entries", "reduce_calls",
                         "peak_states", "total_states", "elapsed_ms"],
            "properties": {
                "dp_nodes": {"type": "integer", "minimum": 0},
                "max_cell_entries": {"type": "integer", "minimum": 0},
                "reduce_calls": {"type": "integer", "minimum": 0},
                "peak_states": {"type": "integer", "minimum": 0},
                "total_states": {"type": "integer", "minimum": 0},
                "elapsed_ms": {"type": "number", "minimum": 0},
            },
        },
    },
}


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.cw"
    path.write_text(serialize(fixture("clique", 3)))
    return str(path)


@pytest.fixture
def p4_graph_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text("v a 1\nv b 1\nv c 1\nv d 1\ne a b\ne b c\ne c d\n")
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_fvs_on_triangle(self, capsys, k3_file):
        code, payload = run_json(capsys, ["solve", "--problem", "fvs",
                                          "--expr", k3_file, "--json"])
        assert code == 0
        assert payload["optimum"] == 1
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_mif_reports_forest_weight(self, capsys, k3_file):
        code, payload = run_json(capsys, ["solve", "--problem", "mif",
                                          "--expr", k3_file, "--json"])
        assert code == 0 and payload["optimum"] == 2

    def test_witness_listed(self, capsys, k3_file):
        code, payload = run_json(capsys, ["solve", "--problem", "cvc",
                                          "--expr", k3_file, "--witness", "--json"])
        assert code == 0 and len(payload["witness"]) == payload["optimum"] == 2

    def test_steiner_with_unknown_terminal(self, capsys, k3_file):
        code = cli.run(["solve", "--problem", "steiner", "--expr", k3_file,
                        "--terminals", "v1,zz", "--json"])
        assert code == 2

    def test_steiner_requires_terminals(self, k3_file):
        assert cli.run(["solve", "--problem", "steiner", "--expr", k3_file]) == 1

    def test_custom_problem(self, capsys, k3_file):
        code, payload = run_json(capsys, [
            "solve", "--problem", "custom", "--sigma", "N", "--rho", "N+",
            "--opt", "min", "--expr", k3_file, "--json"])
        assert code == 0 and payload["optimum"] == 1

    def test_custom_requires_sets(self, k3_file):
        assert cli.run(["solve", "--problem", "custom", "--expr", k3_file]) == 1

    def test_opt_overrides_a_preset(self, capsys, k3_file):
        code, payload = run_json(capsys, ["solve", "--problem", "cds", "--opt",
                                          "max", "--expr", k3_file, "--json"])
        assert code == 0 and payload["optimum"] == 3

    def test_no_reduce_agrees(self, capsys, k3_file):
        _, base = run_json(capsys, ["solve", "--problem", "cds",
                                    "--expr", k3_file, "--json"])
        _, plain = run_json(capsys, ["solve", "--problem", "cds",
                                     "--expr", k3_file, "--no-reduce", "--json"])
        assert base["optimum"] == plain["optimum"]

    def test_cell_stat_respects_table_bounds(self, capsys, k3_file):
        _, cds = run_json(capsys, ["solve", "--problem", "cds",
                                   "--expr", k3_file, "--json"])
        assert cds["stats"]["max_cell_entries"] <= 1 << (2 - 1)  # k = 2
        _, fvs = run_json(capsys, ["solve", "--problem", "fvs",
                                   "--expr", k3_file, "--json"])
        assert fvs["stats"]["max_cell_entries"] <= (2 + 1) << 2

    @pytest.mark.parametrize("problem", ["cds", "fvs"])
    def test_future_filter_builds_fewer_states(self, capsys, tmp_path, problem):
        rng = random.Random(61)
        if problem == "cds":
            graph = random_graph(6, rng)
            graph.edges |= {edge_key(f"v{i}", f"v{i + 1}") for i in range(1, 6)}
            expr = naive_expression(graph)
        else:
            expr = random_expression(rng, 14, 4)
        path = tmp_path / "in.cw"
        path.write_text(serialize(expr))
        argv = ["solve", "--problem", problem, "--expr", str(path), "--json"]
        _, base = run_json(capsys, argv)
        _, reference = run_json(capsys, argv + ["--no-reduce"])
        jsonschema.validate(base, REPORT_SCHEMA)
        assert base["optimum"] == reference["optimum"]
        assert 0 < base["stats"]["peak_states"] <= base["stats"]["total_states"]
        assert base["stats"]["total_states"] < reference["stats"]["total_states"]

    def test_d_regular_preset(self, capsys, tmp_path):
        path = tmp_path / "c5.cw"
        path.write_text(serialize(fixture("cycle", 5)))
        code, payload = run_json(capsys, ["solve", "--problem", "d-regular:2",
                                          "--expr", str(path), "--json"])
        assert code == 0 and payload["optimum"] == 5

    def test_not_irredundant_is_exit_3(self, tmp_path):
        path = tmp_path / "bad.cw"
        path.write_text("cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))\n")
        assert cli.run(["solve", "--problem", "fvs", "--expr", str(path)]) == 3

    @pytest.mark.parametrize("terminals", ["a", "a,b"])
    def test_steiner_not_irredundant_is_exit_3(self, tmp_path, terminals):
        path = tmp_path / "bad.cw"
        path.write_text("cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))\n")
        assert cli.run(["solve", "--problem", "steiner", "--expr", str(path),
                        "--terminals", terminals]) == 3

    def test_parse_error_is_exit_2(self, tmp_path):
        path = tmp_path / "broken.cw"
        path.write_text("cwexpr k=1\n(v a\n")
        assert cli.run(["solve", "--problem", "fvs", "--expr", str(path)]) == 2

    @pytest.mark.parametrize("command, name, text, where", [
        (["solve", "--problem", "fvs", "--expr"], "w.cw",
         "cwexpr k=1\n(v a ٣)\n", "line 2 col 6"),
        (["gen", "--kind", "naive", "--graph"], "w.g", "v a\nv b ²\n",
         "line 2"),
    ])
    def test_a_non_ascii_digit_is_exit_2_with_its_line(
            self, tmp_path, capsys, command, name, text, where):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli.run(command + [str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: ")

    def test_a_non_ascii_digit_in_a_preset_is_an_unknown_preset(self, capsys,
                                                                 k3_file):
        # "٢" is an Arabic-Indic two, which int() would read as 2
        assert cli.run(["solve", "--problem", "d-regular:٢", "--expr",
                        k3_file]) == 2
        assert "unknown problem preset" in capsys.readouterr().err

    def test_human_readable_default(self, capsys, k3_file):
        assert cli.run(["solve", "--problem", "fvs", "--expr", k3_file]) == 0
        out = capsys.readouterr().out
        assert "optimum:  1" in out


@pytest.mark.parametrize("command", ["solve", "bench", "oracle"])
@pytest.mark.parametrize("problem, ignored", [
    ("cds", ["--co"]),
    ("cds", ["--sigma", "{0}", "--rho", "N", "--co"]),
    ("ctds", ["--sigma", "N"]),
    ("cvc", ["--rho", "N+"]),
    ("d-regular:1", ["--sigma", ""]),
    ("fvs", ["--sigma", "N", "--rho", "N"]),
    ("steiner", ["--co"]),
    ("fvs", ["--opt", "max"]),
    ("mif", ["--opt", "min"]),
    ("steiner", ["--opt", "max"]),
])
def test_options_the_problem_ignores_are_usage_errors(
        capsys, k3_file, p4_graph_file, command, problem, ignored):
    # --terminals is accepted by every problem; the same call without the
    # ignored options succeeds
    source = (["--graph", p4_graph_file, "--terminals", "a,d"]
              if command == "oracle" else
              ["--expr", k3_file, "--terminals", "v1,v3"])
    argv = [command, "--problem", problem, *source]
    assert cli.run(argv + ignored) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert cli.run(argv) == 0


class TestCheckExpr:
    def test_clean_expression_exit_zero(self, capsys, k3_file):
        assert cli.run(["check-expr", "--expr", k3_file]) == 0
        assert "irredundant" in capsys.readouterr().out

    def test_redundant_add_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.cw"
        path.write_text("cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))\n")
        code = cli.run(["check-expr", "--expr", str(path)])
        assert code != 0
        assert "fully-redundant" in capsys.readouterr().out


    def test_json_reports_the_live_width(self, tmp_path, capsys):
        path = tmp_path / "path.cw"
        path.write_text(serialize(fixture("path", 6)))
        code, payload = run_json(capsys, ["check-expr", "--json", "--expr",
                                          str(path)])
        assert code == 0 and payload["irredundant"]
        assert payload["live_width"] == 2  # the endpoint and the newcomer

    @pytest.mark.parametrize("body", ["(v a)", "(u (v a) (v b))",
                                      "(add 1 2 (u (v a) (ren 1 2 (v b))))"])
    def test_a_huge_declared_k_answers_as_k_2(self, tmp_path, capsys, body):
        # the DP is sized by the labels in use, not by the header
        out = {}
        for k in ("2", "99999999999999999999", "1000000"):
            path = tmp_path / f"k{k}.cw"
            path.write_text(f"cwexpr k={k}\n{body}\n")
            out[k] = [run_json(capsys, ["check-expr", "--json", "--expr",
                                        str(path)])]
            for problem in ("fvs", "cds"):
                code, payload = run_json(capsys, [
                    "solve", "--problem", problem, "--json", "--witness",
                    "--expr", str(path)])
                payload["stats"].pop("elapsed_ms")
                out[k].append((code, payload))
        assert out["2"][0][0] == 0
        assert out["99999999999999999999"] == out["2"] == out["1000000"]

    @pytest.mark.parametrize("k, body", [
        ("99999999999999999999", "(ren 1 {} (v a))"),
        ("3000000", "(u (ren 1 {} (v a)) (v b))"),
    ], ids=["one-vertex", "two-vertices"])
    def test_a_huge_label_answers_as_label_2(self, tmp_path, capsys, k, body):
        # the labels in use are ranked: 1 and the huge one are 1 and 2
        out = {}
        for label in (k, "2"):
            path = tmp_path / f"k{label}.cw"
            path.write_text(f"cwexpr k={label}\n{body.format(label)}\n")
            out[label] = [run_json(capsys, ["check-expr", "--json", "--expr",
                                            str(path)])]
            for problem in ("fvs", "cds"):
                code, payload = run_json(capsys, [
                    "solve", "--problem", problem, "--json", "--witness",
                    "--expr", str(path)])
                payload["stats"].pop("elapsed_ms")
                out[label].append((code, payload))
        assert out["2"][0][0] == 0 and out["2"][1][1]["optimum"] == 0
        assert out[k] == out["2"]

    def test_a_redundant_add_prints_the_files_labels(self, tmp_path, capsys):
        path = tmp_path / "sparse.cw"
        path.write_text("cwexpr k=9\n"
                        "(add 5 9 (add 5 9 (u (ren 1 5 (v a)) (ren 1 9 (v b)))))\n")
        assert cli.run(["check-expr", "--expr", str(path)]) == 3
        assert capsys.readouterr().out == "node 0: add 5 9 is fully-redundant\n"

    def test_json_live_width_is_null_when_not_irredundant(self, tmp_path,
                                                          capsys):
        path = tmp_path / "bad.cw"
        path.write_text("cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))\n")
        code, payload = run_json(capsys, ["check-expr", "--json", "--expr",
                                          str(path)])
        assert code == 3 and not payload["irredundant"]
        assert payload["live_width"] is None


class TestGen:
    def test_fixture_roundtrip(self, capsys):
        assert cli.run(["gen", "--kind", "clique", "--n", "4"]) == 0
        text = capsys.readouterr().out
        from cwsolve import evaluate, parse_expression
        assert len(evaluate(parse_expression(text)).edges) == 6

    def test_naive_from_graph(self, capsys, p4_graph_file):
        assert cli.run(["gen", "--kind", "naive", "--graph", p4_graph_file]) == 0
        text = capsys.readouterr().out
        from cwsolve import evaluate, parse_expression
        assert len(evaluate(parse_expression(text)).edges) == 3

    def test_bad_usage(self):
        assert cli.run(["gen", "--kind", "clique"]) == 1
        assert cli.run(["gen", "--kind", "naive"]) == 1

    @pytest.mark.parametrize("option", ["--n", "--seed"])
    @pytest.mark.parametrize("value", ["٣", "³", "3.0"])
    def test_integer_options_take_ascii_digits_only(self, capsys, option,
                                                    value):
        argv = ["gen", "--kind", "random-cograph", "--n", "3", "--seed", "1"]
        argv[argv.index(option) + 1] = value
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert f"invalid integer {value!r}" in captured.err

    def test_a_negative_seed_is_still_an_integer(self, capsys):
        assert cli.run(["gen", "--kind", "random-cograph", "--n", "4",
                        "--seed", "-2"]) == 0
        assert capsys.readouterr().out.startswith("cwexpr k=2")


class TestOracle:
    def test_fvs(self, capsys, p4_graph_file):
        code, payload = run_json(capsys, ["oracle", "--problem", "fvs",
                                          "--graph", p4_graph_file, "--json"])
        assert code == 0 and payload["optimum"] == 0

    def test_steiner(self, capsys, p4_graph_file):
        code, payload = run_json(capsys, [
            "oracle", "--problem", "steiner", "--graph", p4_graph_file,
            "--terminals", "a,d", "--json"])
        assert code == 0 and payload["optimum"] == 4

    def test_too_large_is_exit_4(self, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text("\n".join(f"v x{i:02d}" for i in range(21)) + "\n")
        assert cli.run(["oracle", "--problem", "fvs", "--graph", str(path)]) == 4


class TestBench:
    @pytest.mark.parametrize("problem", [["fvs"], ["cds"], ["cvc"],
                                         ["steiner", "--terminals", "v1,v3"]],
                             ids=["fvs", "cds", "cvc", "steiner"])
    def test_emits_csv(self, capsys, k3_file, problem):
        assert cli.run(["bench", "--expr", k3_file, "--problem", *problem]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == f"problem,{problem[0]}"
        metrics = dict(line.split(",", 1) for line in lines[1:])
        assert int(metrics["nodes_introduce"]) == 3
        assert "elapsed_ms" in metrics
        assert int(metrics["total_states"]) >= int(metrics["peak_states"]) >= 0


def test_unknown_subcommand_is_usage_error():
    assert cli.run(["frobnicate"]) == 1


def test_module_runs_as_a_script():
    # ``python -m cwsolve.cli`` is a documented entry point
    src = os.path.dirname(os.path.dirname(cwsolve.__file__))
    out = subprocess.run([sys.executable, "-m", "cwsolve.cli", "gen", "--kind",
                          "path", "--n", "3"], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.startswith("cwexpr k=3"), out.stderr


def test_out_of_memory_is_exit_code_5(capsys, monkeypatch, k3_file):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_fvs", exhausted)
    assert cli.run(["solve", "--problem", "fvs", "--expr", k3_file]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_one_process_serves_usage_errors_and_solves_alike(capsys, k3_file):
    # the parser is built once per process; a usage error before or after
    # a solve changes neither the solve's answer nor the next exit code
    argv = ["solve", "--problem", "cvc", "--witness", "--json", "--expr", k3_file]
    assert cli.run(["solve", "--problem", "fvs", "--bogus"]) == 1
    assert cli.run(argv) == 0
    here = json.loads(capsys.readouterr().out)
    assert cli.run(["gen", "--kind", "clique"]) == 1
    src = os.path.dirname(os.path.dirname(cwsolve.__file__))
    alone = subprocess.run([sys.executable, "-m", "cwsolve.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=60)
    assert alone.returncode == 0, alone.stderr
    alone = json.loads(alone.stdout)
    for payload in (here, alone):
        del payload["stats"]["elapsed_ms"]
    assert here == alone
