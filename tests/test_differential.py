"""Hardening suite: random low-label expressions against the oracles.

Naive expressions keep every label class a singleton; the random expression
generator instead produces classes holding several vertices, exercising the
relabel merges, the promise-compatibility checks, and classes mixing solution
and non-solution vertices.
"""

import random

import pytest

import cwsolve.dp
from cwsolve import (check_irredundant, evaluate, fixture, naive_expression,
                     solve_fvs)
from cwsolve.oracle import (_dominates, _is_connected, _is_forest,
                            brute_min_fvs, brute_sigma_rho, brute_steiner,
                            check_solution)
from cwsolve.sigma_rho import (MAX, MIN, MuSet, NATURALS, POSITIVES,
                               SigmaRhoSpec, preset_spec,
                               solve_connected_sigma_rho, solve_steiner)
from cwsolve.wpsets import check_size

from conftest import random_expression

CUSTOM_SPECS = [
    SigmaRhoSpec(MuSet(False, frozenset({1, 2})), POSITIVES, MIN),
    SigmaRhoSpec(NATURALS, MuSet(True, frozenset({1})), MIN),
    SigmaRhoSpec(MuSet(False, frozenset({0, 2})), MuSet(False, frozenset({0, 1})), MAX),
    SigmaRhoSpec(POSITIVES, NATURALS, MAX, co=True),
    SigmaRhoSpec(MuSet(True, frozenset({0, 1})), NATURALS, MIN, co=True),
]


def _expressions(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        k = rng.randint(2, 4)
        expr = random_expression(rng, n, k)
        assert check_irredundant(expr) == []
        out.append((expr, evaluate(expr)))
    return out


@pytest.fixture(scope="module")
def low_label_instances():
    return _expressions(90210, 120)


def test_generator_produces_multi_vertex_classes():
    rng = random.Random(1)
    hits = 0
    for _ in range(30):
        expr = random_expression(rng, 6, 2)
        labels = evaluate(expr).labels
        sizes = {}
        for lbl in labels.values():
            sizes[lbl] = sizes.get(lbl, 0) + 1
        if any(size >= 3 for size in sizes.values()):
            hits += 1
    assert hits > 10


def test_fvs_on_random_low_label_expressions(low_label_instances):
    for expr, graph in low_label_instances:
        expect = brute_min_fvs(graph)[0]
        assert solve_fvs(expr).fvs_weight == expect
        assert solve_fvs(expr, use_reduce=False).fvs_weight == expect


@pytest.mark.parametrize("name", ["cds", "ctds", "perfect-cds", "cvc"])
def test_presets_on_random_low_label_expressions(low_label_instances, name):
    spec = preset_spec(name)
    for expr, graph in low_label_instances:
        expect = brute_sigma_rho(graph, spec)[0]
        assert solve_connected_sigma_rho(expr, spec).optimum == expect
        assert solve_connected_sigma_rho(expr, spec,
                                         use_reduce=False).optimum == expect


@pytest.mark.parametrize("idx", range(len(CUSTOM_SPECS)))
def test_custom_specs_on_random_low_label_expressions(low_label_instances, idx):
    spec = CUSTOM_SPECS[idx]
    for expr, graph in low_label_instances[:60]:
        expect = brute_sigma_rho(graph, spec)[0]
        got = solve_connected_sigma_rho(expr, spec)
        assert got.optimum == expect, (spec.describe(), sorted(graph.edges))
        if spec.co:
            # the default path filters co states by future degree; the
            # reference path neither reduces nor filters
            assert solve_connected_sigma_rho(
                expr, spec, use_reduce=False).optimum == expect


def test_steiner_on_random_low_label_expressions(low_label_instances):
    rng = random.Random(5150)
    for expr, graph in low_label_instances:
        names = sorted(graph.weights)
        terms = frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
        assert solve_steiner(expr, terms).optimum == brute_steiner(graph, terms)[0]


def test_witnesses_on_random_low_label_expressions(low_label_instances):
    for expr, graph in low_label_instances[:40]:
        adj = graph.neighbors()
        res = solve_fvs(expr, with_witness=True)
        kept = [v for v in graph.weights if v not in set(res.witness)]
        assert _is_forest(kept, graph.edges)
        assert sum(graph.weights[v] for v in kept) == res.forest_weight
        for name in ("cds", "cvc"):
            spec = preset_spec(name)
            dom = solve_connected_sigma_rho(expr, spec, with_witness=True)
            if not dom.feasible:
                continue
            chosen = set(dom.witness)
            assert sum(graph.weights[v] for v in chosen) == dom.optimum
            assert _is_connected(chosen, adj)
            dominating = set(graph.weights) - chosen if spec.co else chosen
            assert _dominates(graph, adj, dominating, spec.sigma, spec.rho)


FILTER_SOLVERS = {
    "fvs": lambda expr, **kw: solve_fvs(expr, with_witness=True, **kw),
    "cds": lambda expr, **kw: solve_connected_sigma_rho(
        expr, preset_spec("cds"), with_witness=True, **kw),
    "perfect-cds": lambda expr, **kw: solve_connected_sigma_rho(
        expr, preset_spec("perfect-cds"), with_witness=True, **kw),
    "cvc": lambda expr, **kw: solve_connected_sigma_rho(
        expr, preset_spec("cvc"), with_witness=True, **kw),
    "co-custom": lambda expr, **kw: solve_connected_sigma_rho(
        expr, CUSTOM_SPECS[4], with_witness=True, **kw),
    "max-co-custom": lambda expr, **kw: solve_connected_sigma_rho(
        expr, CUSTOM_SPECS[3], with_witness=True, **kw),
    "steiner": lambda expr, **kw: solve_steiner(
        expr, _two_terminals(expr), with_witness=True, **kw),
}


def _two_terminals(expr):
    names = sorted(evaluate(expr).weights)
    return {names[0], names[-1]}


def _answer(res):
    if hasattr(res, "fvs_weight"):
        return res.fvs_weight, res.witness
    return res.optimum, res.witness


@pytest.fixture(scope="module")
def filter_instances():
    rng = random.Random(4711)
    return [random_expression(rng, rng.randint(3, 9), k)
            for k in range(2, 6) for _ in range(8)]


@pytest.mark.parametrize("name", sorted(FILTER_SOLVERS))
def test_future_filter_keeps_answers_and_witnesses(filter_instances, name,
                                                   monkeypatch):
    # The future filter only drops states no root state extends: the optimum
    # matches the reference path, and optimum and witness match the same
    # reduced DP run without the filter (every transition given fut=None).
    solve = FILTER_SOLVERS[name]
    filtered = [solve(expr) for expr in filter_instances]
    for expr, res in zip(filter_instances, filtered):
        assert _answer(res)[0] == _answer(solve(expr, use_reduce=False))[0]
    monkeypatch.setattr(cwsolve.dp, "future_degrees", lambda expr, cap=None: {})
    unfiltered = [solve(expr) for expr in filter_instances]
    for res, ref in zip(filtered, unfiltered):
        assert _answer(res) == _answer(ref)
        assert res.stats.total_states <= ref.stats.total_states
    assert sum(r.stats.total_states for r in filtered) < \
        sum(r.stats.total_states for r in unfiltered)


def _eager(run):
    """``dp.run`` whose transitions reduce every cell of two or more
    entries, not only those above the bound."""
    def eager_run(expr, stats, prune, *transitions):
        def eager(transition):
            def reduced(*args, **verdict):
                table = transition(*args, **verdict)
                for key, cell in table.items():
                    if len(cell) > 1:
                        table[key] = check_size(prune.reducer(cell),
                                                prune.bound)
                        stats.reduce_calls += 1
                return table
            return reduced
        return run(expr, stats, prune, *map(eager, transitions))
    return eager_run


# cds, cvc and steiner minimise, so their cells hold negated weights;
# max-co-custom maximises.  (d-regular:2 would too, but on these instances
# none of its cells ever holds two entries, so it reduces nothing.)
EAGER_PROBLEMS = {"fvs": "fvs", "cds": preset_spec("cds"),
                  "cvc": preset_spec("cvc"), "steiner": "steiner",
                  "max-co-custom": CUSTOM_SPECS[3]}


@pytest.mark.parametrize("name", sorted(EAGER_PROBLEMS))
def test_reducing_every_cell_keeps_the_optimum(name, monkeypatch):
    # The shipped path reduces a cell only above its rank bound, which
    # almost never happens at these sizes; reducing every cell, as the DP
    # once did, must reach the same optimum with a certified witness.
    rng = random.Random(2718)
    exprs = [random_expression(rng, rng.randint(3, 9), k)
             for k in range(2, 6) for _ in range(6)]
    exprs += [fixture(kind, 12, seed=3) for kind in ("path", "cycle", "star",
                                                     "random-cograph")]
    problem = EAGER_PROBLEMS[name]
    solve = FILTER_SOLVERS[name]
    expected = [(_answer(solve(expr))[0],
                 _answer(solve(expr, use_reduce=False))[0]) for expr in exprs]
    monkeypatch.setattr(cwsolve.dp, "run", _eager(cwsolve.dp.run))
    reduce_calls = 0
    for expr, (shipped, reference) in zip(exprs, expected):
        res = solve(expr)
        reduce_calls += res.stats.reduce_calls
        optimum, witness = _answer(res)
        assert optimum == shipped == reference
        if witness is not None:
            terminals = _two_terminals(expr) if name == "steiner" else ()
            assert check_solution(evaluate(expr), problem, witness, optimum,
                                  terminals) is None
    assert reduce_calls > 0


def test_low_label_agrees_with_naive_expression(low_label_instances):
    # the same graph through two very different expressions
    for expr, graph in low_label_instances[:50]:
        other = naive_expression(graph)
        assert solve_fvs(expr).fvs_weight == solve_fvs(other).fvs_weight
        spec = preset_spec("cds")
        assert solve_connected_sigma_rho(expr, spec).optimum == \
            solve_connected_sigma_rho(other, spec).optimum
