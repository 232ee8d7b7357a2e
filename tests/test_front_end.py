"""The work a solve does before and around the DP, once each: the
irredundancy pass yields the add sizes that the future degrees read, and a
domination leaf's rows are built once per leaf context."""

import random

import pytest

import cwsolve.cwexpr
import cwsolve.dp
import cwsolve.sigma_rho
from cwsolve import fixture
from cwsolve.cwexpr import ADD, FIXTURE_KINDS, LEAF, REN, UNION, edge_key
from cwsolve.fvs import solve_fvs
from cwsolve.sigma_rho import (preset_spec, solve_connected_sigma_rho,
                               solve_steiner)

from conftest import expression, random_expression


def _recount(expr):
    """Per add's position: |Ci|, |Cj| and its redundancy, from the classes'
    vertex sets and the edges made so far, with no count carried along."""
    program, classes, edges, out = expr.program, [], set(), {}
    for p, (op, i, j, name) in enumerate(zip(program.op, program.i,
                                             program.j, program.name)):
        if op == LEAF:
            classes.append({i: {name}})
        elif op == UNION:
            for lab, members in classes.pop().items():
                classes[-1].setdefault(lab, set()).update(members)
        elif op == REN:
            classes[-1].setdefault(j, set()).update(classes[-1].pop(i, ()))
        else:
            ci, cj = classes[-1].get(i, set()), classes[-1].get(j, set())
            pairs = {edge_key(u, v) for u in ci for v in cj}
            existing = len(pairs & edges)
            out[p] = len(ci), len(cj), (None if not existing else "full"
                                        if existing == len(pairs) else
                                        "partial")
            edges |= pairs
    return out


def test_the_add_sizes_are_the_class_sizes():
    rng = random.Random(2626)
    exprs = [fixture(kind, n, seed=n) for kind in FIXTURE_KINDS
             for n in (1, 2, 7, 60)]
    exprs += [random_expression(rng, rng.randint(2, 12), k)
              for k in (2, 3, 4) for _ in range(10)]
    # partially redundant: the outer add re-adds a-b but not c-b
    partial = expression(2, "(add 1 2 (u (add 1 2 (u (v a) (ren 1 2 (v b))))"
                            " (v c)))")
    exprs.append(partial)
    for expr in exprs:
        assert expr.adds == _recount(expr)
    assert [kind for *_, kind in partial.adds.values()] == [None, "partial"]
    assert sum(op == ADD for expr in exprs for op in expr.program.op) > 100


@pytest.mark.parametrize("problem", ["fvs", "cds", "cvc", "steiner"])
def test_a_pruned_solve_runs_one_size_pass(problem, monkeypatch):
    passes, degrees = [], []
    size_pass, future = cwsolve.cwexpr._redundant_adds, cwsolve.dp.future_degrees

    def counted(program):
        passes.append(program)
        return size_pass(program)

    def watched(expr, cap=None):
        degrees.append(cap)
        return future(expr, cap)

    monkeypatch.setattr(cwsolve.cwexpr, "_redundant_adds", counted)
    monkeypatch.setattr(cwsolve.dp, "future_degrees", watched)
    expr = fixture("cycle", 30)
    if problem == "fvs":
        assert solve_fvs(expr).fvs_weight == 1
    elif problem == "steiner":
        assert solve_steiner(expr, ["v1", "v10", "v20"]).optimum == 20
    else:
        assert solve_connected_sigma_rho(
            expr, preset_spec(problem)).optimum == {"cds": 28, "cvc": 29}[problem]
    assert passes == [expr.program]
    # the domination solvers' verdict reads the uncapped degrees, and every
    # pruned solve the capped ones: no pass of their own up the program
    assert degrees == ([1] if problem == "fvs" else [None, 1])


def _leaves(monkeypatch, solve):
    """Each leaf call of ``solve`` as (context, arguments, its table), and
    the contexts whose rows were built."""
    leaves, built = [], []
    leaf, rows = cwsolve.sigma_rho.srd_leaf, cwsolve.sigma_rho._leaf_rows

    def watched(ctx, *args, **kw):
        table = leaf(ctx, *args, **kw)
        leaves.append((ctx, args, kw, table))
        return table

    def counted(ctx, *context):
        built.append(context)
        return rows(ctx, *context)

    with monkeypatch.context() as patch:
        patch.setattr(cwsolve.sigma_rho, "srd_leaf", watched)
        patch.setattr(cwsolve.sigma_rho, "_leaf_rows", counted)
        solve()
    return leaves, built


def _contents(table):
    return [(key, cell.ground, list(cell.items())) for key, cell in table.items()]


@pytest.mark.parametrize("problem,optimum", [("cds", 1), ("steiner", 4)])
def test_leaf_rows_are_built_once_per_leaf_context(problem, optimum,
                                                    monkeypatch):
    expr = fixture("star", 1000)
    for use_reduce in (True, False):
        def solve():
            if problem == "steiner":
                res = solve_steiner(expr, ["v2", "v500", "v999"],
                                    with_witness=True, use_reduce=use_reduce)
            else:
                res = solve_connected_sigma_rho(
                    expr, preset_spec(problem), with_witness=True,
                    use_reduce=use_reduce)
            assert res.optimum == optimum

        leaves, built = _leaves(monkeypatch, solve)
        assert len(leaves) == 1000
        assert len(built) == len(set(built)) < 10
        # every leaf's table is the one its rows built afresh make
        for ctx, args, kw, table in leaves:
            ctx.leaf_rows.clear()
            assert _contents(table) == _contents(
                cwsolve.sigma_rho.srd_leaf(ctx, *args, **kw))
        # a terminal's leaf context differs from another's in the terminal
        # bit alone, and its rows differ
        terminal = [context for context in built if context[-1]]
        assert len(terminal) == (problem == "steiner")
        for *rest, _ in terminal:
            ctx = leaves[0][0]
            assert cwsolve.sigma_rho._leaf_rows(ctx, *rest, True) != \
                cwsolve.sigma_rho._leaf_rows(ctx, *rest, False)
