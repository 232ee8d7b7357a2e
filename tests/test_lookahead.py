"""The driver's one-step lookahead: a node whose parent is an add leaves out
the keys that add has no successor for (``dp.lookaheads``).

These tests hold the domination solvers' pruned path against the same path
with the lookahead switched off: every add's table, the optimum and the
witness are the same, and fewer states are built.
"""

import random

import pytest

import cwsolve.dp
import cwsolve.sigma_rho
from cwsolve import evaluate, naive_expression, parse_expression
from cwsolve.dp import capped_degrees, lookaheads
from cwsolve.sigma_rho import (MAX, MIN, DomContext, MuSet, NATURALS,
                               POSITIVES, SigmaRhoSpec, _add_pairs, preset_spec,
                               solve_connected_sigma_rho, solve_steiner,
                               srd_add, srd_leaf, srd_ren, srd_union)
from cwsolve.wpsets import InvariantError

from conftest import random_expression, random_graph

SPECS = {name: preset_spec(name)
         for name in ("cds", "ctds", "perfect-cds", "cvc", "d-regular:2")}
SPECS["custom-max"] = SigmaRhoSpec(MuSet(False, frozenset({0, 2})),
                                   MuSet(True, frozenset({0, 1})), MAX)
SPECS["co-custom"] = SigmaRhoSpec(POSITIVES, NATURALS, MIN, co=True)


@pytest.fixture(scope="module")
def instances():
    """Random expressions at k = 2..5, whose classes hold several vertices,
    and naive expressions."""
    rng = random.Random(2121)
    exprs = [random_expression(rng, rng.randint(3, 8), k)
             for k in range(2, 6) for _ in range(6)]
    exprs += [naive_expression(random_graph(rng.randint(3, 7), rng))
              for _ in range(8)]
    return exprs


def _solve(name, expr):
    if name == "steiner":
        names = sorted(evaluate(expr).weights)
        return solve_steiner(expr, {names[0], names[-1]}, with_witness=True)
    return solve_connected_sigma_rho(expr, SPECS[name], with_witness=True)


def _contents(table):
    return [(key, cell.ground, list(cell.items())) for key, cell in table.items()]


def _unplanned(verdict):
    """A transition's keywords minus the driver's key plan, which belongs to
    the call with the node's own context (lookahead included)."""
    return {key: value for key, value in verdict.items() if key != "plan"}


def _run(monkeypatch, name, expr, lookahead):
    """The result and each add node's whole table, made from the input the
    DP gave it without the add's own lookahead, in the order the DP made
    them, with the lookahead on or off."""
    tables = []

    def recorded(ctx, table, present, i, j, fut, *ahead, **verdict):
        whole = _contents(srd_add(ctx, table, present, i, j, fut,
                                  **_unplanned(verdict)))
        out = srd_add(ctx, table, present, i, j, fut, *ahead, **verdict)
        # the add's own lookahead only leaves keys out
        assert all(item in whole for item in _contents(out))
        tables.append(whole)
        return out

    def switched(expr, stats, prune, *transitions):
        if prune is not None:
            prune = prune._replace(lookahead=lookahead)
        return run(expr, stats, prune, *transitions)

    run = cwsolve.dp.run
    with monkeypatch.context() as patch:
        patch.setattr(cwsolve.sigma_rho, "srd_add", recorded)
        patch.setattr(cwsolve.dp, "run", switched)
        return _solve(name, expr), tables


@pytest.mark.parametrize("name", [*SPECS, "steiner"])
def test_every_add_table_is_the_one_without_the_lookahead(
        instances, name, monkeypatch):
    states = {True: 0, False: 0}
    for expr in instances:
        runs = {on: _run(monkeypatch, name, expr, on) for on in (True, False)}
        (res, tables), (ref, ref_tables) = runs[True], runs[False]
        assert tables == ref_tables
        assert (res.optimum, res.witness) == (ref.optimum, ref.witness)
        assert res.stats.total_states <= ref.stats.total_states
        for on, (r, _) in runs.items():
            states[on] += r.stats.total_states
    assert states[True] < states[False]


@pytest.mark.parametrize("name", [*SPECS, "steiner"])
def test_a_node_leaves_out_exactly_the_keys_its_add_has_no_successor_for(
        instances, name, monkeypatch):
    # each transition given a lookahead builds its table without it, minus
    # the keys whose slots i and j have no pair in the add's relation: the
    # same keys in the same order, with the same cells
    dropped = 0

    def checked(transition, arity):
        def run(ctx, *args, **verdict):
            out = transition(ctx, *args, **verdict)
            if len(args) > arity:
                nonlocal dropped
                i, j, present, fut = args[-1]
                rel = ctx.rel(_add_pairs, present >> i & 1, present >> j & 1,
                              fut[i - 1], fut[j - 1])
                whole = transition(ctx, *args[:arity], **_unplanned(verdict))
                kept = {key: cell for key, cell in whole.items()
                        if rel[key[i - 1]][key[j - 1]]}
                assert _contents(out) == _contents(kept)
                dropped += len(whole) - len(kept)
            return out
        return run

    for transition, arity in ((srd_leaf, 4), (srd_add, 5), (srd_ren, 5),
                              (srd_union, 5)):
        monkeypatch.setattr(cwsolve.sigma_rho, transition.__name__,
                            checked(transition, arity))
    for expr in instances:
        _solve(name, expr)
    assert dropped


def test_the_lookahead_is_withheld_where_the_child_retires_an_add_label():
    # class 2 is empty, so the add brings label 1 no neighbour: label 1 is
    # dead at the leaf, which retires it
    lonely = parse_expression("cwexpr k=2\n(add 1 2 (v a 1))")
    fut, dead = capped_degrees(lonely, 1)
    assert dead[0] == 0b10
    assert lookaheads(lonely.program, fut, dead) == [None, None]
    pair = parse_expression(
        "cwexpr k=2\n(add 1 2 (u (v a 1) (ren 1 2 (v b 1))))")
    fut, dead = capped_degrees(pair, 1)
    # positions: a, b at label 2 (its relabel folds into the leaf), u, add
    assert lookaheads(pair.program, fut, dead) == \
        [None, None, (1, 2, 0b110, fut[3]), None]


def test_the_reference_path_takes_no_lookahead():
    ctx = DomContext(preset_spec("cds"), 2)  # unpruned
    table = srd_leaf(ctx, 1, "a", 1)
    ahead = (1, 2, 0b110, None)
    for call in (lambda: srd_leaf(ctx, 1, "a", 1, None, ahead),
                 lambda: srd_add(ctx, table, 0b10, 1, 2, None, ahead),
                 lambda: srd_ren(ctx, table, 0b10, 1, 2, None, ahead),
                 lambda: srd_union(ctx, table, 0b10, table, 0b10, None, ahead)):
        with pytest.raises(InvariantError):
            call()
