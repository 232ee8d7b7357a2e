"""Retiring dead labels: one canonical state for every class with no future.

The driver rewrites a table over its node's labels of future degree 0
(``dp.Prune.retire``).  These tests hold both rules, ``fvs_retire`` and
``srd_retire``, against the unpruned reference path and against the same
pruned DP with retirement switched off, and check the canonical form itself.
"""

import json
import random

import pytest

import cwsolve.dp
import cwsolve.fvs
import cwsolve.sigma_rho
from cwsolve import (cli, evaluate, fixture, naive_expression,
                     parse_expression, serialize, solve_fvs)
from cwsolve.fvs import ABSENT, MANY_DONE, MANY_WAIT, ONE, fvs_retire
from cwsolve.oracle import check_solution
from cwsolve.partitions import Partition
from cwsolve.sigma_rho import (MAX, DomContext, MuSet, SigmaRhoSpec,
                               _future_ok, preset_spec,
                               solve_connected_sigma_rho, solve_steiner,
                               srd_retire)
from cwsolve.wpsets import WPSet

from conftest import random_expression, random_graph
from test_plans import _unmarked

PROBLEMS = ("fvs", "mif", "cds", "ctds", "perfect-cds", "cvc", "d-regular:2",
            "steiner")


def _terminals(expr):
    names = sorted(evaluate(expr).weights)
    return frozenset({names[0], names[-1]})


def _solve(name, expr, **kw):
    """(stats, optimum, witness) of problem ``name``, witness tracked."""
    if name in ("fvs", "mif"):
        res = solve_fvs(expr, with_witness=True, **kw)
        if name == "fvs":
            return res.stats, res.fvs_weight, res.witness
        return res.stats, res.forest_weight, res.forest_witness
    if name == "steiner":
        res = solve_steiner(expr, _terminals(expr), with_witness=True, **kw)
    else:
        res = solve_connected_sigma_rho(expr, preset_spec(name),
                                        with_witness=True, **kw)
    return res.stats, res.optimum, res.witness


def _certify(name, expr, graph, optimum, witness):
    if witness is None:  # infeasible
        return
    problem = name if name in ("fvs", "mif", "steiner") else preset_spec(name)
    terminals = _terminals(expr) if name == "steiner" else ()
    assert check_solution(graph, problem, witness, optimum, terminals) is None


@pytest.fixture(scope="module")
def instances():
    """Union-heavy random expressions at k = 2..6 and naive expressions."""
    rng = random.Random(1111)
    exprs = [random_expression(rng, rng.randint(3, 8), k)
             for k in range(2, 7) for _ in range(5)]
    exprs += [naive_expression(random_graph(rng.randint(2, 7), rng))
              for _ in range(8)]
    return [(expr, evaluate(expr)) for expr in exprs]


def _without_retirement(run):
    """``dp.run`` with the solver's prune minus its retirement rule, which
    makes no table with ``dp.build``, so no position is marked for a key
    plan."""
    def run_unretired(expr, stats, prune, *transitions):
        if prune is not None:
            prune = prune._replace(retire=lambda table, dead, plan=None: table)
        with pytest.MonkeyPatch.context() as patch:
            _unmarked(patch)
            return run(expr, stats, prune, *transitions)
    return run_unretired


@pytest.mark.parametrize("name", PROBLEMS)
def test_retired_solves_match_the_reference_path(instances, name):
    for expr, graph in instances:
        _, optimum, witness = _solve(name, expr)
        assert optimum == _solve(name, expr, use_reduce=False)[1]
        _certify(name, expr, graph, optimum, witness)


@pytest.mark.parametrize("name", PROBLEMS)
def test_retirement_keeps_the_optimum_and_shrinks_the_tables(
        instances, name, monkeypatch):
    retired = [_solve(name, expr) for expr, _ in instances]
    monkeypatch.setattr(cwsolve.dp, "run", _without_retirement(cwsolve.dp.run))
    for (expr, graph), (stats, optimum, _) in zip(instances, retired):
        ref_stats, ref_optimum, ref_witness = _solve(name, expr)
        assert optimum == ref_optimum
        _certify(name, expr, graph, ref_optimum, ref_witness)
        assert stats.total_states <= ref_stats.total_states
        assert stats.live_width == ref_stats.live_width
    assert sum(stats.total_states for stats, _, _ in retired) < \
        sum(_solve(name, expr)[0].total_states for expr, _ in instances)


def _recording(retire, calls):
    def recorded(*args, **plan):
        out = retire(*args, **plan)
        calls.append((args, out))
        return out
    return recorded


def _entries(table):
    return {key: dict(cell) for key, cell in table.items()}


def _labels(dead, k):
    return [l for l in range(k) if dead >> l + 1 & 1]


def test_fvs_retire_is_idempotent_and_leaves_dead_labels_absent(
        instances, monkeypatch):
    calls = []
    monkeypatch.setattr(cwsolve.fvs, "fvs_retire",
                        _recording(fvs_retire, calls))
    for expr, _ in instances:
        solve_fvs(expr, with_witness=True)
    assert calls
    assert sum(len(table) for (table, _), _ in calls) > \
        sum(len(out) for _, out in calls)  # retirement merged states
    for (table, dead), out in calls:
        assert _entries(fvs_retire(out, dead)) == _entries(out)
        for state in out:
            assert all(state[l] == ABSENT for l in _labels(dead, len(state)))


def _dead_inputs(name, args):
    """An FVS transition's input tables, and labels dead in all of them."""
    fut = args[-1]
    if name == "fvs_union":  # the children share the union's future
        return (args[0], args[2]), [l for l, x in enumerate(fut) if not x]
    i, j = args[2] - 1, args[3] - 1
    if name == "fvs_ren":  # the child's class i becomes part of class j
        below = list(fut)
        below[i] = fut[j]
        return (args[0],), [l for l, x in enumerate(below) if not x]
    # an add gives classes i and j their new neighbours
    return (args[0],), [l for l, x in enumerate(fut)
                        if not x and l not in (i, j)]


def test_fvs_transitions_see_dead_labels_only_absent(instances, monkeypatch):
    # retirement is the one rule for dead labels: every state a transition
    # reads is ABSENT at each label dead in its input (for an add, each but
    # the add's two), and so is every state at the root, where every label
    # is dead; so no table the driver keeps holds MANY_WAIT at a dead label
    read = dict.fromkeys(("fvs_union", "fvs_ren", "fvs_add"), 0)

    def checked(name):
        transition = getattr(cwsolve.fvs, name)

        def run(*args, **kwargs):
            tables, labels = _dead_inputs(name, args)
            for table in tables:
                for state in table:
                    assert all(state[l] == ABSENT for l in labels), \
                        (name, state, labels)
                    read[name] += len(labels)
            return transition(*args, **kwargs)
        return run

    def rooted(run):
        def run_checked(*args):
            table = run(*args)
            # every label is dead at the root
            assert all(state == (ABSENT,) * len(state) for state in table)
            return table
        return run_checked

    for name in read:
        monkeypatch.setattr(cwsolve.fvs, name, checked(name))
    monkeypatch.setattr(cwsolve.dp, "run", rooted(cwsolve.dp.run))
    for expr, _ in instances:
        solve_fvs(expr, with_witness=True)
    assert all(read.values()), read  # each transition read dead labels


@pytest.mark.parametrize("name", ["cds", "cvc", "steiner"])
def test_srd_retire_is_idempotent_and_keeps_at_most_one_marker(
        instances, name, monkeypatch):
    calls = []
    monkeypatch.setattr(cwsolve.sigma_rho, "srd_retire",
                        _recording(srd_retire, calls))
    for expr, _ in instances:
        _solve(name, expr)
    markers = 0
    for (ctx, table, dead), out in calls:
        assert _entries(srd_retire(ctx, out, dead)) == _entries(out)
        labels = _labels(dead, ctx.k)
        live = [l for l in range(ctx.k) if l not in labels]
        for key in out:
            codes = [key[l] for l in labels if key[l]]
            assert codes in ([], [ctx.marker])
            if codes:
                markers += 1
                assert key[labels[0]] == ctx.marker
                assert not any(ctx.has_x[key[l]] for l in live)
    assert markers > 0


class TestFvsRetire:
    def test_one_loses_its_element_and_many_done_becomes_absent(self):
        # label 1 dead, label 2 live: element 2 is label 1's, element 4
        # label 2's, element 1 the anchor
        lone = WPSet.from_pairs([(Partition([0b111]), 5, "a"),
                                 (Partition([0b11, 0b100]), 6, "b"),
                                 (Partition([0b10, 0b101]), 9, "c")], 0b111)
        done = WPSet.from_pairs([(Partition([0b101]), 7, "d"),
                                 (Partition([0b1, 0b100]), 2, "e")], 0b101)
        out = fvs_retire({(ONE, ONE): lone, (MANY_DONE, ONE): done}, 0b10)
        assert list(out) == [(ABSENT, ONE)]
        # the entry whose element 2 was a block alone vanished; the rest
        # merged, keeping the better weight per partition
        assert out[ABSENT, ONE] == {(0b101,): (7, "d"),
                                    (0b1, 0b100): (6, "b")}

    def test_a_state_waiting_at_a_dead_label_is_dropped(self):
        cell = WPSet.from_pairs([(Partition([0b11]), 1)], 0b11)
        assert fvs_retire({(MANY_WAIT, ABSENT): cell}, 0b10) == {}


class TestSrdRetire:
    def test_finished_x_becomes_one_marker_at_the_lowest_dead_label(self):
        ctx = DomContext(preset_spec("d-regular:2"), 3)  # d = 3
        one_s, two_s = ctx.code[1, 0, 1, 0], ctx.code[2, 0, 1, 0]
        cell = WPSet.from_pairs([((), 3, "a")], 0)
        other = WPSet.from_pairs([((), 2, "b")], 0)
        out = srd_retire(ctx, {(0, one_s, two_s): cell,
                               (0, 0, one_s): other}, 0b1100)
        # labels 2 and 3 are dead: both keys keep only "X exists", at 2
        assert list(out) == [(0, ctx.marker, 0)]
        assert out[0, ctx.marker, 0] == {(): (3, "a")}

    def test_live_x_needs_no_marker_and_promises_drop_the_key(self):
        ctx = DomContext(preset_spec("cds"), 2)
        open_x = ctx.code[1, 1, 1, 1]  # still owes an S- and an X-neighbour
        cell = WPSet.from_pairs([((0b10,), -1)], 0b10)  # cds minimises
        # label 2 is dead: its finished X needs no marker beside label 1's
        # X, and its open X is a promise no add will meet
        out = srd_retire(ctx, {(open_x, ctx.code[1, 0, 1, 0]): cell,
                               (open_x, open_x): cell}, 0b100)
        assert list(out) == [(open_x, 0)]

    @pytest.mark.parametrize("name, marker", [("cds", (1, 0, 1, 0)),
                                              ("cvc", (0, 0, 1, 0))])
    def test_the_marker_is_the_smallest_final_x_code(self, name, marker):
        ctx = DomContext(preset_spec(name), 1)
        assert ctx.slots[ctx.marker] == marker


def test_a_relabel_of_an_empty_class_carries_the_marker():
    # a's finished X class leaves the marker at label 1, dead and empty below
    # the outer relabel 1 -> 2 but live above it.  The relabel must carry
    # the marker into label 2; left at label 1 it would be a phantom S
    # vertex there, and the add 1 3 would reject y's promise of no
    # S-neighbour, losing the optimum X = {a}.
    expr = parse_expression("cwexpr k=3\n(add 1 3 (u (ren 1 2 (ren 1 2 (v a 9)))"
                            " (ren 1 3 (v y 5))))")
    spec = SigmaRhoSpec(MuSet(False, frozenset({0, 2})),
                        MuSet(False, frozenset({0, 1})), MAX)
    for use_reduce in (True, False):
        res = solve_connected_sigma_rho(expr, spec, with_witness=True,
                                        use_reduce=use_reduce)
        assert (res.optimum, res.witness) == (9, ("a",))


def test_co_x_promise_needs_a_future_neighbour_under_rho_naturals():
    cvc = DomContext(preset_spec("cvc"), 1)
    assert not _future_ok(cvc, (0, 0, 1, 1), 0)
    assert _future_ok(cvc, (0, 0, 1, 1), 1)
    assert _future_ok(cvc, (0, 0, 1, 0), 0)


def test_cvc_builds_no_open_class_without_a_future_neighbour(instances,
                                                             monkeypatch):
    # every transition's table, before retirement, already lacks an open
    # slot (b = q = 1) at a label of future degree 0
    seen = []

    def checked(transition):
        def run(ctx, *args, **verdict):
            table = transition(ctx, *args, **verdict)
            fut = args[-1]
            if fut is not None:
                for key in table:
                    assert not any(ctx.open[code] and not degree
                                   for code, degree in zip(key, fut))
                seen.append(len(table))
            return table
        return run

    for name in ("srd_leaf", "srd_add", "srd_ren", "srd_union"):
        monkeypatch.setattr(cwsolve.sigma_rho, name,
                            checked(getattr(cwsolve.sigma_rho, name)))
    spec = preset_spec("cvc")
    for expr, _ in instances:
        got = solve_connected_sigma_rho(expr, spec)
        ref = solve_connected_sigma_rho(expr, spec, use_reduce=False)
        assert got.optimum == ref.optimum
        assert got.stats.total_states < ref.stats.total_states
    assert sum(seen)


class TestLiveWidth:
    def test_check_expr_predicts_the_pruned_fvs_live_width(
            self, instances, tmp_path, capsys):
        path = tmp_path / "expr.cw"
        for expr, _ in instances:
            path.write_text(serialize(expr))
            assert cli.run(["check-expr", "--json", "--expr", str(path)]) == 0
            width = json.loads(capsys.readouterr().out)["live_width"]
            assert width == solve_fvs(expr).stats.live_width


    def test_naive_expressions_stay_below_k(self):
        rng = random.Random(77)
        for _ in range(10):
            expr = naive_expression(random_graph(rng.randint(3, 8), rng))
            for res in (solve_fvs(expr),
                        solve_connected_sigma_rho(expr, preset_spec("cds"))):
                assert res.stats.live_width < expr.k

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_path_keeps_its_endpoint_and_the_incoming_vertex_live(self, n):
        expr = fixture("path", n)
        live = 0 if n == 1 else 2
        everything = min(n, 3)
        for solve in (solve_fvs,
                      lambda e, **kw: solve_connected_sigma_rho(
                          e, preset_spec("cds"), **kw)):
            assert solve(expr).stats.live_width == live
            assert solve(expr, use_reduce=False).stats.live_width == everything
