"""Key plans: at a node whose context and input shape ids repeat, the driver
replays the cell steps the transition recorded at the first such node
(``dp.run``, ``dp.build``): by ``dp.build`` at the plan's first replay,
which compiles its entry program, and by that program at every later one
(``dp.replay``)."""

import dataclasses
import gc
import random
import weakref
from collections import deque

import pytest

import cwsolve.dp
import cwsolve.fvs
import cwsolve.sigma_rho
from cwsolve import cli, fixture, naive_expression
from cwsolve.cwexpr import FIXTURE_KINDS, evaluate, future_degrees, serialize
from cwsolve.dp import (Plan, SolveStats, build, capped_degrees, compose,
                        flat, fuse, replay, run, unflatten)
from cwsolve.fvs import fvs_add, fvs_leaf, fvs_ren, fvs_union, solve_fvs
from cwsolve.oracle import brute_min_fvs, brute_sigma_rho
from cwsolve.partitions import iter_partitions
from cwsolve.sigma_rho import (COMPLETE, DomContext, _complete, preset_spec,
                               solve_connected_sigma_rho, solve_steiner,
                               srd_add, srd_leaf)
from cwsolve.wpsets import (InvariantError, WPSet, acjoin, combine_witness,
                            join_sets, link, proj)

from conftest import expression, grid, random_expression, random_graph

TRANSITIONS = {
    cwsolve.fvs: ("fvs_leaf", "fvs_add", "fvs_ren", "fvs_union", "fvs_retire"),
    cwsolve.sigma_rho: ("srd_leaf", "srd_add", "srd_ren", "srd_union",
                        "srd_retire"),
}


def _contents(table):
    """A table's keys in order, with each cell's ground set and entries
    (weights and witnesses) in order."""
    return [(key, cell.ground, list(cell.items())) for key, cell in table.items()]


def _unmarked(monkeypatch):
    """No position is marked: every transition runs without a plan."""
    monkeypatch.setattr(cwsolve.dp, "repeated_contexts",
                        lambda program, *args: [None] * len(program.op))


def _unfused(monkeypatch):
    """No vertex step is fused: the driver runs every position, so that a
    test can see the table each one makes."""
    monkeypatch.setattr(cwsolve.dp, "vertex_steps",
                        lambda program, marks: [None] * len(program.op))


def _replays(monkeypatch, seen):
    """Have ``seen(plan, table)`` see each table the driver replays from a
    key plan, by its entry program or by ``dp.build``: the calls of
    ``dp.replay``."""
    replay = cwsolve.dp.replay

    def watched(plan, *args):
        out = replay(plan, *args)
        seen(plan, out)
        return out
    monkeypatch.setattr(cwsolve.dp, "replay", watched)


def _recorded(monkeypatch, solve, marked):
    """The result of ``solve()`` and every table its transitions and
    retirements built or the driver replayed, in the order they were
    built."""
    tables = []

    def recording(fn):
        def call(*args, **kw):
            out = fn(*args, **kw)
            tables.append(_contents(out))
            return out
        return call

    with monkeypatch.context() as patch:
        for module, names in TRANSITIONS.items():
            for name in names:
                patch.setattr(module, name, recording(getattr(module, name)))
        _replays(patch, lambda plan, out: tables.append(_contents(out)))
        if not marked:
            _unmarked(patch)
        return solve(), tables


def _stats(stats):
    """The stats a replay must leave as they were: all but the elapsed time
    and the plan counts."""
    out = stats.as_dict()
    del out["elapsed_ms"]
    return out, stats.node_kinds


def _solver(name, expr, use_reduce):
    if name == "fvs":
        return lambda: solve_fvs(expr, with_witness=True, use_reduce=use_reduce)
    if name == "steiner":
        names = sorted(evaluate(expr).weights)
        return lambda: solve_steiner(expr, {names[0], names[len(names) // 2],
                                            names[-1]}, with_witness=True,
                                     use_reduce=use_reduce)
    return lambda: solve_connected_sigma_rho(expr, preset_spec(name),
                                             with_witness=True,
                                             use_reduce=use_reduce)


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(2525)
    return ([fixture(kind, 40, seed=1) for kind in FIXTURE_KINDS]
            + [random_expression(rng, rng.randint(8, 14), k)
               for k in (2, 3, 4) for _ in range(3)])


@pytest.mark.parametrize("use_reduce", [True, False], ids=["pruned", "reference"])
@pytest.mark.parametrize("name", ["fvs", "cds", "cvc", "steiner", "perfect-cds"])
def test_a_replay_builds_the_table_its_transition_would(
        instances, name, use_reduce, monkeypatch):
    _unfused(monkeypatch)
    replayed = 0
    for expr in instances:
        solve = _solver(name, expr, use_reduce)
        res, tables = _recorded(monkeypatch, solve, marked=True)
        ref, ref_tables = _recorded(monkeypatch, solve, marked=False)
        assert tables == ref_tables
        assert _stats(res.stats) == _stats(ref.stats)
        assert (ref.stats.plans_recorded, ref.stats.plans_replayed) == (0, 0)
        replayed += res.stats.plans_replayed
    assert replayed > 0


def _shape_replays(patch, seen):
    """Have ``seen(held, actual)`` see each replay that runs its plan's
    entry program, one the plan held before the call (shapes numbered as
    the driver numbers them, as it names every shape through ``dp.shape``):
    what the driver holds, the ids of the input shapes the program was
    compiled for, under which the driver found the plan, and the plan's
    output id and largest cell, against the ids of the actual input and
    output tables' shapes and the output's largest cell."""
    shape, replay = cwsolve.dp.shape, cwsolve.dp.replay
    ids, compiled = {}, {}  # a shape -> its id; a plan -> its input shapes

    def named(table):
        got = shape(table)
        ids.setdefault(got, len(ids))
        return got

    def watched(plan, stats, table, table_b=None):
        ran = plan.program is not None
        out = replay(plan, stats, table, table_b)
        inputs = [shape(t) for t in (table, table_b) if t is not None]
        if not ran:
            compiled[plan] = inputs
        else:
            seen(([ids[got] for got in compiled[plan]], plan.made,
                  plan.biggest),
                 ([ids.get(got) for got in inputs], ids.get(shape(out)),
                  max(map(len, out.values()), default=0)))
        return out
    patch.setattr(cwsolve.dp, "shape", named)
    patch.setattr(cwsolve.dp, "replay", watched)


@pytest.mark.parametrize("use_reduce", [True, False], ids=["pruned", "reference"])
@pytest.mark.parametrize("name", ["fvs", "cds", "cvc", "steiner", "perfect-cds"])
def test_a_shape_id_is_the_id_of_the_table_it_is_held_for(
        instances, name, use_reduce, monkeypatch):
    # a replay by an entry program runs it unchecked
    _unfused(monkeypatch)
    found = 0
    for expr in instances:
        exact = []
        with monkeypatch.context() as patch:
            _shape_replays(patch, lambda held, actual: exact.append(
                held == actual))
            res = _solver(name, expr, use_reduce)()
        assert all(exact) and len(exact) == res.stats.entry_replays
        found += len(exact)
    assert found > 0


@pytest.mark.parametrize("kind", ["clique", "path", "cycle", "star"])
def test_shape_ids_carry_a_chain_past_its_first_replays(kind):
    # Along these chains the contexts and shapes repeat, so every replay
    # finds its program by the shape ids the driver holds, apart from a few
    # near the start: a chain twice as long makes no more replays by
    # dp.build.  An id lost or wrong on the way up builds again at the next
    # replay, once per node.  (The reference path of fvs on a cycle runs no
    # program: its cells grow along the chain.)
    for name in ("fvs", "cds", "cvc", "steiner", "perfect-cds"):
        for use_reduce in (True, False):
            short, long = (_solver(name, fixture(kind, n, seed=1),
                                   use_reduce)().stats for n in (40, 80))
            if long.entry_replays:
                assert long.entry_replays > short.entry_replays
                assert (long.plans_replayed - long.entry_replays
                        == short.plans_replayed - short.entry_replays)


# Two copies of one subexpression: every node of the second has the context
# of its twin in the first, so the reference path replays the first's plans.
TWINS = expression(3, "(u (ren 2 3 (ren 1 3 (add 1 2 (u (v a) (ren 1 2 (v b))))))"
                      "   (ren 2 3 (ren 1 3 (add 1 2 (u (v x) (ren 1 2 (v y)))))))")


def _anchored_leaf(label, name, weight, fut, **kw):
    """``fvs_leaf``, except that x and y keep only the entry hanging off
    the anchor: the twins' tables then hold the same keys, yet the second
    add's acyclic link drops every entry of the (ONE, ONE) cell, as the
    anchor already joins x and y."""
    table = fvs_leaf(3, True, label, name, weight, fut)
    if name in ("x", "y"):
        for key, cell in table.items():
            table[key] = WPSet.from_pairs(
                [(p, *entry) for p, entry in cell.items() if len(p) == 1],
                cell.ground)
    return table


def _twin_runs(leaf):
    """``TWINS`` on the reference path with ``leaf``, with plans and then
    without: per run, its tables in the order they were built, its root's
    and its stats; and the marked run's log of its non-leaf tables, each
    ``(transition, replayed, planned)``: a replayed one under the
    transition that recorded its plan, and a live one with whether it was
    given a plan to record.  A replay must make the keys its plan's call
    made."""
    runs, logs = [], []
    for marked in (True, False):
        tables, log = [], []
        names, keys = {}, {}  # id of a plan -> its transition, the keys made

        def watched(fn):
            def call(*args, plan=None, **kw):
                out = fn(*args, plan=plan, **kw)
                if plan is not None:
                    names[id(plan)], keys[id(plan)] = fn.__name__, tuple(out)
                log.append((fn.__name__, False, plan is not None))
                tables.append(_contents(out))
                return out
            return call

        def replayed(plan, out):
            assert tuple(out) == keys[id(plan)]
            log.append((names[id(plan)], True, True))
            tables.append(_contents(out))

        stats = SolveStats()
        with pytest.MonkeyPatch.context() as patch:
            _replays(patch, replayed)
            if not marked:
                _unmarked(patch)
            root = run(TWINS, stats, None, leaf, watched(fvs_ren),
                       watched(fvs_add), watched(fvs_union))
        runs.append((tables, _contents(root), _stats(stats)))
        logs.append(log)
    return runs, logs[0]


def test_twins_on_other_partitions_share_no_plan():
    # The anchored leaves hold the keys of the first twin's leaves on other
    # partitions, so each node of the second twin reads shape ids no plan
    # was recorded for: every one is called live with a plan of its own,
    # and none replays one of the first twin's (whose add would drop every
    # entry of the (ONE, ONE) cell on these cells).  The union of the twins
    # is the one context that does not repeat.
    runs, log = _twin_runs(_anchored_leaf)
    twin = [(name, False, True)
            for name in ("fvs_union", "fvs_add", "fvs_ren", "fvs_ren")]
    assert log == twin * 2 + [("fvs_union", False, False)]
    assert runs[0] == runs[1]


def _reversed_leaf(label, name, weight, fut, **kw):
    """``fvs_leaf``, except that x and y list the same keys in reverse
    order."""
    table = fvs_leaf(3, True, label, name, weight, fut)
    return dict(reversed(table.items())) if name in ("x", "y") else table


def test_a_plan_is_keyed_by_the_order_of_its_input_keys():
    runs, log = _twin_runs(_reversed_leaf)
    # the second twin's union reads the first's keys in another order, and
    # its plan's steps name cells by position: it must not replay
    assert [(name, replay) for name, replay, _ in log
            if name == "fvs_union"] == [("fvs_union", False)] * 3
    assert runs[0] == runs[1]


def test_the_transitions_get_a_plan_only_where_the_context_repeats():
    expr = fixture("path", 12)
    got = []

    def transition(args, *inputs):  # empty tables: one plan per context
        def call(*_, plan=None, **kw):
            got.append(plan is not None)
            return build(plan, [], args, *inputs)
        return call

    unary = transition((0, 0, False, None), {})
    run(expr, SolveStats(), None, unary, unary, unary,
        transition((None,), {}, {}))
    fut, dead = capped_degrees(expr, None)
    marks = cwsolve.dp.repeated_contexts(expr.program, fut, [None] * len(fut), ())
    # a call without a plan where no context repeats, one with a plan at the
    # first position of each repeated context (its mark), none at the others
    assert got == [mark is not None for p, mark in enumerate(marks)
                   if mark in (None, p)]
    assert any(got) and not all(got)
    assert len(got) < len(marks)


def test_a_call_given_a_plan_must_build_its_table_with_dp_build():
    expr = fixture("path", 12)

    def transition(*args, plan=None, **kw):  # ignores its plan
        return {}

    with pytest.raises(InvariantError, match="dp.build"):
        run(expr, SolveStats(), None, *[transition] * 4)


def test_naive_expressions_record_no_plan():
    # k = n: every add joins labels of its own, so no context repeats
    rng = random.Random(31)
    for _ in range(5):
        expr = naive_expression(random_graph(rng.randint(5, 8), rng))
        for res in (solve_fvs(expr), solve_connected_sigma_rho(
                expr, preset_spec("cds"))):
            assert (res.stats.plans_recorded, res.stats.plans_replayed) == (0, 0)


def test_the_plans_are_freed_when_the_run_returns(monkeypatch):
    plans, cells, pairs = [], [], []

    class Spy(Plan):  # without slots, so a weak reference can watch it
        def __init__(self):
            super().__init__()
            plans.append(weakref.ref(self))

    class Cell(WPSet):
        def __init__(self, ground):
            super().__init__(ground)
            cells.append(weakref.ref(self))

    class Pair(list):  # a witness pair a weak reference can watch
        pass

    def combine(a, b):
        got = combine_witness(a, b)
        if type(got) is tuple and got:
            got = Pair(got)
            pairs.append(weakref.ref(got))
        return got

    monkeypatch.setattr(cwsolve.dp, "Plan", Spy)
    for module in (cwsolve.dp, cwsolve.fvs, cwsolve.wpsets):
        monkeypatch.setattr(module, "WPSet", Cell)
    for module in (cwsolve.dp, cwsolve.wpsets):
        monkeypatch.setattr(module, "combine_witness", combine)
    enabled = gc.isenabled()
    gc.disable()  # what frees them must be their reference counts
    try:
        res = solve_fvs(fixture("path", 20), with_witness=True)
        assert len(plans) == res.stats.plans_recorded > 0
        assert res.stats.entry_replays > 0 and res.forest_witness
        # nor does any cell or witness pair the run made, entry programs
        # included
        assert len(cells) > len(plans) and len(pairs) > len(plans)
        assert all(ref() is None for ref in plans + cells + pairs)
    finally:
        if enabled:
            gc.enable()


def test_a_domination_context_is_freed_when_the_solve_returns(monkeypatch):
    contexts = []

    class Spy(DomContext):
        def __post_init__(self):
            super().__post_init__()
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(cwsolve.sigma_rho, "DomContext", Spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            solve_connected_sigma_rho(fixture("path", 30), preset_spec("cds"),
                                      with_witness=True)
            assert contexts[-1]() is None
    finally:
        if enabled:
            gc.enable()


def test_the_reference_path_refuses_a_lookahead_or_verdict():
    ctx = DomContext(preset_spec("cds"), 2)  # unpruned
    table = srd_leaf(ctx, 1, "a", 1)
    for call in (lambda: srd_add(ctx, table, 0b10, 1, 2, None,
                                 (1, 2, 0b110, None)),
                 lambda: srd_add(ctx, table, 0b10, 1, 2, doomed=True)):
        with pytest.raises(InvariantError):
            call()


def _reordered_leaf(k, with_witness, label, name, weight, fut=None):
    """``fvs_leaf``, except that every other vertex from v5 on lists the
    two partitions of its two-entry cell the other way round, the first
    one heavier."""
    table = fvs_leaf(k, with_witness, label, name, weight, fut)
    if int(name[1:]) >= 5 and int(name[1:]) % 2:
        for key, cell in table.items():
            if len(cell) == 2:
                (p, (w, wit)), (q, _) = cell.items()
                table[key] = WPSet.from_pairs([(q, w + 1, wit), (p, w, wit)],
                                              cell.ground)
    return table


def test_a_node_on_other_partitions_records_a_new_plan(monkeypatch):
    # The union that takes in a reordered vertex reads the keys of a plan
    # recorded for the other order, on other partitions: it must record a
    # plan of its own, live, and no replay may run a program compiled for
    # other input ids.
    reordered, fresh = set(), []

    def leaf(*args):
        table = _reordered_leaf(*args)
        if table != fvs_leaf(*args):
            reordered.add(id(table))
        return table

    def union(table_a, pres_a, table_b, *args, plan=None, **kw):
        fresh.append(plan is not None and id(table_b) in reordered)
        return fvs_union(table_a, pres_a, table_b, *args, plan=plan, **kw)
    monkeypatch.setattr(cwsolve.fvs, "fvs_leaf", leaf)
    monkeypatch.setattr(cwsolve.fvs, "fvs_union", union)
    exact = []
    _unfused(monkeypatch)  # each program run is a replay the test sees
    _shape_replays(monkeypatch, lambda held, actual: exact.append(
        held == actual))
    solve = _solver("fvs", fixture("path", 24), use_reduce=True)  # pruned
    res, tables = _recorded(monkeypatch, solve, marked=True)
    ref, ref_tables = _recorded(monkeypatch, solve, marked=False)
    assert any(fresh) and exact and all(exact)
    assert len(exact) == res.stats.entry_replays > 0
    assert tables == ref_tables
    assert _stats(res.stats) == _stats(ref.stats)


def _varied_leaf(k, with_witness, label, name, weight, fut=None):
    """``fvs_leaf``, except that its two-entry cell holds, by the vertex's
    number mod 4, its first partition, its second, both, or both the other
    way round: the keys stay, the partitions change from vertex to
    vertex."""
    table = fvs_leaf(k, with_witness, label, name, weight, fut)
    for key, cell in table.items():
        if len(cell) == 2:
            items = [(part, *entry) for part, entry in cell.items()]
            table[key] = WPSet.from_pairs(
                (items[:1], items[1:], items, items[::-1])[int(name[1:]) % 4],
                cell.ground)
    return table


@pytest.mark.parametrize("use_reduce", [True, False], ids=["pruned", "reference"])
@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_a_plan_whose_partitions_change_at_every_repeat_compiles_nothing(
        kind, use_reduce, monkeypatch):
    # On five vertices, v2..v5 each hold other partitions, so no marked
    # node ever reads the input shapes of an earlier one: each records a
    # plan, live, and no entry program is compiled, as none would run.
    # Keyed by its input's keys, a plan would replay by dp.build and
    # compile for partitions that never come back.
    monkeypatch.setattr(cwsolve.fvs, "fvs_leaf", _varied_leaf)
    compile_entries, compiles = cwsolve.dp.compile_entries, []

    def counted(*args):
        compiles.append(args)
        return compile_entries(*args)
    monkeypatch.setattr(cwsolve.dp, "compile_entries", counted)
    solve = _solver("fvs", fixture(kind, 5), use_reduce)
    res, tables = _recorded(monkeypatch, solve, marked=True)
    ref, ref_tables = _recorded(monkeypatch, solve, marked=False)
    assert res.stats.plans_recorded > 0 and not compiles
    assert tables == ref_tables
    assert _stats(res.stats) == _stats(ref.stats)


@pytest.mark.parametrize("use_reduce", [True, False], ids=["pruned", "reference"])
@pytest.mark.parametrize("name", ["fvs", "cds"])
@pytest.mark.parametrize("w", [3, 4, 5])
def test_a_grid_replays_the_tables_its_transitions_would(
        w, name, use_reduce, monkeypatch):
    # A grid's columns repeat their contexts, on partitions that settle
    # only column by column, and for cds at w >= 4 not at these lengths:
    # its plans are recorded and never replayed.  Node by node, the marked
    # run makes the unmarked run's tables; fused, its answer and stats; and
    # on at most 8 vertices its optimum is the oracle's.  (The reference
    # path of cds at w = 5 runs 3 columns: 4 take about a second a solve.)
    recorded = replayed = 0
    long = 8 if w < 5 else 3 if name == "cds" and not use_reduce else 6
    for length in (2, long):
        expr = grid(w, length)
        graph = evaluate(expr)
        assert len(graph.edges) == w * (length - 1) + (w - 1) * length
        solve = _solver(name, expr, use_reduce)
        ref, ref_tables = _recorded(monkeypatch, solve, marked=False)
        res = solve()
        assert _answer(res) == _answer(ref)
        assert _stats(res.stats) == _stats(ref.stats)
        with monkeypatch.context() as patch:
            _unfused(patch)
            unfused, tables = _recorded(patch, solve, marked=True)
        assert tables == ref_tables
        assert _stats(unfused.stats) == _stats(ref.stats)
        recorded += res.stats.plans_recorded
        replayed += res.stats.plans_replayed
        if len(graph.weights) <= 8:
            assert (res.fvs_weight == brute_min_fvs(graph)[0] if name == "fvs"
                    else res.optimum == brute_sigma_rho(
                        graph, preset_spec(name))[0])
    assert recorded > 0 and (replayed > 0 or name == "cds" and w >= 4)


def _first_heaviest(cell):
    """A reducer to one entry: ``cell``'s heaviest, the first on a tie."""
    part, (weight, wit) = max(cell.items(), key=lambda item: item[1][0])
    return WPSet.from_pairs([(part, weight, wit)], cell.ground)


def test_a_reduced_table_is_named_by_its_own_shape(monkeypatch):
    # Under a bound of two entries the driver reduces cells at replayed
    # positions, found by shape id or not, after the replay gave the table
    # the program's output id; the reduced table must be named by its own
    # shape, so each replay found by shape id above it still reads the
    # shapes its program was compiled for, and every table is the unmarked
    # run's.  Unfused, every program run is a replay the test sees.
    _unfused(monkeypatch)
    run, replayed, reduced = cwsolve.dp.run, [], []

    def seen(plan, out):  # the last replayed table's cells
        replayed[:] = out.values()

    def reducer(cell):  # whether it reduces a cell a replay made
        reduced.append(any(cell is got for got in replayed))
        return _first_heaviest(cell)

    def small(expr, stats, prune, *transitions):
        return run(expr, stats, prune._replace(bound=2, reducer=reducer),
                   *transitions)
    monkeypatch.setattr(cwsolve.dp, "run", small)
    exact = []
    _shape_replays(monkeypatch, lambda held, actual: exact.append(
        held == actual))
    _replays(monkeypatch, seen)
    solve = _solver("fvs", fixture("path", 24), use_reduce=True)  # pruned
    res, tables = _recorded(monkeypatch, solve, marked=True)
    assert any(reduced) and exact and all(exact)
    assert len(exact) == res.stats.entry_replays
    ref, ref_tables = _recorded(monkeypatch, solve, marked=False)
    assert tables == ref_tables
    assert _stats(res.stats) == _stats(ref.stats)
    assert res.stats.reduce_calls > 0


def test_an_entry_program_keeps_the_witness_build_keeps_on_a_tie():
    # a link dropping both labels: p and q both reach {a}{b} at weight 5,
    # and q wins, as its joined partition {a, i, j}{b} first came from r,
    # before p's {a}{b, i, j} (a = 3, b = 4, i = 1, j = 2)
    cell = WPSet.from_pairs([((4, 10, 16), 1, "r"), ((4, 8, 18), 5, "p"),
                             ((2, 12, 16), 5, "q")], 0b11110)
    # a union whose two steps join into one partition at equal sums: the
    # first step wins, though it reads the second input cell
    a0 = WPSet.from_pairs([((2, 4), 3, "a0")], 0b110)
    a1 = WPSet.from_pairs([((6,), 3, "a1")], 0b110)
    b = WPSet.from_pairs([((14,), 0, "b")], 0b1110)
    cases = [([("c", "k", 0b110)], (1, 2, True, proj), ({"c": cell}, None),
              (8, 16), (5, "q")),
             ([(1, 0, "k", 0, 0), (0, 0, "k", 0, 0)], (join_sets,),
              ({"a0": a0, "a1": a1}, {"b": b}), (14,), (3, ("a1", "b")))]
    for steps, args, tables, part, entry in cases:
        plan, stats = Plan(), SolveStats()
        want = build(plan, steps, args, *tables)
        assert want["k"][part] == entry
        # the first replay builds and compiles the entry program, and the
        # later ones run it
        for _ in range(3):
            assert _contents(replay(plan, stats, *tables)) == _contents(want)
        assert stats.entry_replays == 2


def test_a_fused_step_keeps_the_witness_build_keeps_on_a_tie():
    # Elements 1 (i), 2 (j), 3 and 4.  The union joins three cells of one
    # side with b's: q = {1}{2, 3}{4} comes from each, at 3, 5 and 5, and
    # the second wins the tie.  The link dropping both labels maps r, q and
    # p to {3}{4}: q and p tie at 5, and q wins, as its joined partition
    # {1, 2, 3}{4} first came from r.  Listed inner-first, the flat list
    # would weigh p before q's second pair.
    ground_a = 0b11010
    table_a = {"a0": WPSet.from_pairs([((10, 16), 1, "ar"),
                                       ((2, 8, 16), 3, "aq0")], ground_a),
               "a1": WPSet.from_pairs([((2, 8, 16), 5, "aq1")], ground_a),
               "a2": WPSet.from_pairs([((2, 8, 16), 5, "aq2"),
                                       ((8, 18), 5, "ap")], ground_a)}
    table_b = {"b": WPSet.from_pairs([((4, 8), 0, "bs"), ((12,), 0, "bq")],
                                     0b1100)}
    union, linked, stats = Plan(), Plan(), SolveStats()
    made = build(union, [(a, 0, "k", 0, 0) for a in range(3)], (join_sets,),
                 table_a, table_b)
    want = build(linked, [("k", "k", 0b110)], (1, 2, True, proj), made)
    assert want["k"][(8, 16)] == (5, ("aq1", "bq"))
    replay(union, stats, table_a, table_b)  # the first replays compile
    replay(linked, stats, made)
    skeleton, items = compose([union, linked])
    got = unflatten(skeleton, fuse(items, flat(table_a), flat(table_b)))
    assert _contents(got) == _contents(want)


def _by_position(solve, monkeypatch):
    """The result of ``solve()``, with one run of ``dp.run``, and per
    position the table the driver made there (after its retirement), or
    None where it made none: inside a fused vertex step, and at its end
    where the next step is fused too.  A run end is the table
    ``dp.unflatten`` makes when a run of fused steps ends.  Read off the
    order of the calls: per position its transition or replay, then its
    retirement's where it retires, and at a leaf that starts a step, a
    ``dp.fuse`` call where the step is fused.  A call made inside a logged
    one, as a union's replay makes, is not logged."""
    events, seen, depth = deque(), {}, [0]
    dp = cwsolve.dp

    def logged(kind, fn):
        def call(*args, **kw):
            depth[0] += 1
            try:
                out = fn(*args, **kw)
            finally:
                depth[0] -= 1
            if not depth[0]:
                events.append((kind, out))
            return out
        return call

    def running(expr, stats, prune, *transitions):
        seen["expr"], seen["prune"] = expr, prune
        return run(expr, stats, prune, *transitions)

    def steps(program, marks, vertex_steps=dp.vertex_steps):
        seen["steps"] = vertex_steps(program, marks)
        return seen["steps"]

    with monkeypatch.context() as patch:
        for module, names in TRANSITIONS.items():
            for name in names:
                patch.setattr(module, name,
                              logged("call", getattr(module, name)))
        for name in ("replay", "fuse", "unflatten", "compose"):
            patch.setattr(dp, name, logged(name, getattr(dp, name)))
        patch.setattr(dp, "vertex_steps", steps)
        patch.setattr(dp, "run", running)
        res = solve()
    program, prune = seen["expr"].program, seen["prune"]
    _, dead = capped_degrees(seen["expr"], prune and prune.cap)
    retiring = [d & t for d, t in zip(dead, dp.touched(program))]
    tables, ends, held, p = [None] * len(program.op), [], None, 0

    def end(q):  # the table a run of fused steps ends with, at q
        assert events[0][0] == "unflatten"
        tables[q] = _contents(events.popleft()[1])
        ends.append(q)

    while p < len(program.op):
        table = events.popleft()[1]
        if retiring[p]:
            table = events.popleft()[1]
        tables[p] = _contents(table)
        step = seen["steps"][p]
        if step is not None and events and events[0][0] == "fuse":
            events.popleft()
            held = step[1] if step[2] else end(step[1])
            p = step[1] + 1
            continue
        if step is not None and held is not None:  # a miss ends the run
            held = end(held)
        while events and events[0][0] == "compose":  # a step filed, checked
            for _ in range(2):  # compose, fuse
                events.popleft()
        p += 1
    assert not events
    return res, tables, ends


def _all_stats(stats):
    """Every stat but the elapsed time and the fused step count."""
    return {name: value for name, value in vars(stats).items()
            if name not in ("elapsed_ms", "fused_replays")}


@pytest.mark.parametrize("use_reduce", [True, False], ids=["pruned", "reference"])
@pytest.mark.parametrize("name", ["fvs", "cds", "cvc", "steiner", "perfect-cds"])
def test_a_fused_run_makes_the_unmarked_runs_table_where_it_makes_one(
        instances, name, use_reduce, monkeypatch):
    # A fused vertex step makes no table inside it, so the comparison with
    # the unmarked run is made at every position the fused run makes a
    # table, every run end included; its stats are the node-by-node run's.
    fused = ends = unmade = 0
    for expr in instances:
        solve = _solver(name, expr, use_reduce)
        res, tables, run_ends = _by_position(solve, monkeypatch)
        with monkeypatch.context() as patch:
            _unmarked(patch)
            ref, ref_tables, _ = _by_position(solve, patch)
        with monkeypatch.context() as patch:
            _unfused(patch)
            unfused = solve()
        assert None not in ref_tables
        assert all(got is None or got == want
                   for got, want in zip(tables, ref_tables))
        assert _all_stats(res.stats) == _all_stats(unfused.stats)
        assert _stats(res.stats) == _stats(ref.stats)
        fused += res.stats.fused_replays
        ends += len(run_ends)
        unmade += tables.count(None)
    assert fused > 0 and ends > 0 and unmade > 0


def test_a_fused_run_end_holds_the_id_of_the_table_it_makes(monkeypatch):
    # Where a run of fused steps ends, the driver makes the table at its
    # last step's end q and holds the output id that step was filed with.
    # A replay by an entry program that reads the table must find the
    # program compiled for that table's shape.
    exact, read = [], []
    for kind in FIXTURE_KINDS:
        for name in ("fvs", "cds", "cvc", "steiner", "perfect-cds"):
            ends = []
            with monkeypatch.context() as patch:  # shapes numbered per run
                _shape_replays(patch, lambda held, actual: exact.append(
                    held == actual))
                unflatten, replay = cwsolve.dp.unflatten, cwsolve.dp.replay

                def ending(skeleton, entries):
                    ends.append(unflatten(skeleton, entries))
                    return ends[-1]

                def reading(plan, stats, table, table_b=None):
                    if plan.program is not None:
                        read.append(any(got is table or got is table_b
                                        for got in ends))
                    return replay(plan, stats, table, table_b)
                patch.setattr(cwsolve.dp, "unflatten", ending)
                patch.setattr(cwsolve.dp, "replay", reading)
                _solver(name, fixture(kind, 40, seed=1), True)()
    assert exact and all(exact) and any(read)


def _answer(res):
    """A result's optimum and witness: all of it but its stats."""
    return dataclasses.replace(res, stats=None)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_a_fused_run_under_a_binding_bound_is_the_unmarked_runs(
        bound, monkeypatch):
    # A vertex step is filed only where every node above its leaf holds the
    # output of its program; a reduced node holds another table, and a step
    # filed over it would skip that reduction at every hit.  Under bounds
    # that reduce, the fused run's answer and stats are the unmarked run's,
    # and its plan counts the unfused run's.
    run = cwsolve.dp.run

    def small(expr, stats, prune, *transitions):
        return run(expr, stats, prune._replace(bound=bound,
                                               reducer=_first_heaviest),
                   *transitions)
    monkeypatch.setattr(cwsolve.dp, "run", small)
    both = 0
    for kind in FIXTURE_KINDS:
        for n in (24, 40):
            expr = fixture(kind, n, seed=1)
            for name in ("fvs", "cds", "cvc"):
                solve = _solver(name, expr, use_reduce=True)
                res = solve()
                with monkeypatch.context() as patch:
                    _unfused(patch)
                    unfused = solve()
                with monkeypatch.context() as patch:
                    _unmarked(patch)
                    ref = solve()
                assert _answer(res) == _answer(ref)
                assert _stats(res.stats) == _stats(ref.stats)
                assert _all_stats(res.stats) == _all_stats(unfused.stats)
                both += bool(res.stats.fused_replays and res.stats.reduce_calls)
    assert both


def _weighted(rng, ground):
    """A cell with every partition of ``ground``, random weights and a
    witness of its own per entry."""
    return WPSet.from_pairs([(p, rng.randint(0, 9), f"w{n}") for n, p
                             in enumerate(iter_partitions(ground))], ground)


def test_build_makes_each_cell_as_its_step_says():
    # A live call and its replays run the same build, so only this pins
    # what each step does, against the kernel call it stands for.
    rng = random.Random(2727)
    a, b, c = (_weighted(rng, ground) for ground in (0b0111, 0b1011, 0b0011))
    linked = link(a, 2, 3, 0b100, acyclic=True)  # over b's ground
    merged = linked.copy()
    merged.merge(b)
    got = build(None, [("a", "linked", 0b100), ("b", "linked", None),
                       ("b", "projected", ~0b10), ("c", "kept", None)],
                (2, 3, True, proj), {"a": a, "b": b, "c": c})
    assert _contents(got) == _contents(
        {"linked": merged, "projected": proj(b, 0b10), "kept": c})
    assert got["kept"] is c
    got = build(None, [("a", "done", COMPLETE), ("c", "linked", 0)],
                (1, 3, False, _complete), {"a": a, "c": c})
    assert _contents(got) == _contents({"done": _complete(a),
                                        "linked": link(c, 1, 3, 0)})
    # a union projects each side's drop out, then joins into the key's cell
    joined = acjoin(proj(a, 0b100), proj(b, 0b1000))
    got = build(None, [(0, 0, "j", 0b100, 0b1000), (0, 1, "j", 0b100, 0)],
                (acjoin,), {"a": a}, {"b": b, "c": c})
    assert _contents(got) == _contents(
        {"j": acjoin(proj(a, 0b100), c, joined)})


def _old_capped_degrees(expr, cap):
    """The capped vectors and dead masks as the driver once made them: each
    uncapped vector capped entry by entry."""
    fut = [tuple(min(cap, x) for x in vec) for vec in future_degrees(expr)]
    return fut, [sum(2 << l for l, x in enumerate(vec) if not x) for vec in fut]


def test_capped_degrees_cap_the_future_degrees():
    rng = random.Random(4242)
    exprs = [fixture(kind, n, seed=n) for kind in FIXTURE_KINDS
             for n in (1, 7, 60)]
    exprs += [random_expression(rng, rng.randint(1, 12), k)
              for k in range(1, 6) for _ in range(8)]
    for expr in exprs:
        for cap in (1, 2, 3, 5):
            fut, dead = capped_degrees(expr, cap)
            assert (fut, dead) == _old_capped_degrees(expr, cap)
            # one tuple per distinct vector
            assert len(set(map(id, fut))) == len(set(fut))
        assert capped_degrees(expr, None) == ([None] * len(fut), [0] * len(fut))


def test_bench_prints_the_plan_counts_and_solve_json_does_not(tmp_path, capsys):
    path = tmp_path / "path.cw"
    path.write_text(serialize(fixture("path", 30)))
    assert cli.run(["bench", "--problem", "cds", "--expr", str(path)]) == 0
    rows = dict(line.split(",", 1)
                for line in capsys.readouterr().out.strip().splitlines())
    assert int(rows["plans_recorded"]) > 0
    assert int(rows["plans_replayed"]) > int(rows["plans_recorded"])
    assert 0 < int(rows["entry_replays"]) <= int(rows["plans_replayed"])
    assert 0 < int(rows["fused_replays"]) < int(rows["entry_replays"])
    assert cli.run(["solve", "--problem", "cds", "--json", "--expr",
                    str(path)]) == 0
    out = capsys.readouterr().out
    assert "plans" not in out and "entry" not in out
    assert "shape" not in out and "fused" not in out
