"""The DP driver, run on a fake problem whose transitions record their tables."""

import os
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest

import cwsolve.dp
import cwsolve.fvs
import cwsolve.sigma_rho
import cwsolve.wpsets
from cwsolve import fixture, naive_expression, parse_expression
from cwsolve.cwexpr import LEAF, UNION, evaluate, future_degrees
from cwsolve.dp import Prune, SolveStats, root_optimum, run
from cwsolve.fvs import solve_fvs
from cwsolve.partitions import iter_partitions
from cwsolve.sigma_rho import (preset_spec, solve_connected_sigma_rho,
                               solve_steiner)
from cwsolve.wpsets import (MERGE_MEMO, NEG_INF, WPSet, ac_reduce, join_sets,
                            query_opt, reduce_set)

from conftest import present_masks, random_expression, random_graph
from test_plans import _unmarked

KINDS = ("introduce", "relabel", "add", "union")  # by opcode


def _expressions():
    rng = random.Random(606)
    exprs = [random_expression(rng, rng.randint(1, 9), k)
             for k in range(2, 6) for _ in range(6)]
    exprs += [naive_expression(random_graph(rng.randint(1, 6), rng))
              for _ in range(4)]
    exprs += [fixture(kind, n, seed=n) for kind in ("path", "random-cograph")
              for n in (1, 5)]
    return exprs


def _children(ops):
    """Per postorder position, the positions of the node's children, read
    off the opcodes alone."""
    out, finished = [], []
    for p, op in enumerate(ops):
        arity = {LEAF: 0, UNION: 2}.get(op, 1)
        out.append(finished[len(finished) - arity:])
        del finished[len(finished) - arity:]
        finished.append(p)
    return out


class FakeProblem:
    """Transitions that record their arguments and return random tables of
    random cells (lists of entries), empty ones included.  They make no
    table with ``dp.build``, so they run with no position marked for a key
    plan."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []  # (child tables, child present masks, fut, table)
        self.labels = []  # each leaf's label

    def _table(self, tables, masks, fut):
        table = {n: [None] * self.rng.randint(0, 4)
                 for n in range(self.rng.randint(0, 5))}
        self.calls.append((tables, masks, fut, table))
        return table

    def leaf(self, label, name, weight, fut):
        self.labels.append(label)
        return self._table((), (), fut)

    def ren(self, table, present, i, j, fut, plan=None):
        return self._table((table,), (present,), fut)

    add = ren

    def union(self, table_a, pres_a, table_b, pres_b, fut, plan=None):
        return self._table((table_a, table_b), (pres_a, pres_b), fut)

    def run(self, expr, stats, cap):
        # no fake cell holds more than 4 entries, so nothing is reduced
        prune = None if cap is None else Prune(cap, 4, _refuse, _keep)
        with pytest.MonkeyPatch.context() as patch:
            _unmarked(patch)
            return run(expr, stats, prune, self.leaf, self.ren, self.add,
                       self.union)


def _refuse(*args):
    raise RuntimeError("reducer called")


def _keep(table, dead, plan=None):
    """A retirement rule that keeps every table as it is."""
    return table


@pytest.mark.parametrize("cap", [1, 2, None])
def test_run_against_independent_counts(cap, monkeypatch):
    if cap is None:
        def refuse(expr):
            raise RuntimeError("future degrees computed")
        monkeypatch.setattr(cwsolve.dp, "future_degrees", refuse)
    for seed, expr in enumerate(_expressions()):
        fake, stats = FakeProblem(seed), SolveStats()
        root_table = fake.run(expr, stats, cap)
        program = expr.program
        assert len(fake.calls) == len(program.op)
        assert fake.calls[-1][3] is root_table

        kinds = Counter(KINDS[op] for op in program.op)
        assert stats.node_kinds == kinds
        assert fake.labels == [i for op, i in zip(program.op, program.i)
                               if op == LEAF]
        assert stats.dp_nodes == sum(kinds.values())
        tables = [call[3] for call in fake.calls]
        assert stats.total_states == sum(map(len, tables))
        assert stats.peak_states == max(map(len, tables))
        assert stats.max_cell_entries == max(
            (len(cell) for table in tables for cell in table.values()),
            default=0)

        made = [call[3] for call in fake.calls]  # by position
        fut = [] if cap is None else future_degrees(expr)
        present = present_masks(expr)
        for p, (children, (child_tables, masks, got_fut, _)) in enumerate(
                zip(_children(program.op), fake.calls)):
            assert [id(t) for t in child_tables] == \
                [id(made[c]) for c in children]
            assert list(masks) == [present[c] for c in children]
            assert got_fut == (None if cap is None else
                               tuple(min(cap, x) for x in fut[p]))


class RetiringProblem(FakeProblem):
    """A fake problem whose retirement records its input and returns a
    fresh random table."""

    def __init__(self, seed):
        super().__init__(seed)
        self.retired = []  # (the node's call index, table in, dead, table out)

    def retire(self, table, dead, plan=None):
        out = {n: [None] * self.rng.randint(0, 4)
               for n in range(self.rng.randint(0, 3))}
        self.retired.append((len(self.calls) - 1, table, dead, out))
        return out


def _touched(op, i, j):
    """The labels whose slots a node sets: bit l for label l."""
    if op == LEAF:
        return 1 << i
    if op == UNION:
        return 0
    return 1 << i | 1 << j


@pytest.mark.parametrize("cap", [1, 2])
def test_run_retires_where_a_dead_slot_changes(cap, monkeypatch):
    _unmarked(monkeypatch)
    for seed, expr in enumerate(_expressions()):
        fake, stats = RetiringProblem(seed), SolveStats()
        root_table = run(expr, stats, Prune(cap, 4, _refuse, fake.retire),
                         fake.leaf, fake.ren, fake.add, fake.union)
        program = expr.program
        fut = future_degrees(expr)
        dead = [sum(2 << l for l, x in enumerate(vec) if not x) for vec in fut]
        touched = map(_touched, program.op, program.i, program.j)
        assert [(index, mask) for index, _, mask, _ in fake.retired] == \
            [(index, dead[index]) for index, labels in enumerate(touched)
             if dead[index] & labels]
        tables = [call[3] for call in fake.calls]
        for index, table_in, _, table_out in fake.retired:
            assert table_in is tables[index]
            tables[index] = table_out
        # the retired table is the node's: its parent and the stats get it
        assert root_table is tables[-1]
        for children, (child_tables, _, _, _) in zip(_children(program.op),
                                                     fake.calls):
            assert [id(t) for t in child_tables] == \
                [id(tables[c]) for c in children]
        assert stats.total_states == sum(map(len, tables))
        assert stats.peak_states == max(map(len, tables))
        assert stats.live_width == max(
            (present & ~mask).bit_count()
            for present, mask in zip(present_masks(expr), dead))


def test_live_width_counts_every_nonempty_label_on_the_reference_path():
    for seed, expr in enumerate(_expressions()):
        stats = SolveStats()
        FakeProblem(seed).run(expr, stats, None)
        assert stats.live_width == max(
            present.bit_count() for present in present_masks(expr))


def test_root_optimum_keeps_the_first_best_entry():
    entries = [None, (3, "a"), (5, ("b", "c")), None, (5, "d"), (1, ())]
    assert root_optimum(entries) == (5, ("b", "c"))
    # a minimising problem's entries hold negated weights
    negated = [e and (-e[0], e[1]) for e in entries]
    assert root_optimum(negated) == (-1, ())
    assert root_optimum([(-2, None), (-2, "x")]) == (-2, None)
    assert root_optimum([None]) == (NEG_INF, None)
    assert root_optimum([]) == (NEG_INF, None)


class JoiningProblem(FakeProblem):
    """A fake problem whose transitions also join two cells, filling the
    merge memo, and record the memo's size when they start."""

    def __init__(self, seed, fail_at=None):
        super().__init__(seed)
        self.fail_at = fail_at
        self.memo_sizes = []

    def _table(self, tables, masks, fut):
        self.memo_sizes.append(len(MERGE_MEMO))
        if len(self.calls) == self.fail_at:
            raise RuntimeError("transition failed")
        cell = WPSet.from_pairs([((0b110,), 1), ((0b10, 0b100), 2)], 0b110)
        join_sets(cell, WPSet.from_pairs([((0b1100,), len(self.calls))],
                                         0b1100))
        return super()._table(tables, masks, fut)


def test_run_starts_and_ends_with_an_empty_merge_memo():
    MERGE_MEMO[(0b1,), (0b1,)] = (0b1,)
    fake = JoiningProblem(7)
    fake.run(fixture("path", 5, seed=5), SolveStats(), 1)
    assert fake.memo_sizes[0] == 0
    assert max(fake.memo_sizes) > 0
    assert not MERGE_MEMO


def test_a_failing_transition_leaves_the_merge_memo_empty():
    expr = fixture("path", 5, seed=5)
    fake = JoiningProblem(7, fail_at=4)
    with pytest.raises(RuntimeError, match="transition failed"):
        fake.run(expr, SolveStats(), 1)
    assert fake.memo_sizes[-1] > 0  # the memo was filled when it raised
    assert not MERGE_MEMO


class RecordingMemo(dict):
    """A merge memo that records its size each time it is cleared."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def clear(self):
        self.sizes.append(len(self))
        super().clear()


def test_solvers_leave_the_merge_memo_empty(monkeypatch):
    memo = RecordingMemo()  # the joins and the driver share the one memo
    monkeypatch.setattr(cwsolve.wpsets, "MERGE_MEMO", memo)
    monkeypatch.setattr(cwsolve.dp, "MERGE_MEMO", memo)
    rng = random.Random(808)
    for k in (2, 3, 4):
        expr = random_expression(rng, 8, k)
        names = sorted(evaluate(expr).weights)
        for solve in (lambda: solve_fvs(expr, with_witness=True),
                      lambda: solve_connected_sigma_rho(expr, preset_spec("cds")),
                      lambda: solve_connected_sigma_rho(expr, preset_spec("cvc")),
                      lambda: solve_steiner(expr, {names[0], names[-1]})):
            solve()
            assert not memo
    # each solve clears the memo when it starts and when it ends; the end
    # clears see what the solve filled
    filled = memo.sizes[1::2]
    assert len(memo.sizes) == 24 and max(filled) > 0


def test_concurrent_solves_share_the_merge_memo_safely():
    # Each solve clears the shared memo when it starts and ends, so threads
    # solving side by side lose each other's memo entries; a lost entry is
    # only a miss, and every answer matches the sequential one.
    rng = random.Random(909)
    exprs = [random_expression(rng, 9, k) for k in (3, 4) for _ in range(3)]
    expected = [solve_fvs(expr, with_witness=True).witness for expr in exprs]
    got = [[] for _ in range(4)]

    def worker(out):
        for expr in exprs:
            out.append(solve_fvs(expr, with_witness=True).witness)

    threads = [threading.Thread(target=worker, args=(out,)) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected] * len(threads)


# ---------------------------------------------------------------------------
# Pruning: the driver reduces every cell above the rank bound, at every node.

ROOTED = {  # an expression whose root is a node of the kind
    "introduce": "cwexpr k=1\n(v a)",
    "relabel": "cwexpr k=3\n(ren 2 3 (ren 1 2 (v a)))",
    "add": "cwexpr k=2\n(add 1 2 (u (v a) (ren 1 2 (v b))))",
    "union": "cwexpr k=1\n(u (v a) (v b))",
}


def _run_with_root_cell(kind, cell, prune):
    """Run the driver on a problem whose root, a node of ``kind``, builds
    one cell and every other node an empty table: (root cell, stats)."""
    def root(*args):
        return {"s": cell}

    def empty(*args):
        return {}

    stats = SolveStats()
    table = run(parse_expression(ROOTED[kind]), stats, prune,
                *(root if node_kind == kind else empty for node_kind in ROOTED))
    return table["s"], stats


def _all_partitions_cell(rng, ground, sign=1):
    return WPSet.from_pairs([(p, sign * rng.randint(0, 20))
                             for p in iter_partitions(ground)], ground)


class TestPrune:
    def test_a_cell_at_its_bound_is_kept_whole(self):
        rng = random.Random(53)
        for reducer in (reduce_set, ac_reduce):
            cell = _all_partitions_cell(rng, 0b1110)  # 5 partitions
            out, stats = _run_with_root_cell(
                "union", cell, Prune(1, len(cell), reducer, _keep))
            assert out is cell
            assert stats.reduce_calls == 0
            assert stats.max_cell_entries == len(cell)

    @pytest.mark.parametrize("reducer, mode, ground, bound", [
        (reduce_set, "plain", 0b111110, 16),     # 52 partitions, 2^4
        (ac_reduce, "acyclic", 0b111111, 192),  # 203 partitions, 6 * 2^5
    ])
    def test_a_cell_above_its_bound_is_reduced_and_answers_alike(
            self, reducer, mode, ground, bound):
        rng = random.Random(61)
        for sign in (1, -1):
            cell = _all_partitions_cell(rng, ground, sign)
            assert len(cell) > bound
            out, stats = _run_with_root_cell(
                "union", cell, Prune(1, bound, reducer, _keep))
            assert len(out) <= bound
            assert stats.reduce_calls == 1
            assert stats.max_cell_entries == len(out)
            for q in iter_partitions(ground):
                assert query_opt(out, q, mode) == query_opt(cell, q, mode)

    @pytest.mark.parametrize("kind", ["introduce", "add"])
    def test_an_over_bound_leaf_or_add_cell_is_reduced_and_counted(self, kind):
        rng = random.Random(59)
        cell = _all_partitions_cell(rng, 0b111110)  # 52 partitions
        out, stats = _run_with_root_cell(kind, cell,
                                         Prune(1, 16, reduce_set, _keep))
        assert len(out) <= 16
        assert stats.reduce_calls == 1
        for q in iter_partitions(0b111110):
            assert query_opt(out, q) == query_opt(cell, q)

    def test_the_reference_path_checks_no_bound(self, monkeypatch):
        # prune None: no reducer runs and no bound is checked at any node
        # kind, even on a cell far above every bound
        for name in ("reduce_set", "ac_reduce"):
            monkeypatch.setattr(cwsolve.wpsets, name, _refuse)
        monkeypatch.setattr(cwsolve.dp, "check_size", _refuse)
        cell = _all_partitions_cell(random.Random(67), 0b111110)
        for kind in ROOTED:
            out, stats = _run_with_root_cell(kind, cell, None)
            assert out is cell
            assert stats.reduce_calls == 0
            assert stats.max_cell_entries == 52


def test_cell_bound_is_checked_under_python_O():
    # a reducer that keeps a cell above its bound must still be caught when
    # -O strips assert statements
    script = """
from cwsolve import parse_expression
from cwsolve.dp import Prune, SolveStats, run
from cwsolve.wpsets import InvariantError, WPSet
cell = WPSet.from_pairs([((0b110,), 1), ((0b010, 0b100), 2)], 0b110)
try:
    run(parse_expression("cwexpr k=1\\n(v a)"), SolveStats(),
        Prune(1, 1, lambda c: c, lambda table, dead: table),
        lambda label, name, weight, fut: {"s": cell}, None, None, None)
except InvariantError:
    print(__debug__, "raised")
"""
    src = os.path.dirname(os.path.dirname(cwsolve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False", "raised"], out.stderr


def test_the_reference_path_never_calls_a_reducer(monkeypatch):
    # use_reduce=False hands the driver no prune, so no reducer can run
    # whatever a cell holds; use_reduce=True hands it the reducer bound in
    # the solver's own module at solve time
    prunes = []

    def recording_run(expr, stats, prune, *transitions):
        prunes.append(prune)
        return run_before(expr, stats, prune, *transitions)

    run_before = cwsolve.dp.run
    monkeypatch.setattr(cwsolve.dp, "run", recording_run)
    monkeypatch.setattr(cwsolve.fvs, "ac_reduce", _refuse)
    monkeypatch.setattr(cwsolve.sigma_rho, "reduce_set", _refuse)
    rng = random.Random(1010)
    for k in (2, 3, 4, 5):
        expr = random_expression(rng, 9, k)
        names = sorted(evaluate(expr).weights)
        for solve, bound in (
                (lambda **kw: solve_fvs(expr, with_witness=True, **kw),
                 (k + 1) << k),
                (lambda **kw: solve_connected_sigma_rho(
                    expr, preset_spec("cds"), with_witness=True, **kw),
                 1 << (k - 1)),
                (lambda **kw: solve_connected_sigma_rho(
                    expr, preset_spec("cvc"), with_witness=True, **kw),
                 1 << (k - 1)),
                (lambda **kw: solve_steiner(expr, {names[0], names[-1]},
                                            with_witness=True, **kw),
                 1 << (k - 1))):
            assert solve(use_reduce=False).stats.reduce_calls == 0
            assert prunes.pop() is None
            solve()
            prune = prunes.pop()
            assert (prune.bound, prune.reducer) == (bound, _refuse)
            assert prune.retire is not None
