"""The DP driver, run on a fake problem whose transitions record their tables."""

import random
import sys
import threading
from collections import Counter

import pytest

import cwsolve.dp
from cwsolve import fixture, naive_expression
from cwsolve.cwexpr import (AddEdges, CwExpression, Introduce, Relabel,
                            evaluate, future_degrees, iter_postorder,
                            iter_preorder)
from cwsolve.dp import SolveStats, root_optimum, run
from cwsolve.fvs import solve_fvs
from cwsolve.sigma_rho import (preset_spec, solve_connected_sigma_rho,
                               solve_steiner)
from cwsolve.wpsets import (MAX, MERGE_MEMO, MIN, NEG_INF, POS_INF, WPSet,
                            join_sets)

from conftest import random_expression, random_graph

KINDS = {Introduce: "introduce", Relabel: "relabel", AddEdges: "add"}


def _expressions():
    rng = random.Random(606)
    exprs = [random_expression(rng, rng.randint(1, 9), k)
             for k in range(2, 6) for _ in range(6)]
    exprs += [naive_expression(random_graph(rng.randint(1, 6), rng))
              for _ in range(4)]
    exprs += [fixture(kind, n, seed=n) for kind in ("path", "random-cograph")
              for n in (1, 5)]
    return exprs


def _present(k, node):
    labels = evaluate(CwExpression(k, node)).labels.values()
    return sum({1 << lab for lab in labels})


class FakeProblem:
    """Transitions that record their arguments and return random tables of
    random cells (lists of entries), empty ones included."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []  # (child tables, child present masks, fut, table)

    def _table(self, tables, masks, fut):
        table = {n: [None] * self.rng.randint(0, 4)
                 for n in range(self.rng.randint(0, 5))}
        self.calls.append((tables, masks, fut, table))
        return table

    def leaf(self, name, weight, fut):
        return self._table((), (), fut)

    def ren(self, table, present, i, j, fut):
        return self._table((table,), (present,), fut)

    add = ren

    def union(self, table_a, pres_a, table_b, pres_b, fut):
        return self._table((table_a, table_b), (pres_a, pres_b), fut)

    def run(self, expr, stats, cap):
        return run(expr, stats, cap, self.leaf, self.ren, self.add, self.union)


@pytest.mark.parametrize("cap", [1, 2, None])
def test_run_against_independent_counts(cap, monkeypatch):
    if cap is None:
        def refuse(expr):
            raise RuntimeError("future degrees computed")
        monkeypatch.setattr(cwsolve.dp, "future_degrees", refuse)
    for seed, expr in enumerate(_expressions()):
        fake, stats = FakeProblem(seed), SolveStats()
        root_table = fake.run(expr, stats, cap)
        nodes = list(iter_postorder(expr.root))
        assert len(fake.calls) == len(nodes)
        assert fake.calls[-1][3] is root_table

        kinds = Counter(KINDS.get(type(node), "union")
                        for node in iter_preorder(expr.root))
        assert stats.node_kinds == kinds
        assert stats.dp_nodes == sum(kinds.values())
        tables = [call[3] for call in fake.calls]
        assert stats.total_states == sum(map(len, tables))
        assert stats.peak_states == max(map(len, tables))
        assert stats.max_cell_entries == max(
            (len(cell) for table in tables for cell in table.values()),
            default=0)

        made = {id(node): call[3] for node, call in zip(nodes, fake.calls)}
        fut = {} if cap is None else future_degrees(expr)
        for node, (child_tables, masks, got_fut, _) in zip(nodes, fake.calls):
            children = [getattr(node, name) for name in ("child", "left", "right")
                        if hasattr(node, name)]
            assert [id(t) for t in child_tables] == \
                [id(made[id(child)]) for child in children]
            assert list(masks) == [_present(expr.k, child) for child in children]
            assert got_fut == (None if cap is None else
                               tuple(min(cap, x) for x in fut[id(node)]))


def test_root_optimum_keeps_the_first_best_entry():
    entries = [None, (3, "a"), (5, ("b", "c")), None, (5, "d"), (1, ())]
    assert root_optimum(entries, MAX) == (5, ("b", "c"))
    assert root_optimum(entries, MIN) == (1, ())
    assert root_optimum([(2, None), (2, "x")], MIN) == (2, None)
    assert root_optimum([None], MAX) == (NEG_INF, None)
    assert root_optimum([], MIN) == (POS_INF, None)


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


def test_solvers_leave_the_merge_memo_empty(monkeypatch):
    filled = []  # the memo's size when each fold returns

    def fold(*args):
        out = fold_before(*args)
        filled.append(len(MERGE_MEMO))
        return out

    fold_before = cwsolve.dp.fold
    monkeypatch.setattr(cwsolve.dp, "fold", fold)
    rng = random.Random(808)
    for k in (2, 3, 4):
        expr = random_expression(rng, 8, k)
        names = sorted(evaluate(expr).weights)
        for solve in (lambda: solve_fvs(expr, with_witness=True),
                      lambda: solve_connected_sigma_rho(expr, preset_spec("cds")),
                      lambda: solve_connected_sigma_rho(expr, preset_spec("cvc")),
                      lambda: solve_steiner(expr, {names[0], names[-1]})):
            solve()
            assert not MERGE_MEMO
    assert len(filled) == 12 and max(filled) > 0


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
