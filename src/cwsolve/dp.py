"""The one dynamic-programming driver every solver runs, and its statistics.

Every solver is the same bottom-up pass over a k-expression, a table per node;
it keeps only its transitions, which :func:`run` folds, and its root rule.
The transitions only build tables: every pruning decision is the driver's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .cwexpr import CwExpression, fold, future_degrees
from .wpsets import (MAX, MERGE_MEMO, NEG_INF, POS_INF, WPSet, check_size,
                     witness_names)


@dataclass
class SolveStats:
    dp_nodes: int = 0
    reduce_calls: int = 0
    max_cell_entries: int = 0
    elapsed_ms: float = 0.0
    peak_states: int = 0
    total_states: int = 0
    live_width: int = 0
    node_kinds: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        return {
            "dp_nodes": self.dp_nodes,
            "max_cell_entries": self.max_cell_entries,
            "reduce_calls": self.reduce_calls,
            "peak_states": self.peak_states,
            "total_states": self.total_states,
            "live_width": self.live_width,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class Prune(NamedTuple):
    """The pruned path: future degrees capped at ``cap``, ``reducer`` for
    every cell above ``bound`` entries, and ``retire(table, dead)``, which
    rewrites a table's keys to their canonical form over the mask ``dead``
    of labels with future degree 0."""

    cap: int
    bound: int
    reducer: Callable[[WPSet], WPSet]
    retire: Callable[[dict, int], dict]


def run(expr: CwExpression, stats: SolveStats, prune: Prune | None,
        leaf, ren, add, union) -> dict:
    """Fold the transitions over ``expr``; returns the root's table.

    A node's table is ``leaf(name, weight, fut)``, ``ren(table, present, i,
    j, fut)``, ``add(table, present, i, j, fut)`` or ``union(table_a, pres_a,
    table_b, pres_b, fut)``, where ``present`` is a child's mask of nonempty
    label classes (bit l for label l) and ``fut`` the node's future degree
    vector (:func:`~cwsolve.cwexpr.future_degrees`) capped at ``prune.cap``.
    Each node's kind, states and largest cell go into ``stats``.  The joins'
    merge memo (:data:`~cwsolve.wpsets.MERGE_MEMO`) starts and ends the run
    empty.

    ``prune`` is the one switch for every prune.  None is the unpruned
    reference path: no future degree is computed, ``fut`` is None, and every
    table is kept whole.  Otherwise, after each node's transition:

    * ``prune.retire`` rewrites the table over the node's dead labels, those
      whose future degree is 0, if the node changes the slot of one of them:
      the leaf's label 1, the two classes of an add, or either label of a
      relabel.  Elsewhere every dead slot is as its child left it: a union's
      children share its future degrees, and a label dies only where its
      slot changes, since going up a future degree falls only at the adds
      touching its class, and only the relabel i -> j makes i anew.
    * A cell above ``prune.bound`` entries is replaced by ``prune.reducer``
      of it, counted in ``stats.reduce_calls``, which must fit the bound, or
      :class:`~cwsolve.wpsets.InvariantError` is raised.

    Reducing only above the bound is sound: a set represents itself, so a
    whole cell answers every completion query as a reduced one would, and
    the bound on every cell, which is all the running time rests on, holds
    at every node.  The decision reads only the cell's size.  Each
    retirement rule argues its own soundness.

    ``stats.live_width`` is the most nonempty labels any node has that are
    not dead; on the reference path every nonempty label counts.
    """
    fut: dict[int, tuple[int, ...]] = {}
    dead: dict[int, int] = {}  # node id -> mask of its labels of degree 0
    bound = POS_INF
    if prune is not None:
        for nid, vec in future_degrees(expr).items():
            fut[nid] = vec = tuple(min(prune.cap, x) for x in vec)
            dead[nid] = sum(2 << l for l, x in enumerate(vec) if not x)
        bound = prune.bound

    def seen(kind: str, node, table: dict, present: int,
             touched: int) -> tuple[dict, int]:
        dying = dead.get(id(node), 0)
        if dying & touched:
            table = prune.retire(table, dying)
        biggest = max(map(len, table.values()), default=0)
        if biggest > bound:
            for key, cell in table.items():
                if len(cell) > bound:
                    table[key] = check_size(prune.reducer(cell), bound)
                    stats.reduce_calls += 1
            biggest = max(map(len, table.values()))
        stats.node_kinds[kind] += 1
        stats.total_states += len(table)
        stats.peak_states = max(stats.peak_states, len(table))
        stats.max_cell_entries = max(stats.max_cell_entries, biggest)
        stats.live_width = max(stats.live_width,
                               (present & ~dying).bit_count())
        return table, present

    def on_ren(node, child):
        present = child[1]
        if present >> node.i & 1:
            present = present & ~(1 << node.i) | 1 << node.j
        return seen("relabel", node,
                    ren(*child, node.i, node.j, fut.get(id(node))), present,
                    1 << node.i | 1 << node.j)

    MERGE_MEMO.clear()
    try:
        table, _ = fold(
            expr.root,
            lambda node: seen("introduce", node,
                              leaf(node.name, node.weight, fut.get(id(node))),
                              2, 2),
            on_ren,
            lambda node, child: seen("add", node,
                                     add(*child, node.i, node.j,
                                         fut.get(id(node))),
                                     child[1], 1 << node.i | 1 << node.j),
            lambda node, a, b: seen("union", node,
                                    union(*a, *b, fut.get(id(node))),
                                    a[1] | b[1], 0))
    finally:
        MERGE_MEMO.clear()
    stats.dp_nodes = stats.node_kinds.total()
    return table


_ROOT = ()  # the one partition of the empty ground set


def root_optimum(entries, direction: str) -> tuple[int | float, tuple | None]:
    """The best of the root's (weight, witness) ``entries``, None ones
    skipped, with its witness's sorted vertex names (None when untracked).

    Ties keep the first entry, as :meth:`~cwsolve.wpsets.WPSet.add` does.
    Without an entry the weight is -inf (max) or +inf (min).
    """
    best = WPSet.from_pairs(((_ROOT, *entry) for entry in entries
                             if entry is not None), 0, direction)
    weight, wit = best.entries.get(
        _ROOT, (NEG_INF if direction == MAX else POS_INF, None))
    return weight, None if wit is None else tuple(sorted(witness_names(wit)))
