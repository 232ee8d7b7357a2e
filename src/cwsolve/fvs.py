"""Minimum feedback vertex set via a maximum induced forest dynamic program.

The solver walks an irredundant k-expression bottom-up.  A table maps label
states to weighted-partition cells; the state records, for every label class,
how the candidate forest intersects it:

* ``ABSENT``    - no forest vertex in the class;
* ``ONE``       - exactly one forest vertex;
* ``MANY_WAIT`` - at least two, and exactly one future add touching the class
  (with a populated partner class) is still expected: all its vertices will
  gain one common neighbor, so they count as a single connectivity node;
* ``MANY_DONE`` - at least two, and no future add with a populated partner may
  touch the class again (a second one would close a 4-cycle through the two
  shared neighbors).

A cell's partitions live on the labels in state ONE/MANY_WAIT plus a virtual
anchor element 0.  Blocks describe which of those connectivity nodes are
already linked; an entry survives to the root only if everything ends up in
one tree hanging off the anchor, which makes the kept forest plus one anchor
edge per component a single tree, i.e. the forest is genuinely acyclic.

Unless ``use_reduce`` is off (the unpruned reference path), the driver
:func:`~cwsolve.dp.run` reduces each cell above the rank bound (k + 1) * 2^k
with ``ac_reduce``, and hands each transition its node's future degree vector
(:func:`~cwsolve.cwexpr.future_degrees`) capped at 1; the transitions never
build ``MANY_WAIT`` on a class whose future degree is 0.  Such a class
waits for an add with a populated partner, yet no later add touches it, so the
root rejects every state extending it.  A key feeding a root-reaching key
reaches the root itself, so no kept cell changes: the optimum and its witness
are the unfiltered path's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from . import dp
from .cwexpr import (CwExpression, NotIrredundantError, check_irredundant,
                     vertex_weights)
from .dp import SolveStats
from .wpsets import (MAX, InvariantError, WPSet, ac_reduce, acjoin, contrib,
                     edge_cell, merge_cells, proj)

ABSENT, ONE, MANY_WAIT, MANY_DONE = 0, 1, 2, 3
ANCHOR_BIT = 1

State = tuple[int, ...]
Table = dict[State, WPSet]

# For one label, the states a union node may assign given the two child
# states.  Exactly 15 child/parent combinations exist per label.
UNION_STATE_OPTIONS: dict[tuple[int, int], tuple[int, ...]] = {}
for _a in (ABSENT, ONE, MANY_WAIT, MANY_DONE):
    for _b in (ABSENT, ONE, MANY_WAIT, MANY_DONE):
        if _a == ABSENT:
            opts: tuple[int, ...] = (_b,)
        elif _b == ABSENT:
            opts = (_a,)
        elif _a == ONE and _b == ONE:
            opts = (MANY_WAIT, MANY_DONE)
        elif MANY_WAIT in (_a, _b) and MANY_DONE in (_a, _b):
            opts = ()  # one side still expects the add the other side forbids
        elif MANY_WAIT in (_a, _b):
            opts = (MANY_WAIT,)
        else:
            opts = (MANY_DONE,)
        UNION_STATE_OPTIONS[(_a, _b)] = opts
del _a, _b, opts

# The same options for a label whose class no later add touches.
_UNION_OPTIONS_NO_WAIT = {pair: tuple(o for o in opts if o != MANY_WAIT)
                          for pair, opts in UNION_STATE_OPTIONS.items()}


@dataclass
class FvsResult:
    forest_weight: int
    fvs_weight: int
    witness: tuple[str, ...] | None  # vertices to delete
    forest_witness: tuple[str, ...] | None
    stats: SolveStats


def state_ground(state: State) -> int:
    mask = ANCHOR_BIT
    for lbl, val in enumerate(state, start=1):
        if val == ONE or val == MANY_WAIT:
            mask |= 1 << lbl
    return mask


def fvs_leaf(k: int, name: str, weight: int, with_witness: bool = False) -> Table:
    wit0 = () if with_witness else None
    wit1 = name if with_witness else None
    untouched = WPSet(ANCHOR_BIT, MAX)
    untouched.add((ANCHOR_BIT,), 0, wit0)
    lone = WPSet(ANCHOR_BIT | 2, MAX)
    # The single vertex either already hangs off the anchor or does not.
    lone.add((ANCHOR_BIT | 2,), weight, wit1)
    lone.add((ANCHOR_BIT, 2), weight, wit1)
    zero = (ABSENT,) * k
    one = (ONE,) + (ABSENT,) * (k - 1)
    return {zero: untouched, one: lone}


def fvs_add(table: Table, present: int, i: int, j: int, fut=None) -> Table:
    """Add all edges between classes i and j (none may exist beforehand)."""
    out: Table = {}
    ii, jj = i - 1, j - 1
    edge = edge_cell(i, j, MAX)
    for state, cell in table.items():
        a, b = state[ii], state[jj]
        if a == ABSENT or b == ABSENT:
            # no forest vertex on one side: nothing changes, so a waiting
            # class goes on waiting, which needs a later add
            slot, val = (jj, b) if a == ABSENT else (ii, a)
            if val != MANY_WAIT or fut is None or fut[slot]:
                out[state] = cell
            continue
        # Classes that still wait for their allowed add get it consumed here;
        # every other populated/populated combination closes a cycle.
        if a == ONE and b == ONE:
            target = state
            drop = 0
        elif a == MANY_WAIT and b == ONE:
            target = state[:ii] + (MANY_DONE,) + state[ii + 1:]
            drop = 1 << i
        elif a == ONE and b == MANY_WAIT:
            target = state[:jj] + (MANY_DONE,) + state[jj + 1:]
            drop = 1 << j
        else:
            continue
        merged = acjoin(cell, edge)
        if drop:
            merged = proj(merged, drop)
        if merged.entries:
            out[target] = merged
    return out


def fvs_ren(table: Table, present: int, i: int, j: int, fut=None) -> Table:
    """Relabel class i to j; table keys keep length k with slot i pinned ABSENT."""
    acc: dict[State, list[WPSet]] = {}
    ii, jj = i - 1, j - 1
    edge = edge_cell(i, j, MAX)
    may_wait = fut is None or fut[jj] > 0
    for state, cell in table.items():
        a, b = state[ii], state[jj]
        if not may_wait and MANY_WAIT in (a, b):
            continue  # class j would wait for an add that never comes
        if a == ABSENT:
            contrib(acc, state, cell)
            continue
        if b == ABSENT:
            target = list(state)
            target[ii], target[jj] = ABSENT, a
            if a == MANY_DONE:
                moved = cell
            else:
                # Rename element i to j inside every partition.
                moved = proj(acjoin(cell, edge), 1 << i)
            contrib(acc, tuple(target), moved)
            continue
        if a in (ONE, MANY_DONE) and b in (ONE, MANY_DONE):
            # Both classes populated and finished: the merged class is
            # finished too; its members must already be connected onward.
            target = list(state)
            target[ii], target[jj] = ABSENT, MANY_DONE
            drop = (1 << i if a == ONE else 0) | (1 << j if b == ONE else 0)
            contrib(acc, tuple(target), proj(cell, drop))
        if may_wait and a in (ONE, MANY_WAIT) and b in (ONE, MANY_WAIT):
            # Both still expecting their shared future add: merge the two
            # connectivity nodes, rejecting pairs already linked (that add
            # would close a cycle).
            target = list(state)
            target[ii], target[jj] = ABSENT, MANY_WAIT
            contrib(acc, tuple(target), proj(acjoin(cell, edge), 1 << i))
    return merge_cells(acc)


def fvs_union(table_a: Table, table_b: Table, k: int, fut=None) -> Table:
    acc: dict[State, list[WPSet]] = {}
    label_options = [UNION_STATE_OPTIONS if fut is None or fut[l]
                     else _UNION_OPTIONS_NO_WAIT for l in range(k)]
    proj_cache: dict[tuple[int, int], WPSet] = {}

    def projected(cell: WPSet, drop: int) -> WPSet:
        if not drop:
            return cell
        key = (id(cell), drop)
        got = proj_cache.get(key)
        if got is None:
            got = proj_cache[key] = proj(cell, drop)
        return got

    for sa, ca in table_a.items():
        for sb, cb in table_b.items():
            options = [label_options[l][(sa[l], sb[l])] for l in range(k)]
            if any(not o for o in options):
                continue
            for target in product(*options):
                # Classes finished at the parent lose their ONE-side element
                # before the join: their connectivity is resolved per side.
                drop_a = drop_b = 0
                for l in range(k):
                    if target[l] == MANY_DONE:
                        if sa[l] == ONE:
                            drop_a |= 2 << l
                        if sb[l] == ONE:
                            drop_b |= 2 << l
                pa = projected(ca, drop_a)
                pb = projected(cb, drop_b)
                if pa.entries and pb.entries:
                    contrib(acc, target, acjoin(pa, pb))
    return merge_cells(acc)


def solve_fvs(expr: CwExpression, with_witness: bool = False,
              use_reduce: bool = True) -> FvsResult:
    started = time.perf_counter()
    if check_irredundant(expr):
        raise NotIrredundantError(
            "feedback vertex set requires an irredundant expression")
    stats = SolveStats()
    k = expr.k
    # the filter only asks whether a future degree is 0
    prune = dp.Prune(1, (k + 1) << k, ac_reduce) if use_reduce else None
    root_table = dp.run(
        expr, stats, prune,
        lambda name, weight, fut: fvs_leaf(k, name, weight, with_witness),
        fvs_ren, fvs_add,
        lambda a, pres_a, b, pres_b, fut: fvs_union(a, b, k, fut))
    # the forest hangs off the anchor as one tree, and no promised add is owed
    forest, kept = dp.root_optimum(
        (cell.entries.get((state_ground(state),))
         for state, cell in root_table.items() if MANY_WAIT not in state), MAX)
    if forest < 0:
        raise InvariantError("no root entry, yet the empty forest is always one")
    weights = vertex_weights(expr)
    witness = None if kept is None else tuple(sorted(weights.keys() - kept))
    stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return FvsResult(forest_weight=forest, fvs_weight=sum(weights.values()) - forest,
                     witness=witness, forest_witness=kept, stats=stats)
