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

A union node allows 15 (child, child, parent) state combinations per label
(:data:`UNION_STATE_OPTIONS`), the disjoint union of nine products of
per-label state sets, or boxes (:data:`BOX_PAIRS`):

=================================  =========
boxes of the two children          parent
=================================  =========
{ABSENT} x {ABSENT}                ABSENT
{ONE} x {ABSENT}, and mirrored     ONE
{MANY_WAIT} x {ABSENT}, mirrored   MANY_WAIT
{ONE, MANY_WAIT} x the same        MANY_WAIT
{MANY_DONE} x {ABSENT}, mirrored   MANY_DONE
{ONE↓, MANY_DONE} x the same       MANY_DONE
=================================  =========

where ONE↓ is a ONE class whose label element is projected out first.
:func:`fvs_union` merges each child's cells per tuple of boxes and joins
each pair of tuples that meet once, instead of once per state pair and
target.  Joins work entry pair by entry pair, so each target cell is the
same map from partition to weight as the state-by-state union's; only the
witness kept among equal-weight entries may differ.

Unless ``use_reduce`` is off (the unpruned reference path), the driver
:func:`~cwsolve.dp.run` prunes in two ways.  It retires dead labels, those of
future degree 0 (:func:`~cwsolve.cwexpr.future_degrees`), with
:func:`fvs_retire`: a state ``MANY_WAIT`` at a dead label is dropped, as it
is waiting for an add with a populated partner that never comes; at a dead
label ``ONE`` becomes ``ABSENT`` with its label element projected out, and
``MANY_DONE`` becomes ``ABSENT``, so the classes of finished labels no
longer split a table.  And it reduces each cell above the rank bound
(k + 1) * 2^k with ``ac_reduce``.  Retirement drops or merges only states
that answer every completion alike, so the optimum is the reference path's;
only the witness kept among equal-weight entries may differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import getitem

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

# The union's boxes: per label, the child states one side puts into a
# product.  OD holds its ONE members with their label element projected out
# (ONE↓), as a class finished at the parent resolves its connectivity per side.
Z, O, W, D, OW, OD = range(6)
BOX_STATES: tuple[tuple[int, ...], ...] = (
    (ABSENT,), (ONE,), (MANY_WAIT,), (MANY_DONE,), (ONE, MANY_WAIT),
    (ONE, MANY_DONE))

# (box of side a, box of side b) -> the parent's state at that label.  The
# nine products are disjoint and cover exactly UNION_STATE_OPTIONS.
BOX_PAIRS: dict[tuple[int, int], int] = {
    (Z, Z): ABSENT,
    (O, Z): ONE, (Z, O): ONE,
    (W, Z): MANY_WAIT, (Z, W): MANY_WAIT, (OW, OW): MANY_WAIT,
    (D, Z): MANY_DONE, (Z, D): MANY_DONE, (OD, OD): MANY_DONE,
}

# The parent's state at a label from either box of a pair: the larger one.
BOX_TARGET = (ABSENT, ONE, MANY_WAIT, MANY_DONE, MANY_WAIT, MANY_DONE)


def _box_options(others: frozenset[int], state: int) -> tuple[int, ...]:
    """The boxes holding ``state`` with a partner box among the other side's
    ``others`` states."""
    return tuple(box for box in range(6) if state in BOX_STATES[box] and any(
        not others.isdisjoint(BOX_STATES[partner])
        for mine, partner in BOX_PAIRS if mine == box))


# [the other side's states at a label][state] -> the boxes to expand into,
# for every nonempty set of other states.
BOX_OPTIONS = {
    others: tuple(_box_options(others, state) for state in range(4))
    for others in (frozenset(s for s in range(4) if mask >> s & 1)
                   for mask in range(1, 16))}


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


def fvs_leaf(k: int, with_witness: bool, name: str, weight: int,
             fut=None) -> Table:
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
    for state, cell in table.items():
        a, b = state[ii], state[jj]
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
        if a in (ONE, MANY_WAIT) and b in (ONE, MANY_WAIT):
            # Both still expecting their shared future add: merge the two
            # connectivity nodes, rejecting pairs already linked (that add
            # would close a cycle).
            target = list(state)
            target[ii], target[jj] = ABSENT, MANY_WAIT
            contrib(acc, tuple(target), proj(acjoin(cell, edge), 1 << i))
    return merge_cells(acc)


def fvs_retire(table: Table, dead: int) -> Table:
    """Each state over the mask ``dead`` of labels with future degree 0 (bit
    l for label l): ``ABSENT`` at every dead label, a ``ONE`` one's label
    element projected out first.  A state ``MANY_WAIT`` at a dead label is
    dropped.

    Sound: a dead class gains no neighbour again, so no add with a populated
    partner touches it, and a relabel merges it only into another dead
    class.  A ``MANY_WAIT`` one is thus waiting for an add that never comes,
    and the root rejects every state extending it.  The vertices of a dead
    class never gain an edge, and its state matters only to the root, which
    accepts ``ABSENT``, ``ONE`` and ``MANY_DONE`` alike, and through its
    ``ONE`` element, whose block can never again meet another.  Projecting
    that element out keeps every other element's block and drops the entries
    where it is a block alone; no such entry reaches a single block at the
    root.  Unions and relabels of retired classes give the same answers as
    those of the classes they replace (``ONE↓`` is what a union does to a
    finishing ``ONE`` class).  States that now coincide answer every
    completion alike, so their cells merge, keeping the best weight per
    partition.
    """
    labels = [l for l in range(dead.bit_length()) if dead >> l + 1 & 1]
    acc: dict[State, list[WPSet]] = {}
    for state, cell in table.items():
        target = list(state)
        drop = 0
        for l in labels:
            val = state[l]
            if val == MANY_WAIT:
                break
            if val == ONE:
                drop |= 2 << l
            target[l] = ABSENT
        else:
            contrib(acc, tuple(target), proj(cell, drop) if drop else cell)
    return merge_cells(acc)


def _boxed(table: Table, rows) -> Table:
    """Each state's cell in every box tuple ``rows`` lets it take (row l maps
    the state at label l to its boxes), merged per box tuple; a ONE label in
    an OD box is projected out first."""
    acc: dict[tuple[int, ...], list[WPSet]] = {}
    for state, cell in table.items():
        ones = [l for l, val in enumerate(state) if val == ONE]
        for boxes in product(*map(getitem, rows, state)):
            drop = 0
            for l in ones:
                if boxes[l] == OD:
                    drop |= 2 << l
            contrib(acc, boxes, proj(cell, drop) if drop else cell)
    return merge_cells(acc)


def _box_signature(boxes: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """A box tuple's OW/OD boxes (their labels and values), its mask of
    labels with a single box (O, W, D), and its parent states."""
    pairs = singles = 0
    for l, box in enumerate(boxes):
        if box >= OW:
            pairs |= box << 3 * l
        elif box:
            singles |= 1 << l
    return pairs, singles, tuple(map(BOX_TARGET.__getitem__, boxes))


def fvs_union(table_a: Table, pres_a: int, table_b: Table, pres_b: int,
              fut=None) -> Table:
    """Disjoint union, one ``acjoin`` per pair of box tuples that meet.

    Per label, the 15 (child, child, parent) combinations of
    :data:`UNION_STATE_OPTIONS` are the disjoint union of the nine box
    products of :data:`BOX_PAIRS`:

    ======  ======  ==========
    side a  side b  parent
    ======  ======  ==========
    Z       Z       ABSENT
    O       Z       ONE
    Z       O       ONE
    W       Z       MANY_WAIT
    Z       W       MANY_WAIT
    OW      OW      MANY_WAIT
    D       Z       MANY_DONE
    Z       D       MANY_DONE
    OD      OD      MANY_DONE
    ======  ======  ==========

    where Z = {ABSENT}, O = {ONE}, W = {MANY_WAIT}, D = {MANY_DONE},
    OW = {ONE, MANY_WAIT} and OD = {ONE↓, MANY_DONE}: a ONE member of OD
    loses its label element first, as its class is finished at the parent.
    No MANY_WAIT pair needs leaving out at a dead label (future degree 0): on
    the pruned path such a label is ABSENT in both children's states, as the
    children share the union's dead labels and the driver retires a dead
    label wherever its slot changes.  Each side expands a state only into
    boxes with a partner among the other side's states at that label
    (:data:`BOX_OPTIONS`) and merges its cells per box tuple; all cells of
    one tuple share one ground.  A tuple of side a meets one of side b
    exactly when their OW/OD boxes sit at the same labels with the same
    values and no label holds a single box (O, W, D) on both sides; the
    pair's join goes to the parent state they name.

    Sound: the products cover exactly the state pairs and targets the
    state-by-state union joins, once each, with the same projections.
    ``acjoin`` works entry pair by entry pair, so joining merged cells keeps,
    for every partition, the best weight the per-state-pair joins give it.
    Every target cell is thus the same map from partition to weight; only
    the choice among equal-weight entries may differ, which changes a
    witness only where optima tie.
    """
    if not table_a or not table_b:
        return {}
    rows_a = [BOX_OPTIONS[frozenset(column)] for column in zip(*table_b)]
    rows_b = [BOX_OPTIONS[frozenset(column)] for column in zip(*table_a)]
    buckets: dict[int, list[tuple[int, tuple[int, ...], WPSet]]] = {}
    for key, cell in _boxed(table_b, rows_b).items():
        pairs, singles, target = _box_signature(key)
        buckets.setdefault(pairs, []).append((singles, target, cell))
    acc: dict[State, list[WPSet]] = {}
    for key, cell in _boxed(table_a, rows_a).items():
        pairs, singles, target = _box_signature(key)
        for singles_b, target_b, cell_b in buckets.get(pairs, ()):
            if not singles & singles_b:
                contrib(acc, tuple(map(max, target, target_b)),
                        acjoin(cell, cell_b))
    return merge_cells(acc)


def solve_fvs(expr: CwExpression, with_witness: bool = False,
              use_reduce: bool = True) -> FvsResult:
    started = time.perf_counter()
    if check_irredundant(expr):
        raise NotIrredundantError(
            "feedback vertex set requires an irredundant expression")
    stats = SolveStats()
    k = expr.k
    # retirement only asks whether a future degree is 0
    prune = (dp.Prune(1, (k + 1) << k, ac_reduce, fvs_retire) if use_reduce
             else None)
    root_table = dp.run(
        expr, stats, prune,
        partial(fvs_leaf, k, with_witness), fvs_ren, fvs_add, fvs_union)
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
