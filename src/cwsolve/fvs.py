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

A union node joins the two children's cells once per pair of states and
target state.  Per label, the target comes from the 15 (child, child,
parent) triples of :data:`UNION_STATE_OPTIONS`; a ``ONE`` class whose
target is ``MANY_DONE`` loses its label element on that side first, as its
connectivity is resolved per side.  Sound: each state pair and target is
joined exactly once, and the joins of one target merge keeping the best
weight per partition.

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

Each transition but the leaf's, and :func:`fvs_retire`, only plans keys: it
lists a cell step per key it makes, and :func:`~cwsolve.dp.build` makes the
cells, linking with ``acyclic`` and projecting with ``proj``, and a union's
with ``acjoin``.  Where a node's context repeats, the driver keeps the first
call's steps in a key plan (:class:`~cwsolve.dp.Plan`) and replays them on
inputs of the same shape, without calling the transition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import product

from . import dp
from .cwexpr import (CwExpression, NotIrredundantError, check_irredundant,
                     vertex_weights)
from .dp import SolveStats
from .wpsets import InvariantError, WPSet, ac_reduce, acjoin, proj

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


@dataclass
class FvsResult:
    forest_weight: int
    fvs_weight: int
    witness: tuple[str, ...] | None  # vertices to delete
    forest_witness: tuple[str, ...] | None
    stats: SolveStats


def label_mask(state: State, value: int) -> int:
    """Bit l set for every label l in state ``value``."""
    mask = 0
    for lbl, val in enumerate(state, start=1):
        if val == value:
            mask |= 1 << lbl
    return mask


def state_ground(state: State) -> int:
    return ANCHOR_BIT | label_mask(state, ONE) | label_mask(state, MANY_WAIT)


def fvs_leaf(k: int, with_witness: bool, label: int, name: str, weight: int,
             fut=None) -> Table:
    wit0 = () if with_witness else None
    wit1 = name if with_witness else None
    untouched = WPSet(ANCHOR_BIT)
    untouched.add((ANCHOR_BIT,), 0, wit0)
    bit = 1 << label
    lone = WPSet(ANCHOR_BIT | bit)
    # The single vertex either already hangs off the anchor or does not.
    lone.add((ANCHOR_BIT | bit,), weight, wit1)
    lone.add((ANCHOR_BIT, bit), weight, wit1)
    zero = (ABSENT,) * k
    return {zero: untouched, zero[:label - 1] + (ONE,) + zero[label:]: lone}


def fvs_add(table: Table, present: int, i: int, j: int, fut=None, *,
            plan: dp.Plan | None = None) -> Table:
    """Add all edges between classes i and j (none may exist beforehand)."""
    steps = []
    ii, jj = i - 1, j - 1
    for state in table:
        a, b = state[ii], state[jj]
        if a == ABSENT or b == ABSENT:
            # no forest vertex on one side: nothing changes, so a waiting
            # class goes on waiting, which needs a later add
            steps.append((state, state, None))
        # Classes that still wait for their allowed add get it consumed here;
        # every other populated/populated combination closes a cycle.
        elif a == ONE and b == ONE:
            steps.append((state, state, 0))
        elif a == MANY_WAIT and b == ONE:
            steps.append((state, state[:ii] + (MANY_DONE,) + state[ii + 1:],
                          1 << i))
        elif a == ONE and b == MANY_WAIT:
            steps.append((state, state[:jj] + (MANY_DONE,) + state[jj + 1:],
                          1 << j))
    return dp.build(plan, steps, (i, j, True, proj), table)


def fvs_ren(table: Table, present: int, i: int, j: int, fut=None, *,
            plan: dp.Plan | None = None) -> Table:
    """Relabel class i to j; table keys keep length k with slot i pinned ABSENT."""
    steps = []
    ii, jj = i - 1, j - 1
    for state in table:
        a, b = state[ii], state[jj]
        if a == ABSENT:
            steps.append((state, state, None))
            continue
        target = list(state)
        target[ii] = ABSENT
        if b == ABSENT:
            # Rename element i to j inside every partition.
            target[jj] = a
            steps.append((state, tuple(target),
                          None if a == MANY_DONE else 1 << i))
            continue
        if a in (ONE, MANY_DONE) and b in (ONE, MANY_DONE):
            # Both classes populated and finished: the merged class is
            # finished too; its members must already be connected onward.
            target[jj] = MANY_DONE
            drop = (1 << i if a == ONE else 0) | (1 << j if b == ONE else 0)
            steps.append((state, tuple(target), ~drop))
        if a in (ONE, MANY_WAIT) and b in (ONE, MANY_WAIT):
            # Both still expecting their shared future add: merge the two
            # connectivity nodes, rejecting pairs already linked (that add
            # would close a cycle).
            target[jj] = MANY_WAIT
            steps.append((state, tuple(target), 1 << i))
    return dp.build(plan, steps, (i, j, True, proj), table)


def fvs_retire(table: Table, dead: int, *,
               plan: dp.Plan | None = None) -> Table:
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
    steps = []
    for state in table:
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
            steps.append((state, tuple(target), ~drop))
    return dp.build(plan, steps, (0, 0, True, proj), table)


def _union_targets(sa: State, sb: State) -> tuple:
    """:func:`fvs_union`'s targets for a pair of states: each target they
    allow, with the ``ONE`` labels each side projects out because the target
    finishes them, as (target, drop a, drop b) triples."""
    ones_a, ones_b = label_mask(sa, ONE), label_mask(sb, ONE)
    out = []
    for target in product(*map(UNION_STATE_OPTIONS.__getitem__, zip(sa, sb))):
        done = label_mask(target, MANY_DONE)
        out.append((target, ones_a & done, ones_b & done))
    return tuple(out)


def fvs_union(table_a: Table, pres_a: int, table_b: Table, pres_b: int,
              fut=None, pairs: dict | None = None, *,
              plan: dp.Plan | None = None) -> Table:
    """Disjoint union: one ``acjoin`` step per pair of states and target.

    Per label, the pair's states (a, b) allow the parent states
    ``UNION_STATE_OPTIONS[(a, b)]``; a target is one choice per label.  A
    ``ONE`` label whose target is ``MANY_DONE`` is projected out of its
    side's cell before the join, as its class is finished at the parent.
    No ``MANY_WAIT`` target needs leaving out at a dead label (future degree
    0): on the pruned path such a label is ``ABSENT`` in both children's
    states, as the children share the union's dead labels and the driver
    retires a dead label wherever its slot changes.  A pair's targets and
    projections (:func:`_union_targets`) are kept in ``pairs``, a dict
    :func:`solve_fvs` keeps for one solve, from the first union that meets
    the pair on.

    Sound: each state pair and target is joined exactly once, and the joins
    of one target merge keeping the best weight per partition
    (:func:`~cwsolve.dp.build`).
    """
    steps = []
    pairs = {} if pairs is None else pairs
    for a, sa in enumerate(table_a):
        for b, sb in enumerate(table_b):
            targets = pairs.get((sa, sb))
            if targets is None:
                targets = pairs[sa, sb] = _union_targets(sa, sb)
            for target, drop_a, drop_b in targets:
                steps.append((a, b, target, drop_a, drop_b))
    return dp.build(plan, steps, (acjoin,), table_a, table_b)


def solve_fvs(expr: CwExpression, with_witness: bool = False,
              use_reduce: bool = True) -> FvsResult:
    started = time.perf_counter()
    if check_irredundant(expr):
        raise NotIrredundantError(
            "feedback vertex set requires an irredundant expression")
    stats = SolveStats()
    k = expr.max_label  # a state has a slot per label in use
    # retirement only asks whether a future degree is 0
    prune = (dp.Prune(1, (k + 1) << k, ac_reduce, fvs_retire) if use_reduce
             else None)
    root_table = dp.run(
        expr, stats, prune, partial(fvs_leaf, k, with_witness), fvs_ren,
        fvs_add, partial(fvs_union, pairs={}))
    # the forest hangs off the anchor as one tree, and no promised add is owed
    forest, kept = dp.root_optimum(
        (cell.get((state_ground(state),))
         for state, cell in root_table.items() if MANY_WAIT not in state))
    if forest < 0:
        raise InvariantError("no root entry, yet the empty forest is always one")
    weights = vertex_weights(expr)
    witness = None if kept is None else tuple(sorted(weights.keys() - kept))
    stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return FvsResult(forest_weight=forest, fvs_weight=sum(weights.values()) - forest,
                     witness=witness, forest_witness=kept, stats=stats)
