"""The one dynamic-programming driver every solver runs, and its statistics.

Every solver is the same bottom-up pass over a k-expression's compiled
program, a table per position; it keeps only its transitions, which
:func:`run` applies, and its root rule.
The driver owns the one switch for pruning (a :class:`Prune`, or None on the
reference path), the retirement of dead labels and the rank-bound reduction.
A non-leaf transition, and a retirement, only plans keys: it lists the cell
step by which each key it makes comes from its input's cells, and
:func:`build` makes every cell, live or replayed from a key plan, but where
a replay runs the plan's entry program (:func:`replay`), and where a
repeated vertex step (a leaf, its union and the marked nodes above it) runs
as one (max, +) program (:func:`compose`, :func:`fuse`).  The domination
transitions leave out the slot states that the future degrees the driver
hands them rule out, and the keys holding a finished X where the driver's
verdict says none survives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, eq, is_not, itemgetter, lshift, mul, ne, or_
from typing import Callable, NamedTuple

from .cwexpr import (ADD, LEAF, REN, UNION, CwExpression, Program,
                     future_degrees)
from .wpsets import (MERGE_MEMO, NEG_INF, POS_INF, InvariantError, WPSet,
                     check_size, combine_witness, link, proj, put,
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
    plans_recorded: int = 0  # key plans (:func:`run`); not in as_dict
    plans_replayed: int = 0
    entry_replays: int = 0  # replays by a plan's entry program
    shape_replays: int = 0  # of those, the ones found by shape id
    fused_replays: int = 0  # vertex steps run as one program

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


KIND_NAMES = ("introduce", "relabel", "add", "union")  # by opcode


class Prune(NamedTuple):
    """The pruned path: future degrees capped at ``cap``, ``reducer`` for
    every cell above ``bound`` entries, ``retire(table, dead)``, which
    rewrites a table's keys to their canonical form over the mask ``dead``
    of labels with future degree 0 (and takes a key plan as a transition
    does), whether the transitions take the
    ``lookahead`` to a parent add, and ``doomed(program, degrees)``, the
    positions where no key holding a finished X survives, from the
    uncapped future degrees (:func:`run`)."""

    cap: int
    bound: int
    reducer: Callable[[WPSet], WPSet]
    retire: Callable[[dict, int], dict]
    lookahead: bool = False
    doomed: Callable[[Program, list], set[int]] | None = None


def capped_degrees(expr: CwExpression, cap: int | None) -> tuple[list, list]:
    """Per position: the future degrees capped at ``cap``
    (:func:`~cwsolve.cwexpr.future_degrees`), one tuple per distinct vector,
    and the mask of the labels at 0 (bit l for label l); without a cap,
    None and 0, uncomputed."""
    fut, dead = [None] * len(expr.program.op), [0] * len(expr.program.op)
    if cap is None:
        return fut, dead
    masks: dict[tuple, int] = {}
    for p, vec in enumerate(future_degrees(expr, cap)):
        mask = masks.get(vec)
        if mask is None:
            mask = masks[vec] = sum(2 << l for l, x in enumerate(vec) if not x)
        fut[p], dead[p] = vec, mask
    return fut, dead


def touched(program: Program) -> list:
    """Per position, the labels whose slots the node sets (bit l for label
    l): the leaf's label i, none at a union, and i and j otherwise.  A
    leaf's j and a union's i and j are 0, and bit 0 is no label's, so at
    every position that is ``1 << i | 1 << j``."""
    return list(map(or_, map(lshift, repeat(1), program.i),
                    map(lshift, repeat(1), program.j)))


def lookaheads(program, fut: list, dead: list) -> list:
    """Per position: ``(i, j, present, fut)`` of the parent add, its labels,
    its child's mask of nonempty labels and its future degrees, or None where
    the parent is no add or this node retires one of the add's labels."""
    out = [None] * len(program.op)
    op, i, j, sets = program.op, program.i, program.j, touched(program)
    for p in range(1, len(op)):
        c = p - 1  # an add's child comes right before it
        if op[p] == ADD and not (dead[c] & sets[c]
                                 and dead[c] & (1 << i[p] | 1 << j[p])):
            out[c] = (i[p], j[p], program.present[c], fut[p])
    return out


def repeated_contexts(program, fut: list, aheads: list, doomed) -> list:
    """Per position: a number naming the node's context where another
    position shares it, else None, as at every leaf, whose cells come from
    its vertex.  A context is all that a transition and the retirement after
    it read besides the children's tables: the opcode, the labels, the
    children's masks, the capped future degrees (and with them the dead
    labels), the lookahead and the verdict."""
    op, present = program.op, program.present
    ids: dict[tuple, int] = {}  # a context -> the first position it is at
    contexts = list(map(ids.setdefault, zip(
        op, program.i, program.j, [0, *present[:-1]],
        map(present.__getitem__, program.left), fut, aheads,
        map(doomed.__contains__, range(len(op)))), count()))
    # the contexts met again: each at a position past its first
    again = set(compress(contexts, map(ne, contexts, count())))
    shared = {context: context for context in again if op[context] != LEAF}
    return list(map(shared.get, contexts))


def vertex_steps(program, marks: list) -> list:
    """Per position: ``(key, q, chained)`` at a leaf p that starts a vertex
    step (its parent, a marked union with left child p - 1, and the marked
    relabels and adds above it, up to q), else None; ``key`` numbers the
    marks of p + 1..q, and ``chained`` says if the leaf q + 1 starts one."""
    op, n = program.op, len(program.op)
    out, keys = [None] * n, {}
    # a union whose left child is r - 2 has the leaf r - 1 as its right one
    for r in reversed([*compress(count(), map(eq, program.left,
                                              range(-2, n - 2)))]):
        if marks[r] is None or r < 2:  # 1 is no union's
            continue
        q = r
        while q + 1 < n and marks[q + 1] is not None and op[q + 1] != UNION:
            q += 1
        out[r - 1] = (keys.setdefault(tuple(marks[r:q + 1]), len(keys)), q,
                      q + 1 < n and out[q + 1] is not None)
    return out


class Plan:
    """A key plan (:func:`run`): the cell steps, in order, by which one call
    of a transition or retirement made its table from its input's, with the
    arguments of those steps (:func:`build` keeps both).  The driver keys it
    by the call's context and its input tables' key sequences.  From its
    first replay on, it holds that replay's input cells' partition sequences
    and the entry program made for them (:func:`compile_entries`); where
    :func:`run` compiled it, also the shape id of the program's output
    (:func:`shape`) and the output's largest cell, taken from the table
    :func:`build` made and the program was checked against."""

    __slots__ = ("steps", "args", "parts", "program", "made", "biggest")

    def __init__(self):
        self.steps = self.args = self.parts = self.program = None
        self.made = self.biggest = None


def check_recorded(plan: Plan) -> None:
    """Raise :class:`~cwsolve.wpsets.InvariantError` unless the call given
    ``plan``, which has returned, made its table with :func:`build`."""
    if plan.steps is None:
        raise InvariantError("a call given a key plan did not make its table "
                             "with dp.build")


def build(plan: Plan | None, steps: list, args: tuple, table: dict,
          table_b: dict | None = None) -> dict:
    """The table that ``steps`` make of ``table``'s cells, or of a union's
    two children's ``table`` and ``table_b``: the one place where a
    non-leaf node's cells are made, live or replayed.  Given a ``plan``, it
    keeps the steps and ``args`` in it.

    A unary step is ``(input key, key made, step)``, with ``args = (i, j,
    acyclic, other)``: the input key's cell as it is for step None,
    ``link(cell, i, j, step, acyclic)`` for a step of 0 or more, and
    ``other(cell, ~step)`` for a negative one; it is stored as
    :func:`~cwsolve.wpsets.put` stores it.  A union step is ``(position
    a, position b, key made, drop_a, drop_b)``, with ``args = (join,)``:
    the cells at those positions of the two tables, each with its drop
    projected out, are joined into the cell at the key, in place, as every
    cell of a union's output is one it made."""
    if plan is not None:
        plan.steps, plan.args = steps, args
    out: dict = {}
    if table_b is None:
        i, j, acyclic, other = args
        for source, key, step in steps:
            cell = table[source]
            if step is not None:
                cell = (link(cell, i, j, step, acyclic) if step >= 0
                        else other(cell, ~step))
            if key in out:
                put(out, key, cell)
            elif cell:  # put's common case, inline
                out[key] = cell
        return out
    (join,) = args
    cells_a, cells_b = list(table.values()), list(table_b.values())
    for a, b, key, drop_a, drop_b in steps:
        cell_a, cell_b = cells_a[a], cells_b[b]
        if drop_a:
            cell_a = proj(cell_a, drop_a)
        if drop_b:
            cell_b = proj(cell_b, drop_b)
        if cell_a and cell_b:
            cell = join(cell_a, cell_b, out.get(key))
            if cell:
                out[key] = cell
    return out


def _projected(cell: WPSet, drop: int, base: int):
    """Per partition of ``proj(cell, drop)``, in order: a one-entry cell of
    it and the flat indices of the entries ``proj`` maps to it."""
    groups: dict = {}
    for x, (part, entry) in enumerate(cell.items(), base):
        got = proj(WPSet.from_pairs([(part, *entry)], cell.ground), drop)
        if got:
            groups.setdefault(tuple(got), (got, []))[1].append(x)
    return groups.values()


def compile_entries(plan: Plan, out: dict, table: dict,
                    table_b: dict | None = None) -> tuple:
    """``plan``'s entry program for ``table``'s cells (a union's and
    ``table_b``'s), of which :func:`build` made ``out``: whether it reads an
    entry, and per key of ``out`` ``(key, source, ground, items)``: None
    items where ``out`` shares the input cell at ``source``, else per
    partition ``(partition, first, more)``, the flat indices of the input
    entries ``build`` weighs for it, in its order.  A union's program is in
    the form :func:`compose` gives, over pairs of entries.  The partitions
    come from the kernel on one-entry cells, and must be ``out``'s, or
    :class:`~cwsolve.wpsets.InvariantError` is raised."""
    cells = list(table.values())
    bases = [0, *accumulate(map(len, cells))]
    rows = []  # (key, input position, (step, order), partition, entry)
    if table_b is None:
        i, j, acyclic, other = plan.args
        position = {key: p for p, key in enumerate(table)}
        for s, (source, key, step) in enumerate(plan.steps):
            p, first = position[source], {}
            for x, (part, entry) in enumerate(cells[p].items(), bases[p]):
                one = WPSet.from_pairs([(part, *entry)], cells[p].ground)
                for got in (one if step is None else other(one, ~step)
                            if step < 0 else link(one, i, j, step, acyclic)):
                    # where link drops both labels, ties go by the entry
                    # its joined partition first came from, as in link
                    rows.append((key, p, (s, first.setdefault(
                        tuple(link(one, i, j, 0, acyclic)), x)
                        if step == 1 << i | 1 << j else 0), got, x))
    else:
        (join,) = plan.args
        cells_b = list(table_b.values())
        bases_b = [0, *accumulate(map(len, cells_b))]
        rows = [(key, None, (s, 0), got, (x, y))
                for s, (a, b, key, drop_a, drop_b) in enumerate(plan.steps)
                for one_a, xs in _projected(cells[a], drop_a, bases[a])
                for one_b, ys in _projected(cells_b[b], drop_b, bases_b[b])
                for got in join(one_a, one_b) for x in xs for y in ys]
    made, sources = {}, {}  # per key: {partition: entries}, positions
    for key, p, _, part, _ in rows:
        made.setdefault(key, {}).setdefault(part, [])
        sources.setdefault(key, set()).add(p)
    for key, _, _, part, x in sorted(rows, key=itemgetter(2)):  # stable
        made[key][part].append(x)
    if list(made) != list(out) or any(
            list(parts) != list(out[key]) for key, parts in made.items()):
        raise InvariantError("an entry program does not make the table "
                             "dp.build made")
    if table_b is not None:  # a program as compose makes them
        return True, (tuple((key, out[key].ground, tuple(parts))
                            for key, parts in made.items()),
                      tuple((*xs[0], tuple(xs[1:])) for parts in made.values()
                            for xs in parts.values()))
    program = []
    for key, parts in made.items():
        p, *others = sources[key]
        if not others and out[key] is cells[p]:
            program.append((key, p, None, None))
        else:
            program.append((key, None, out[key].ground, tuple(
                (part, xs[0], tuple(xs[1:])) for part, xs in parts.items())))
    return any(items for *_, items in program), tuple(program)


def replay(plan: Plan, stats: SolveStats, table: dict,
           table_b: dict | None = None, known: bool = False) -> dict:
    """The table ``plan`` makes of ``table``'s cells (a union's and
    ``table_b``'s), counted in ``stats``: by its entry program where the
    cells' partitions are those it was compiled for, else by :func:`build`.
    Where ``known``, the caller has found ``plan`` by its input's shape ids,
    which are those of the input it was compiled for, and the program runs
    unchecked."""
    stats.plans_replayed += 1
    cells = list(table.values())
    cells_b = () if table_b is None else list(table_b.values())
    if known:
        stats.shape_replays += 1
    else:
        parts = [*map(tuple, cells), *map(tuple, cells_b)]
        if parts != plan.parts:
            out = build(None, plan.steps, plan.args, table, table_b)
            if plan.parts is None:
                plan.program = compile_entries(plan, out, table, table_b)
                plan.parts = parts
            return out
    stats.entry_replays += 1
    reads, program = plan.program
    if table_b is not None:
        return unflatten(program[0], fuse(program[1], flat(table),
                                          flat(table_b)))
    entries = reads and flat(table)
    out = {}
    for key, source, ground, items in program:
        if items is None:
            out[key] = cells[source]
            continue
        cell = out[key] = WPSet(ground)
        for part, x, more in items:
            entry = entries[x]
            for y in more:  # the first of the heaviest
                if entries[y][0] > entry[0]:
                    entry = entries[y]
            cell[part] = entry
    return out


def compose(plans: list) -> tuple:
    """The one program a union's entry program and the unary ones after it
    make: the output's ``(key, ground, partitions)`` and per output entry
    ``(a, b, more)``, the input pairs whose first heaviest sum it is, as
    :func:`compile_entries` gives a union's.  A unary step lists its
    candidates' pairs outer first, then inner, so the first of the heaviest
    is the entry the nested choice keeps."""
    skeleton, items = plans[0].program[1]
    items = [[(a, b), *more] for a, b, more in items]
    for plan in plans[1:]:
        starts = [0, *accumulate(len(parts) for *_, parts in skeleton)]
        made, out = [], []
        for key, source, ground, parts in plan.program[1]:
            if parts is None:  # the input cell at source, as it is
                _, ground, parts = skeleton[source]
                out += items[starts[source]:starts[source + 1]]
            else:
                out += ([y for x in (first, *more) for y in items[x]]
                        for _, first, more in parts)
                parts = tuple(map(itemgetter(0), parts))
            made.append((key, ground, parts))
        skeleton, items = made, out
    return tuple(skeleton), tuple((*pairs[0], tuple(pairs[1:]))
                                  for pairs in items)


def fuse(items: tuple, entries: list, entries_b: list) -> list:
    """The output entries of a program :func:`compose` made, over the flat
    input entries of a union's two children."""
    out = []
    for a, b, more in items:
        weight = entries[a][0] + entries_b[b][0]
        for x, y in more:  # the first of the heaviest sums
            if entries[x][0] + entries_b[y][0] > weight:
                a, b, weight = x, y, entries[x][0] + entries_b[y][0]
        out.append((weight, combine_witness(entries[a][1], entries_b[b][1])))
    return out


def unflatten(skeleton: tuple, entries: list) -> dict:
    """The table of ``skeleton``'s keys, grounds and partitions, holding
    ``entries`` in order."""
    out, entries = {}, iter(entries)
    for key, ground, parts in skeleton:
        cell = out[key] = WPSet(ground)
        cell.update(zip(parts, entries))
    return out


def flat(table: dict) -> list:
    """A table's entries, cell by cell, in order."""
    return list(chain.from_iterable(map(dict.values, table.values())))


def shape(table: dict) -> tuple:
    """A table's shape: its keys and its cells' partitions, in order."""
    return tuple(table), tuple(map(tuple, table.values()))


def live_width(present, dead) -> int:
    """The most nonempty labels outside its ``dead`` mask any position has."""
    return max((mask & ~gone).bit_count() for mask, gone in zip(present, dead))


def run(expr: CwExpression, stats: SolveStats, prune: Prune | None,
        leaf, ren, add, union) -> dict:
    """Run the transitions over ``expr.program``; returns the root's table.

    A node's table is ``leaf(label, name, weight, fut)``, with its vertex's
    label, ``ren(table, present, i, j, fut)``, ``add(table, present, i, j,
    fut)`` or ``union(table_a, pres_a, table_b, pres_b, fut)``, where
    ``present`` is a child's mask of nonempty label classes (bit l for label
    l) and ``fut`` the node's future degree vector capped at ``prune.cap``
    (:func:`capped_degrees`).  Under ``prune.lookahead`` a node whose parent
    is an add also gets that add's ``(i, j, present, fut)``
    (:func:`lookaheads`) as one more argument, so that it can leave out,
    before building their cells, the keys the add has no successor for; see
    below.  At each position of ``prune.doomed``, where the transitions'
    own rule shows that no key holding a finished X reaches the root, the
    node also gets the keyword ``doomed=True``, and builds no such key.
    Each position's kind, states and largest cell go into ``stats``.  The
    joins' merge memo (:data:`~cwsolve.wpsets.MERGE_MEMO`) starts and ends
    the run empty.

    ``prune`` is the one switch for every prune.  None is the unpruned
    reference path: no future degree is computed, ``fut`` is None, no node
    is doomed, and every table is kept whole.  Otherwise the future degrees
    read the add sizes of the irredundancy pass the solver ran before
    (:attr:`~cwsolve.cwexpr.CwExpression.adds`), and after each transition:

    * ``prune.retire`` rewrites the table over the node's dead labels, those
      whose future degree is 0, if the node changes the slot of one of them:
      the leaf's label, the two classes of an add, or either label of a
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

    The lookahead is sound: an add maps each key to its successors alone
    and drops a key with none, so its table is the same without those keys,
    and so is every table above it; only the child's table and the stats
    shrink.  The driver's own steps keep the test valid: they neither change
    a cell of a kept key, nor, as long as the child retires none of the
    add's labels (the lookahead is withheld where it does), its two slots.
    The verdict's rule argues its own soundness; like the lookahead, it
    drops only keys with no root descendant.

    Key plans, on both paths.  Every non-leaf transition and retirement
    lists its cell steps and makes its table with :func:`build`.  Before
    the first node, the driver marks the positions whose context
    (:func:`repeated_contexts`) another position shares.  Only there does a
    transition, and the retirement after it, get the keyword ``plan``: a
    :class:`Plan` keyed by the context and its input tables' key sequences,
    both children's at a union.  At the first such call the plan is empty,
    and :func:`build` keeps the call's steps in it; a call that leaves it
    without steps raises :class:`~cwsolve.wpsets.InvariantError`.  At every
    later one the driver calls no transition: it replays the plan over its
    own input's cells (:func:`replay`).  Sound: a transition's steps
    depend only on its context and its inputs' key sequences, never on
    their cells, and a live call and a replay by :func:`build` run the
    same :func:`build` over the same steps, so they make the same cells,
    witnesses and ties.  A step that comes out empty on other cells drops
    its key, and the shorter table then keys its parent's lookup as any
    other does.  The reduction after a call changes no key.  Where no
    context repeats, as on naive expressions, nothing is recorded.  The
    plans live for one run; ``stats`` counts those recorded and replayed.

    Entry plans.  A plan's first replay compiles an entry program for its
    input cells' partitions (:func:`compile_entries`); a later replay
    whose input cells hold the same partition sequences runs it, counted
    in ``stats.entry_replays``, and any other runs :func:`build`.  Sound:
    a join's, link's or projection's output partitions and their order
    depend only on the input partitions and the labels, and weights flow
    only through + and max, so each output entry is the first of a fixed
    list of input entries, or pairs, with the largest weight or sum: the
    entry, and so the witness, that :func:`build` keeps.

    Shape ids.  A table's shape is its keys and its cells' partitions, in
    order (:func:`shape`); the driver interns each shape it meets once per
    run, so two shapes are equal exactly when their ids are.  It holds an
    id for a table where it knows the shape: a leaf a marked parent reads,
    and the output of a replay that compiled or ran an entry program.  A
    table made live or by :func:`build`, retired live or reduced has none.
    A compile files its plan under the context and the ids of its inputs;
    at a marked position whose inputs all have ids the driver looks the
    plan up by them (a retirement by ``~context`` and the id) before the
    key lookup, and a hit runs the program with no key tuple and no
    partition check, counted in ``stats.shape_replays``.  Sound: a hit's
    inputs have the shapes the program was compiled for, so their keys
    give the same plan and their partitions pass the check; a program's
    output keys and partitions are fixed by its input's, so the output id
    and largest cell kept at the compile are exact for every run.

    Fused steps.  Where a vertex step (:func:`vertex_steps`) runs node by
    node and every node keeps an id, the driver composes the programs it
    ran (:func:`compose`), checks the result once against the table the
    nodes made (:class:`~cwsolve.wpsets.InvariantError`), and files it
    under the step's marks and its input ids, with the output's id and the
    states and largest cells of p..q.  A later hit skips p + 1..q and runs
    it (:func:`fuse`), counted in ``stats.fused_replays`` and, per program
    it stands for, in the replay counts; along a run of hits the output
    stays a flat entry list, made a table where the run ends.  Sound: each
    node's program is fixed by its context and input ids, and its output
    id by the program, so the key fixes every shape, states count and
    largest cell, and as no node of a filed step was reduced, no hit is.

    ``stats.live_width`` is the most nonempty labels any node has that are
    not dead (:func:`live_width`); on the reference path every nonempty
    label counts.
    """
    program = expr.program
    ops, n = program.op, len(program.op)
    doom = prune is not None and prune.doomed
    degrees = future_degrees(expr) if doom else None
    fut, dead = capped_degrees(expr, None if prune is None else prune.cap)
    aheads = (lookaheads(program, fut, dead)
              if prune is not None and prune.lookahead else [None] * n)
    doomed = prune.doomed(program, degrees) if doom and degrees else ()
    del degrees  # one tuple per position: free it before the tables grow
    marks = repeated_contexts(program, fut, aheads, doomed)
    # per position, once and in bulk: its dead labels where the node sets a
    # dead slot, else 0, the verdict as keywords, and whether a marked
    # parent reads the node's table
    retiring = list(map(mul, dead, map(bool, map(and_, dead,
                                                 touched(program)))))
    kws = [{}] * n  # shared: the driver never writes to one
    for p in doomed:
        kws[p] = {"doomed": True}
    named = [False] * n
    for p in compress(count(), map(is_not, marks, repeat(None))):
        named[p - 1] = True
        if ops[p] == UNION:
            named[program.left[p]] = True
    bound = POS_INF if prune is None else prune.bound
    tables, states, cells = [], [], []
    plans: dict[tuple, Plan] = {}  # (context, input key sequences) -> plan
    shapes: dict[tuple, int] = {}  # a table's shape -> its id
    ids = [None] * n  # per position: its table's shape id, where known
    compiled: dict[tuple, Plan] = {}  # (context, input shape ids) -> plan
    steps = vertex_steps(program, marks)
    fused: dict[tuple, tuple] = {}  # (step key, input shape ids) -> record
    held = pending = None  # a fused run's output entries; a step to file
    until, programs = -1, 0  # its end; the programs the fused steps ran

    def intern(table):
        return shapes.setdefault(shape(table), len(shapes))

    def replayed(context, plan, table, right=None):
        """The replay of ``plan`` by :func:`replay`, with its output's shape
        id and largest cell where it compiled or ran the entry program; a
        compile files the plan under its input's shape ids."""
        fresh, ran = plan.parts is None, stats.entry_replays
        out = replay(plan, stats, table, right)
        if fresh:
            plan.made = intern(out)
            plan.biggest = max(map(len, out.values()), default=0)
            compiled[(context, intern(table)) if right is None
                     else (context, intern(table), intern(right))] = plan
        elif stats.entry_replays == ran:  # built
            return out, None, None
        return out, plan.made, plan.biggest

    def file_step(key, p, top, leaf_table, table):
        """File the vertex step from the leaf at p, run node by node from
        ``top`` and ``leaf_table`` to ``table`` (see Fused steps)."""
        q, run = until, []  # a node made live, built or reduced has no id
        for r in range(p + 1, q + 1):
            plan = compiled.get((marks[r], ids[p - 1], ids[p]) if r == p + 1
                                else (marks[r], ids[r - 1]))
            if plan is not None and retiring[r]:
                run.append(plan)
                plan = compiled.get((~marks[r], plan.made))
            if plan is None:
                return
            run.append(plan)
        skeleton, items = compose(run)
        if skeleton != tuple((k, cell.ground, tuple(cell))
                             for k, cell in table.items()) or fuse(
                items, flat(top), flat(leaf_table)) != flat(table):
            raise InvariantError("a fused vertex step does not make the "
                                 "table its nodes made")
        fused[(key, ids[p - 1], ids[p])] = (
            items, skeleton, ids[q], states[p:q + 1], cells[p:q + 1], len(run))

    MERGE_MEMO.clear()
    try:
        rows = enumerate(zip(ops, program.i, program.j, program.left,
                             program.name, program.weight, program.present,
                             fut, retiring, aheads, kws, marks, steps))
        for p, (op, i, j, left, name, weight, mask, vec, dying, ahead, kw,
                mark, step) in rows:
            extra = () if ahead is None else (ahead,)
            made = biggest = plan = None  # made: the shape id of table
            if mark is not None:
                plan = compiled.get((mark, ids[left], ids[p - 1])
                                    if op == UNION else (mark, ids[p - 1]))
                if plan is not None:
                    made = plan.made
                else:  # a union reads both children's keys
                    inputs = (mark, *map(tuple, tables[-2:] if op == UNION
                                         else tables[-1:]))
                    plan = plans.get(inputs)
                    if plan is None:
                        plans[inputs] = record = Plan()
                        kw = {**kw, "plan": record}
            right = tables.pop() if op == UNION else None
            if plan is None:
                if op == LEAF:
                    table = leaf(i, name, weight, vec, *extra, **kw)
                    if named[p]:
                        made = intern(table)
                elif op == UNION:
                    table = union(tables.pop(), program.present[left], right,
                                  child, vec, *extra, **kw)
                else:
                    table = (ren if op == REN else add)(
                        tables.pop(), child, i, j, vec, *extra, **kw)
                if mark is not None:
                    check_recorded(record)
            elif made is not None:  # found by the input's shape ids
                table = replay(plan, stats, tables.pop(), right, True)
                biggest = plan.biggest
            else:
                table, made, biggest = replayed(mark, plan, tables.pop(),
                                                right)
            child = mask
            if dying:
                if mark is None:
                    table, made = prune.retire(table, dying), None
                else:  # ~mark < 0 keys the retirement's plans apart
                    plan = compiled.get((~mark, made))
                    if plan is not None:
                        table = replay(plan, stats, table, None, True)
                        made, biggest = plan.made, plan.biggest
                    else:
                        inputs = (~mark, tuple(table))
                        plan = plans.get(inputs)
                        if plan is None:
                            plan = plans[inputs] = Plan()
                            table = prune.retire(table, dying, plan=plan)
                            check_recorded(plan)
                            made = biggest = None
                        else:
                            table, made, biggest = replayed(~mark, plan,
                                                            table)
            if step is not None:  # a leaf that starts a vertex step
                fusion = fused.get((step[0], ids[p - 1], made))
                if fusion is not None:  # the ids fix p..q's states and cells
                    q, chained = step[1], step[2]
                    items, skeleton, ids[q], its_states, its_cells, m = fusion
                    held = fuse(items, flat(tables.pop()) if held is None
                                else held, flat(table))
                    states += its_states
                    cells += its_cells
                    programs += m
                    stats.fused_replays += 1
                    next(islice(rows, q - p, q - p), None)  # skip p + 1..q
                    child = program.present[q]
                    if not chained:
                        tables.append(unflatten(skeleton, held))
                        held = None
                    continue
                if held is not None:  # the run of fused steps ends
                    tables.append(unflatten(skeleton, held))
                    held = None
            if biggest is None:
                biggest = max(map(len, table.values()), default=0)
            if biggest > bound:
                for key, cell in table.items():
                    if len(cell) > bound:
                        table[key] = check_size(prune.reducer(cell), bound)
                        stats.reduce_calls += 1
                biggest = max(map(len, table.values()))
                made = None  # the reduced table's shape is unknown
            tables.append(table)
            states.append(len(table))
            cells.append(biggest)
            if made is not None:
                ids[p] = made
                if p == until:
                    file_step(*pending, table)
                    pending = None
                elif step is not None and ids[p - 1] is not None:
                    until, pending = step[1], (step[0], p, tables[-2], table)
    finally:
        MERGE_MEMO.clear()
    stats.plans_recorded += len(plans)
    stats.plans_replayed += programs
    stats.entry_replays += programs
    stats.shape_replays += programs
    stats.node_kinds.update(map(KIND_NAMES.__getitem__, program.op))
    stats.dp_nodes = stats.node_kinds.total()
    stats.total_states += sum(states)
    stats.peak_states = max(stats.peak_states, *states)
    stats.max_cell_entries = max(stats.max_cell_entries, *cells)
    stats.live_width = max(stats.live_width,
                           live_width(program.present, dead))
    return tables[-1]


_ROOT = ()  # the one partition of the empty ground set


def root_optimum(entries) -> tuple[int | float, tuple | None]:
    """The largest of the root's (weight, witness) ``entries``, None ones
    skipped, with its witness's sorted vertex names (None when untracked).

    Ties keep the first entry, as :meth:`~cwsolve.wpsets.WPSet.add` does.
    Without an entry the weight is -inf.
    """
    best = WPSet.from_pairs(((_ROOT, *entry) for entry in entries
                             if entry is not None), 0)
    weight, wit = best.get(_ROOT, (NEG_INF, None))
    return weight, None if wit is None else tuple(sorted(witness_names(wit)))
