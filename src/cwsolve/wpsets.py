"""Sets of weighted partitions and the operators the solvers are built from.

A :class:`WPSet` is a dict from the partitions of one ground set to the
largest weight seen so far with its witness, ``(weight, witness)``; a
minimising problem negates its weights.  The set holds the ground set once;
each key is a partition's canonical block tuple (:mod:`cwsolve.partitions`),
which the operators build directly.  A
:class:`~cwsolve.partitions.Partition` is such a tuple, so it looks entries
up and fills sets just as well.
Insertion keeps the set normalized: one entry per partition, largest weight,
and on a tie the entry inserted first.  Insertion order is deterministic, so
the same input always keeps the same witness.

A cell is never mutated once a table holds it, as tables share cells:
:func:`cwsolve.dp.build`, which makes the cells of adds, relabels and
retirement, stores them with :func:`put`, which merges into a copy, and
:func:`proj` with nothing to drop returns its input.  A union owns every
cell of the table it builds, so ``build`` merges each join into the cell
already at its key (the ``into`` of :func:`join_sets` and :func:`acjoin`).
A replay by a plan's entry program (:func:`cwsolve.dp.replay`) makes each
cell anew from its input entries, or shares an input cell where ``build``
would.
:func:`link` is the adds' and relabels' one cell step: the join with the
edge cell of two labels and the projection after it, in one pass.

A witness is an O(1) provenance value, never a set: ``None`` means witnesses
are not tracked, ``()`` is the empty witness, a vertex name is a leaf, and a
pair ``(a, b)`` joins two non-empty witnesses.  Pairs share their parts, so
combining costs O(1) however large the vertex set is; :func:`witness_names`
turns one witness into its name set, once, at the root.

``reduce_set`` and ``ac_reduce`` are the table-pruning workhorses.  Both
encode each partition as a row of the cut matrix over GF(2) (columns indexed by
the two-sided cuts of the ground set that fix the minimum element's side) and
keep a max-weight row basis; a basis row set answers every completion
query exactly like the full set does.  ``ac_reduce`` takes one basis per block
count, so that the surviving entries also preserve optima under the
acyclicity constraint; its output can be larger by that factor.  When to
reduce is not decided here: :func:`cwsolve.dp.run` reduces a cell only once it
has outgrown its rank bound.

The joins look each pair of block tuples up in :data:`MERGE_MEMO` before
calling :func:`~cwsolve.partitions.merge_blocks`, because a DP merges the same
pairs over and over.  The memo holds only pure results, so neither an entry
left by another solve nor one lost to a clear changes an answer;
:func:`cwsolve.dp.run` clears it when a solve starts and ends, which bounds it
by one solve.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable

from .partitions import Partition, merge_blocks

Blocks = tuple[int, ...]  # a canonical partition

NEG_INF = float("-inf")
POS_INF = float("inf")


class InvariantError(RuntimeError):
    """A guaranteed invariant failed: a bug in the program, not bad input."""


def check_size(cell: WPSet, bound: int) -> WPSet:
    if len(cell) > bound:
        raise InvariantError(
            f"cell holds {len(cell)} entries, above its bound {bound}")
    return cell


def combine_witness(a, b):
    """The witness of two disjoint parts: the pair, or the other side when
    one side is empty (``()``) or untracked (``None``)."""
    if not a:
        return a if b is None else b
    if not b:
        return a
    return (a, b)


def witness_names(w) -> set[str]:
    """The vertex names of a tracked witness.

    Iterative, since a chain of pairs can be as deep as the vertex count.
    """
    names = set()
    stack = [w]
    while stack:
        w = stack.pop()
        if type(w) is str:
            names.add(w)
        else:
            stack.extend(w)  # a pair, or the empty witness
    return names


class WPSet(dict):
    """A normalized set of weighted partitions over one ground set: a dict
    from each partition's block tuple to its (weight, witness) entry."""

    __slots__ = ("ground",)

    def __init__(self, ground: int):
        self.ground = ground  # a bit mask; the dict starts empty

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple], ground: int) -> WPSet:
        """Build a set from (partition, weight[, witness]) tuples, normalizing."""
        out = cls(ground)
        for pair in pairs:
            out.add(*pair)
        return out

    def add(self, p: Blocks, weight: int, witness=None) -> None:
        """Keep the heavier entry for ``p``; on equal weight, the incumbent."""
        cur = self.get(p)
        if cur is None or weight > cur[0]:
            self[p] = (weight, witness)

    def merge(self, other: WPSet) -> None:
        """Add every entry of ``other``, in its order, in place."""
        if other.ground != self.ground:
            raise ValueError("can only merge sets over one ground set")
        for p, (w, wit) in other.items():
            self.add(p, w, wit)

    def copy(self) -> WPSet:
        out = WPSet(self.ground)
        out.update(self)
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"({p!r}, {w})" for p, (w, _) in self.items())
        return f"WPSet{{{body}}}"


def proj(a: WPSet, drop: int) -> WPSet:
    """Drop the mask ``drop``; entries owning a block inside it vanish."""
    if drop & ~a.ground:
        raise ValueError("proj: elements outside the ground set")
    if not drop:
        return a  # cells are never mutated once published
    keep = ~drop
    out = WPSet(a.ground & keep)
    for p, (w, wit) in a.items():
        blocks = []
        dead = False
        for b in p:
            b2 = b & keep
            if not b2:
                dead = True
                break
            blocks.append(b2)
        if dead:
            continue
        blocks.sort()
        out.add(tuple(blocks), w, wit)
    return out


def edge_cell(i: int, j: int) -> WPSet:
    """The cell whose one weight-0 entry links elements i and j.

    Its witness is ``None`` whether or not witnesses are tracked: joined as
    the right operand, it leaves every witness of the other cell as it is
    (:func:`combine_witness`).
    """
    mask = (1 << i) | (1 << j)
    cell = WPSet(mask)
    cell.add((mask,), 0)
    return cell


# (p, q) -> merge_blocks(p, q) for the block tuples the joins have merged.
MERGE_MEMO: dict[tuple[Blocks, Blocks], Blocks] = {}


def _join(a: WPSet, b: WPSet, check_acyclic: bool, into: WPSet | None) -> WPSet:
    ground = a.ground | b.ground
    if into is None:
        out = WPSet(ground)
    elif into.ground != ground or into is a or into is b:
        raise ValueError("can only merge into a third set over the joined ground set")
    else:
        out = into
    get = out.get
    # A pair closes no cycle iff each shared element joins two blocks into
    # one: |p| + |q| - |merged| = |a.ground & b.ground|.
    shared = (a.ground & b.ground).bit_count()
    memo = MERGE_MEMO
    for p, (w1, x1) in a.items():
        lost = len(p) - shared
        for q, (w2, x2) in b.items():
            blocks = memo.get((p, q))
            if blocks is None:
                blocks = memo[p, q] = merge_blocks(p, q)
            if check_acyclic and len(blocks) - len(q) != lost:
                continue
            w = w1 + w2
            cur = get(blocks)
            if cur is None or w > cur[0]:
                out[blocks] = (w, combine_witness(x1, x2))
    return out


def join_sets(a: WPSet, b: WPSet, into: WPSet | None = None) -> WPSet:
    """All pairwise joins with summed weights, over the united ground set.

    With ``into``, a third set over that ground set, the joins are merged
    into it in place, as :meth:`WPSet.merge` of the joined set would, and
    ``into`` is returned; neither operand changes.
    """
    return _join(a, b, False, into)


def acjoin(a: WPSet, b: WPSet, into: WPSet | None = None) -> WPSet:
    """Like :func:`join_sets` but keeps only cycle-free combinations."""
    return _join(a, b, True, into)


def link(cell: WPSet, i: int, j: int, drop: int, acyclic: bool = False) -> WPSet:
    """``proj(join_sets(cell, edge_cell(i, j)), drop)`` in one pass, with
    ``acjoin`` if ``acyclic``: the same entries in the same order, and the
    same witness on a tie.

    Each entry's blocks that meet {i, j} merge into one block with i and j
    (an element outside the ground set joins it); in acyclic mode an entry
    whose i and j already share a block is dropped, as the edge would close
    a cycle.  ``drop`` is 0, ``1 << i``, ``1 << j`` or both; an entry whose
    merged block lies inside it vanishes.  Weights and witnesses stay as
    they are.  Only when both are dropped can entries of two joined
    partitions meet at one key; there a tie goes, as in the composition, to
    the joined partition made first.
    """
    edge = 1 << i | 1 << j
    if i == j or drop & ~edge:
        raise ValueError("link: i and j must differ, and only they may be dropped")
    out = WPSet((cell.ground | edge) & ~drop)
    get = out.get
    keep = ~drop
    both = drop == edge
    if both:
        first: dict[tuple[Blocks, int], int] = {}  # joined partition -> position
        won: dict[Blocks, int] = {}  # key -> ``first`` of its winner's
    for pos, (p, (w, wit)) in enumerate(cell.items()):
        merged, rest = edge, []
        for b in p:
            if not b & edge:
                rest.append(b)
            elif acyclic and b & edge == edge:
                break
            else:
                merged |= b
        else:
            merged &= keep
            if not merged:
                continue
            insort(rest, merged)
            key = tuple(rest)
            cur = get(key)
            if both:
                # the key and its block that held i and j name the joined
                # partition, which first appeared at position ``made``
                made = first.setdefault((key, merged), pos)
                if cur is None or w > cur[0] or (w == cur[0] and made < won[key]):
                    out[key] = (w, wit)
                    won[key] = made
            elif cur is None or w > cur[0]:
                out[key] = (w, wit)
    return out


def query_opt(a: WPSet, q: Partition, mode: str = "plain") -> int | float:
    """Largest weight of an entry that q completes into one connected block.

    ``mode="acyclic"`` additionally demands the completion closes no cycle.
    An empty qualifying set yields -inf.
    """
    if mode not in ("plain", "acyclic"):
        raise ValueError(f"unknown query mode {mode!r}")
    if q.ground != a.ground:
        raise ValueError("query partition must share the ground set")
    n, nq = a.ground.bit_count(), len(q)
    return max((w for p, (w, _) in a.items()
                if len(merge_blocks(p, q)) == 1
                and (mode == "plain" or len(p) + nq == n + 1)), default=NEG_INF)


def cut_row(blocks: Blocks, ground: int) -> int:
    """GF(2) row of a partition of ``ground`` over all cuts of the ground set
    pinning the minimum element.

    Bit c (a subset of the non-minimum elements, read as a compressed index) is
    set iff every block lies entirely on one side of the cut.  The number of
    set bits is always 2^(#blocks - 1).
    """
    if not ground:
        return 1
    pivot = ground & -ground
    rest = ground ^ pivot
    pos = {}
    i = 0
    m = rest
    while m:
        low = m & -m
        pos[low] = i
        i += 1
        m ^= low
    indices = [0]
    for blk in blocks:
        if blk & pivot:
            continue
        comp = 0
        bm = blk
        while bm:
            low = bm & -bm
            comp |= 1 << pos[low]
            bm ^= low
        indices += [idx | comp for idx in indices]
    row = 0
    for idx in indices:
        row |= 1 << idx
    return row


def max_weight_basis(rows: list[int], weights: list[int]) -> list[int]:
    """Indices of a max-weight basis of the GF(2) row space.

    Greedy in heaviest-first order (stable on input order for ties) with
    incremental elimination; optimal by the matroid exchange property.
    """
    order = sorted(range(len(rows)), key=weights.__getitem__, reverse=True)
    pivots: list[tuple[int, int]] = []  # (pivot bit, row), kept sorted by bit desc
    chosen = []
    for idx in order:
        v = rows[idx]
        for pb, pr in pivots:
            if (v >> pb) & 1:
                v ^= pr
        if v:
            bit = v.bit_length() - 1
            lo = 0
            while lo < len(pivots) and pivots[lo][0] > bit:
                lo += 1
            pivots.insert(lo, (bit, v))
            chosen.append(idx)
    return chosen


def _reduce(a: WPSet, group) -> WPSet:
    """A max-weight cut-row basis within each group of entries.

    ``group(blocks)`` numbers an entry's group.  Each group's rows are
    shifted onto their own 2^(|V|-1) columns, so the row space is the direct
    sum of the groups' spaces, and one greedy basis of all rows is the union
    of the groups' greedy bases.  Each of those holds at most 2^(|V|-1) rows,
    the rank of the cut matrix.  The survivors keep their input order, so
    ties downstream resolve as they would on the whole set.
    """
    n = a.ground.bit_count()
    if n == 0 or len(a) <= 1:
        # The empty ground set admits a single partition, so normalization
        # already leaves at most one (optimal) entry.
        return a.copy()
    ground, width = a.ground, 1 << (n - 1)
    groups = set()
    rows = []
    for p in a:
        key = group(p)
        groups.add(key)
        rows.append(cut_row(p, ground) << key * width)
    weights = [w for w, _ in a.values()]
    keep = set(max_weight_basis(rows, weights))
    out = WPSet(ground)
    out.update((p, e) for i, (p, e) in enumerate(a.items()) if i in keep)
    return check_size(out, len(groups) * width)


def reduce_set(a: WPSet) -> WPSet:
    """Representative subset of at most 2^(|V|-1) entries.

    Every completion query (``query_opt`` in plain mode, for any partition q)
    answers identically on the output and the input.
    """
    return _reduce(a, lambda blocks: 0)


def ac_reduce(a: WPSet) -> WPSet:
    """Acyclicity-preserving representative subset, at most |V| * 2^(|V|-1) entries.

    Entries are grouped by their block count before taking per-group bases:
    within one group, any entry that joins with q into a single block does so
    with the same acyclicity status, so a plain basis suffices per group.
    """
    return _reduce(a, len)


def put(table: dict, key, cell: WPSet) -> None:
    """Store a nonempty ``cell`` at ``key``; at a taken key, a merged copy
    (cells are shared, so neither is mutated) that keeps the best weight per
    partition and, on a tie, the entry stored first."""
    if not cell:
        return
    cur = table.get(key)
    if cur is not None:
        merged = cur.copy()
        merged.merge(cell)
        cell = merged
    table[key] = cell
