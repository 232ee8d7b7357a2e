"""Canonical set partitions over small integer ground sets.

Elements are non-negative integers below 64.  A ground set is stored as a
bitmask and every block of a partition is a bitmask as well.  A partition is
its canonical block tuple: the blocks sorted by integer value, which in
particular orders them by minimum element.  The dynamic programs key their
cells by these plain tuples and keep the ground set once, on the cell.
:class:`Partition` is the validating type at the API edge: a ``tuple``
subclass that adds nothing stored, only its constructors, the lattice
operations and a ground set rebuilt as the union of the blocks.  A
``Partition`` and its plain tuple are equal and hash alike, so either one
looks up the other's cell entry.

The one non-obvious operation is ``acyclic``: two partitions p, q of the same
ground set V satisfy ``acyclic(p, q)`` when ``|V| + #(p ⊔ q) - #p - #q == 0``.
If p and q are the component partitions of two forests on V, this holds
exactly when the union of the two edge sets is again a forest.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_GROUND = 64


class PartitionError(ValueError):
    """Blocks that do not form a partition of the claimed ground set."""


def as_mask(elements: int | Iterable[int]) -> int:
    """Accept either a ready-made bitmask or an iterable of elements."""
    if isinstance(elements, int):
        return elements
    mask = 0
    for e in elements:
        if e < 0 or e >= MAX_GROUND:
            raise PartitionError(f"element {e} out of supported range [0, {MAX_GROUND})")
        mask |= 1 << e
    return mask


def mask_elements(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def merge_blocks(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Finest common coarsening of two block families (union-find closure).

    The families may cover different masks; blocks are merged whenever they
    share an element.  Result is sorted, hence canonical.
    """
    parts = list(left)
    for c in right:
        merged = c
        keep = []
        for b in parts:
            if b & merged:
                merged |= b
            else:
                keep.append(b)
        keep.append(merged)
        parts = keep
    parts.sort()
    return tuple(parts)


class Partition(tuple):
    """A partition of a ground-set bitmask: the tuple of its block bitmasks.

    It stores nothing but the canonical blocks, so it hashes and compares as
    that plain tuple.  ``Partition(blocks)`` trusts its caller for canonical
    (sorted, disjoint, nonempty) blocks; use from_blocks() for validated input.
    """

    __slots__ = ()

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int] | int],
                    ground: int | Iterable[int]) -> Partition:
        """Validating constructor; accepts the blocks in any order."""
        gmask = as_mask(ground)
        if gmask.bit_length() > MAX_GROUND:
            raise PartitionError("ground set exceeds supported size")
        masks = []
        seen = 0
        for blk in blocks:
            bm = as_mask(blk)
            if bm == 0:
                raise PartitionError("empty block")
            if bm & ~gmask:
                raise PartitionError("block contains elements outside the ground set")
            if bm & seen:
                raise PartitionError("overlapping blocks")
            seen |= bm
            masks.append(bm)
        if seen != gmask:
            raise PartitionError("blocks do not cover the ground set")
        masks.sort()
        return Partition(masks)

    @staticmethod
    def singletons(ground: int | Iterable[int]) -> Partition:
        return Partition(1 << e for e in mask_elements(as_mask(ground)))

    @staticmethod
    def whole(ground: int | Iterable[int]) -> Partition:
        gmask = as_mask(ground)
        return Partition((gmask,) if gmask else ())

    @property
    def blocks(self) -> tuple[int, ...]:
        return self

    @property
    def ground(self) -> int:
        mask = 0
        for b in self:
            mask |= b
        return mask

    def join(self, other: Partition) -> Partition:
        """Lattice join: finest partition coarser than both operands."""
        if self.ground != other.ground:
            raise PartitionError("join requires identical ground sets")
        return Partition(merge_blocks(self, other))

    def restrict(self, drop: int | Iterable[int]) -> Partition:
        """Remove the given elements; empty blocks disappear."""
        dmask = as_mask(drop)
        if dmask & ~self.ground:
            raise PartitionError("cannot remove elements outside the ground set")
        if not dmask:
            return self
        keep = ~dmask
        return Partition(sorted(b2 for b in self if (b2 := b & keep)))

    def extend(self, new: int | Iterable[int]) -> Partition:
        """Add the given elements as fresh singleton blocks."""
        nmask = as_mask(new)
        if nmask & self.ground:
            raise PartitionError("extension elements must be disjoint from the ground set")
        if not nmask:
            return self
        return Partition(sorted((*self, *(1 << e for e in mask_elements(nmask)))))

    def assignment(self) -> dict[int, int]:
        """Map each element to the minimum element of its block."""
        out = {}
        for b in self:
            rep = (b & -b).bit_length() - 1
            for e in mask_elements(b):
                out[e] = rep
        return dict(sorted(out.items()))

    def as_sets(self) -> list[list[int]]:
        return [mask_elements(b) for b in self]

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, blk)) + "}" for blk in self.as_sets())
        return f"Partition({{{inner}}})"


def acyclic(p: Partition, q: Partition) -> bool:
    """Whether two forest-component partitions can coexist without a cycle."""
    if p.ground != q.ground:
        raise PartitionError("acyclic requires identical ground sets")
    n = p.ground.bit_count()
    joined = merge_blocks(p, q)
    return n + len(joined) - (len(p) + len(q)) == 0


def iter_partitions(ground: int | Iterable[int]) -> Iterator[Partition]:
    """Enumerate all partitions of a ground set of at most 8 elements.

    Deterministic order via restricted-growth strings.
    """
    gmask = as_mask(ground)
    elems = mask_elements(gmask)
    n = len(elems)
    if n > 8:
        raise PartitionError("partition enumeration is limited to 8 elements")
    if n == 0:
        yield Partition(())
        return

    def walk(i: int, groups: list[int]):
        if i == n:
            yield Partition(sorted(groups))
            return
        bit = 1 << elems[i]
        for gi in range(len(groups)):
            groups[gi] |= bit
            yield from walk(i + 1, groups)
            groups[gi] &= ~bit
        groups.append(bit)
        yield from walk(i + 1, groups)
        groups.pop()

    yield from walk(1, [1 << elems[0]])
