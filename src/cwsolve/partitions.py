"""Canonical set partitions over small integer ground sets.

Elements are non-negative integers below 64.  A ground set is stored as a
bitmask and every block of a partition is a bitmask as well.  Partitions are
immutable, hashable and canonical (blocks sorted by integer value, which in
particular orders them by minimum element), so they work directly as keys of
dynamic-programming table cells.

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


class Partition:
    """An immutable partition of a ground-set bitmask into block bitmasks."""

    __slots__ = ("ground", "blocks", "_hash")

    def __init__(self, ground: int, blocks: tuple[int, ...]):
        # Trusted constructor: callers must pass canonical (sorted, disjoint,
        # covering) blocks.  Use from_blocks() for validated input.
        self.ground = ground
        self.blocks = blocks
        self._hash = hash(blocks)

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
        return Partition(gmask, tuple(masks))

    @staticmethod
    def singletons(ground: int | Iterable[int]) -> Partition:
        gmask = as_mask(ground)
        blocks = []
        m = gmask
        while m:
            low = m & -m
            blocks.append(low)
            m ^= low
        return Partition(gmask, tuple(blocks))

    @staticmethod
    def whole(ground: int | Iterable[int]) -> Partition:
        gmask = as_mask(ground)
        return Partition(gmask, (gmask,) if gmask else ())

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def join(self, other: Partition) -> Partition:
        """Lattice join: finest partition coarser than both operands."""
        if self.ground != other.ground:
            raise PartitionError("join requires identical ground sets")
        return Partition(self.ground, merge_blocks(self.blocks, other.blocks))

    def restrict(self, drop: int | Iterable[int]) -> Partition:
        """Remove the given elements; empty blocks disappear."""
        dmask = as_mask(drop)
        if dmask & ~self.ground:
            raise PartitionError("cannot remove elements outside the ground set")
        if not dmask:
            return self
        keep = ~dmask
        blocks = sorted(b2 for b in self.blocks if (b2 := b & keep))
        return Partition(self.ground & keep, tuple(blocks))

    def extend(self, new: int | Iterable[int]) -> Partition:
        """Add the given elements as fresh singleton blocks."""
        nmask = as_mask(new)
        if nmask & self.ground:
            raise PartitionError("extension elements must be disjoint from the ground set")
        if not nmask:
            return self
        blocks = list(self.blocks)
        m = nmask
        while m:
            low = m & -m
            blocks.append(low)
            m ^= low
        blocks.sort()
        return Partition(self.ground | nmask, tuple(blocks))

    def assignment(self) -> dict[int, int]:
        """Map each element to the minimum element of its block."""
        out = {}
        for b in self.blocks:
            rep = (b & -b).bit_length() - 1
            for e in mask_elements(b):
                out[e] = rep
        return dict(sorted(out.items()))

    def as_sets(self) -> list[list[int]]:
        return [mask_elements(b) for b in self.blocks]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, blk)) + "}" for blk in self.as_sets())
        return f"Partition({{{inner}}})"


def acyclic(p: Partition, q: Partition) -> bool:
    """Whether two forest-component partitions can coexist without a cycle."""
    if p.ground != q.ground:
        raise PartitionError("acyclic requires identical ground sets")
    n = p.ground.bit_count()
    joined = merge_blocks(p.blocks, q.blocks)
    return n + len(joined) - (len(p.blocks) + len(q.blocks)) == 0


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
        yield Partition(0, ())
        return

    def walk(i: int, groups: list[int]):
        if i == n:
            yield Partition(gmask, tuple(sorted(groups)))
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
