import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwsolve.partitions import (Partition, PartitionError, acyclic,
                                iter_partitions, merge_blocks)

from conftest import random_partition


def P(*blocks, ground=None):
    if ground is None:
        ground = [e for blk in blocks for e in blk]
    return Partition.from_blocks(blocks, ground)


class TestCanonicalize:
    def test_assignment_maps_to_block_minimum(self):
        p = P({1, 2}, {3})
        assert p.assignment() == {1: 1, 2: 1, 3: 3}

    def test_block_order_is_irrelevant(self):
        assert P({1, 2}, {3}) == P({3}, {1, 2})

    def test_empty_ground_set(self):
        p = Partition.from_blocks([], [])
        assert p.blocks == () and p.ground == 0

    def test_rejects_overlap_outside_and_uncovered(self):
        with pytest.raises(PartitionError):
            Partition.from_blocks([{1, 2}, {2, 3}], [1, 2, 3])
        with pytest.raises(PartitionError):
            Partition.from_blocks([{1, 4}], [1, 2])
        with pytest.raises(PartitionError):
            Partition.from_blocks([{1}], [1, 2])


class TestBlockTuple:
    def test_equals_hashes_and_keys_like_its_block_tuple(self):
        p = P({1, 2}, {3})
        blocks = (0b0110, 0b1000)
        assert p == blocks and blocks == p
        assert hash(p) == hash(blocks)
        assert {p: "p"}[blocks] == "p" and {blocks: "t"}[p] == "t"
        assert p.blocks == blocks and p != (0b1000, 0b0110)

    def test_ground_is_the_union_of_the_blocks(self):
        rng = random.Random(5)
        for _ in range(200):
            ground = rng.randrange(1, 1 << 9)
            p = random_partition(rng, ground)
            assert p.ground == ground
            assert Partition.from_blocks(p.as_sets(), ground) == p

    def test_empty_partition_is_the_empty_tuple(self):
        empty = Partition(())
        assert empty == () and hash(empty) == hash(())
        assert {(): 1}[empty] == 1 and {empty: 1}[()] == 1
        assert empty.ground == 0 and empty == Partition.whole(0)

    def test_stores_nothing_beyond_its_tuple(self):
        p = P({1, 2}, {3})
        assert Partition.__slots__ == () and not hasattr(p, "__dict__")
        assert tuple(p) == p.blocks


class TestJoin:
    def test_textbook_example(self):
        left = P({1, 2}, {3, 4}, {5})
        right = P({1}, {2, 3}, {4}, {5})
        assert left.join(right) == P({1, 2, 3, 4}, {5})

    def test_singletons_are_neutral(self):
        p = P({1, 3}, {2})
        assert p.join(Partition.singletons(p.ground)) == p

    def test_whole_absorbs(self):
        p = P({1, 3}, {2})
        assert p.join(Partition.whole(p.ground)) == Partition.whole(p.ground)

    def test_ground_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            P({1}).join(P({2}))


class TestRestrictExtend:
    def test_restrict_drops_whole_block(self):
        assert P({1, 2}, {3}).restrict([3]) == P({1, 2})

    def test_restrict_shrinks_block(self):
        assert P({1, 2}, {3}).restrict([2]) == P({1}, {3}, ground=[1, 3])

    def test_restrict_nothing_is_identity(self):
        p = P({1, 2}, {3})
        assert p.restrict([]) == p

    def test_extend_adds_singletons(self):
        assert P({1, 2}).extend([3]) == P({1, 2}, {3})
        assert Partition.from_blocks([], []).extend([1, 2]) == P({1}, {2})

    def test_extend_nothing_is_identity(self):
        p = P({1, 2})
        assert p.extend([]) == p

    def test_extend_rejects_overlap(self):
        with pytest.raises(PartitionError):
            P({1, 2}).extend([2])


class TestAcyclic:
    def test_singletons_always_acyclic(self):
        rng = random.Random(7)
        ground = 0b111110
        for _ in range(50):
            q = random_partition(rng, ground)
            assert acyclic(Partition.singletons(ground), q)

    def test_repeated_link_is_a_cycle(self):
        p = P({1, 2})
        assert not acyclic(p, p)

    def test_crossing_pair_is_acyclic(self):
        assert acyclic(P({1, 2}, {3}), P({1}, {2, 3}, ground=[1, 2, 3]))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, count):
        ground = sum(1 << (i + 1) for i in range(n))
        seen = list(iter_partitions(ground))
        assert len(seen) == count
        assert len(set(seen)) == count

    def test_too_large_rejected(self):
        with pytest.raises(PartitionError):
            list(iter_partitions((1 << 9) - 1))


class TestLatticeLaws:
    def test_join_laws_random(self):
        rng = random.Random(99)
        for _ in range(10_000):
            nbits = rng.randint(1, 6)
            ground = sum(1 << rng.randrange(10) for _ in range(nbits))
            p = random_partition(rng, ground)
            q = random_partition(rng, ground)
            r = random_partition(rng, ground)
            assert p.join(q) == q.join(p)
            assert p.join(q).join(r) == p.join(q.join(r))
            assert p.join(p) == p

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_join_commutes_hypothesis(self, xs, ys, rnd):
        ground = 0
        for x in xs + ys:
            ground |= 1 << x
        p = random_partition(rnd, ground)
        q = random_partition(rnd, ground)
        assert p.join(q) == q.join(p)


def _components(n_elems: list[int], edges: list[tuple[int, int]]) -> Partition:
    parent = {e: e for e in n_elems}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    blocks: dict[int, int] = {}
    for e in n_elems:
        root = find(e)
        blocks[root] = blocks.get(root, 0) | (1 << e)
    return Partition(sorted(blocks.values()))


def _random_forest(rng: random.Random, elems: list[int]) -> list[tuple[int, int]]:
    edges = []
    parent = {e: e for e in elems}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    candidates = [(a, b) for i, a in enumerate(elems) for b in elems[i + 1:]]
    rng.shuffle(candidates)
    for a, b in candidates:
        if rng.random() < 0.4 and find(a) != find(b):
            parent[find(a)] = find(b)
            edges.append((a, b))
    return edges


def test_acyclic_matches_forest_union_oracle():
    # Two forests' component partitions relate acyclically exactly when the
    # edge sets are disjoint and their union is again a forest.
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        elems = list(range(1, n + 1))
        ep = _random_forest(rng, elems)
        eq = _random_forest(rng, elems)
        p = _components(elems, ep)
        q = _components(elems, eq)
        all_edges = [tuple(sorted(e)) for e in ep + eq]
        disjoint_forest = (len(set(all_edges)) == len(all_edges)
                           and len(_components(elems, ep + eq).blocks)
                           == n - len(all_edges))
        assert acyclic(p, q) == disjoint_forest


def test_merge_blocks_is_union_find_closure():
    got = merge_blocks((0b0011, 0b1100), (0b0110,))
    assert got == (0b1111,)
