import random

import pytest

import cwsolve.wpsets
from cwsolve.oracle import check_representative
from cwsolve.partitions import Partition, iter_partitions, merge_blocks
from cwsolve.sigma_rho import NATURALS, POSITIVES, DomContext, SigmaRhoSpec
from cwsolve.wpsets import (MERGE_MEMO, NEG_INF, InvariantError, WPSet,
                            ac_reduce, acjoin, combine_witness, cut_row,
                            edge_cell, join_sets, link, max_weight_basis,
                            proj, put, query_opt, reduce_set, witness_names)

from conftest import random_partition, random_wpset


def P(*blocks, ground=None):
    if ground is None:
        ground = [e for blk in blocks for e in blk]
    return Partition.from_blocks(blocks, ground)


class TestRmc:
    def test_max_keeps_heavier(self):
        p = P({1, 2})
        out = WPSet.from_pairs([(p, 3), (p, 5)], p.ground)
        assert out[p] == (5, None)

    def test_min_keeps_lighter(self):
        # a minimising problem's cells hold negated weights
        p = P({1, 2})
        out = WPSet.from_pairs([(p, -3), (p, -5)], p.ground)
        assert out[p] == (-3, None)

    def test_distinct_partitions_untouched(self):
        p, q = P({1, 2}), P({1}, {2})
        out = WPSet.from_pairs([(p, 3), (q, 5)], p.ground)
        assert len(out) == 2

    def test_tie_keeps_the_first_witness(self):
        # the same input yields the same witness: of two equal-weight
        # entries the first is kept, whatever the names
        # (a minimising problem's negated weights: sign -1)
        p, q = P({1, 2}), P({1}, {2})
        for sign, better in ((1, 4), (-1, 2)):
            pairs = [(q, sign, "c"), (p, 3 * sign, "b"), (p, 3 * sign, ("a", "d")),
                     (q, sign, ())]
            out = WPSet.from_pairs(pairs, p.ground)
            assert out == {q: (sign, "c"), p: (3 * sign, "b")}
            assert WPSet.from_pairs(pairs, p.ground) == out
            assert WPSet.from_pairs(pairs[::-1], p.ground) == \
                {q: (sign, ()), p: (3 * sign, ("a", "d"))}
            out.add(p, sign * better, "e")
            assert out[p] == (sign * better, "e")


class TestWitness:
    def test_combine_is_a_pair_unless_one_side_is_empty(self):
        assert combine_witness("a", "b") == ("a", "b")
        assert combine_witness("a", ()) == "a"
        assert combine_witness((), ("a", "b")) == ("a", "b")
        assert combine_witness((), ()) == ()
        assert combine_witness(None, None) is None

    def test_names_flatten_pairs_and_skip_empty(self):
        assert witness_names(()) == set()
        assert witness_names("a") == {"a"}
        assert witness_names((("a", "b"), ("c", ("d", "e")))) == set("abcde")

    def test_names_of_a_deep_chain_do_not_recurse(self):
        w = "v0"
        for i in range(1, 50_000):
            w = combine_witness(w, f"v{i}")
        assert len(witness_names(w)) == 50_000

    def test_join_builds_pairs_not_sets(self):
        a = WPSet.from_pairs([(P({1}), 5, "x")], 0b10)
        b = WPSet.from_pairs([(P({2}), 3, ("y", "z"))], 0b100)
        edge = WPSet.from_pairs([(P({1, 2}), 0, ())], 0b110)
        joined = join_sets(join_sets(a, b), edge)
        assert joined == {P({1, 2}): (8, ("x", ("y", "z")))}

    @pytest.mark.parametrize("join", [join_sets, acjoin])
    def test_joining_an_edge_cell_keeps_every_witness(self, join):
        # tracked (a name or a pair), empty and untracked
        for witness in ("x", ("y", "z"), (), None):
            cell = WPSet.from_pairs([(P({1}, {2}), 5, witness),
                                     (P({1}, {2}, {3}), 3, witness)],
                                    0b1110)
            joined = join(cell, edge_cell(1, 2))
            assert joined == {P({1, 2}): (5, witness),
                              P({1, 2}, {3}): (3, witness)}


class TestProj:
    def test_block_inside_dropped_set_kills_entry(self):
        a = WPSet.from_pairs([(P({1, 2}, {3}), 4)], 0b1110)
        assert len(proj(a, 1 << 3)) == 0

    def test_partial_overlap_restricts(self):
        a = WPSet.from_pairs([(P({1, 2}, {3}), 4)], 0b1110)
        out = proj(a, 1 << 2)
        assert out == {P({1}, {3}, ground=[1, 3]): (4, None)}

    def test_empty_drop_is_identity(self):
        a = WPSet.from_pairs([(P({1, 2}), 4)], 0b110)
        assert proj(a, 0) == a

    def test_empty_drop_returns_its_input(self):
        # cells are never mutated once published, so no copy is needed
        a = WPSet.from_pairs([(P({1, 2}), 4)], 0b110)
        assert proj(a, 0) is a


class TestJoins:
    def test_disjoint_grounds(self):
        a = WPSet.from_pairs([(P({1}), 5)], 0b10)
        b = WPSet.from_pairs([(P({2}), 3)], 0b100)
        out = join_sets(a, b)
        assert out == {P({1}, {2}): (8, None)}

    def test_overlapping_grounds_merge(self):
        a = WPSet.from_pairs([(P({1}), 5)], 0b10)
        b = WPSet.from_pairs([(P({1, 2}), 3)], 0b110)
        out = join_sets(a, b)
        assert out == {P({1, 2}): (8, None)}

    def test_empty_side_gives_empty(self):
        a = WPSet(0b10)
        b = WPSet.from_pairs([(P({1}), 3)], 0b10)
        assert len(join_sets(a, b)) == 0
        assert len(acjoin(b, a)) == 0

    @pytest.mark.parametrize("join", [join_sets, acjoin])
    @pytest.mark.parametrize("tracked", [True, False])
    def test_one_entry_over_the_empty_ground_set_shifts_weights(self, join,
                                                                tracked):
        # the one partition of the empty ground set adds its weight and its
        # witness's names to each entry of the other side, on either side;
        # partitions and their order stay, and of two equal-weight entries
        # each keeps its own witness
        rng = random.Random(41)
        for trial in range(60):
            ground = rng.choice([0b10, 0b110, 0b1110, 0b11110])
            other = WPSet(ground)
            for idx in range(rng.randint(1, 6)):
                other.add(random_partition(rng, ground), rng.randint(-3, 3),
                          (f"o{idx}" if idx % 3 else ()) if tracked else None)
            for wit in (("x", "y"), (), "z") if tracked else (None,):
                weight = rng.randint(-5, 5)
                one = WPSet.from_pairs([((), weight, wit)], 0)
                for got in (join(one, other), join(other, one)):
                    assert got.ground == ground
                    assert list(got) == list(other)
                    for p, (w, x) in other.items():
                        gw, gx = got[p]
                        assert gw == w + weight
                        if tracked:
                            assert witness_names(gx) == \
                                witness_names(x) | witness_names(wit)
                        else:
                            assert gx is None

    def test_acjoin_accepts_tree_link(self):
        a = WPSet.from_pairs([(P({1}), 5)], 0b10)
        b = WPSet.from_pairs([(P({1, 2}), 3)], 0b110)
        assert acjoin(a, b) == {P({1, 2}): (8, None)}

    def test_acjoin_rejects_duplicate_link(self):
        a = WPSet.from_pairs([(P({1, 2}), 1)], 0b110)
        assert len(acjoin(a, a)) == 0

    def test_acjoin_equals_filtered_bruteforce(self):
        rng = random.Random(11)
        for _ in range(200):
            ga = sum(1 << e for e in rng.sample(range(1, 6), rng.randint(1, 3)))
            gb = sum(1 << e for e in rng.sample(range(1, 6), rng.randint(1, 3)))
            a = random_wpset(rng, ga, 4)
            b = random_wpset(rng, gb, 4)
            got = acjoin(a, b)
            union = ga | gb
            expect = WPSet(union)
            from cwsolve.partitions import acyclic
            for p, (w1, _) in a.items():
                for q, (w2, _) in b.items():
                    pu = p.extend(union & ~ga)
                    qu = q.extend(union & ~gb)
                    if acyclic(pu, qu):
                        expect.add(pu.join(qu), w1 + w2)
            assert got == expect


class TestPut:
    def test_a_free_key_stores_the_cell_itself(self):
        table = {}
        cell = WPSet.from_pairs([(P({1, 2}), 4)], 0b110)
        put(table, "k", cell)
        assert table["k"] is cell
        put(table, "e", WPSet(0b110))
        assert "e" not in table  # an empty cell is not stored

    def test_a_taken_key_gets_a_merged_copy(self):
        # the merge keeps the best weight per partition and, on a tie, the
        # entry stored first, in first-stored order; neither cell changes
        rng = random.Random(42)
        for _ in range(200):
            ground = rng.choice([0b10, 0b110, 0b1110, 0b11110])
            cells = [random_wpset(rng, ground, rng.randint(0, 5), max_weight=4)
                     for _ in range(rng.randint(1, 4))]
            for c, cell in enumerate(cells):
                for p in cell:
                    cell[p] = (cell[p][0], f"w{c}")
            before = [dict(cell) for cell in cells]
            table = {}
            for cell in cells:
                put(table, "k", cell)
            want = {}
            for cell in cells:
                for p, (w, x) in cell.items():
                    if p not in want or w > want[p][0]:
                        want[p] = (w, x)
            assert [dict(cell) for cell in cells] == before
            if not want:
                assert "k" not in table
                continue
            got = table["k"]
            assert got.ground == ground
            assert list(got.items()) == list(want.items())
            nonempty = [cell for cell in cells if cell]
            if len(nonempty) == 1:
                assert got is nonempty[0]
            else:
                assert all(got is not cell for cell in cells)


def _witnessed(cell, tag):
    """``cell`` with the witness ``tag`` + its position on every entry."""
    for idx, (p, (w, _)) in enumerate(cell.items()):
        cell[p] = (w, f"{tag}{idx}")
    return cell


class TestLink:
    @pytest.mark.parametrize("acyclic", [False, True])
    def test_it_is_the_projected_join_with_an_edge_cell(self, acyclic):
        # i and j inside the ground set or outside it, every drop, and
        # weights 0..3, so that ties are common; each entry its own witness
        join = acjoin if acyclic else join_sets
        rng = random.Random(907 + acyclic)
        for _ in range(500):
            ground = sum(1 << e for e in rng.sample(range(1, 7), rng.randint(0, 5)))
            i, j = rng.sample(range(1, 7), 2)
            cell = _witnessed(random_wpset(rng, ground, rng.randint(0, 12),
                                           max_weight=3), "w")
            for drop in (0, 1 << i, 1 << j, 1 << i | 1 << j):
                want = proj(join(cell, edge_cell(i, j)), drop)
                got = link(cell, i, j, drop, acyclic)
                assert got.ground == want.ground
                assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("acyclic", [False, True])
    def test_a_tie_goes_to_the_joined_partition_made_first(self, acyclic):
        # with 1 and 2 both dropped, all three entries land on {3}{4}; the
        # first joined partition, {1,2,3}{4}, gets its best entry from the
        # third one, and it wins the tie against the second
        cell = WPSet.from_pairs([(P({1, 3}, {2}, {4}), 5, "a"),
                                 (P({1, 4}, {2}, {3}), 7, "b"),
                                 (P({1}, {2, 3}, {4}), 7, "c")], 0b11110)
        want = {P({3}, {4}): (7, "c")}
        assert link(cell, 1, 2, 0b110, acyclic) == want
        join = acjoin if acyclic else join_sets
        assert proj(join(cell, edge_cell(1, 2)), 0b110) == want

    def test_acyclic_mode_drops_an_entry_whose_i_and_j_share_a_block(self):
        cell = WPSet.from_pairs([(P({1, 2}, {3}), 4), (P({1, 3}, {2}), 2)],
                                0b1110)
        assert link(cell, 1, 2, 0, acyclic=True) == {P({1, 2, 3}): (2, None)}
        assert link(cell, 1, 2, 0) == {P({1, 2}, {3}): (4, None),
                                       P({1, 2, 3}): (2, None)}

    def test_it_links_two_distinct_labels_and_drops_only_them(self):
        cell = WPSet.from_pairs([(P({1}, {2}, {3}), 4)], 0b1110)
        for i, j, drop in ((1, 1, 0), (1, 2, 1 << 3), (1, 2, 1)):
            with pytest.raises(ValueError):
                link(cell, i, j, drop)


class TestInto:
    @pytest.mark.parametrize("join", [join_sets, acjoin])
    def test_it_merges_as_put_does_and_leaves_the_operands(self, join):
        rng = random.Random(911)
        for _ in range(300):
            ga = sum(1 << e for e in rng.sample(range(1, 6), rng.randint(0, 3)))
            gb = sum(1 << e for e in rng.sample(range(1, 6), rng.randint(0, 3)))
            a, b, cur = (_witnessed(random_wpset(rng, g, rng.randint(lo, 5),
                                                 max_weight=4), tag)
                         for g, lo, tag in ((ga, 0, "a"), (gb, 0, "b"),
                                            (ga | gb, 1, "c")))
            before = [list(cell.items()) for cell in (a, b)]
            table = {"k": cur}
            put(table, "k", join(a, b))
            into = cur.copy()
            assert join(a, b, into) is into
            assert list(into.items()) == list(table["k"].items())
            assert [list(cell.items()) for cell in (a, b)] == before

    @pytest.mark.parametrize("join", [join_sets, acjoin])
    def test_it_takes_a_third_set_over_the_joined_ground_set(self, join):
        # neither a set over another ground set nor an operand
        a = WPSet.from_pairs([(P({1, 2}), 5)], 0b110)
        b = WPSet.from_pairs([(P({1}, {2}), 3)], 0b110)
        for into in (WPSet(0b10), a, b):
            with pytest.raises(ValueError):
                join(a, b, into)


class TestBasis:
    def test_independent_rows_all_selected(self):
        assert sorted(max_weight_basis([0b01, 0b10], [5, 3])) == [0, 1]

    def test_identical_rows_keep_best(self):
        assert max_weight_basis([0b01, 0b01], [3, 5]) == [1]
        assert max_weight_basis([0b01, 0b01], [-3, -5]) == [0]

    def test_dependent_triple_exchanges_up(self):
        r1, r2 = 0b011, 0b101
        r3 = r1 ^ r2
        chosen = sorted(max_weight_basis([r1, r2, r3], [1, 1, 5]))
        assert chosen == [0, 2]  # weight 6; verified against all candidate bases

    def test_exhaustive_optimality_small(self):
        from itertools import combinations
        rng = random.Random(3)
        for _ in range(100):
            rows = [rng.randrange(1, 16) for _ in range(5)]
            weights = [rng.randint(0, 9) for _ in range(5)]
            chosen = max_weight_basis(rows, weights)
            got = sum(weights[i] for i in chosen)

            def rank(idxs):
                basis = []
                for i in idxs:
                    v = rows[i]
                    for b in basis:
                        v = min(v, v ^ b)
                    if v:
                        basis.append(v)
                        basis.sort(reverse=True)
                return len(basis)

            full = rank(range(5))
            assert rank(chosen) == len(chosen) == full
            best = max(sum(weights[i] for i in sub)
                       for r in range(full, full + 1)
                       for sub in combinations(range(5), r)
                       if rank(sub) == full)
            assert got == best


class TestCutRows:
    def test_popcount_is_two_to_blocks_minus_one(self):
        rng = random.Random(17)
        for _ in range(300):
            nbits = rng.randint(1, 8)
            ground = sum(1 << rng.randrange(9) for _ in range(nbits))
            p = random_partition(rng, ground)
            assert cut_row(p, p.ground).bit_count() == 1 << (len(p.blocks) - 1)


class TestReduce:
    def test_empty_ground_keeps_single_best(self):
        empty = Partition(())
        a = WPSet.from_pairs([(empty, 7), (empty, 2)], 0)
        out = reduce_set(a)
        assert out == {empty: (7, None)}

    def test_size_bound_v4(self):
        rng = random.Random(23)
        ground = 0b11110
        a = random_wpset(rng, ground, 100)
        out = reduce_set(a)
        assert len(out) <= 8

    def test_ac_size_bound_v4(self):
        rng = random.Random(29)
        ground = 0b11110
        a = random_wpset(rng, ground, 200)
        out = ac_reduce(a)
        assert len(out) <= 32

    def test_outputs_are_subsets(self):
        rng = random.Random(31)
        ground = 0b1110
        a = random_wpset(rng, ground, 30)
        for out in (reduce_set(a), ac_reduce(a)):
            for p, entry in out.items():
                assert a[p] == entry

    def test_exhaustive_queries_agree_v3(self):
        rng = random.Random(37)
        ground = 0b1110
        for _ in range(50):
            a = random_wpset(rng, ground, 12)
            assert check_representative(a, reduce_set(a), "plain")
            assert check_representative(a, ac_reduce(a), "acyclic")
            b = random_wpset(rng, ground, 12, sign=-1)
            assert check_representative(b, reduce_set(b), "plain")

    def test_survivors_keep_input_order_and_witnesses(self):
        rng = random.Random(43)
        for ground, size in ((0b1110, 30), (0b11110, 80)):
            for sign in (1, -1):
                a = random_wpset(rng, ground, size, sign=sign)
                for i, (p, (w, _)) in enumerate(a.items()):
                    a[p] = (w, f"w{i}")
                for out in (reduce_set(a), ac_reduce(a)):
                    order = list(a)
                    kept = [order.index(p) for p in out]
                    assert kept == sorted(kept)
                    assert all(a[p] == e for p, e in out.items())

    def test_ac_reduce_keeps_order_across_interleaved_groups(self):
        # block counts 2, 1, 2: a body that emits group by group would put
        # the whole-ground entry last
        a = WPSet.from_pairs([(P({1, 2}, {3}), 1, "x"), (P({1, 2, 3}), 2, "y"),
                              (P({1, 3}, {2}), 3, "z")], 0b1110)
        out = ac_reduce(a)
        assert list(out.items()) == list(a.items())

    def test_basis_above_the_rank_bound_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr("cwsolve.wpsets.max_weight_basis",
                            lambda rows, weights: range(len(rows)))
        a = WPSet.from_pairs([(p, 1) for p in iter_partitions(0b1110)], 0b1110)
        with pytest.raises(InvariantError):
            reduce_set(a)  # 5 partitions of 3 elements, bound 2^2 = 4
        # one group per block count: 1 + 3 + 1 entries, each at most 4
        assert len(ac_reduce(a)) == 5


class TestMergeMemo:
    GROUNDS = (0b1110, 0b11100, 0b110010, 0b1)

    def _cells(self, seed):
        rng = random.Random(seed)
        return [random_wpset(rng, ground, size)
                for ground in self.GROUNDS for size in (1, 4, 9)]

    @pytest.mark.parametrize("join", [join_sets, acjoin])
    def test_cold_and_warm_memos_give_identical_entries(self, join,
                                                        monkeypatch):
        cells = self._cells(71)
        pairs = [(a, b) for a in cells for b in cells]
        MERGE_MEMO.clear()
        cold = [list(join(a, b).items()) for a, b in pairs]
        assert MERGE_MEMO
        assert all(v == merge_blocks(*key) for key, v in MERGE_MEMO.items())
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return merge_blocks(p, q)

        monkeypatch.setattr(cwsolve.wpsets, "merge_blocks", counted)
        # a warm memo, also holding the pairs of other cells over other grounds
        for a, b in zip(self._cells(73), self._cells(79)):
            join(a, b)
        calls.clear()
        warm = [list(join(a, b).items()) for a, b in pairs]
        assert warm == cold
        assert not calls  # every merge came from the memo
        MERGE_MEMO.clear()


class TestContracts:
    def test_ground_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WPSet(0b10).merge(WPSet(0b100))

    def test_proj_outside_ground_rejected(self):
        a = WPSet(0b10)
        with pytest.raises(ValueError):
            proj(a, 1 << 5)

    def test_unknown_direction_and_mode_rejected(self):
        # a direction is a problem's, not a cell's
        with pytest.raises(ValueError):
            DomContext(SigmaRhoSpec(NATURALS, POSITIVES, "best"), 1)
        with pytest.raises(ValueError):
            query_opt(WPSet(0b10), Partition.singletons(0b10), "fuzzy")


class TestBlockTupleKeys:
    def test_cells_answer_partitions_and_block_tuples_alike(self):
        p = P({1, 2}, {3})
        by_tuple = WPSet.from_pairs([((0b0110, 0b1000), 5)], 0b1110)
        by_partition = WPSet.from_pairs([(p, 5)], 0b1110)
        assert by_tuple == by_partition
        assert by_tuple[p] == by_partition[(0b0110, 0b1000)]
        joined = join_sets(by_partition, WPSet.from_pairs([(P({2, 3}), 1)],
                                                          0b1100))
        assert joined[P({1, 2, 3})] == (6, None)


class TestQueryOpt:
    def test_acyclic_completion(self):
        a = WPSet.from_pairs([(P({1, 2}), 4)], 0b110)
        assert query_opt(a, P({1}, {2}), "acyclic") == 4

    def test_empty_set_sentinels(self):
        assert query_opt(WPSet(0b10), P({1}), "plain") == NEG_INF

    def test_singletons_complete_against_whole(self):
        ground = 0b1110
        a = WPSet.from_pairs([(Partition.singletons(ground), 9)], ground)
        whole = Partition.whole(ground)
        assert query_opt(a, whole, "plain") == 9
        assert query_opt(a, whole, "acyclic") == 9


class TestPreservationSmoke:
    # The full 500-trial suites live in the acceptance module; these are
    # fast spot checks for each operator family.
    def test_ops_preserve_representation(self):
        rng = random.Random(41)
        ground = 0b1110
        for _ in range(40):
            a = random_wpset(rng, ground, 10)
            small = ac_reduce(a)
            x = 1 << rng.choice([1, 2, 3])
            assert check_representative(proj(a, x), proj(small, x), "acyclic")
            b = random_wpset(rng, ground, 4)
            assert check_representative(acjoin(a, b), acjoin(small, b), "acyclic")
            merged_full = a.copy()
            merged_full.merge(b)
            merged_small = small.copy()
            merged_small.merge(b)
            assert check_representative(merged_full, merged_small, "acyclic")
