import random
from itertools import product

import pytest

from cwsolve import fixture, naive_expression, parse_expression, solve_fvs
from cwsolve.cwexpr import NotIrredundantError, evaluate
from cwsolve.fvs import (ABSENT, MANY_DONE, MANY_WAIT, ONE,
                         UNION_STATE_OPTIONS, fvs_add, fvs_leaf, fvs_ren,
                         fvs_union, state_ground)
from cwsolve.oracle import brute_min_fvs
from cwsolve.partitions import Partition
from cwsolve.wpsets import WPSet, acjoin, proj, put

from conftest import random_graph, random_partition

ANCHOR = 1  # bit mask of the virtual anchor element


def Pm(*blocks):
    return Partition(sorted(blocks))


def cell_of(table, state):
    return {p: w for p, (w, _) in table[state].items()}


def weights_of(table):
    return {state: {p: w for p, (w, _) in cell.items()}
            for state, cell in table.items()}


class TestLeaf:
    def test_single_vertex_states(self):
        table = fvs_leaf(1, False, 1, "x", 3)
        lone = (ONE,)
        assert cell_of(table, lone) == {Pm(0b11): 3, Pm(ANCHOR, 0b10): 3}
        assert cell_of(table, (ABSENT,)) == {Pm(ANCHOR): 0}
        assert (MANY_WAIT,) not in table and (MANY_DONE,) not in table


class TestAdd:
    def _two_isolated(self):
        # two unit vertices labeled 1 and 2
        expr = parse_expression("cwexpr k=2\n(u (v a 1) (ren 1 2 (v b 1)))")
        ta = fvs_leaf(2, False, 1, "a", 1)
        tb = fvs_ren(fvs_leaf(2, False, 1, "b", 1), 0b010, 1, 2)
        return fvs_union(ta, 0b010, tb, 0b100), expr

    def test_absent_class_copies_cell(self):
        table, _ = self._two_isolated()
        out = fvs_add(table, 0b110, 1, 2)
        state = (ONE, ABSENT)
        assert cell_of(out, state) == cell_of(table, state)

    def test_both_one_merges_blocks(self):
        table, _ = self._two_isolated()
        both = (ONE, ONE)
        assert Pm(ANCHOR, 0b010, 0b100) in table[both]
        out = fvs_add(table, 0b110, 1, 2)
        got = cell_of(out, both)
        # the isolated pair becomes one linked component; the variants that
        # had both endpoints hanging off the anchor close a cycle and vanish
        assert got == {Pm(ANCHOR, 0b110): 2, Pm(0b111): 2}

    def test_waiting_class_with_populated_partner_dies(self):
        table, _ = self._two_isolated()
        # fabricate a waiting state to check the cycle cutoff
        cell = table[(ONE, ONE)]
        out = fvs_add({(MANY_WAIT, ONE): cell, (MANY_WAIT, MANY_WAIT): cell},
                      0b110, 1, 2)
        assert (MANY_DONE, ONE) in out  # consumed its one allowed add
        assert (MANY_WAIT, MANY_WAIT) not in out
        assert all(MANY_WAIT not in s for s in out)


class TestRen:
    def test_rename_moves_state_and_partition_element(self):
        table = fvs_leaf(2, False, 1, "a", 5)
        out = fvs_ren(table, 0b010, 1, 2)
        assert cell_of(out, (ABSENT, ONE)) == {Pm(0b101): 5, Pm(ANCHOR, 0b100): 5}
        assert cell_of(out, (ABSENT, ABSENT)) == cell_of(table, (ABSENT, ABSENT))

    def test_empty_source_class_copies_cells_verbatim(self):
        table = fvs_leaf(2, False, 1, "a", 5)
        out = fvs_ren(table, 0b010, 2, 1)
        assert cell_of(out, (ONE, ABSENT)) == cell_of(table, (ONE, ABSENT))

    def test_merge_after_add_keeps_anchor_connected_entries(self):
        # two linked unit vertices, then fold class 2 into class 1
        ta = fvs_leaf(2, False, 1, "a", 1)
        tb = fvs_ren(fvs_leaf(2, False, 1, "b", 1), 0b010, 1, 2)
        table = fvs_add(fvs_union(ta, 0b010, tb, 0b100), 0b110, 1, 2)
        out = fvs_ren(table, 0b110, 2, 1)
        done = (MANY_DONE, ABSENT)
        # only the variant linking the pair into the anchor's block survives
        assert cell_of(out, done) == {Pm(ANCHOR): 2}


class TestUnion:
    def test_fifteen_state_triples_per_label(self):
        assert sum(len(v) for v in UNION_STATE_OPTIONS.values()) == 15

    def test_empty_side_empties_everything(self):
        ta = fvs_leaf(1, False, 1, "a", 1)
        out = fvs_union(ta, 0b010, {}, 0)
        assert out == {}

    def test_two_singletons_merging_to_done_need_anchor_links(self):
        ta = fvs_leaf(1, False, 1, "a", 1)
        tb = fvs_leaf(1, False, 1, "b", 1)
        out = fvs_union(ta, 0b010, tb, 0b010)
        done = (MANY_DONE,)
        # both vertices keep their class position only through the anchor
        assert cell_of(out, done) == {Pm(ANCHOR): 2}
        wait = (MANY_WAIT,)
        assert Pm(ANCHOR, 0b10) in out[wait]


class TestUnionBoxes:
    """The union against its per-label spec, one state per side."""

    @staticmethod
    def _cell(state, weight):
        ground = state_ground(state)
        cell = WPSet(ground)
        cell.add((ground,), weight)
        if ground != ANCHOR:
            cell.add((ANCHOR, ground ^ ANCHOR), weight + 10)
        return cell

    def test_one_loses_its_element_exactly_where_the_target_is_done(self):
        # single states at k = 1: each target's cell is the spec's one join,
        # ONE projected out on each side whose target is MANY_DONE
        for (a, b), targets in UNION_STATE_OPTIONS.items():
            ca, cb = self._cell((a,), 1), self._cell((b,), 2)
            want = {}
            for target in targets:
                done = target == MANY_DONE
                joined = acjoin(proj(ca, 2 if done and a == ONE else 0),
                                proj(cb, 2 if done and b == ONE else 0))
                assert joined, (a, b, target)
                want[(target,)] = {p: w for p, (w, _)
                                   in joined.items()}
            got = fvs_union({(a,): ca}, 0b10, {(b,): cb}, 0b10)
            assert weights_of(got) == want, (a, b)
            assert all(cell.ground == state_ground(state)
                       for state, cell in got.items())


def _state_pair_union(table_a, table_b, k):
    """The union as one join per state pair and target: the reference."""
    out = {}
    for sa, ca in table_a.items():
        for sb, cb in table_b.items():
            options = [UNION_STATE_OPTIONS[(sa[l], sb[l])] for l in range(k)]
            for target in product(*options):
                drop_a = drop_b = 0
                for l in range(k):
                    if target[l] == MANY_DONE:
                        drop_a |= 2 << l if sa[l] == ONE else 0
                        drop_b |= 2 << l if sb[l] == ONE else 0
                pa, pb = proj(ca, drop_a), proj(cb, drop_b)
                if pa and pb:
                    put(out, target, acjoin(pa, pb))
    return out


def _random_table(rng, k):
    out = {}
    for _ in range(rng.randint(0, 8)):
        state = tuple(rng.randrange(4) for _ in range(k))
        ground = state_ground(state)
        out[state] = WPSet(ground)
        for _ in range(rng.randint(1, 4)):
            out[state].add(random_partition(rng, ground), rng.randint(0, 5))
    return out


def test_union_matches_the_state_pair_union():
    rng = random.Random(703)
    joined = 0
    for _ in range(400):
        k = rng.randint(1, 4)
        table_a, table_b = _random_table(rng, k), _random_table(rng, k)
        want = weights_of(_state_pair_union(table_a, table_b, k))
        got = fvs_union(table_a, 0, table_b, 0)
        assert weights_of(got) == want, (table_a, table_b)
        assert all(cell.ground == state_ground(state)
                   for state, cell in got.items())
        joined += len(want)
    assert joined > 1000  # the random tables do meet


class TestSolve:
    def test_triangle(self):
        res = solve_fvs(fixture("clique", 3))
        assert (res.forest_weight, res.fvs_weight) == (2, 1)

    def test_single_vertex(self):
        res = solve_fvs(parse_expression("cwexpr k=1\n(v a 5)"))
        assert (res.forest_weight, res.fvs_weight) == (5, 0)

    def test_c4_and_k4(self):
        assert solve_fvs(fixture("cycle", 4)).fvs_weight == 1
        assert solve_fvs(fixture("clique", 4)).fvs_weight == 2

    def test_trees_need_no_deletions(self):
        for n in range(1, 8):
            assert solve_fvs(fixture("path", n)).fvs_weight == 0
            assert solve_fvs(fixture("star", n)).fvs_weight == 0

    def test_rejects_redundant_expression(self):
        expr = parse_expression(
            "cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))")
        with pytest.raises(NotIrredundantError):
            solve_fvs(expr)


def test_reference_path_never_computes_future_degrees(monkeypatch):
    import cwsolve.dp

    def refuse(expr, cap=None):
        raise RuntimeError("future degrees computed")

    monkeypatch.setattr(cwsolve.dp, "future_degrees", refuse)
    expr = fixture("random-cograph", 7, seed=3)
    res = solve_fvs(expr, use_reduce=False)
    assert res.fvs_weight == brute_min_fvs(evaluate(expr))[0]
    with pytest.raises(RuntimeError, match="future degrees"):
        solve_fvs(expr)


def test_matches_oracle_on_random_graphs():
    rng = random.Random(700)
    for _ in range(40):
        g = random_graph(rng.randint(1, 6), rng)
        expr = naive_expression(g)
        assert solve_fvs(expr).fvs_weight == brute_min_fvs(g)[0]


def test_matches_oracle_on_low_label_fixtures():
    # multi-vertex label classes exercise the relabel and waiting states
    for kind in ("clique", "path", "cycle", "star", "random-cograph"):
        for n in range(1, 8):
            expr = fixture(kind, n, seed=n)
            g = evaluate(expr)
            assert solve_fvs(expr).fvs_weight == brute_min_fvs(g)[0], (kind, n)


def test_reduce_independence_spot_check():
    rng = random.Random(701)
    for _ in range(15):
        g = random_graph(rng.randint(1, 6), rng)
        expr = naive_expression(g)
        assert solve_fvs(expr).forest_weight == \
            solve_fvs(expr, use_reduce=False).forest_weight


def test_witness_induces_forest_of_reported_weight():
    from cwsolve.oracle import _is_forest

    rng = random.Random(702)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), rng)
        expr = naive_expression(g)
        res = solve_fvs(expr, with_witness=True)
        kept = [v for v in g.weights if v not in set(res.witness)]
        assert set(kept) == set(res.forest_witness)
        assert _is_forest(kept, g.edges)
        assert sum(g.weights[v] for v in kept) == res.forest_weight


def test_cell_bound_respected_in_stats():
    expr = fixture("clique", 30)
    res = solve_fvs(expr)
    assert res.stats.max_cell_entries <= (expr.k + 1) << expr.k


def test_stats_count_the_leaf_cells():
    # the lone vertex's cell holds two entries: on the anchor's tree or not
    expr = fixture("path", 1)
    assert solve_fvs(expr, use_reduce=False).stats.max_cell_entries == 2
    # its label is dead at once, so retiring it leaves the one entry on
    # the anchor's tree
    assert solve_fvs(expr).stats.max_cell_entries == 1


def test_state_ground_includes_anchor_and_open_labels():
    assert state_ground((ONE, ABSENT, MANY_WAIT, MANY_DONE)) == 0b1011


def test_solve_never_evaluates_the_graph(monkeypatch):
    # the total weight and the witness complement come from the leaves
    import cwsolve.cwexpr
    import cwsolve.fvs

    expr = naive_expression(random_graph(6, random.Random(60)))
    expected = solve_fvs(expr, with_witness=True)

    def refuse(expr):
        raise RuntimeError("graph evaluated")

    monkeypatch.setattr(cwsolve.cwexpr, "evaluate", refuse)
    assert not hasattr(cwsolve.fvs, "evaluate")
    got = solve_fvs(expr, with_witness=True)
    assert (got.fvs_weight, got.witness, got.forest_witness) == \
        (expected.fvs_weight, expected.witness, expected.forest_witness)
