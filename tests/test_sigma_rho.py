import random
from itertools import product

import pytest

import cwsolve.sigma_rho
from cwsolve import fixture, naive_expression, parse_expression
from cwsolve.cwexpr import NotIrredundantError, evaluate, parse_graph
from cwsolve.oracle import brute_sigma_rho, brute_steiner, check_solution
from cwsolve.partitions import Partition
from cwsolve.sigma_rho import (EMPTY_PARTITION, MAX, MIN, DomContext, MuSet,
                               MuSetError, NATURALS, POSITIVES, SigmaRhoSpec,
                               _add_pairs, _merge, d_of, mu_contains_truncated,
                               parse_mu, preset_spec, solve_connected_sigma_rho,
                               solve_steiner, srd_add, srd_leaf, srd_ren,
                               srd_union)
from cwsolve.wpsets import POS_INF

from conftest import random_expression, random_graph


class TestMuSets:
    def test_d_of_naturals_is_zero(self):
        assert d_of(NATURALS) == 0

    def test_d_of_positives_is_one(self):
        assert d_of(POSITIVES) == 1

    @pytest.mark.parametrize("c", [0, 1, 4])
    def test_d_of_initial_segment(self, c):
        assert d_of(MuSet(False, frozenset(range(c + 1)))) == c + 1

    def test_d_of_singleton_two(self):
        assert d_of(MuSet(False, frozenset({2}))) == 3

    def test_truncated_membership(self):
        assert mu_contains_truncated(POSITIVES, 7, 1)
        assert not mu_contains_truncated(MuSet(False, frozenset({1})), 3, 2)
        assert mu_contains_truncated(NATURALS, 0, 0)

    def test_truncation_below_threshold_rejected(self):
        with pytest.raises(MuSetError):
            mu_contains_truncated(MuSet(False, frozenset({3})), 1, 2)

    def test_empty_set_rejected(self):
        with pytest.raises(MuSetError):
            MuSet(False, frozenset())

    @pytest.mark.parametrize("text,probe,expect", [
        ("N", 0, True), ("N+", 0, False), ("N+", 3, True),
        ("{0,1,2}", 2, True), ("{0,1,2}", 3, False),
        ("N\\{0,1}", 1, False), ("N\\{0,1}", 2, True)])
    def test_parse_mu(self, text, probe, expect):
        assert (probe in parse_mu(text)) is expect

    def test_parse_mu_rejects_garbage(self):
        with pytest.raises(MuSetError):
            parse_mu("{1,a}")

    def test_trivial_spec_rejected(self):
        with pytest.raises(ValueError):
            DomContext(SigmaRhoSpec(NATURALS, NATURALS), 1)


def ctx_for(name: str, k: int, **kw) -> DomContext:
    return DomContext(preset_spec(name), k, **kw)


def cell_weights(table, key):
    """The cell's stored weights, negated: every problem here minimises."""
    return {p: w for p, (w, _) in table[key].items()}


def decoded(ctx, table):
    """The table keyed by per-label tuples: (counts, promises) for plain and
    Steiner, plus (X present, X promises) for co."""
    out = {}
    for key, cell in table.items():
        columns = tuple(zip(*(ctx.slots[code] for code in key)))
        out[columns if ctx.spec.co else columns[:2]] = cell
    return out


LONE = Partition((2,))


class TestLeafTables:
    def test_cds_leaf(self):
        ctx = ctx_for("cds", 1)
        table = decoded(ctx, srd_leaf(ctx, 1, "x", 4))
        lone = Partition((2,))
        assert ((0,), (0,)) not in table          # 0 not in rho
        assert cell_weights(table, ((0,), (1,))) == {EMPTY_PARTITION: 0}
        assert cell_weights(table, ((1,), (0,))) == {EMPTY_PARTITION: -4}
        assert cell_weights(table, ((1,), (1,))) == {lone: -4}

    def test_terminal_leaf_forces_membership(self):
        ctx = DomContext(SigmaRhoSpec(POSITIVES, NATURALS, MIN), 1,
                         terminals=frozenset({"t"}))
        table = decoded(ctx, srd_leaf(ctx, 1, "t", 2))
        assert set(table) == {((1,), (1,))}
        other = decoded(ctx, srd_leaf(ctx, 1, "u", 2))
        assert ((0,), (0,)) in other

    def test_sigma_zero_leaf(self):
        spec = SigmaRhoSpec(MuSet(False, frozenset({0})), NATURALS, MIN)
        ctx = DomContext(spec, 1)
        table = decoded(ctx, srd_leaf(ctx, 1, "x", 3))
        ins = [key for key in table if key[0] == (1,)]
        assert ins == [((1,), (0,))]

    def test_cvc_leaf_weighs_the_connected_side(self):
        ctx = ctx_for("cvc", 1)
        table = decoded(ctx, srd_leaf(ctx, 1, "x", 4))
        # in S: unweighted, no S-neighbor allowed; in X: weighted, promising
        # an X-neighbor (open, a partition block) or not
        assert set(table) == {((1,), (0,), (0,), (0,)), ((0,), (0,), (1,), (0,)),
                              ((0,), (0,), (1,), (1,))}
        assert cell_weights(table, ((1,), (0,), (0,), (0,))) == {EMPTY_PARTITION: 0}
        assert cell_weights(table, ((0,), (0,), (1,), (0,))) == {EMPTY_PARTITION: -4}
        assert cell_weights(table, ((0,), (0,), (1,), (1,))) == {LONE: -4}

    @pytest.mark.parametrize("fut,sprom", [(1, 0), (2, 1)])
    def test_co_future_filter_fixes_the_connected_promise(self, fut, sprom):
        # rho = {1}: an X vertex gains exactly one S-neighbor, so of its fut
        # future neighbors fut - 1 join X; no S promise exceeds fut
        spec = SigmaRhoSpec(NATURALS, MuSet(False, frozenset({1})), MIN, co=True)
        ctx = DomContext(spec, 1)
        table = decoded(ctx, srd_leaf(ctx, 1, "x", 4, (fut,)))
        assert [key[3] for key in table if key[2] == (1,)] == [(sprom,)]
        dropped = {1: {((1,), (2,), (0,), (0,)), ((0,), (1,), (1,), (1,))},
                   2: {((0,), (1,), (1,), (0,))}}[fut]
        unfiltered = decoded(ctx, srd_leaf(ctx, 1, "x", 4))
        assert set(unfiltered) - set(table) == dropped
        assert set(table) <= set(unfiltered)

    @pytest.mark.parametrize("fut", [0, 1])
    def test_promises_never_exceed_the_future_degree(self, fut):
        cds = ctx_for("cds", 1)
        table = decoded(cds, srd_leaf(cds, 1, "x", 4, (fut,)))
        assert table and all(key[1][0] <= fut for key in table)
        steiner = DomContext(SigmaRhoSpec(POSITIVES, NATURALS, MIN), 1)
        table = decoded(steiner, srd_leaf(steiner, 1, "x", 4, (fut,)))
        # an S vertex needs an S-neighbor, so with none to come it stays out
        assert (((1,), (1,)) in table) is (fut == 1)
        assert all(key[1][0] <= fut for key in table)


class TestRenTable:
    def test_empty_class_is_identity(self):
        # relabelling an empty class into a live one changes no key and no
        # cell, on the pruned path (live future degrees) and the reference
        # path alike
        def contents(ctx, table):
            return {key: (cell.ground, dict(cell))
                    for key, cell in decoded(ctx, table).items()}

        for name, (pruned, fut) in product(("cds", "cvc"),
                                           ((True, (1, 1)), (False, None))):
            ctx = ctx_for(name, 2, pruned=pruned)
            table = srd_leaf(ctx, 1, "x", 4, fut)
            assert len(table) >= 2
            assert contents(ctx, srd_ren(ctx, table, 0b010, 2, 1, fut)) == \
                contents(ctx, table)

    def test_merge_keys_and_promises(self):
        ctx = ctx_for("cds", 2)
        table = srd_leaf(ctx, 1, "x", 4)
        out = decoded(ctx, srd_ren(ctx, table, 0b010, 1, 2))
        assert cell_weights(out, ((0, 1), (0, 0))) == {EMPTY_PARTITION: -4}
        assert cell_weights(out, ((0, 1), (0, 1))) == {Partition((4,)): -4}

    def test_cvc_moves_the_connected_side(self):
        ctx = ctx_for("cvc", 2)
        out = decoded(ctx, srd_ren(ctx, srd_leaf(ctx, 1, "x", 4), 0b010, 1, 2))
        assert cell_weights(out, ((0, 1), (0, 0), (0, 0), (0, 0))) == {EMPTY_PARTITION: 0}
        assert cell_weights(out, ((0, 0), (0, 0), (0, 1), (0, 1))) == \
            {Partition((4,)): -4}

    def test_split_enumeration_reaches_full_class(self):
        # two vertices relabeled into one class: target counts reflect the sum
        ctx = ctx_for("cds", 2)
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_ren(ctx, srd_leaf(ctx, 1, "y", 1), 0b010, 1, 2)
        tu = srd_union(ctx, ta, 0b010, tb, 0b100)
        out = decoded(ctx, srd_ren(ctx, tu, 0b110, 2, 1))
        # d = 1: the merged class count saturates at 1
        assert any(key[0] == (1, 0) for key in out)
        assert all(key[0][1] == 0 for key in out)

    def test_cvc_merged_classes_share_one_partition_node(self):
        ctx = ctx_for("cvc", 2)
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_ren(ctx, srd_leaf(ctx, 1, "y", 1), 0b010, 1, 2)
        tu = srd_union(ctx, ta, 0b010, tb, 0b100)
        out = decoded(ctx, srd_ren(ctx, tu, 0b110, 2, 1))
        # S and X presence add up; both open X vertices become one node
        assert set(out) == {((1, 0), (0, 0), (0, 0), (0, 0)),
                            ((1, 0), (0, 0), (1, 0), (0, 0)),
                            ((1, 0), (0, 0), (1, 0), (1, 0)),
                            ((0, 0), (0, 0), (1, 0), (1, 0))}
        assert cell_weights(out, ((0, 0), (0, 0), (1, 0), (1, 0))) == {LONE: -2}


class TestAddTable:
    def _p2_table(self, ctx):
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_ren(ctx, srd_leaf(ctx, 1, "y", 1), 0b010, 1, 2)
        return srd_union(ctx, ta, 0b010, tb, 0b100), 0b110

    def test_copy_when_one_class_unoccupied(self):
        ctx = ctx_for("cds", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        key = ((0, 1), (1, 0))  # x out (promised a neighbor), y in, final
        assert cell_weights(out, key) == {EMPTY_PARTITION: -1}

    def test_cvc_copy_when_one_class_has_no_connected_vertex(self):
        ctx = ctx_for("cvc", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        key = ((1, 0), (0, 0), (0, 1), (0, 0))  # x in S, y in X, final
        assert cell_weights(out, key) == {EMPTY_PARTITION: -1}

    def test_active_empty_flattens_partitions(self):
        ctx = ctx_for("cds", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        both_final = ((1, 1), (0, 0))
        assert cell_weights(out, both_final) == {EMPTY_PARTITION: -2}

    def test_cvc_active_empty_flattens_partitions(self):
        ctx = ctx_for("cvc", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        both_final = ((0, 0), (0, 0), (1, 1), (0, 0))
        assert cell_weights(out, both_final) == {EMPTY_PARTITION: -2}
        both_open = ((0, 0), (0, 0), (1, 1), (1, 1))
        assert cell_weights(out, both_open) == {Partition((6,)): -2}

    def test_infeasible_promises_produce_no_cell(self):
        ctx = ctx_for("cds", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        # an unoccupied class cannot dominate: promise consumed nothing
        assert ((0, 0), (0, 0)) not in out

    @pytest.mark.parametrize("name", ["cds", "steiner"])
    def test_filtered_add_keeps_promises_within_the_future_degree(self, name):
        ctx = (DomContext(SigmaRhoSpec(POSITIVES, NATURALS, MIN), 2)
               if name == "steiner" else ctx_for(name, 2))
        table, present = self._p2_table(ctx)
        unfiltered = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        for fut in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = decoded(ctx, srd_add(ctx, table, present, 1, 2, fut))
            assert set(out) <= set(unfiltered)
            for counts, promises in out:
                assert all(p <= f for c, p, f in zip(counts, promises, fut)
                           if c or not ctx.rho_wild)
        full = decoded(ctx, srd_add(ctx, table, present, 1, 2, (1, 1)))
        assert {key: dict(cell) for key, cell in full.items()} == \
            {key: dict(cell) for key, cell in unfiltered.items()}  # d = 1

    def test_cvc_infeasible_promises_produce_no_cell(self):
        ctx = ctx_for("cvc", 2)
        table, present = self._p2_table(ctx)
        out = decoded(ctx, srd_add(ctx, table, present, 1, 2))
        # sigma = {0}: two adjacent S vertices promised no S-neighbor
        assert out and all(key[0] != (1, 1) for key in out)


class TestUnionTable:
    def test_compatible_splits_for_saturating_count(self):
        # d = 1, both sides can hold the single class vertex: count 1 arises
        # from (0,1), (1,0) and (1,1) side pairs
        ctx = ctx_for("ctds", 1)
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_leaf(ctx, 1, "y", 1)
        out = decoded(ctx, srd_union(ctx, ta, 0b010, tb, 0b010))
        key = ((1,), (1,))
        assert cell_weights(out, key)[Partition((2,))] == -1  # the lightest of the three

    def test_zero_promises_split_sides(self):
        # cds: rho = N+ forbids an undominated outside vertex, so the cell
        # holding two final solo vertices must be empty
        ctx = ctx_for("cds", 1)
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_leaf(ctx, 1, "y", 1)
        out = decoded(ctx, srd_union(ctx, ta, 0b010, tb, 0b010))
        assert ((1,), (0,)) not in out

    def test_cvc_finished_connected_side_pairs_only_without_one(self):
        ctx = ctx_for("cvc", 1)
        ta = srd_leaf(ctx, 1, "x", 1)
        tb = srd_leaf(ctx, 1, "y", 1)
        out = decoded(ctx, srd_union(ctx, ta, 0b010, tb, 0b010))
        # two closed X vertices never connect; an S vertex joins freely
        assert ((0,), (0,), (1,), (0,)) not in out
        assert cell_weights(out, ((1,), (0,), (1,), (0,))) == {EMPTY_PARTITION: -1}
        assert cell_weights(out, ((0,), (0,), (1,), (1,))) == {LONE: -2}

    def test_rho_naturals_enables_promise_wildcards(self):
        assert ctx_for("cvc", 1).rho_wild
        assert not ctx_for("cds", 1).rho_wild


RHO_2 = SigmaRhoSpec(NATURALS, MuSet(True, frozenset({0, 1})), MIN)  # r = 2


class TestAtLeastNeeds:
    """Under rho = N minus {0, ..., r - 1} the pruned path stores a plain
    class without S as its need, not as its exact future S-degree."""

    @pytest.mark.parametrize("spec,want", [
        (preset_spec("cds"), True), (preset_spec("ctds"), True), (RHO_2, True),
        (SigmaRhoSpec(MuSet(False, frozenset({0, 1, 2})),
                      MuSet(True, frozenset({0, 1, 2})), MAX), True),
        (preset_spec("perfect-cds"), False), (preset_spec("cvc"), False),
        (preset_spec("d-regular:2"), False),
        (SigmaRhoSpec(POSITIVES, NATURALS, MIN), False),  # Steiner
        (SigmaRhoSpec(NATURALS, MuSet(True, frozenset({1})), MIN), False),
        (SigmaRhoSpec(NATURALS, POSITIVES, MIN, co=True), False)],
        ids=lambda x: x.describe() if isinstance(x, SigmaRhoSpec) else str(x))
    def test_only_the_pruned_plain_upward_closed_rho_stores_needs(self, spec,
                                                                   want):
        assert DomContext(spec, 2, pruned=True).at_least is want
        assert not DomContext(spec, 2).at_least

    def test_an_add_leaves_one_need_where_exact_counts_leave_two(self):
        # cds: an outside class needing one S-neighbour meets an S class
        pruned, exact = ctx_for("cds", 2, pruned=True), ctx_for("cds", 2)
        out, s_class = (0, 1, 0, 0), (1, 0, 1, 0)
        needs = _add_pairs(pruned, out, s_class, 1, 1, None, None)
        counts = _add_pairs(exact, out, s_class, 1, 1, None, None)
        code = exact.code
        assert needs == [(code[0, 0, 0, 0], code[s_class])]
        assert sorted(counts) == sorted([(code[0, 0, 0, 0], code[s_class]),
                                         (code[out], code[s_class])])
        # a need of 2 drops by the partner's c
        rho2 = DomContext(RHO_2, 2, pruned=True)
        assert _add_pairs(rho2, (0, 2, 0, 0), (2, 0, 1, 0), 1, 1, None, None) \
            == [(rho2.code[0, 0, 0, 0], rho2.code[2, 0, 1, 0])]
        assert _add_pairs(rho2, (0, 2, 0, 0), (1, 1, 1, 1), 1, 1, None, None) \
            == [(rho2.code[0, 1, 0, 0], rho2.code[1, 1, 1, 1])]

    def test_merge_keeps_the_larger_need_and_meets_it_by_a_promise(self):
        ctx = DomContext(RHO_2, 2, pruned=True)
        exact = DomContext(RHO_2, 2)

        def merge(c, a, b):
            return (_merge(c, a, b, 1, 1, None), _merge(c, b, a, 1, 1, None))

        # two classes without S: the larger need
        assert merge(ctx, (0, 2, 0, 0), (0, 1, 0, 0)) == (ctx.code[0, 2, 0, 0],) * 2
        assert merge(ctx, (0, 0, 0, 0), (0, 1, 0, 0)) == (ctx.code[0, 1, 0, 0],) * 2
        assert merge(exact, (0, 2, 0, 0), (0, 1, 0, 0)) == (None, None)
        # a need against an exact S promise: kept iff need <= promise, with
        # the promise
        assert merge(ctx, (0, 1, 0, 0), (1, 2, 1, 1)) == (ctx.code[1, 2, 1, 1],) * 2
        assert merge(ctx, (0, 1, 0, 0), (1, 1, 1, 1)) == (ctx.code[1, 1, 1, 1],) * 2
        assert merge(ctx, (0, 0, 0, 0), (2, 0, 1, 0)) == (ctx.code[2, 0, 1, 0],) * 2
        assert merge(ctx, (0, 2, 0, 0), (1, 1, 1, 1)) == (None, None)
        assert merge(ctx, (0, 1, 0, 0), (1, 0, 1, 0)) == (None, None)
        assert merge(exact, (0, 1, 0, 0), (1, 2, 1, 1)) == (None, None)
        # two S promises must still be equal
        assert merge(ctx, (1, 1, 1, 1), (1, 2, 1, 1)) == (None, None)
        assert merge(ctx, (1, 1, 1, 1), (1, 1, 1, 1)) == (ctx.code[2, 1, 1, 1],) * 2
        # an absent class is no need
        assert _merge(ctx, (0, 0, 0, 0), (0, 2, 0, 0), 0, 1, None) == \
            ctx.code[0, 2, 0, 0]

    def test_a_leaf_outside_s_needs_r_capped_at_d(self):
        # sigma = {0, 1, 2}, rho = N minus {0, 1}: d = 3, r = 2
        spec = SigmaRhoSpec(MuSet(False, frozenset({0, 1, 2})), RHO_2.rho, MIN)
        pruned, exact = DomContext(spec, 1, pruned=True), DomContext(spec, 1)
        outside = [(0, p, 0, 0) for p in range(4)]
        assert [c for c in pruned.leaf_codes[False]
                if pruned.slots[c] in outside] == [pruned.code[0, 2, 0, 0]]
        assert [exact.slots[c] for c in exact.leaf_codes[False]
                if exact.slots[c] in outside] == [(0, 2, 0, 0), (0, 3, 0, 0)]
        # n = 2 caps d at 2 below r = 3: the need d is never met, and the
        # future filter drops it at the leaf
        spec = SigmaRhoSpec(NATURALS, MuSet(True, frozenset({0, 1, 2})), MAX)
        capped = DomContext(spec, 1, n=2, pruned=True)
        assert capped.d == 2
        assert [capped.slots[c] for c in capped.leaf_codes[False]
                if not capped.slots[c][0]] == [(0, 2, 0, 0)]
        table = decoded(capped, srd_leaf(capped, 1, "x", 1, (1,)))
        assert table and all(counts == (1,) for counts, _ in table)

    @pytest.mark.parametrize("spec", [
        *map(preset_spec, ("cds", "ctds", "perfect-cds", "cvc", "d-regular:2")),
        SigmaRhoSpec(POSITIVES, NATURALS, MIN), RHO_2,
        SigmaRhoSpec(MuSet(False, frozenset({0, 1, 2})),
                     MuSet(True, frozenset({0, 1, 2})), MAX),
        SigmaRhoSpec(MuSet(True, frozenset({0, 1})), NATURALS, MIN, co=True)],
        ids=SigmaRhoSpec.describe)
    def test_slots_and_leaf_codes_are_the_exact_ones_elsewhere(self, spec):
        # the exact encoding's alphabet and leaf codes, spelled out
        for pruned in (False, True):
            ctx = DomContext(spec, 2, terminals=frozenset({"t"}), pruned=pruned)
            d = ctx.d
            assert ctx.slots == [
                (c, p, b, q) for c, p, b, q in
                product(range(d + 1), range(d + 1), (0, 1), (0, 1))
                if q <= b and not (ctx.rho_wild and p and not c)
                and (spec.co or (b == (c > 0) and q == (b and p > 0)))]
            if ctx.at_least:
                continue
            placements = ((1, 0), (0, 1)) if spec.co else ((0, 0), (1, 1))
            assert ctx.leaf_codes == {
                t: [ctx.code[s, p, x, q] for s, x in placements
                    if x or not t for p in range(d + 1)
                    if p in (spec.sigma if s else spec.rho)
                    for q in range(x + 1) if (s, p, x, q) in ctx.code]
                for t in (False, True)}

    def test_only_the_pruned_path_stores_needs(self, monkeypatch):
        made, pruned_runs = [], []

        class Spy(DomContext):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)

        run = cwsolve.dp.run

        def spy_run(expr, stats, prune, *transitions):
            pruned_runs.append(prune is not None)
            return run(expr, stats, prune, *transitions)

        monkeypatch.setattr(cwsolve.sigma_rho, "DomContext", Spy)
        monkeypatch.setattr(cwsolve.dp, "run", spy_run)
        expr = fixture("cycle", 5)
        pruned = solve_connected_sigma_rho(expr, preset_spec("cds"))
        reference = solve_connected_sigma_rho(expr, preset_spec("cds"),
                                              use_reduce=False)
        assert [ctx.at_least for ctx in made] == [True, False]
        assert pruned.optimum == reference.optimum == 3
        assert pruned.stats.total_states < reference.stats.total_states
        # Steiner builds its context the same way: one bit, the context's,
        # switches the driver's pruning, and the vertex count caps d
        tree = solve_steiner(expr, ["v1", "v3"])
        tree_reference = solve_steiner(expr, ["v1", "v3"], use_reduce=False)
        assert tree.optimum == tree_reference.optimum == 3
        assert [(ctx.pruned, ctx.at_least, ctx.n) for ctx in made] == [
            (True, True, 5), (False, False, 5), (True, False, 5), (False, False, 5)]
        assert pruned_runs == [ctx.pruned for ctx in made]


class TestSolvers:
    def test_cds_on_k1_is_forced(self):
        expr = parse_expression("cwexpr k=1\n(v x 7)")
        assert solve_connected_sigma_rho(expr, preset_spec("cds")).optimum == 7

    def test_cds_p4(self):
        expr = fixture("path", 4)
        assert solve_connected_sigma_rho(expr, preset_spec("cds")).optimum == 2

    def test_ctds_c5(self):
        expr = fixture("cycle", 5)
        assert solve_connected_sigma_rho(expr, preset_spec("ctds")).optimum == 3

    def test_cvc_examples(self):
        cvc = preset_spec("cvc")
        assert solve_connected_sigma_rho(parse_expression("cwexpr k=1\n(v x 9)"),
                                         cvc).optimum == 0
        assert solve_connected_sigma_rho(fixture("clique", 3), cvc).optimum == 2
        assert solve_connected_sigma_rho(fixture("path", 4), cvc).optimum == 2

    def test_steiner_examples(self):
        path = fixture("path", 4)  # v1 - v2 - v3 - v4
        assert solve_steiner(path, ["v1"]).optimum == 1
        assert solve_steiner(path, ["v1", "v4"]).optimum == 4
        star = fixture("star", 4)  # v1 is the center
        assert solve_steiner(star, ["v2", "v3"]).optimum == 3

    def test_steiner_input_validation(self):
        path = fixture("path", 3)
        with pytest.raises(ValueError):
            solve_steiner(path, [])
        with pytest.raises(ValueError):
            solve_steiner(path, ["nope"])

    def test_infeasible_reports_sentinel(self):
        two = naive_expression(parse_graph("v a 1\nv b 1\n"))
        res = solve_connected_sigma_rho(two, preset_spec("cds"))
        assert res.optimum == POS_INF and not res.feasible

    def test_rejects_redundant_expression(self):
        expr = parse_expression(
            "cwexpr k=2\n(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))")
        with pytest.raises(NotIrredundantError):
            solve_connected_sigma_rho(expr, preset_spec("cds"))

    def test_a_degree_cap_above_the_vertex_count_is_capped_at_it(
            self, monkeypatch):
        # d-regular:300 has d = 301, above n = 5: the slot alphabet is that
        # of d = n, at most 4(n + 1)^2 codes, not 4 * 302^2
        made = []

        class Spy(DomContext):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)

        monkeypatch.setattr(cwsolve.sigma_rho, "DomContext", Spy)
        path, n = fixture("path", 5), 5
        res = solve_connected_sigma_rho(path, preset_spec("d-regular:300"))
        assert made and all(len(ctx.slots) <= 4 * (n + 1) ** 2 for ctx in made)
        assert res.optimum == solve_connected_sigma_rho(
            path, preset_spec("d-regular:100")).optimum

    def test_degree_caps_above_the_vertex_count_match_the_oracle(self):
        # sigma and rho values up to n + 2, so d often exceeds n
        rng = random.Random(8)
        for _ in range(150):
            expr = random_expression(rng, rng.randint(1, 6), rng.randint(1, 3))
            graph = evaluate(expr)

            def mu():
                values = rng.sample(range(graph.n + 3), rng.randint(1, 3))
                return MuSet(rng.random() < 0.4, frozenset(values))

            spec = SigmaRhoSpec(mu(), mu(), rng.choice((MAX, MIN)),
                                co=rng.random() < 0.5)
            if spec.d < 1:
                continue
            want = brute_sigma_rho(graph, spec)[0]
            for use_reduce in (True, False):
                res = solve_connected_sigma_rho(expr, spec, with_witness=True,
                                                use_reduce=use_reduce)
                assert res.optimum == want
                if res.feasible:
                    assert check_solution(graph, spec, res.witness,
                                          res.optimum) is None

    @pytest.mark.parametrize("name", ["d-regular:٢", "d-regular:²",
                                      "d-regular:", "d-regular:-1"])
    def test_d_regular_takes_ascii_digits_only(self, name):
        assert preset_spec("d-regular:2") == preset_spec("d-regular:02")
        with pytest.raises(ValueError, match="unknown problem preset"):
            preset_spec(name)

    def test_d_regular_maximizes(self):
        expr = fixture("cycle", 5)
        res = solve_connected_sigma_rho(expr, preset_spec("d-regular:2"))
        assert res.optimum == 5  # the cycle itself is connected 2-regular

    def test_witnesses_verify_against_oracle_checks(self):
        rng = random.Random(800)
        from cwsolve.oracle import _dominates, _is_connected
        for _ in range(20):
            g = random_graph(rng.randint(1, 6), rng)
            expr = naive_expression(g)
            for name in ("cds", "ctds", "cvc"):
                spec = preset_spec(name)
                res = solve_connected_sigma_rho(expr, spec, with_witness=True)
                if not res.feasible:
                    continue
                chosen = set(res.witness)
                adj = g.neighbors()
                assert sum(g.weights[v] for v in chosen) == res.optimum
                assert _is_connected(chosen, adj)
                dominating = set(g.weights) - chosen if spec.co else chosen
                assert _dominates(g, adj, dominating, spec.sigma, spec.rho)


class TestAgainstOracle:
    @pytest.mark.parametrize("name", ["cds", "ctds", "perfect-cds", "cvc"])
    def test_random_graphs(self, name):
        rng = random.Random(hash(name) % 10000)
        spec = preset_spec(name)
        for _ in range(30):
            g = random_graph(rng.randint(1, 6), rng)
            expr = naive_expression(g)
            assert solve_connected_sigma_rho(expr, spec).optimum == \
                brute_sigma_rho(g, spec)[0]

    def test_steiner_random(self):
        rng = random.Random(801)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            terms = frozenset(rng.sample(sorted(g.weights), rng.randint(1, min(3, n))))
            expr = naive_expression(g)
            assert solve_steiner(expr, terms).optimum == brute_steiner(g, terms)[0]

    def test_low_label_fixtures_with_merged_classes(self):
        # cographs and the other families re-use labels across many vertices
        for name in ("cds", "ctds", "cvc"):
            spec = preset_spec(name)
            for kind in ("clique", "cycle", "random-cograph"):
                for n in range(1, 8):
                    expr = fixture(kind, n, seed=n)
                    g = evaluate(expr)
                    assert solve_connected_sigma_rho(expr, spec).optimum == \
                        brute_sigma_rho(g, spec)[0], (name, kind, n)

    def test_future_filter_differential(self):
        # the default path filters co states by future degree; the
        # reference path neither reduces nor filters
        rng = random.Random(802)
        spec = preset_spec("cvc")
        for _ in range(25):
            g = random_graph(rng.randint(1, 6), rng)
            expr = naive_expression(g)
            reference = solve_connected_sigma_rho(expr, spec, use_reduce=False)
            filtered = solve_connected_sigma_rho(expr, spec)
            assert filtered.optimum == reference.optimum


def test_reference_path_never_computes_future_degrees(monkeypatch):
    import cwsolve.dp

    def refuse(expr):
        raise RuntimeError("future degrees computed")

    monkeypatch.setattr(cwsolve.dp, "future_degrees", refuse)
    expr = fixture("cycle", 6)
    for name in ("cvc", "cds"):
        res = solve_connected_sigma_rho(expr, preset_spec(name), use_reduce=False)
        assert res.optimum == brute_sigma_rho(evaluate(expr), preset_spec(name))[0]
        with pytest.raises(RuntimeError, match="future degrees"):
            solve_connected_sigma_rho(expr, preset_spec(name))
    assert solve_steiner(expr, ["v1", "v4"], use_reduce=False).optimum == 4
    with pytest.raises(RuntimeError, match="future degrees"):
        solve_steiner(expr, ["v1", "v4"])


def test_universal_zero_weight_vertex_never_hurts_cds():
    # gluing a weight-0 vertex adjacent to everything cannot increase the
    # connected-domination optimum
    rng = random.Random(803)
    from cwsolve.cwexpr import LabeledGraph, edge_key

    graphs = [random_graph(rng.randint(1, 5), rng) for _ in range(20)]
    graphs += [evaluate(fixture(kind, n))
               for kind in ("clique", "path", "cycle", "star")
               for n in (2, 4, 6)]
    for g in graphs:
        base = solve_connected_sigma_rho(naive_expression(g), preset_spec("cds"))
        weights = dict(g.weights)
        weights["zz"] = 0
        edges = set(g.edges) | {edge_key("zz", v) for v in g.weights}
        aug = LabeledGraph(weights=weights, edges=edges)
        res = solve_connected_sigma_rho(naive_expression(aug), preset_spec("cds"))
        assert res.optimum <= base.optimum


def test_fact_truncated_membership_random():
    rng = random.Random(804)
    for _ in range(50):
        if rng.random() < 0.5:
            mu = MuSet(False, frozenset(rng.sample(range(5), rng.randint(1, 4))))
        else:
            mu = MuSet(True, frozenset(rng.sample(range(5), rng.randint(0, 4))))
        d = max(d_of(mu), 1)
        for a in range(21):
            for b in range(21):
                assert ((a + b) in mu) == (min(d, a + b) in mu)


def test_steiner_never_evaluates_the_graph(monkeypatch):
    # terminal names and the one-terminal answer come from the leaves
    import cwsolve.cwexpr
    import cwsolve.sigma_rho

    expr = naive_expression(random_graph(6, random.Random(805)))
    names = sorted(evaluate(expr).weights)
    cases = [names[:1], names[:2], names[1:4]]
    expected = [solve_steiner(expr, terms, with_witness=True) for terms in cases]

    def refuse(expr):
        raise RuntimeError("graph evaluated")

    monkeypatch.setattr(cwsolve.cwexpr, "evaluate", refuse)
    assert not hasattr(cwsolve.sigma_rho, "evaluate")
    for terms, want in zip(cases, expected):
        got = solve_steiner(expr, terms, with_witness=True)
        assert (got.optimum, got.witness) == (want.optimum, want.witness)
    with pytest.raises(ValueError, match="unknown terminals"):
        solve_steiner(expr, ["nope"])


# ---------------------------------------------------------------------------
# The slot relations: each code pair computed on first read.

RELATION_SPECS = [*map(preset_spec, ("cds", "ctds", "perfect-cds", "cvc",
                                     "d-regular:1", "d-regular:2",
                                     "d-regular:3")),
                  SigmaRhoSpec(POSITIVES, NATURALS, MIN),  # Steiner
                  SigmaRhoSpec(MuSet(True, frozenset({0, 1})), NATURALS, MIN,
                               co=True)]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("spec", RELATION_SPECS, ids=SigmaRhoSpec.describe)
def test_relations_read_what_a_direct_call_gives(spec, k):
    # every argument the transitions pass: present bits, and future degrees
    # None (reference path) or 0..d; pairs read in a seeded random order
    ctx = DomContext(spec, k, terminals=frozenset({"t"}))
    slots, futs = ctx.slots, [None, *range(ctx.d + 1)]
    pairs = [(a, b) for a in range(len(slots)) for b in range(len(slots))]
    random.Random(f"{spec}:{k}").shuffle(pairs)
    for fn, args in [*((_merge, (pa, pb, f)) for pa in (0, 1)
                       for pb in (0, 1) for f in futs),
                     *((_add_pairs, (pa, pb, fa, fb)) for pa in (0, 1)
                       for pb in (0, 1) for fa in futs for fb in futs)]:
        rel = ctx.rel(fn, *args)
        assert ctx.rel(fn, *args) is rel
        for a, b in pairs:
            assert rel[a][b] == fn(ctx, slots[a], slots[b], *args), \
                (fn.__name__, args, slots[a], slots[b])
    assert DomContext(spec, k).rel(_merge, 1, 1, None) is not \
        ctx.rel(_merge, 1, 1, None)  # nothing is shared across solves


@pytest.mark.parametrize("name", ["cds", "perfect-cds", "cvc", "d-regular:2"])
def test_a_solve_computes_each_relation_pair_once_and_only_when_read(
        name, monkeypatch):
    import cwsolve.sigma_rho

    calls: dict = {}

    def counted(fn):
        def call(ctx, a, b, *args):
            calls[fn, args, a, b] = calls.get((fn, args, a, b), 0) + 1
            return fn(ctx, a, b, *args)
        return call

    monkeypatch.setattr(cwsolve.sigma_rho, "_merge", counted(_merge))
    monkeypatch.setattr(cwsolve.sigma_rho, "_add_pairs", counted(_add_pairs))
    graph = random_graph(7, random.Random(806))
    spec = preset_spec(name)
    res = solve_connected_sigma_rho(naive_expression(graph), spec)
    assert res.optimum == brute_sigma_rho(graph, spec)[0]
    assert calls and max(calls.values()) == 1
    # an eager build computes all |slots|^2 pairs of every relation it reads
    relations = {(fn, args) for fn, args, _, _ in calls}
    assert len(calls) < len(relations) * len(DomContext(spec, 7).slots) ** 2
