import random

import pytest

from cwsolve import parse_graph, preset_spec
from cwsolve.oracle import (InstanceTooLargeError, brute_max_forest,
                            brute_min_fvs, brute_sigma_rho, brute_steiner,
                            check_representative)
from cwsolve.wpsets import (POS_INF, InvariantError, WPSet, ac_reduce,
                            reduce_set)
from cwsolve.partitions import Partition

from conftest import random_graph, random_wpset

K3 = parse_graph("v a 1\nv b 1\nv c 1\ne a b\ne b c\ne a c\n")
P4 = parse_graph("v a 1\nv b 1\nv c 1\nv d 1\ne a b\ne b c\ne c d\n")
C4 = parse_graph("v a 1\nv b 1\nv c 1\nv d 1\ne a b\ne b c\ne c d\ne a d\n")
STAR = parse_graph("v a 1\nv b 1\nv c 1\nv e 1\ne c a\ne c b\ne c e\n")


class TestBruteFvs:
    def test_triangle(self):
        assert brute_min_fvs(K3)[0] == 1

    def test_tree_is_already_a_forest(self):
        weight, witness = brute_min_fvs(P4)
        assert weight == 0 and witness == ()

    def test_four_cycle(self):
        assert brute_min_fvs(C4)[0] == 1

    def test_two_coding_paths_agree(self):
        rng = random.Random(50)
        for _ in range(60):
            g = random_graph(rng.randint(1, 6), rng)
            fvs_w, _ = brute_min_fvs(g)
            forest_w, forest = brute_max_forest(g)
            assert fvs_w == g.total_weight() - forest_w

    def test_witness_is_lexicographically_smallest(self):
        weight, witness = brute_min_fvs(K3)
        assert witness == ("a",)

    def test_size_limit(self):
        big = parse_graph("\n".join(f"v x{i:02d}" for i in range(21)))
        with pytest.raises(InstanceTooLargeError):
            brute_min_fvs(big)

    @pytest.mark.parametrize("brute", [brute_min_fvs, brute_max_forest])
    def test_no_forest_at_all_is_an_invariant_error(self, monkeypatch, brute):
        # a real check, not an assert that python -O would strip
        import cwsolve.oracle

        monkeypatch.setattr(cwsolve.oracle, "_is_forest", lambda *args: False)
        with pytest.raises(InvariantError):
            brute(K3)


class TestBruteSigmaRho:
    def test_cds_single_vertex(self):
        g = parse_graph("v x 7\n")
        weight, witness = brute_sigma_rho(g, preset_spec("cds"))
        assert weight == 7 and witness == ("x",)

    def test_cds_p4(self):
        assert brute_sigma_rho(P4, preset_spec("cds"))[0] == 2

    def test_cvc_k3_and_p4(self):
        assert brute_sigma_rho(K3, preset_spec("cvc"))[0] == 2
        assert brute_sigma_rho(P4, preset_spec("cvc"))[0] == 2

    def test_cvc_single_vertex_allows_empty_cover(self):
        g = parse_graph("v x 5\n")
        weight, witness = brute_sigma_rho(g, preset_spec("cvc"))
        assert weight == 0 and witness == ()

    def test_infeasible_yields_sentinel(self):
        two = parse_graph("v a 1\nv b 1\n")  # no edges: no connected CDS
        weight, witness = brute_sigma_rho(two, preset_spec("cds"))
        assert weight == POS_INF and witness is None

    def test_steiner_examples(self):
        assert brute_steiner(P4, frozenset(["a", "d"]))[0] == 4
        assert brute_steiner(STAR, frozenset(["a", "b"]))[0] == 3
        assert brute_steiner(P4, frozenset(["a"]))[0] == 1

    def test_steiner_unknown_terminal(self):
        with pytest.raises(ValueError):
            brute_steiner(P4, frozenset(["zz"]))


class TestCheckRepresentative:
    def test_reflexive(self):
        rng = random.Random(60)
        a = random_wpset(rng, 0b1110, 10)
        assert check_representative(a, a, "plain")
        assert check_representative(a, a, "acyclic")

    def test_empty_set_is_distinguished(self):
        ground = 0b110
        a = WPSet.from_pairs([(Partition.singletons(ground), 5)], ground)
        assert not check_representative(a, WPSet(ground), "plain")

    def test_reduced_sets_pass(self):
        rng = random.Random(61)
        ground = 0b11110
        for _ in range(25):
            a = random_wpset(rng, ground, 40)
            assert check_representative(a, ac_reduce(a), "acyclic")
            assert check_representative(a, reduce_set(a), "plain")

    def test_monotone_under_superset(self):
        rng = random.Random(62)
        ground = 0b1110
        a = random_wpset(rng, ground, 10)
        bigger = a.copy()
        bigger.merge(random_wpset(rng, ground, 3))
        small = reduce_set(bigger)
        # a subset that represents also represents through any superset of
        # the represented side built from dominated entries
        assert check_representative(bigger, small, "plain")
