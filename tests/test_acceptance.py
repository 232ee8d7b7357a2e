"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time

from cwsolve import cli, fixture, solve_fvs
from cwsolve.fvs import UNION_STATE_OPTIONS
from cwsolve.oracle import (brute_min_fvs, brute_sigma_rho, brute_steiner,
                            check_representative)
from cwsolve.partitions import Partition, acyclic
from cwsolve.sigma_rho import (MuSet, d_of, preset_spec,
                               solve_connected_sigma_rho, solve_steiner)
from cwsolve.wpsets import ac_reduce, acjoin, cut_row, join_sets, proj, \
    reduce_set

from conftest import random_partition, random_wpset

DOM_PROBLEMS = ("cds", "ctds", "perfect-cds", "cvc")

_solutions: dict = {}


def _passed(criterion: int, message: str) -> None:
    print(f"criterion {criterion} PASS: {message}")


def _instances(corpus, corpus_expressions, fixture_instances):
    pairs = list(zip(corpus_expressions, corpus))
    pairs += [(expr, graph) for _, _, expr, graph in fixture_instances]
    return pairs


def test_criterion_1_fvs_oracle_equivalence(corpus, corpus_expressions,
                                            fixture_instances):
    started = time.perf_counter()
    pairs = _instances(corpus, corpus_expressions, fixture_instances)
    got = []
    for expr, graph in pairs:
        res = solve_fvs(expr)
        expect = brute_min_fvs(graph)[0]
        assert res.fvs_weight == expect
        got.append(res.fvs_weight)
    _solutions["fvs"] = got
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(1, f"solve_fvs == brute force on {len(pairs)} instances "
               f"({elapsed:.1f}s)")


def test_criterion_2_domination_oracle_equivalence(corpus, corpus_expressions,
                                                   fixture_instances):
    started = time.perf_counter()
    pairs = _instances(corpus, corpus_expressions, fixture_instances)
    rng = random.Random(424242)
    terminal_sets = []
    for _, graph in pairs:
        names = sorted(graph.weights)
        terminal_sets.append(frozenset(
            rng.sample(names, rng.randint(1, min(3, len(names))))))
    results: dict = {name: [] for name in DOM_PROBLEMS}
    results["steiner"] = []
    for name in DOM_PROBLEMS:
        spec = preset_spec(name)
        for expr, graph in pairs:
            res = solve_connected_sigma_rho(expr, spec)
            assert res.optimum == brute_sigma_rho(graph, spec)[0], (name, graph)
            results[name].append(res.optimum)
    for (expr, graph), terms in zip(pairs, terminal_sets):
        res = solve_steiner(expr, terms)
        assert res.optimum == brute_steiner(graph, terms)[0]
        results["steiner"].append(res.optimum)
    _solutions["dom"] = results
    _solutions["terminals"] = terminal_sets
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(2, f"cds/ctds/perfect-cds/cvc/steiner == brute force on "
               f"{len(pairs)} instances each ({elapsed:.1f}s)")


def test_criterion_3_representativity_and_size_bounds():
    rng = random.Random(31337)
    checked = 0
    for nbits in range(1, 6):
        ground = sum(1 << (i + 1) for i in range(nbits))
        for _ in range(100):
            a = random_wpset(rng, ground, rng.randint(1, 3 * (1 << nbits)))
            ac_small = ac_reduce(a)
            small = reduce_set(a)
            assert len(ac_small) <= nbits << max(nbits - 1, 0)
            assert len(small) <= 1 << (nbits - 1)
            assert check_representative(a, ac_small, "acyclic")
            assert check_representative(a, small, "plain")
            checked += 1
    _passed(3, f"reduce/ac_reduce representative with size bounds on "
               f"{checked} random sets, ground sizes 1..5")


def _preserves(full, small, mode):
    return check_representative(full, small, mode)


def test_criterion_4_operator_preservation():
    rng = random.Random(9091)
    trials = 500
    ground = 0b11110  # four elements

    def sample(sign=1):
        return random_wpset(rng, ground, rng.randint(1, 10), sign)

    for _ in range(trials):
        a = sample()
        small = ac_reduce(a)
        assert _preserves(a.copy(), small.copy(), "acyclic")
    for _ in range(trials):
        a = sample()
        small = ac_reduce(a)
        drop = 1 << rng.choice([1, 2, 3, 4])
        assert _preserves(proj(a, drop), proj(small, drop), "acyclic")
    for _ in range(trials):
        a = sample()
        small = ac_reduce(a)
        other_ground = ground | (1 << 5)
        b = random_wpset(rng, other_ground & ~(1 << rng.choice([1, 2])), 3)
        assert _preserves(acjoin(a, b), acjoin(small, b), "acyclic")
    for _ in range(trials):
        a = sample()
        small = ac_reduce(a)
        c = sample()
        full = a.copy()
        full.merge(c)
        merged = small.copy()
        merged.merge(c)
        assert _preserves(full, merged, "acyclic")
    # plain-side operators against reduce, on weights of both signs (a
    # minimising problem's cells hold negated weights)
    for i in range(trials):
        sign = 1 if i % 2 else -1
        a = sample(sign)
        small = reduce_set(a)
        assert _preserves(a.copy(), small.copy(), "plain")
        drop = 1 << rng.choice([1, 2, 3, 4])
        assert _preserves(proj(a, drop), proj(small, drop), "plain")
        b = random_wpset(rng, 0b100110, 3, sign)
        assert _preserves(join_sets(a, b), join_sets(small, b), "plain")
        c = sample(sign)
        full = a.copy()
        full.merge(c)
        merged = small.copy()
        merged.merge(c)
        assert _preserves(full, merged, "plain")
    _passed(4, f"copy/proj/(ac)join/union preserve (ac-)representation, "
               f"{trials} trials per operator")


def _random_forest_partition(rng, ground):
    from conftest import random_partition as rp
    # union of a random matching-ish forest: reuse bucket partitioning but
    # bias toward fewer blocks for interesting acyclicity cases
    p = rp(rng, ground)
    q = rp(rng, ground)
    return p.join(q)


def test_criterion_5_facts_as_laws():
    rng = random.Random(5151)
    # associativity-style exchange law for the acyclicity relation
    trials = 10_000
    for t in range(trials):
        nbits = rng.randint(1, 6)
        ground = sum(1 << (i + 1) for i in range(nbits))
        gen = _random_forest_partition if t % 2 else random_partition
        p = gen(rng, ground)
        q = gen(rng, ground)
        r = gen(rng, ground)
        lhs = acyclic(p, q) and acyclic(p.join(q), r)
        rhs = acyclic(q, r) and acyclic(p, q.join(r))
        assert lhs == rhs
    # restriction law: dropping a block-free element set commutes with
    # completion and with the acyclicity test
    done = 0
    while done < trials:
        nbits = rng.randint(1, 6)
        ground = sum(1 << (i + 1) for i in range(nbits))
        q = random_partition(rng, ground)
        xmask = 0
        for i in range(nbits):
            if rng.random() < 0.4:
                xmask |= 1 << (i + 1)
        if xmask == ground or any(b & ~xmask == 0 for b in q.blocks):
            continue
        rest = ground & ~xmask
        p = random_partition(rng, rest)
        lifted = p.extend(xmask)
        assert (lifted.join(q) == Partition.whole(ground)) == \
            (p.join(q.restrict(xmask)) == Partition.whole(rest))
        assert acyclic(lifted, q) == acyclic(p, q.restrict(xmask))
        done += 1
    # membership of truncated sums
    for _ in range(50):
        if rng.random() < 0.5:
            mu = MuSet(False, frozenset(rng.sample(range(5), rng.randint(1, 4))))
        else:
            mu = MuSet(True, frozenset(rng.sample(range(5), rng.randint(0, 4))))
        d = max(d_of(mu), 1)
        for a in range(21):
            for b in range(21):
                assert ((a + b) in mu) == (min(d, a + b) in mu)
    _passed(5, "acyclicity exchange + restriction laws (10^4 trials each), "
               "truncated-membership law (50 sets x 441 sums): zero violations")


def test_criterion_6_combinatorial_constants():
    assert sum(len(v) for v in UNION_STATE_OPTIONS.values()) == 15
    rng = random.Random(6006)
    for _ in range(1000):
        nbits = rng.randint(1, 8)
        ground = sum(1 << rng.randrange(9) for _ in range(nbits))
        p = random_partition(rng, ground)
        assert cut_row(p, p.ground).bit_count() == 1 << (len(p.blocks) - 1)
    _passed(6, "15 union state triples per label; cut-row popcount = "
               "2^(blocks-1) on 10^3 random partitions")


def test_criterion_7_scaling_on_k100(tmp_path, capsys):
    # Closed forms on complete graphs (verified against the oracle for
    # n <= 7 by criteria 1-2, which include clique fixtures):
    # - an independent set in K_n has at most one vertex, so a vertex cover
    #   needs n-1, and any n-1 vertices induce a connected clique: CVC = n-1;
    # - an induced forest in K_n has at most two vertices (three always close
    #   a triangle) and two adjacent ones form a tree: FVS = n-2.
    # Adding a vertex to K_n changes neither argument, hence the induction to
    # arbitrary n.
    stats_by_n = {}
    for n in (60, 100):
        path = tmp_path / f"k{n}.cw"
        path.write_text(__import__("cwsolve").serialize(fixture("clique", n)))
        for problem, expect in (("cvc", n - 1), ("fvs", n - 2)):
            started = time.perf_counter()
            code = cli.run(["solve", "--problem", problem,
                            "--expr", str(path), "--json"])
            elapsed = time.perf_counter() - started
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["optimum"] == expect
            assert elapsed < 5.0
            stats_by_n[(problem, n)] = payload["stats"]["max_cell_entries"]
    k = 2
    assert stats_by_n[("fvs", 100)] <= (k + 1) << k
    assert stats_by_n[("cvc", 100)] <= 1 << (k - 1)
    # the per-cell peak is a function of k alone, not of n
    assert stats_by_n[("fvs", 60)] == stats_by_n[("fvs", 100)]
    assert stats_by_n[("cvc", 60)] == stats_by_n[("cvc", 100)]
    _passed(7, "K_100 at k=2: cvc=99, fvs=98, each under 5s, cell peaks "
               "bounded by the k=2 constants independent of n")


def test_criterion_8_reduce_differential(corpus, corpus_expressions,
                                         fixture_instances):
    pairs = _instances(corpus, corpus_expressions, fixture_instances)
    fvs_expected = _solutions.get("fvs") or [
        brute_min_fvs(graph)[0] for _, graph in pairs]
    for (expr, _), expect in zip(pairs, fvs_expected):
        assert solve_fvs(expr, use_reduce=False).fvs_weight == expect
    dom_expected = _solutions.get("dom")
    rng = random.Random(424242)
    terminal_sets = _solutions.get("terminals") or [
        frozenset(rng.sample(sorted(g.weights),
                             rng.randint(1, min(3, len(g.weights)))))
        for _, g in pairs]
    for name in DOM_PROBLEMS:
        spec = preset_spec(name)
        for idx, (expr, graph) in enumerate(pairs):
            expect = (dom_expected[name][idx] if dom_expected
                      else brute_sigma_rho(graph, spec)[0])
            got = solve_connected_sigma_rho(expr, spec, use_reduce=False)
            assert got.optimum == expect, (name, idx)
    for idx, ((expr, graph), terms) in enumerate(zip(pairs, terminal_sets)):
        expect = (dom_expected["steiner"][idx] if dom_expected
                  else brute_steiner(graph, terms)[0])
        assert solve_steiner(expr, terms, use_reduce=False).optimum == expect
    _passed(8, f"--no-reduce matches the pruned solver on all "
               f"{len(pairs)} instances and six problems")
