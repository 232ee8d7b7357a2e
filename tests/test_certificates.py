"""Certificates and metamorphic checks at sizes the oracles cannot reach.

:func:`cwsolve.oracle.check_solution` checks a witness against the evaluated
graph alone, in O(n + m).  The brute-force oracles stop at n <= 8, so these
tests check every witness the solvers report on fixtures of 200..1000
vertices and on random expressions of width up to 6, and that relabelling,
renaming and scaling an instance move the optimum as they must.
"""

import json
import random
import re
from itertools import combinations

import pytest

from cwsolve import (cli, evaluate, fixture, naive_expression, serialize,
                     solve_fvs)
from cwsolve.cwexpr import (UNION, CwExpression, LabeledGraph, edge_key,
                            parse_expression)
from cwsolve.oracle import (brute_max_forest, brute_min_fvs, brute_sigma_rho,
                            brute_steiner, check_solution)
from cwsolve.sigma_rho import (MAX, MIN, NATURALS, POSITIVES, MuSet,
                               SigmaRhoSpec, preset_spec,
                               solve_connected_sigma_rho, solve_steiner)
from cwsolve.wpsets import NEG_INF, POS_INF

from conftest import expression, random_expression, random_graph

SPECS = {name: preset_spec(name)
         for name in ("cds", "ctds", "perfect-cds", "cvc", "d-regular:2")}
SPECS["co-custom"] = SigmaRhoSpec(MuSet(True, frozenset({0, 1})), NATURALS,
                                  co=True)


# a relabel's or an add's opening, or a whole leaf, in serialized text
_NODE_RE = re.compile(r"\((ren|add) (\d+) (\d+) |\(v (\w+) (\d+)\)")


def rebuild(expr, name=None, weight=None, label=None) -> CwExpression:
    """The expression with vertex names, weights or labels mapped in its
    text; a leaf whose label 1 maps to x becomes ``(ren 1 x (v ...))``."""
    name = name or (lambda v: v)
    weight = weight or (lambda w: w)
    label = label or (lambda lbl: lbl)

    def node(m) -> str:
        if m[1]:
            return f"({m[1]} {label(int(m[2]))} {label(int(m[3]))} "
        leaf = f"(v {name(m[4])} {weight(int(m[5]))})"
        return leaf if label(1) == 1 else f"(ren 1 {label(1)} {leaf})"

    return parse_expression(_NODE_RE.sub(node, serialize(expr)))


def coned(expr, weight: int) -> CwExpression:
    """The expression plus a vertex ``hub`` adjacent to every other one.

    The hub gets the new label k + 1, so each add links it to one class for
    the first time: the result is connected and still irredundant.
    """
    k = expr.k + 1
    body = f"(u {serialize(expr).splitlines()[1]} (ren 1 {k} (v hub {weight})))"
    for lbl in range(1, k):
        body = f"(add {lbl} {k} {body})"
    return expression(k, body)


def answers(expr, problems, terminals=()) -> dict:
    """Problem -> (optimum, witness) from the solvers; ``fvs`` also gives
    ``mif``, whose witness is the kept forest."""
    out = {}
    for problem in problems:
        if problem == "fvs":
            res = solve_fvs(expr, with_witness=True)
            out["fvs"] = res.fvs_weight, res.witness
            out["mif"] = res.forest_weight, res.forest_witness
            continue
        if problem == "steiner":
            res = solve_steiner(expr, terminals, with_witness=True)
        else:
            res = solve_connected_sigma_rho(expr, SPECS[problem],
                                            with_witness=True)
        out[problem] = res.optimum, res.witness
    return out


def certify(graph, problem, optimum, witness, terminals=()) -> None:
    if optimum in (POS_INF, NEG_INF):
        assert witness is None, problem
        return
    kind = problem if problem in ("fvs", "mif", "steiner") else SPECS[problem]
    assert check_solution(graph, kind, witness, optimum, terminals) is None, \
        (problem, optimum, witness)


# ---------------------------------------------------------------------------
# The checker itself.

PATH3 = LabeledGraph({"a": 1, "b": 2, "c": 1}, {("a", "b"), ("b", "c")})
TRIANGLE = LabeledGraph({"a": 1, "b": 2, "c": 1},
                        {("a", "b"), ("b", "c"), ("a", "c")})


@pytest.mark.parametrize("graph, problem, witness, optimum, terminals, fault", [
    (TRIANGLE, "fvs", ("a",), 1, (), None),
    (TRIANGLE, "fvs", (), 0, (), "cycle"),
    (TRIANGLE, "fvs", ("b",), 1, (), "weighs 2"),
    (TRIANGLE, "fvs", ("a",), 2, (), "weighs 1"),
    (TRIANGLE, "mif", ("a", "b"), 3, (), None),
    (TRIANGLE, "mif", ("a", "b", "c"), 4, (), "cycle"),
    (PATH3, "mif", ("a", "b", "c"), 4, (), None),
    (PATH3, "cds", ("b",), 2, (), None),
    (PATH3, "cds", ("a", "c"), 2, (), "connected"),
    (PATH3, "cds", ("a",), 1, (), "sigma or rho"),
    (PATH3, "cvc", ("b",), 2, (), None),
    (TRIANGLE, "cvc", ("a",), 1, (), "sigma or rho"),
    (TRIANGLE, "cvc", ("a", "b"), 3, (), None),
    (PATH3, "steiner", ("a", "b"), 3, ("a", "b"), None),
    (PATH3, "steiner", ("a", "b"), 3, ("a", "c"), "terminals ['c']"),
    (PATH3, "cds", ("b", "z"), 2, (), "unknown vertices ['z']"),
    (PATH3, "cds", ("b", "b"), 4, (), "repeats"),
])
def test_check_solution_names_each_fault(graph, problem, witness, optimum,
                                         terminals, fault):
    kind = problem if problem in ("fvs", "mif", "steiner") else SPECS[problem]
    got = check_solution(graph, kind, witness, optimum, terminals)
    if fault is None:
        assert got is None
    else:
        assert fault in got


def _subsets(names):
    for mask in range(1 << len(names)):
        yield tuple(v for i, v in enumerate(names) if mask >> i & 1)


@pytest.mark.parametrize("problem", ["fvs", "mif", "steiner", *SPECS])
def test_check_solution_accepts_exactly_what_the_oracles_optimize(problem):
    # the best weight among the subsets the checker accepts is the oracle's
    # optimum, and the oracle's witness passes
    rng = random.Random(808)
    for _ in range(40):
        graph = random_graph(rng.randint(1, 6), rng)
        names = sorted(graph.weights)
        terms = frozenset(rng.sample(names, min(2, len(names))))
        kind = problem if problem in ("fvs", "mif", "steiner") else SPECS[problem]
        if problem == "fvs":
            want = brute_min_fvs(graph)
        elif problem == "mif":
            want = brute_max_forest(graph)
        elif problem == "steiner":
            want = brute_steiner(graph, terms)
        else:
            want = brute_sigma_rho(graph, kind)
        weights = [sum(graph.weights[v] for v in sub) for sub in _subsets(names)
                   if check_solution(graph, kind, sub,
                                     sum(graph.weights[v] for v in sub),
                                     terms) is None]
        top = problem == "mif" or (problem in SPECS
                                   and SPECS[problem].direction == MAX)
        if not weights:
            assert want[1] is None
            continue
        assert (max(weights) if top else min(weights)) == want[0]
        assert check_solution(graph, kind, want[1], want[0], terms) is None


# ---------------------------------------------------------------------------
# Every witness at scale.

FIXTURES = [("path", 400), ("cycle", 200), ("star", 1000), ("clique", 200),
            ("random-cograph", 300)]


def _large_fixture(kind: str, n: int):
    """The fixture with seeded weights 0..10, three terminals and its graph."""
    rng = random.Random(f"{kind}:{n}")
    expr = rebuild(fixture(kind, n, seed=n), weight=lambda w: rng.randint(0, 10))
    if kind == "random-cograph":
        expr = coned(expr, 5)  # a cograph whose root is a union is disconnected
    graph = evaluate(expr)
    return expr, sorted(rng.sample(sorted(graph.weights), 3)), graph


@pytest.mark.parametrize("kind, n", FIXTURES)
def test_every_witness_on_large_fixtures(kind, n):
    expr, terms, graph = _large_fixture(kind, n)
    got = answers(expr, ("fvs", "cds", "cvc", "steiner"), terms)
    for problem, (optimum, witness) in got.items():
        assert witness is not None, problem  # every fixture here is connected
        certify(graph, problem, optimum, witness, terms)


def test_every_cli_witness_on_a_large_fixture(tmp_path, capsys):
    expr, terms, graph = _large_fixture("clique", 200)
    path = tmp_path / "in.cw"
    path.write_text(serialize(expr))
    for problem in ("fvs", "mif", "cds", "cvc", "steiner"):
        argv = ["solve", "--problem", problem, "--expr", str(path),
                "--witness", "--json", "--terminals", ",".join(terms)]
        capsys.readouterr()
        assert cli.run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        certify(graph, problem, payload["optimum"], payload["witness"], terms)


# (k, n) of the random expressions: width up to 5, sizes the DP handles fast.
RANDOM_SIZES = [(2, 40), (3, 40), (3, 30), (4, 24), (4, 20), (5, 14), (5, 12)]


@pytest.mark.parametrize("k, n", RANDOM_SIZES)
def test_every_witness_on_random_expressions(k, n):
    rng = random.Random(f"random:{k}:{n}")
    base = random_expression(rng, n, k)
    # the raw expressions are rarely connected; the coned one always is
    exprs = [base] + ([coned(base, rng.randint(0, 10))] if k < 5 else [])
    for expr in exprs:
        graph = evaluate(expr)
        terms = rng.sample(sorted(graph.weights), 3)
        got = answers(expr, ("fvs", "steiner", *SPECS), terms)
        for problem, (optimum, witness) in got.items():
            certify(graph, problem, optimum, witness, terms)


def multi_label_unions(expr) -> int:
    """The union nodes both of whose children use two or more labels."""
    program = expr.program
    present, left = program.present, program.left
    return sum(op == UNION and present[left[p]].bit_count() > 1
               and present[p - 1].bit_count() > 1
               for p, op in enumerate(program.op))


# (k, n, shape seed, whether the unpruned reference runs in under 3 s) of
# union-heavy random expressions for the forest DP.  The reference joins
# every pair of states at a union; the slowest marked case, (5, 40, 0), takes
# about 2.8 s of CPU for it on a 2-CPU x86-64 host.
FOREST_UNIONS = [(4, 40, 0, True), (4, 40, 2, True), (5, 40, 0, True),
                 (5, 40, 2, False), (5, 30, 0, True), (6, 30, 0, True),
                 (6, 30, 1, False), (6, 24, 0, False), (6, 20, 1, True)]


@pytest.mark.parametrize("k, n, seed, reference", FOREST_UNIONS)
def test_every_forest_witness_on_union_heavy_expressions(k, n, seed, reference):
    expr = random_expression(random.Random(f"forest:{k}:{n}:{seed}"), n, k)
    assert multi_label_unions(expr) >= 3
    graph = evaluate(expr)
    got = answers(expr, ("fvs",))
    for problem, (optimum, witness) in got.items():
        certify(graph, problem, optimum, witness)
    if reference:
        ref = solve_fvs(expr, use_reduce=False)
        assert (got["fvs"][0], got["mif"][0]) == \
            (ref.fvs_weight, ref.forest_weight)


# ---------------------------------------------------------------------------
# Specs with a wide slot alphabet, n <= 8: oracle, reference path, witness.

# name -> (spec, the largest k at which the unpruned reference path is
# compared too); under sigma = {1, 2}, rho = N+ that path takes 20-30 s on a
# naive n = 8 expression, so for that spec it stops at k = 6.
WIDE_SPECS = {
    "d-regular:3": (preset_spec("d-regular:3"), 8),
    "d-regular:4": (preset_spec("d-regular:4"), 8),
    "sigma {1,2} rho N+": (SigmaRhoSpec(MuSet(False, frozenset({1, 2})),
                                        POSITIVES), 6),
}


def _dense_graph(n: int, rng: random.Random) -> LabeledGraph:
    """A random graph on n vertices with edge probability 0.8."""
    names = [f"v{i}" for i in range(1, n + 1)]
    return LabeledGraph({v: rng.randint(0, 10) for v in names},
                        {edge_key(a, b) for a, b in combinations(names, 2)
                         if rng.random() < 0.8})


@pytest.mark.parametrize("name", sorted(WIDE_SPECS))
def test_wide_specs_against_the_oracle_and_the_reference(name):
    spec, reference_k = WIDE_SPECS[name]
    rng = random.Random(f"wide:{name}")
    for _ in range(12):
        n = rng.randint(2, 8)
        # coned and dense instances, so that the induced d-regular sets are
        # often non-empty
        for expr in (random_expression(rng, n, rng.randint(2, 4)),
                     coned(random_expression(rng, n - 1, rng.randint(2, 3)),
                           rng.randint(0, 10)),
                     naive_expression(random_graph(n, rng)),
                     naive_expression(_dense_graph(n, rng))):
            graph = evaluate(expr)
            res = solve_connected_sigma_rho(expr, spec, with_witness=True)
            assert res.optimum == brute_sigma_rho(graph, spec)[0], \
                sorted(graph.edges)
            if expr.k <= reference_k:
                assert solve_connected_sigma_rho(
                    expr, spec, use_reduce=False).optimum == res.optimum
            if res.feasible:
                assert check_solution(graph, spec, res.witness,
                                      res.optimum) is None, res.witness
            else:
                assert res.witness is None


# Specs whose rho is N minus {0, ..., r - 1}: the pruned path stores a class
# without S as its need (at least r S-neighbours), the reference path as its
# exact future S-degree.  Name -> (spec, the largest k at which the reference
# path is compared too); at d = 3 it takes 5-12 s on a naive n = 7
# expression, so there it stops at k = 6.
AT_LEAST_SPECS = {
    "cds": (preset_spec("cds"), 8),
    "ctds": (preset_spec("ctds"), 8),
    "sigma {0,1,2} rho N-{0,1} min": (SigmaRhoSpec(
        MuSet(False, frozenset({0, 1, 2})), MuSet(True, frozenset({0, 1})),
        MIN), 6),
    "sigma N rho N-{0,1,2} max": (SigmaRhoSpec(
        NATURALS, MuSet(True, frozenset({0, 1, 2})), MAX), 6),
}


@pytest.mark.parametrize("name", sorted(AT_LEAST_SPECS))
def test_at_least_needs_against_the_oracle_and_the_reference(name):
    spec, reference_k = AT_LEAST_SPECS[name]
    rng = random.Random(f"at-least:{name}")
    for _ in range(15):
        n = rng.randint(2, 8)
        # random expressions merge classes whose members have different
        # needs, and coned ones are connected, so that they are feasible
        for expr in (random_expression(rng, n, rng.randint(2, 4)),
                     *(coned(random_expression(rng, n - 1, rng.randint(2, 4)),
                             rng.randint(0, 10)) for _ in range(2)),
                     naive_expression(random_graph(n, rng))):
            graph = evaluate(expr)
            res = solve_connected_sigma_rho(expr, spec, with_witness=True)
            want = brute_sigma_rho(graph, spec)[0]
            assert res.optimum == want, sorted(graph.edges)
            if expr.k <= reference_k:
                assert solve_connected_sigma_rho(
                    expr, spec, use_reduce=False).optimum == want
            if res.feasible:
                assert check_solution(graph, spec, res.witness,
                                      res.optimum) is None, res.witness
            else:
                assert res.witness is None


# ---------------------------------------------------------------------------
# Metamorphic relations, n = 20..60 and k <= 4.

META_PROBLEMS = ("fvs", "cds", "cvc", "steiner")


@pytest.fixture(scope="module")
def meta_instances():
    """(expression, terminals, answers) on random expressions, coned so that
    the domination problems have solutions; the cone takes one more label,
    so k <= 3 below it."""
    rng = random.Random(2718)
    out = []
    for k, n in [(2, 60), (3, 40), (3, 20)]:
        expr = coned(random_expression(rng, n, k), rng.randint(0, 10))
        terms = rng.sample(sorted(evaluate(expr).weights), 3)
        out.append((expr, terms, answers(expr, META_PROBLEMS, terms)))
    return out


def test_label_permutation_and_renaming_keep_the_optimum(meta_instances):
    rng = random.Random(99)
    for expr, terms, want in meta_instances:
        perm = list(range(1, expr.k + 1))
        rng.shuffle(perm)
        names = sorted(evaluate(expr).weights)
        # the new names reverse the old names' order, so that ties between
        # equal-weight optima can resolve differently
        renamed = {v: f"w{len(names) - i:03d}" for i, v in enumerate(names)}
        for variant, vterms in [
                (rebuild(expr, label=lambda lbl: perm[lbl - 1]), terms),
                (rebuild(expr, name=renamed.__getitem__),
                 [renamed[t] for t in terms])]:
            graph = evaluate(variant)
            for problem, (optimum, witness) in answers(
                    variant, META_PROBLEMS, vterms).items():
                assert optimum == want[problem][0], problem
                certify(graph, problem, optimum, witness, vterms)


@pytest.mark.parametrize("c", [0, 3])
def test_scaling_every_weight_scales_the_optimum(meta_instances, c):
    for expr, terms, want in meta_instances:
        scaled = rebuild(expr, weight=lambda w: c * w)
        graph = evaluate(scaled)
        for problem, (optimum, witness) in answers(
                scaled, META_PROBLEMS, terms).items():
            assert optimum == c * want[problem][0], problem
            certify(graph, problem, optimum, witness, terms)
