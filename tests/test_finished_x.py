"""The finished-X verdict (``sigma_rho._doomed``): at a leaf, add or union
where no vertex still to come can complete a key whose X has no open class,
the pruned domination path builds no such key.

These tests pin the states it saves on fixtures, hold the pruned path against
the reference path and the oracles, check that the root table is the one
built without the verdict, and check each rule's conclusion on the evaluated
graph at every position it names.
"""

import random

import pytest

import cwsolve.dp
import cwsolve.sigma_rho
from cwsolve import evaluate, fixture, naive_expression
from cwsolve.cwexpr import (FIXTURE_KINDS, LEAF, REN, UNION,
                            future_degrees)
from cwsolve.dp import Prune, SolveStats, run
from cwsolve.oracle import brute_sigma_rho, brute_steiner, check_solution
from cwsolve.sigma_rho import (MAX, MIN, DomContext, MuSet, NATURALS,
                               POSITIVES, SigmaRhoSpec, _doomed, preset_spec,
                               solve_connected_sigma_rho, solve_steiner,
                               srd_add, srd_leaf, srd_union)
from cwsolve.wpsets import InvariantError

from conftest import random_expression, random_graph
from test_plans import _unmarked

SPECS = {name: preset_spec(name) for name in ("cds", "ctds", "perfect-cds",
                                              "cvc")}
for direction in (MIN, MAX):
    # a custom plain spec with 0 not in rho and a co spec with sigma = {0}
    SPECS[f"plain-{direction}"] = SigmaRhoSpec(
        MuSet(False, frozenset({0, 2})), MuSet(False, frozenset({1, 2})),
        direction)
    SPECS[f"co-{direction}"] = SigmaRhoSpec(MuSet(False, frozenset({0})),
                                            POSITIVES, direction, co=True)
PROBLEMS = [*SPECS, "steiner"]


def _off(monkeypatch):
    """Switch the verdict off: no position is doomed."""
    monkeypatch.setattr(cwsolve.sigma_rho, "_doomed",
                        lambda ctx, program, degrees: set())


def _terminals(expr):
    names = sorted(evaluate(expr).weights)
    return sorted({names[0], names[len(names) // 2], names[-1]})


def _solve(name, expr, **kw):
    if name == "steiner":
        return solve_steiner(expr, _terminals(expr), **kw)
    return solve_connected_sigma_rho(expr, SPECS[name], **kw)


# problem, fixture, terminals, optimum, pruned states, states without verdict
FIXTURE_CASES = [
    ("cds", "star", None, 1, 274, 314),
    ("cvc", "path", None, 38, 241, 545),
    ("steiner", "cycle", ("v1", "v20", "v40"), 21, 718, 1008),
    ("cds", "cycle", None, 38, 1245, 2466),
]


@pytest.mark.parametrize("name,kind,terminals,optimum,states,without",
                         FIXTURE_CASES)
def test_fixture_optima_and_the_states_the_verdict_saves(
        name, kind, terminals, optimum, states, without, monkeypatch):
    expr = fixture(kind, 40)

    def solve(**kw):
        if terminals:
            return solve_steiner(expr, terminals, **kw)
        return solve_connected_sigma_rho(expr, preset_spec(name), **kw)

    pruned, reference = solve(with_witness=True), solve(use_reduce=False)
    assert pruned.optimum == reference.optimum == optimum
    assert check_solution(evaluate(expr), name if terminals else
                          preset_spec(name), pruned.witness, optimum,
                          terminals or ()) is None
    _off(monkeypatch)
    unjudged = solve(with_witness=True)
    assert (unjudged.optimum, unjudged.witness) == \
        (pruned.optimum, pruned.witness)
    assert pruned.stats.total_states == states < \
        unjudged.stats.total_states == without


@pytest.fixture(scope="module")
def instances():
    """Random expressions at k = 2..4, whose classes hold several vertices,
    and naive expressions, all on at most 8 vertices."""
    rng = random.Random(2424)
    exprs = [random_expression(rng, rng.randint(2, 8), rng.randint(2, 4))
             for _ in range(16)]
    exprs += [naive_expression(random_graph(rng.randint(2, 7), rng))
              for _ in range(8)]
    return exprs


@pytest.mark.parametrize("name", PROBLEMS)
def test_pruned_reference_and_oracle_agree(instances, name, monkeypatch):
    states = {True: 0, False: 0}
    for expr in instances:
        graph = evaluate(expr)
        if name == "steiner":
            problem, terms = "steiner", _terminals(expr)
            oracle = brute_steiner(graph, frozenset(terms))[0]
        else:
            problem, terms = SPECS[name], ()
            oracle = brute_sigma_rho(graph, problem)[0]
        pruned = _solve(name, expr, with_witness=True)
        reference = _solve(name, expr, use_reduce=False)
        assert pruned.optimum == reference.optimum == oracle
        if pruned.feasible:
            assert check_solution(graph, problem, pruned.witness,
                                  pruned.optimum, terms) is None
        states[True] += pruned.stats.total_states
        with monkeypatch.context() as patch:
            _off(patch)
            states[False] += _solve(name, expr).stats.total_states
    assert states[True] < states[False]


def _root_tables(name, expr, monkeypatch):
    """The root table the pruned path builds, as (key, ground, entries)."""
    roots = []

    def recorded(*args):
        table = run(*args)
        roots.append([(key, cell.ground, list(cell.items()))
                      for key, cell in table.items()])
        return table

    run = cwsolve.dp.run
    with monkeypatch.context() as patch:
        patch.setattr(cwsolve.dp, "run", recorded)
        _solve(name, expr, with_witness=True)
    return roots


@pytest.mark.parametrize("name", PROBLEMS)
def test_the_root_table_is_the_one_without_the_verdict(
        instances, name, monkeypatch):
    for expr in instances:
        judged = _root_tables(name, expr, monkeypatch)
        with monkeypatch.context() as patch:
            _off(patch)
            assert _root_tables(name, expr, patch) == judged


def _ctx(name, expr):
    # steiner runs plain sigma = N+, rho = N with its terminals in X
    spec = (SigmaRhoSpec(POSITIVES, NATURALS, MIN) if name == "steiner"
            else SPECS[name])
    terms = frozenset(_terminals(expr)) if name == "steiner" else frozenset()
    return DomContext(spec, expr.max_label, terminals=terms, pruned=True)


def _subtrees(program):
    """Per position, the names of the vertices in its subtree."""
    out = []
    for p, op in enumerate(program.op):
        if op == LEAF:
            out.append({program.name[p]})
        elif op == UNION:
            out.append(out[program.left[p]] | out[p - 1])
        else:
            out.append(out[p - 1])
    return out


@pytest.mark.parametrize("name", PROBLEMS)
def test_each_rule_names_only_positions_where_its_conclusion_holds(
        instances, name):
    # the rules' conclusions, on the evaluated graph: a terminal still to
    # come (T), a vertex still to come with no neighbour in the subtree (I),
    # an edge between two vertices still to come (E); never at a relabel or
    # the root
    named = 0
    for expr in instances:
        ctx, graph = _ctx(name, expr), evaluate(expr)
        adj = graph.neighbors()
        program = expr.program
        doomed = _doomed(ctx, program, future_degrees(expr))
        below = _subtrees(program)
        assert len(program.op) - 1 not in doomed
        for p in doomed:
            assert program.op[p] != REN
            rest = graph.weights.keys() - below[p]
            if ctx.terminals:
                assert ctx.terminals & rest
            elif ctx.spec.co:
                assert any(adj[v] & rest for v in rest)
            else:
                assert any(not adj[v] & below[p] for v in rest)
        named += len(doomed)
    assert named


def _rule_i(expr):
    """Rule I's positions by its sums, at every leaf, add and union: the
    future degrees of the nonempty classes summed, against the vertices
    still to come."""
    program, degrees, below = expr.program, future_degrees(expr), \
        _subtrees(expr.program)
    return {p for p, op in enumerate(program.op) if op != REN
            and sum(x for l, x in enumerate(degrees[p], 1)
                    if program.present[p] >> l & 1)
            < len(below[-1]) - len(below[p])}


def test_rule_i_names_what_its_sums_name(instances):
    # its bound, which needs no sum, shows that no position of a complete
    # graph qualifies, and changes no verdict elsewhere
    exprs = [fixture(kind, n, seed=n) for kind in FIXTURE_KINDS
             for n in (2, 7, 40)] + instances
    for expr in exprs:
        doomed = _rule_i(expr)
        for name in ("cds", "ctds", "perfect-cds", "plain-min", "plain-max"):
            assert _doomed(_ctx(name, expr), expr.program,
                           future_degrees(expr)) == doomed
    assert _rule_i(fixture("clique", 40)) == set() < _rule_i(fixture("star", 40))


def test_every_rule_names_positions_and_a_spec_without_one_none():
    path = fixture("path", 5)
    for name in PROBLEMS:
        assert _doomed(_ctx(name, path), path.program, future_degrees(path))
    # d-regular:2 is plain with 0 in rho: no rule applies
    d2 = DomContext(preset_spec("d-regular:2"), path.max_label, pruned=True)
    assert _doomed(d2, path.program, future_degrees(path)) == set()


def test_the_reference_path_takes_no_verdict():
    ctx = DomContext(preset_spec("cds"), 2)  # unpruned
    table = srd_leaf(ctx, 1, "a", 1)
    for call in (lambda: srd_leaf(ctx, 1, "a", 1, doomed=True),
                 lambda: srd_add(ctx, table, 0b10, 1, 2, doomed=True),
                 lambda: srd_union(ctx, table, 0b10, table, 0b10,
                                   doomed=True)):
        with pytest.raises(InvariantError):
            call()


def test_the_driver_hands_the_verdict_to_the_named_positions_alone(
        monkeypatch):
    _unmarked(monkeypatch)  # the fake makes no table with dp.build
    expr = fixture("path", 6)
    named = {0, 2, len(expr.program.op) - 2}
    verdicts = []

    def transition(*args, doomed=False, plan=None):
        verdicts.append(doomed)
        return {}

    prune = Prune(1, 4, None, lambda table, dead, plan=None: table,
                  doomed=lambda program, degrees: named)
    run(expr, SolveStats(), prune, *[transition] * 4)
    assert {p for p, doomed in enumerate(verdicts) if doomed} == named
    verdicts.clear()
    run(expr, SolveStats(), None, *[transition] * 4)  # the reference path
    assert verdicts and not any(verdicts)
