"""Brute-force reference solvers and exhaustive representativity checks.

Everything here is written with naive data structures on purpose and shares
no machinery with the dynamic-programming solvers, so the two sides qualify
as independent when compared in tests.
"""

from __future__ import annotations

from .cwexpr import LabeledGraph
from .partitions import iter_partitions
from .sigma_rho import MAX
from .wpsets import NEG_INF, POS_INF, InvariantError, WPSet, query_opt

SUBSET_LIMIT = 20


class InstanceTooLargeError(ValueError):
    """Subset enumeration refuses instances above 20 vertices."""


def _check_size(graph: LabeledGraph) -> list[str]:
    names = sorted(graph.weights)
    if len(names) > SUBSET_LIMIT:
        raise InstanceTooLargeError(
            f"{len(names)} vertices exceed the enumeration limit of {SUBSET_LIMIT}")
    return names


def _is_forest(vertices: list[str], edges: set[tuple[str, str]]) -> bool:
    parent = {v: v for v in vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    inside = set(vertices)
    for u, v in edges:
        if u in inside and v in inside:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def _is_connected(vertices: set[str], adj: dict[str, set[str]]) -> bool:
    if len(vertices) <= 1:
        return True
    todo = [next(iter(vertices))]
    seen = {todo[0]}
    while todo:
        for w in adj[todo.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def brute_min_fvs(graph: LabeledGraph) -> tuple[int, tuple[str, ...]]:
    """Minimum-weight vertex set whose removal leaves a forest.

    Enumerates removal sets directly; ties resolve to the lexicographically
    smallest witness.
    """
    names = _check_size(graph)
    best_w: int | float = POS_INF
    best: tuple[str, ...] | None = None
    for mask in range(1 << len(names)):
        removed = [names[i] for i in range(len(names)) if mask >> i & 1]
        kept = [v for v in names if v not in set(removed)]
        if not _is_forest(kept, graph.edges):
            continue
        w = sum(graph.weights[v] for v in removed)
        cand = tuple(removed)
        if w < best_w or (w == best_w and (best is None or cand < best)):
            best_w, best = w, cand
    if best is None:
        raise InvariantError("no removal set leaves a forest, yet removing all does")
    return int(best_w), best


def brute_max_forest(graph: LabeledGraph) -> tuple[int, tuple[str, ...]]:
    """Maximum-weight vertex set inducing a forest (the dual coding path)."""
    names = _check_size(graph)
    best_w = -1
    best: tuple[str, ...] | None = None
    for mask in range(1 << len(names)):
        kept = [names[i] for i in range(len(names)) if mask >> i & 1]
        if not _is_forest(kept, graph.edges):
            continue
        w = sum(graph.weights[v] for v in kept)
        cand = tuple(kept)
        if w > best_w or (w == best_w and (best is None or cand < best)):
            best_w, best = w, cand
    if best is None:
        raise InvariantError("no vertex set induces a forest, yet the empty set does")
    return best_w, best


def _dominates(graph: LabeledGraph, adj: dict[str, set[str]], chosen: set[str],
               sigma, rho) -> bool:
    for v in graph.weights:
        deg = len(adj[v] & chosen)
        if v in chosen:
            if deg not in sigma:
                return False
        elif deg not in rho:
            return False
    return True


def brute_sigma_rho(graph: LabeledGraph, spec,
                    terminals: frozenset[str] | None = None
                    ) -> tuple[int | float, tuple[str, ...] | None]:
    """Optimum connected (co-)(sigma, rho)-dominating set by subset enumeration.

    For the plain variant the enumerated set X must dominate and be connected;
    for the co variant its complement dominates while X stays connected.  With
    terminals given, the check is plain Steiner instead: X contains every
    terminal and induces a connected graph.  Returns the +/- infinity sentinel
    when no subset qualifies.
    """
    names = _check_size(graph)
    adj = graph.neighbors()
    want_max = spec is not None and spec.direction == MAX
    best_w: int | float = NEG_INF if want_max else POS_INF
    best: tuple[str, ...] | None = None
    for mask in range(1 << len(names)):
        chosen = {names[i] for i in range(len(names)) if mask >> i & 1}
        if terminals is not None:
            if not terminals <= chosen or not _is_connected(chosen, adj):
                continue
        elif spec.co:
            dominating = set(graph.weights) - chosen
            if not _dominates(graph, adj, dominating, spec.sigma, spec.rho):
                continue
            if not _is_connected(chosen, adj):
                continue
        else:
            if not _dominates(graph, adj, chosen, spec.sigma, spec.rho):
                continue
            if not _is_connected(chosen, adj):
                continue
        w = sum(graph.weights[v] for v in chosen)
        cand = tuple(sorted(chosen))
        better = (w > best_w) if want_max else (w < best_w)
        if better or (w == best_w and (best is None or cand < best)):
            best_w, best = w, cand
    return best_w, best


def brute_steiner(graph: LabeledGraph, terminals: frozenset[str]
                  ) -> tuple[int | float, tuple[str, ...] | None]:
    """Minimum-weight connected superset of the terminal set."""
    if not terminals:
        raise ValueError("steiner needs at least one terminal")
    unknown = terminals - set(graph.weights)
    if unknown:
        raise ValueError(f"unknown terminals: {sorted(unknown)}")
    return brute_sigma_rho(graph, None, terminals=terminals)


def check_solution(graph: LabeledGraph, problem, witness, optimum,
                   terminals=()) -> str | None:
    """Why ``witness`` is not an optimum-weight solution certificate, or None.

    ``problem`` is ``"fvs"`` (the witness is the deleted set), ``"mif"`` (the
    kept forest), ``"steiner"`` or a (co-)(sigma, rho) spec (the connected
    set X).  The check takes O(n + m) and trusts nothing from the solvers:
    it tests feasibility from the graph alone and that the witness weighs
    ``optimum``.  Optimality itself is only checkable by the brute-force
    oracles above.
    """
    chosen = set(witness)
    if len(chosen) != len(witness):
        return "witness repeats a vertex"
    unknown = chosen - graph.weights.keys()
    if unknown:
        return f"unknown vertices {sorted(unknown)}"
    weight = sum(graph.weights[v] for v in chosen)
    if weight != optimum:
        return f"witness weighs {weight}, not the optimum {optimum}"
    if problem in ("fvs", "mif"):
        kept = chosen if problem == "mif" else graph.weights.keys() - chosen
        if not _is_forest(list(kept), graph.edges):
            return "the kept vertices induce a cycle"
        return None
    adj = graph.neighbors()
    if not _is_connected(chosen, adj):
        return "the witness does not induce a connected graph"
    if problem == "steiner":
        missing = set(terminals) - chosen
        return f"terminals {sorted(missing)} missing" if missing else None
    dominating = graph.weights.keys() - chosen if problem.co else chosen
    if not _dominates(graph, adj, dominating, problem.sigma, problem.rho):
        return "a vertex has a neighbour count outside sigma or rho"
    return None


def check_representative(a: WPSet, b: WPSet, mode: str = "plain") -> bool:
    """Exhaustively verify that b answers every completion query like a."""
    if a.ground != b.ground:
        raise ValueError("representativity needs a common ground set")
    if a.ground.bit_count() > 8:
        raise ValueError("exhaustive check limited to 8 ground elements")
    for q in iter_partitions(a.ground):
        if query_opt(a, q, mode) != query_opt(b, q, mode):
            return False
    return True
