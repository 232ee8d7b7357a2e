"""Witness checks in O(n + m), written apart from the solver code.

Each check takes the graph a generator built, the problem, the witness vertex
indices and the reported optimum, and returns an error message or ``None``.
"""

from __future__ import annotations

from workloads import Graph


def _connected(graph: Graph, chosen: set[int]) -> bool:
    if not chosen:
        return False
    start = next(iter(chosen))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.adj[u]:
            if v in chosen and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(chosen)


def _acyclic(graph: Graph, kept: set[int]) -> bool:
    parent = {v: v for v in kept}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges():
        if u in kept and v in kept:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def check_witness(graph: Graph, problem: str, witness: set[int],
                  optimum: int, terminals: set[int] = frozenset()) -> str | None:
    weight = sum(graph.weights[v] for v in witness)
    if weight != optimum:
        return f"witness weight {weight} != reported optimum {optimum}"
    if problem == "fvs":
        if not _acyclic(graph, set(range(graph.n)) - witness):
            return "deleting the witness leaves a cycle"
    elif problem == "cds":
        if not _connected(graph, witness):
            return "witness is not connected"
        for v in range(graph.n):
            if v not in witness and not any(u in witness for u in graph.adj[v]):
                return "witness does not dominate every vertex"
    elif problem == "cvc":
        if not _connected(graph, witness):
            return "witness is not connected"
        if any(u not in witness and v not in witness for u, v in graph.edges()):
            return "witness does not cover every edge"
    elif problem == "steiner":
        if not terminals <= witness:
            return "witness misses a terminal"
        if not _connected(graph, witness):
            return "witness is not connected"
    else:
        raise ValueError(f"no witness check for {problem!r}")
    return None
