"""Shared corpus fixtures and random generators for the test suite."""

from __future__ import annotations

import random

import pytest

from cwsolve import LabeledGraph, fixture, naive_expression
from cwsolve.cwexpr import edge_key
from cwsolve.partitions import Partition, mask_elements
from cwsolve.wpsets import WPSet

CORPUS_SEED = 20240811
FIXTURE_KINDS = ("clique", "path", "cycle", "star")


def fold(root, leaf, ren, add, union):
    """Bottom-up fold over the tree rooted at ``root``; returns the root's
    result.

    ``leaf(node)``, ``ren(node, r)``, ``add(node, r)`` and
    ``union(node, r_left, r_right)`` get the results of the node's children.
    Every tree node is visited, so a relabel that the program folds into its
    leaf (``(ren 1 x (v ...))``) is a leaf and then a relabel here.
    """
    from cwsolve.cwexpr import AddEdges, Introduce, Union

    results: list = []
    for node in iter_postorder(root):
        kind = type(node)
        if kind is Introduce:
            results.append(leaf(node))
        elif kind is Union:
            right = results.pop()
            results[-1] = union(node, results[-1], right)
        else:
            results[-1] = (add if kind is AddEdges else ren)(node, results[-1])
    return results[0]


def iter_postorder(root):
    """The tree's nodes in postorder, a union's left child first: a
    right-first preorder walk, reversed (iterative)."""
    from cwsolve.cwexpr import Introduce, Union

    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if type(node) is Union:
            stack += (node.left, node.right)
        elif type(node) is not Introduce:
            stack.append(node.child)
    return reversed(order)


def iter_preorder(root):
    """The tree's nodes in preorder, a union's left child first; iterative,
    as trees can be thousands deep."""
    from cwsolve.cwexpr import Introduce, Union

    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is Union:
            stack += (node.right, node.left)
        elif type(node) is not Introduce:
            stack.append(node.child)


def folded(node) -> bool:
    """Whether ``node`` is a relabel the program folds into its leaf: exactly
    ``Relabel(1, x, Introduce(...))`` with x > 1."""
    from cwsolve.cwexpr import Introduce, Relabel

    return (type(node) is Relabel and node.i == 1 < node.j
            and type(node.child) is Introduce)


def program_nodes(root) -> list:
    """The tree's node at each program position: postorder, except that a
    folded relabel (:func:`folded`) stands for its leaf, which has no
    position of its own."""
    out: list = []
    for node in iter_postorder(root):
        if folded(node):
            out[-1] = node
        else:
            out.append(node)
    return out


def random_graph(n: int, rng: random.Random, max_weight: int = 10) -> LabeledGraph:
    names = [f"v{i}" for i in range(1, n + 1)]
    weights = {v: rng.randint(0, max_weight) for v in names}
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                edges.add(edge_key(names[a], names[b]))
    return LabeledGraph(weights=weights, edges=edges)


def random_partition(rng: random.Random, ground: int) -> Partition:
    elems = mask_elements(ground)
    groups: dict[int, int] = {}
    for e in elems:
        gid = rng.randrange(len(elems))
        groups[gid] = groups.get(gid, 0) | (1 << e)
    return Partition(sorted(groups.values()))


def random_wpset(rng: random.Random, ground: int, size: int,
                 sign: int = 1, max_weight: int = 100) -> WPSet:
    """Weights are ``sign`` times 0..max_weight: a minimising problem's cells
    hold negated weights."""
    out = WPSet(ground)
    for _ in range(size):
        out.add(random_partition(rng, ground), sign * rng.randint(0, max_weight))
    return out


def random_expression(rng: random.Random, n: int, k: int):
    """A random irredundant k-expression on n vertices.

    Grows a pool of labeled sub-expressions and randomly applies relabels,
    unions, and adds; adds are only applied when no edge between the two
    classes exists yet, so the result is irredundant by construction.
    Classes routinely hold several vertices, unlike naive expressions.
    """
    from cwsolve.cwexpr import AddEdges, CwExpression, Introduce, Relabel, Union

    pool = []
    for idx in range(1, n + 1):
        node = Introduce(f"v{idx}", rng.randint(0, 10))
        classes = {1: {f"v{idx}"}}
        lbl = rng.randint(1, k)
        if lbl != 1:
            node = Relabel(1, lbl, node)
            classes = {lbl: {f"v{idx}"}}
        pool.append((node, classes, set()))

    def try_add(entry):
        node, classes, edges = entry
        labs = [l for l, vs in classes.items() if vs]
        rng.shuffle(labs)
        for ai in range(len(labs)):
            for bi in range(ai + 1, len(labs)):
                ci, cj = classes[labs[ai]], classes[labs[bi]]
                if any(edge_key(u, v) in edges for u in ci for v in cj):
                    continue
                new_edges = edges | {edge_key(u, v) for u in ci for v in cj}
                return (AddEdges(labs[ai], labs[bi], node), classes, new_edges)
        return None

    while len(pool) > 1 or rng.random() < 0.5:
        roll = rng.random()
        if len(pool) > 1 and (roll < 0.45 or k < 2 or len(pool) > n):
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            classes = {l: set(vs) for l, vs in a[1].items()}
            for l, vs in b[1].items():
                classes.setdefault(l, set()).update(vs)
            pool.append((Union(a[0], b[0]), classes, a[2] | b[2]))
        elif k < 2:
            break
        elif roll < 0.75:
            idx = rng.randrange(len(pool))
            node, classes, edges = pool[idx]
            i, j = rng.sample(range(1, k + 1), 2)
            classes = {l: set(vs) for l, vs in classes.items()}
            moving = classes.pop(i, set())
            if moving:
                classes.setdefault(j, set()).update(moving)
            pool.append((Relabel(i, j, node), classes, edges))
            pool.pop(idx)
        else:
            idx = rng.randrange(len(pool))
            grown = try_add(pool[idx])
            if grown is not None:
                pool[idx] = grown
            elif len(pool) == 1:
                break
    return CwExpression(k, pool[0][0])


@pytest.fixture(scope="session")
def corpus() -> list[LabeledGraph]:
    """200 seeded random graphs, n <= 7, integer weights 0..10."""
    rng = random.Random(CORPUS_SEED)
    return [random_graph(rng.randint(1, 7), rng) for _ in range(200)]


@pytest.fixture(scope="session")
def corpus_expressions(corpus):
    return [naive_expression(g) for g in corpus]


@pytest.fixture(scope="session")
def fixture_instances():
    """All deterministic fixture families at n <= 7, with evaluated graphs."""
    from cwsolve import evaluate

    out = []
    for kind in FIXTURE_KINDS:
        for n in range(1, 8):
            expr = fixture(kind, n, seed=n)
            out.append((kind, n, expr, evaluate(expr)))
    return out
