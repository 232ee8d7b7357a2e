"""Shared corpus fixtures and random generators for the test suite."""

from __future__ import annotations

import random

import pytest

from cwsolve import (LabeledGraph, evaluate, fixture, naive_expression,
                     parse_expression)
from cwsolve.cwexpr import LEAF, REN, UNION, edge_key
from cwsolve.partitions import Partition, mask_elements
from cwsolve.wpsets import WPSet

CORPUS_SEED = 20240811
FIXTURE_KINDS = ("clique", "path", "cycle", "star")


def expression(k: int, body: str):
    """The parsed expression of ``body`` under the header ``cwexpr k=<k>``."""
    return parse_expression(f"cwexpr k={k}\n{body}\n")


def subtree_texts(expr, wrap=lambda text: text) -> list[str]:
    """Per program position, the text of the subtree rooted there, with the
    file's labels, written bottom-up from the columns op, i, j, name and
    weight alone: a union's children are the two subtrees finished last.

    ``wrap`` maps each node's text as it is written; a leaf at label x != 1
    is ``(v ...)`` and then ``(ren 1 x (v ...))``, two nodes.
    """
    program, lab = expr.program, expr.program.labels
    texts: list[str] = []
    done: list[str] = []  # finished subtrees, leftmost first
    for op, i, j, name, weight in zip(program.op, program.i, program.j,
                                      program.name, program.weight):
        if op == LEAF:
            text = wrap(f"(v {name} {weight})")
            if i != 1:
                text = wrap(f"(ren 1 {lab[i]} {text})")
        elif op == UNION:
            right = done.pop()
            text = wrap(f"(u {done.pop()} {right})")
        else:
            op_name = "ren" if op == REN else "add"
            text = wrap(f"({op_name} {lab[i]} {lab[j]} {done.pop()})")
        done.append(text)
        texts.append(text)
    return texts


def present_masks(expr) -> list[int]:
    """Per program position, the mask of the nonempty label classes of the
    evaluated subtree, bit r for the label of rank r."""
    rank = {lab: r for r, lab in enumerate(expr.program.labels)}
    return [sum({1 << rank[lab]
                 for lab in evaluate(expression(expr.k, text)).labels.values()})
            for text in subtree_texts(expr)]


def grid(w: int, length: int):
    """The w-row, ``length``-column grid, built column by column at k = w + 3
    (vertex ``c{c}r{r}`` at column c, row r, weight 1).  A new vertex comes
    in at label w + 1 and is joined to its row's old vertex, at label r,
    which then moves to the dead label w + 3; the vertex above it waits at
    label w + 2, is joined to it and moves to its row label."""
    new, above, dead = w + 1, w + 2, w + 3
    body = None
    for c in range(1, length + 1):
        for r in range(1, w + 1):
            leaf = f"(ren 1 {new} (v c{c}r{r}))"
            body = leaf if body is None else f"(u {body} {leaf})"
            if c > 1:
                body = f"(ren {r} {dead} (add {new} {r} {body}))"
            if r > 1:
                body = f"(ren {above} {r - 1} (add {new} {above} {body}))"
            body = f"(ren {new} {above} {body})"
        body = f"(ren {above} {w} {body})"
    return expression(w + 3, body)


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
    The expression is written as text and parsed.
    """
    pool = []  # (text, classes, edges)
    for idx in range(1, n + 1):
        text = f"(v v{idx} {rng.randint(0, 10)})"
        classes = {1: {f"v{idx}"}}
        lbl = rng.randint(1, k)
        if lbl != 1:
            text = f"(ren 1 {lbl} {text})"
            classes = {lbl: {f"v{idx}"}}
        pool.append((text, classes, set()))

    def try_add(entry):
        text, classes, edges = entry
        labs = [l for l, vs in classes.items() if vs]
        rng.shuffle(labs)
        for ai in range(len(labs)):
            for bi in range(ai + 1, len(labs)):
                ci, cj = classes[labs[ai]], classes[labs[bi]]
                if any(edge_key(u, v) in edges for u in ci for v in cj):
                    continue
                new_edges = edges | {edge_key(u, v) for u in ci for v in cj}
                return (f"(add {labs[ai]} {labs[bi]} {text})", classes, new_edges)
        return None

    while len(pool) > 1 or rng.random() < 0.5:
        roll = rng.random()
        if len(pool) > 1 and (roll < 0.45 or k < 2 or len(pool) > n):
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            classes = {l: set(vs) for l, vs in a[1].items()}
            for l, vs in b[1].items():
                classes.setdefault(l, set()).update(vs)
            pool.append((f"(u {a[0]} {b[0]})", classes, a[2] | b[2]))
        elif k < 2:
            break
        elif roll < 0.75:
            idx = rng.randrange(len(pool))
            text, classes, edges = pool[idx]
            i, j = rng.sample(range(1, k + 1), 2)
            classes = {l: set(vs) for l, vs in classes.items()}
            moving = classes.pop(i, set())
            if moving:
                classes.setdefault(j, set()).update(moving)
            pool.append((f"(ren {i} {j} {text})", classes, edges))
            pool.pop(idx)
        else:
            idx = rng.randrange(len(pool))
            grown = try_add(pool[idx])
            if grown is not None:
                pool[idx] = grown
            elif len(pool) == 1:
                break
    return expression(k, pool[0][0])


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
    out = []
    for kind in FIXTURE_KINDS:
        for n in range(1, 8):
            expr = fixture(kind, n, seed=n)
            out.append((kind, n, expr, evaluate(expr)))
    return out
