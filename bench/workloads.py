"""Seeded instance generators for the benchmark workloads.

An expression is first built as an abstract tree of tuples, independent of
``cwsolve``::

    ("v", vid, label)      vertex vid, introduced with label 1 and moved to label
    ("ren", i, j, child)   relabel i -> j
    ("add", i, j, child)   join classes i and j
    ("u", left, right)     disjoint union

The *shape* of every tree (and of every graph behind a naive expression) comes
from a fixed list of shape seeds, chosen once for coverage.  The run's
``--seed`` then draws what the solver's cost hardly depends on: vertex
weights, vertex names, a permutation of the labels and Steiner terminals.
Shape seeds are never filtered by how fast or slow an instance is; see
``README.md`` for why each family and size is in the matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("forest-union", "domination-naive", "fixtures-large")


@dataclass
class Graph:
    """The graph an abstract tree evaluates to, as adjacency lists over vids."""

    weights: list[int]
    adj: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.weights)

    def edges(self):
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield u, v


@dataclass
class Expression:
    """One generated expression file and the graph behind it."""

    name: str
    text: str
    graph: Graph
    names: list[str]


@dataclass
class Instance:
    """One solve: an expression file, a problem and its CLI arguments."""

    expr: Expression
    problem: str
    witness: bool = False
    terminals: tuple[str, ...] = ()
    path: str = ""

    @property
    def label(self) -> str:
        return f"{self.expr.name}/{self.problem}"

    def argv(self, no_reduce: bool = False) -> list[str]:
        argv = ["solve", "--problem", self.problem, "--expr", self.path, "--json"]
        if self.terminals:
            argv += ["--terminals", ",".join(self.terminals)]
        if self.witness and not no_reduce:
            argv.append("--witness")
        if no_reduce:
            argv.append("--no-reduce")
        return argv


# ---------------------------------------------------------------------------
# Abstract trees: serialization and evaluation.

def serialize(k: int, root, names: list[str], weights: list[int],
              perm: list[int]) -> str:
    """Expression file text; ``perm[l]`` is the label written for label l."""
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op = item[0]
        if op == "v":
            _, vid, lbl = item
            leaf = f"(v {names[vid]} {weights[vid]})"
            out.append(leaf if perm[lbl] == 1 else f"(ren 1 {perm[lbl]} {leaf})")
        elif op == "u":
            out.append("(u ")
            stack += [")", item[2], " ", item[1]]
        else:
            out.append(f"({op} {perm[item[1]]} {perm[item[2]]} ")
            stack += [")", item[3]]
    return f"cwexpr k={k}\n{''.join(out)}\n"


def evaluate(root, weights: list[int]) -> Graph:
    """The graph of an abstract tree, built in O(n + m) without cwsolve."""
    adj: list[list[int]] = [[] for _ in weights]
    done: dict[int, dict[int, list[int]]] = {}
    stack = [(root, False)]
    while stack:
        node, seen = stack.pop()
        if not seen:
            stack.append((node, True))
            if node[0] in ("ren", "add"):
                stack.append((node[3], False))
            elif node[0] == "u":
                stack += [(node[2], False), (node[1], False)]
            continue
        op = node[0]
        if op == "v":
            classes = {node[2]: [node[1]]}
        elif op == "u":
            classes = done.pop(id(node[1]))
            for lbl, members in done.pop(id(node[2])).items():
                classes.setdefault(lbl, []).extend(members)
        else:
            classes = done.pop(id(node[3]))
            i, j = node[1], node[2]
            if op == "ren":
                if i in classes:
                    classes.setdefault(j, []).extend(classes.pop(i))
            else:
                for u in classes.get(i, ()):
                    for v in classes.get(j, ()):
                        adj[u].append(v)
                        adj[v].append(u)
        done[id(node)] = classes
    return Graph(list(weights), adj)


def _leaf(vid: int, label: int):
    return ("v", vid, label)


# ---------------------------------------------------------------------------
# Shapes.

def random_tree(rng: random.Random, n: int, k: int):
    """A random irredundant k-expression tree on n vertices.

    A pool of labeled sub-expressions is grown by random unions, relabels and
    adds, as ``random_expression`` in the test suite does.  An add is applied
    only while no edge joins its two classes yet, so the tree is irredundant
    by construction.  Pool unions join subtrees of every size, so the tree has
    many unions of two large tables.
    """
    pool = []
    for vid in range(n):
        lbl = rng.randint(1, k)
        pool.append((_leaf(vid, lbl), {lbl: {vid}}, set()))

    def grow_add(entry):
        node, classes, edges = entry
        labels = [lbl for lbl, members in classes.items() if members]
        rng.shuffle(labels)
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                ci, cj = classes[labels[a]], classes[labels[b]]
                pairs = {(min(u, v), max(u, v)) for u in ci for v in cj}
                if pairs & edges:
                    continue
                return (("add", labels[a], labels[b], node), classes, edges | pairs)
        return None

    while len(pool) > 1:
        roll = rng.random()
        if roll < 0.45:
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            classes = {lbl: set(m) for lbl, m in a[1].items()}
            for lbl, members in b[1].items():
                classes.setdefault(lbl, set()).update(members)
            pool.append((("u", a[0], b[0]), classes, a[2] | b[2]))
        elif roll < 0.75:
            idx = rng.randrange(len(pool))
            node, classes, edges = pool[idx]
            i, j = rng.sample(range(1, k + 1), 2)
            classes = {lbl: set(m) for lbl, m in classes.items()}
            moving = classes.pop(i, set())
            if moving:
                classes.setdefault(j, set()).update(moving)
            pool[idx] = (("ren", i, j, node), classes, edges)
        else:
            idx = rng.randrange(len(pool))
            grown = grow_add(pool[idx])
            if grown is not None:
                pool[idx] = grown
    return pool[0][0]


def connected_graph_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """G(n, 1/2) edges, redrawn until the graph is connected."""
    while True:
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.5]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(n)}) == 1:
            return edges


def naive_tree(n: int, edges: list[tuple[int, int]]):
    """k = n expression: vertex v gets label v + 1 and its own add per edge."""
    by_peak: dict[int, list[int]] = {}
    for a, b in edges:
        by_peak.setdefault(max(a, b), []).append(min(a, b))
    cur = _leaf(0, 1)
    for v in range(1, n):
        cur = ("u", cur, _leaf(v, v + 1))
        for lo in sorted(by_peak.get(v, ())):
            cur = ("add", lo + 1, v + 1, cur)
    return cur


def clique_tree(n: int):
    cur = _leaf(0, 1)
    for v in range(1, n):
        cur = ("ren", 2, 1, ("add", 1, 2, ("u", cur, _leaf(v, 2))))
    return cur


def path_tree(n: int):
    # 1 = settled interior, 2 = current endpoint, 3 = incoming vertex.
    cur = _leaf(0, 2)
    for v in range(1, n):
        cur = ("ren", 3, 2, ("ren", 2, 1, ("add", 2, 3, ("u", cur, _leaf(v, 3)))))
    return cur


def cycle_tree(n: int):
    # 1 = incoming, 2 = current endpoint, 3 = start vertex, 4 = settled.
    cur = ("add", 3, 2, ("u", _leaf(0, 3), _leaf(1, 2)))
    for v in range(2, n):
        cur = ("ren", 1, 2, ("ren", 2, 4, ("add", 2, 1, ("u", cur, _leaf(v, 1)))))
    return ("add", 2, 3, cur)


def star_tree(n: int):
    cur = _leaf(0, 2)
    for v in range(1, n):
        cur = ("u", cur, _leaf(v, 1))
    return ("add", 1, 2, cur)


def cograph_tree(rng: random.Random, n: int):
    """Random connected cotree: each inner node is a disjoint union or a full join."""
    # Built bottom-up over a random split tree; every finished part has all
    # its vertices on label 1, label 2 is used only while joining.
    splits = [(0, n, False)]
    parts: dict[tuple[int, int], object] = {}
    while splits:
        lo, hi, seen = splits.pop()
        if hi - lo == 1:
            parts[(lo, hi)] = _leaf(lo, 1)
            continue
        if not seen:
            mid = rng.randint(lo + 1, hi - 1)
            splits += [(lo, hi, mid), (lo, mid, False), (mid, hi, False)]
            continue
        mid = seen
        left, right = parts.pop((lo, mid)), parts.pop((mid, hi))
        # The root is always a join, so the graph is connected and every
        # connected problem is feasible.
        if (lo, hi) != (0, n) and rng.random() < 0.5:
            parts[(lo, hi)] = ("u", left, right)
        else:
            parts[(lo, hi)] = ("ren", 2, 1, ("add", 1, 2,
                                             ("u", left, ("ren", 1, 2, right))))
    return parts[(0, n)]


# ---------------------------------------------------------------------------
# Workloads.

def _dress(name: str, k: int, root, n: int, rng: random.Random) -> Expression:
    """Draw weights 1..10, names and a label permutation for a fixed shape."""
    weights = [rng.randint(1, 10) for _ in range(n)]
    names = [f"x{i}" for i in rng.sample(range(n), n)]
    perm = [0] + rng.sample(range(1, k + 1), k)
    text = serialize(k, root, names, weights, perm)
    return Expression(name, text, evaluate(root, weights), names)


# (k, shape seeds, vertex range) of the forest-union matrix.
FOREST_SHAPES = ((4, range(4), (20, 40)), (5, range(4), (12, 16)))

# (n, shape seeds) of the domination-naive matrix.
NAIVE_SHAPES = ((7, range(4)), (8, range(1)))
NAIVE_PROBLEMS = ("cds", "ctds", "perfect-cds", "cvc", "d-regular:2", "steiner")

# (family, n) of the fixtures-large matrix.
FIXTURE_SIZES = (("clique", 600), ("random-cograph", 600), ("path", 400),
                 ("cycle", 200), ("star", 1000))
FIXTURE_PROBLEMS = ("fvs", "cds", "cvc", "steiner")


def _forest_union(seed: int) -> list[Instance]:
    out = []
    for k, shape_seeds, (lo, hi) in FOREST_SHAPES:
        for shape in shape_seeds:
            srng = random.Random(f"forest-union:{k}:{shape}")
            n = srng.randint(lo, hi)
            root = random_tree(srng, n, k)
            rng = random.Random(f"{seed}:forest-union:{k}:{shape}")
            expr = _dress(f"forest-k{k}-s{shape}-n{n}", k, root, n, rng)
            out += [Instance(expr, "fvs"), Instance(expr, "mif")]
    return out


def _domination_naive(seed: int) -> list[Instance]:
    out = []
    for n, shape_seeds in NAIVE_SHAPES:
        for shape in shape_seeds:
            edges = connected_graph_edges(random.Random(f"naive:{n}:{shape}"), n)
            rng = random.Random(f"{seed}:domination-naive:{n}:{shape}")
            expr = _dress(f"naive-n{n}-s{shape}", n, naive_tree(n, edges), n, rng)
            terminals = tuple(sorted(rng.sample(expr.names, 3)))
            for problem in NAIVE_PROBLEMS:
                out.append(Instance(expr, problem, terminals=terminals
                                    if problem == "steiner" else ()))
    return out


def _fixtures_large(seed: int) -> list[Instance]:
    out = []
    for family, n in FIXTURE_SIZES:
        if family == "clique":
            k, root = 2, clique_tree(n)
        elif family == "random-cograph":
            k, root = 2, cograph_tree(random.Random(f"cograph:{n}"), n)
        elif family == "path":
            k, root = 3, path_tree(n)
        elif family == "cycle":
            k, root = 4, cycle_tree(n)
        else:
            k, root = 2, star_tree(n)
        rng = random.Random(f"{seed}:fixtures-large:{family}")
        expr = _dress(f"{family}-n{n}", k, root, n, rng)
        terminals = tuple(sorted(rng.sample(expr.names, 3)))
        for problem in FIXTURE_PROBLEMS:
            out.append(Instance(expr, problem, witness=True, terminals=terminals
                                if problem == "steiner" else ()))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances, in the fixed order they are solved."""
    if workload == "forest-union":
        return _forest_union(seed)
    if workload == "domination-naive":
        return _domination_naive(seed)
    if workload == "fixtures-large":
        return _fixtures_large(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
