"""The k-expression term language: parse, evaluate, validate, generate.

Expression files are s-expressions with a one-line header::

    cwexpr k=3
    (add 1 2 (u (v a 2) (ren 1 2 (v b))))   ; comments run to end of line

The four node kinds are Introduce ``(v NAME [WEIGHT])``, Relabel
``(ren I J e)``, AddEdges ``(add I J e)`` and Union ``(u e e)``.  Introduce
always labels its vertex 1; a missing weight defaults to 1.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class ExpressionError(ValueError):
    """Syntax or structural problem in a k-expression."""


class PartiallyRedundantError(ExpressionError):
    """An AddEdges node re-adds some but not all of its cross edges."""


class NotIrredundantError(ExpressionError):
    """Solvers require every add to be applied before any of its edges exist."""


@dataclass(frozen=True)
class Introduce:
    name: str
    weight: int = 1


@dataclass(frozen=True)
class Relabel:
    i: int
    j: int
    child: "Node"


@dataclass(frozen=True)
class AddEdges:
    i: int
    j: int
    child: "Node"


@dataclass(frozen=True)
class Union:
    left: "Node"
    right: "Node"


Node = Introduce | Relabel | AddEdges | Union


@dataclass(frozen=True)
class CwExpression:
    k: int
    root: Node


@dataclass
class LabeledGraph:
    """Vertex-weighted graph with an optional labeling (filled by evaluate)."""

    weights: dict[str, int]
    edges: set[tuple[str, str]]
    labels: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.weights)

    def total_weight(self) -> int:
        return sum(self.weights.values())

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.weights}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Traversal helpers (iterative; expression trees can be thousands deep).

def iter_postorder(root: Node) -> Iterator[Node]:
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, seen = stack.pop()
        if seen:
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, (Relabel, AddEdges)):
            stack.append((node.child, False))
        elif isinstance(node, Union):
            stack.append((node.right, False))
            stack.append((node.left, False))


def fold(root: Node, leaf, ren, add, union):
    """Bottom-up fold over the tree rooted at ``root``; returns the root's result.

    ``leaf(node)``, ``ren(node, r)``, ``add(node, r)`` and
    ``union(node, r_left, r_right)`` get the results of the node's children,
    which are dropped once consumed.
    """
    results: dict[int, object] = {}
    pop = results.pop
    for node in iter_postorder(root):
        if isinstance(node, Introduce):
            out = leaf(node)
        elif isinstance(node, Relabel):
            out = ren(node, pop(id(node.child)))
        elif isinstance(node, AddEdges):
            out = add(node, pop(id(node.child)))
        else:
            out = union(node, pop(id(node.left)), pop(id(node.right)))
        results[id(node)] = out
    return results[id(root)]


def iter_preorder(root: Node) -> Iterator[Node]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Relabel, AddEdges)):
            stack.append(node.child)
        elif isinstance(node, Union):
            stack.append(node.right)
            stack.append(node.left)


# ---------------------------------------------------------------------------
# Parsing / serialization.

# A comment runs to the end of its line; a token is a parenthesis or a run of
# characters that are neither whitespace, parentheses nor ';'.  Comments match
# as the empty string, since they hold no group.
_TOKEN_RE = re.compile(r";[^\n]*|([()]|[^\s();]+)")
_INT_RE = re.compile(r"[0-9]+\Z")  # ASCII only: int() reads other digits too


def _tokenize(text: str) -> list[str]:
    return [tok for tok in _TOKEN_RE.findall(text) if tok]


def _token_line_col(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token number ``index`` of ``text``.

    Only error paths need a position, so the tokenizer keeps none: this scans
    the text again for the token's offset.
    """
    tokens = (m for m in _TOKEN_RE.finditer(text) if m.lastindex)
    offset = next(islice(tokens, index, None)).start()
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def parse_expression(text: str) -> CwExpression:
    """Parse the file format (header + one s-expression)."""
    lines = text.splitlines()
    header_idx = None
    for idx, raw in enumerate(lines):
        stripped = raw.split(";", 1)[0].strip()
        if stripped:
            header_idx = idx
            break
    if header_idx is None:
        raise ExpressionError("empty expression file")
    m = re.match(r"cwexpr\s+k=(\S+)\Z", lines[header_idx].split(";", 1)[0].strip())
    if not m or not _INT_RE.match(m.group(1)):
        raise ExpressionError(f"line {header_idx + 1}: expected header 'cwexpr k=<K>'")
    k = int(m.group(1))
    if k < 1:
        raise ExpressionError("declared k must be at least 1")
    body = "\n" * (header_idx + 1) + "\n".join(lines[header_idx + 1:])
    tokens = _tokenize(body)
    pos = 0

    def err(msg: str, at: int):
        """Raise at token number ``at``; :func:`take` reports the end of input."""
        line, col = _token_line_col(body, at)
        raise ExpressionError(f"line {line} col {col}: {msg}")

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            where = (f"line {_token_line_col(body, len(tokens) - 1)[0]}"
                     if tokens else "empty input")
            raise ExpressionError(
                f"syntax error: unexpected end of input ({where})")
        pos += 1
        return tokens[pos - 1]

    def expect(value: str):
        tok = take()
        if tok != value:
            err(f"expected {value!r}, got {tok!r}", pos - 1)

    def parse_int(at: int) -> int:
        tok = tokens[at]
        if not _INT_RE.match(tok):
            err(f"expected an integer, got {tok!r}", at)
        return int(tok)

    def parse_label(at: int) -> int:
        val = parse_int(at)
        if not 1 <= val <= k:
            err(f"label {val} outside 1..{k}", at)
        return val

    seen_names: set[str] = set()

    def parse_leaf() -> Node:
        name = take()
        if not NAME_RE.match(name):
            err(f"bad vertex name {name!r}", pos - 1)
        if name in seen_names:
            err(f"duplicate vertex name {name!r}", pos - 1)
        seen_names.add(name)
        if take() == ")":
            return Introduce(name)
        weight = parse_int(pos - 1)
        expect(")")
        return Introduce(name, weight)

    # Frames carry unfinished operators; explicit stack so nesting depth is
    # not limited by the interpreter's recursion limit.
    stack: list[list] = []
    node: Node | None = None
    while True:
        expect("(")
        head = take()
        if head == "v":
            node = parse_leaf()
        elif head in ("ren", "add", "u"):
            if head == "u":
                stack.append(["u", None])
            else:
                take()
                take()
                i, j = parse_label(pos - 2), parse_label(pos - 1)
                if i == j:
                    err(f"'{head}' needs two distinct labels", pos - 1)
                stack.append([head, i, j])
            continue
        else:
            err(f"unknown operator {head!r}", pos - 1)
        # a node is complete: fold it into pending frames
        while stack:
            frame = stack[-1]
            if frame[0] == "u" and frame[1] is None:
                frame[1] = node
                node = None
                break
            expect(")")
            if frame[0] == "u":
                node = Union(frame[1], node)
            elif frame[0] == "ren":
                node = Relabel(frame[1], frame[2], node)
            else:
                node = AddEdges(frame[1], frame[2], node)
            stack.pop()
        if node is not None and not stack:
            break
    if pos != len(tokens):
        err("trailing input after expression", pos)
    return CwExpression(k, node)


def serialize(expr: CwExpression) -> str:
    parts: list[str] = []
    stack: list[Node | str] = [expr.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if isinstance(item, Introduce):
            parts.append(f"(v {item.name} {item.weight})")
        elif isinstance(item, Relabel):
            parts.append(f"(ren {item.i} {item.j}")
            stack.append(")")
            stack.append(item.child)
        elif isinstance(item, AddEdges):
            parts.append(f"(add {item.i} {item.j}")
            stack.append(")")
            stack.append(item.child)
        else:
            parts.append("(u")
            stack.append(")")
            stack.append(item.right)
            stack.append(item.left)
    body = " ".join(parts).replace(" )", ")")
    return f"cwexpr k={expr.k}\n{body}\n"


def validate(expr: CwExpression) -> None:
    """Structural checks for programmatically built trees."""
    if expr.k < 1:
        raise ExpressionError("declared k must be at least 1")
    names: set[str] = set()
    for node in iter_preorder(expr.root):
        if isinstance(node, Introduce):
            if not NAME_RE.match(node.name):
                raise ExpressionError(f"bad vertex name {node.name!r}")
            if node.name in names:
                raise ExpressionError(f"duplicate vertex name {node.name!r}")
            if node.weight < 0:
                raise ExpressionError(f"negative weight on vertex {node.name!r}")
            names.add(node.name)
        elif isinstance(node, (Relabel, AddEdges)):
            if node.i == node.j:
                raise ExpressionError("relabel/add needs two distinct labels")
            if not (1 <= node.i <= expr.k and 1 <= node.j <= expr.k):
                raise ExpressionError(f"label outside 1..{expr.k}")


# ---------------------------------------------------------------------------
# Evaluation and irredundancy.

def evaluate(expr: CwExpression) -> LabeledGraph:
    """Fold the expression into its labeled graph."""
    validate(expr)

    def ren(node, state):
        classes = state[1]
        moving = classes.pop(node.i, None)
        if moving:
            classes.setdefault(node.j, set()).update(moving)
        return state

    def add(node, state):
        _, classes, edges = state
        ci, cj = classes.get(node.i, ()), classes.get(node.j, ())
        edges.update(edge_key(u, v) for u in ci for v in cj)
        return state

    def union(node, left, right):
        weights, classes, edges = left
        weights.update(right[0])
        for lab, members in right[1].items():
            classes.setdefault(lab, set()).update(members)
        edges.update(right[2])
        return left

    weights, classes, edges = fold(
        expr.root,
        lambda node: ({node.name: node.weight}, {1: {node.name}}, set()),
        ren, add, union)
    labels = {v: lab for lab, members in classes.items() for v in members}
    return LabeledGraph(weights=weights, edges=edges, labels=labels)


def vertex_weights(expr: CwExpression) -> dict[str, int]:
    """Vertex name -> weight, read off the Introduce leaves in one pass."""
    return {node.name: node.weight for node in iter_preorder(expr.root)
            if isinstance(node, Introduce)}


@dataclass(frozen=True)
class RedundancyIssue:
    node_index: int  # preorder position of the offending AddEdges node
    i: int
    j: int
    kind: str  # "full" | "partial"


def check_irredundant(expr: CwExpression) -> list[RedundancyIssue]:
    """Classify every AddEdges node whose cross pairs already partly exist.

    An empty report means the expression is irredundant: each add is applied
    while no edge between the two classes exists yet.  The fold keeps, per
    subtree, the label class sizes and the edge count between each pair of
    classes, not the edges: an add (i, j) finds ``E[i, j]`` of its
    ``|Ci| * |Cj|`` pairs present and leaves all of them; a relabel i -> j
    moves i's counts onto j and drops those between i and j (now inside one
    class); a union adds the counts of its smaller side into the larger
    (the two sides share no vertex, hence no edge).  O(|expr| * k^2).
    """
    validate(expr)
    found = []

    def ren(node, state):
        size, pairs = state
        i, j = node.i, node.j
        size[j] = size.get(j, 0) + size.pop(i, 0)
        for pair in [pair for pair in pairs if i in pair]:
            count = pairs.pop(pair)
            other = pair[0] + pair[1] - i
            if other != j:
                key = (j, other) if j < other else (other, j)
                pairs[key] = pairs.get(key, 0) + count
        return state

    def add(node, state):
        size, pairs = state
        key = (node.i, node.j) if node.i < node.j else (node.j, node.i)
        total = size.get(node.i, 0) * size.get(node.j, 0)
        existing = pairs.get(key, 0)
        if existing:
            found.append((node, "full" if existing == total else "partial"))
        if total:
            pairs[key] = total
        return state

    def union(node, left, right):
        if len(left[1]) < len(right[1]):
            left, right = right, left
        size, pairs = left
        for lab, count in right[0].items():
            size[lab] = size.get(lab, 0) + count
        for pair, count in right[1].items():
            pairs[pair] = pairs.get(pair, 0) + count
        return left

    fold(expr.root, lambda node: ({1: 1}, {}), ren, add, union)
    if not found:
        return []
    order = {id(node): idx for idx, node in enumerate(iter_preorder(expr.root))}
    return [RedundancyIssue(order[id(node)], node.i, node.j, kind)
            for node, kind in found]


def strip_redundant_adds(expr: CwExpression) -> CwExpression:
    """Drop AddEdges nodes whose every cross pair already exists.

    Raises :class:`PartiallyRedundantError` when a node re-adds only some of
    its pairs; that case cannot be repaired by removal.
    """
    issues = check_irredundant(expr)
    if any(issue.kind == "partial" for issue in issues):
        raise PartiallyRedundantError(
            "expression has partially redundant add operations")
    dead = {issue.node_index for issue in issues}
    order = {id(node): idx for idx, node in enumerate(iter_preorder(expr.root))}
    root = fold(expr.root,
                lambda node: node,
                lambda node, child: Relabel(node.i, node.j, child),
                lambda node, child: (child if order[id(node)] in dead
                                     else AddEdges(node.i, node.j, child)),
                lambda node, left, right: Union(left, right))
    return CwExpression(expr.k, root)


def future_degrees(expr: CwExpression) -> dict[int, tuple[int, ...]]:
    """Per node id: for each label, how many neighbours its class still gains.

    At every add above the node that touches the class, the class gains the
    partner class of that add.  On an irredundant expression these partner
    classes are disjoint and hold no neighbour the class already has (either
    would make some add re-add an edge), so the sum of their sizes counts the
    new neighbours exactly.  Class sizes go bottom-up, the sums top-down:
    O(|expr| * k) in all.
    """
    k = expr.k
    size_at_add: dict[int, tuple[int, ...]] = {}

    def ren(node, size):
        out = list(size)
        out[node.j - 1] += out[node.i - 1]
        out[node.i - 1] = 0
        return tuple(out)

    def add(node, size):
        size_at_add[id(node)] = size
        return size

    fold(expr.root, lambda node: (1,) + (0,) * (k - 1), ren, add,
         lambda node, left, right: tuple(a + b for a, b in zip(left, right)))
    fut = {id(expr.root): (0,) * k}
    for node in iter_preorder(expr.root):
        above = fut[id(node)]
        if isinstance(node, AddEdges):
            size = size_at_add[id(node)]
            below = list(above)
            below[node.i - 1] += size[node.j - 1]
            below[node.j - 1] += size[node.i - 1]
            fut[id(node.child)] = tuple(below)
        elif isinstance(node, Relabel):
            # the child's class i becomes part of class j here
            below = list(above)
            below[node.i - 1] = above[node.j - 1]
            fut[id(node.child)] = tuple(below)
        elif isinstance(node, Union):
            fut[id(node.left)] = fut[id(node.right)] = above
    return fut


# ---------------------------------------------------------------------------
# Construction from plain graphs, and fixture generators.

def naive_expression(graph: LabeledGraph) -> CwExpression:
    """n-label expression for an arbitrary graph: one label per vertex.

    Vertex i (in sorted-name order) is introduced, relabeled to label i, and
    union-folded in; each edge gets its own add as soon as both ends exist.
    Irredundant by construction.
    """
    names = sorted(graph.weights)
    if not names:
        raise ExpressionError("naive expression needs at least one vertex")
    index = {name: i + 1 for i, name in enumerate(names)}
    by_peak: dict[int, list[tuple[int, int]]] = {}
    for u, v in graph.edges:
        iu, iv = index[u], index[v]
        lo, hi = min(iu, iv), max(iu, iv)
        by_peak.setdefault(hi, []).append((lo, hi))
    cur: Node = Introduce(names[0], graph.weights[names[0]])
    for m, name in enumerate(names[1:], start=2):
        cur = Union(cur, Relabel(1, m, Introduce(name, graph.weights[name])))
        for lo, hi in sorted(by_peak.get(m, ())):
            cur = AddEdges(lo, hi, cur)
    return CwExpression(len(names), cur)


def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


def _clique(n: int) -> CwExpression:
    names = _names(n)
    cur: Node = Introduce(names[0])
    for name in names[1:]:
        cur = Relabel(2, 1, AddEdges(1, 2, Union(cur, Relabel(1, 2, Introduce(name)))))
    return CwExpression(1 if n == 1 else 2, cur)


def _path(n: int) -> CwExpression:
    # Labels: 1 = settled interior, 2 = current endpoint, 3 = incoming vertex.
    names = _names(n)
    if n == 1:
        return CwExpression(1, Introduce(names[0]))
    if n == 2:
        root = AddEdges(1, 2, Union(Relabel(1, 2, Introduce(names[0])),
                                    Introduce(names[1])))
        return CwExpression(2, root)
    cur: Node = Relabel(1, 2, Introduce(names[0]))
    for name in names[1:]:
        cur = Union(cur, Relabel(1, 3, Introduce(name)))
        cur = Relabel(3, 2, Relabel(2, 1, AddEdges(2, 3, cur)))
    return CwExpression(3, cur)


def _cycle(n: int) -> CwExpression:
    # Labels: 1 = incoming vertex, 2 = current endpoint, 3 = start vertex
    # (kept apart for the closing edge), 4 = settled interior.  Four labels
    # are required: long cycles admit no 3-label construction.
    names = _names(n)
    if n == 1:
        return CwExpression(1, Introduce(names[0]))
    if n == 2:
        return _path(2)
    cur: Node = Relabel(1, 3, Introduce(names[0]))
    cur = AddEdges(3, 2, Union(cur, Relabel(1, 2, Introduce(names[1]))))
    for name in names[2:]:
        cur = Union(cur, Introduce(name))
        cur = Relabel(1, 2, Relabel(2, 4, AddEdges(2, 1, cur)))
    return CwExpression(4, AddEdges(2, 3, cur))


def _star(n: int) -> CwExpression:
    names = _names(n)
    if n == 1:
        return CwExpression(1, Introduce(names[0]))
    cur: Node = Relabel(1, 2, Introduce(names[0]))
    for name in names[1:]:
        cur = Union(cur, Introduce(name))
    return CwExpression(2, AddEdges(1, 2, cur))


def _random_cograph(n: int, seed: int) -> CwExpression:
    # Cographs: closed under disjoint union and full join, every vertex
    # labeled 1 between composite steps, label 2 only transiently.
    rng = random.Random(seed)
    names = _names(n)

    def build(lo: int, hi: int) -> Node:
        if hi - lo == 1:
            return Introduce(names[lo])
        split = rng.randint(lo + 1, hi - 1)
        left, right = build(lo, split), build(split, hi)
        if rng.random() < 0.5:
            return Union(left, right)
        return Relabel(2, 1, AddEdges(1, 2, Union(left, Relabel(1, 2, right))))

    return CwExpression(1 if n == 1 else 2, build(0, n))


FIXTURE_KINDS = ("clique", "path", "cycle", "star", "random-cograph")

_FIXTURE_BUILDERS = {
    "clique": lambda n, seed: _clique(n),
    "path": lambda n, seed: _path(n),
    "cycle": lambda n, seed: _cycle(n),
    "star": lambda n, seed: _star(n),
    "random-cograph": _random_cograph,
}


def fixture(kind: str, n: int, seed: int = 0) -> CwExpression:
    """Deterministic unit-weight expression families for tests and benchmarks."""
    if n < 1:
        raise ExpressionError("fixtures need n >= 1")
    builder = _FIXTURE_BUILDERS.get(kind)
    if builder is None:
        raise ExpressionError(
            f"unknown fixture kind {kind!r}; expected one of {', '.join(FIXTURE_KINDS)}")
    return builder(n, seed)


# ---------------------------------------------------------------------------
# Plain graph files: `v <name> [<weight>]` and `e <name> <name>` lines.

def parse_graph(text: str) -> LabeledGraph:
    weights: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) in (2, 3):
            name = parts[1]
            if not NAME_RE.match(name):
                raise ExpressionError(f"line {lineno}: bad vertex name {name!r}")
            if name in weights:
                raise ExpressionError(f"line {lineno}: duplicate vertex {name!r}")
            weight = 1
            if len(parts) == 3:
                if not _INT_RE.match(parts[2]):
                    raise ExpressionError(f"line {lineno}: bad weight {parts[2]!r}")
                weight = int(parts[2])
            weights[name] = weight
        elif parts[0] == "e" and len(parts) == 3:
            u, v = parts[1], parts[2]
            if u == v:
                raise ExpressionError(f"line {lineno}: self-loop on {u!r}")
            if u not in weights or v not in weights:
                raise ExpressionError(f"line {lineno}: edge uses an undeclared vertex")
            edges.add(edge_key(u, v))
        else:
            raise ExpressionError(f"line {lineno}: expected 'v <name> [w]' or 'e <a> <b>'")
    return LabeledGraph(weights=weights, edges=edges)


def serialize_graph(graph: LabeledGraph) -> str:
    lines = [f"v {name} {graph.weights[name]}" for name in sorted(graph.weights)]
    lines += [f"e {u} {v}" for u, v in sorted(graph.edges)]
    return "\n".join(lines) + "\n"
