"""The k-expression term language: parse, evaluate, validate, generate.

Expression files are s-expressions with a one-line header::

    cwexpr k=3
    (add 1 2 (u (v a 2) (ren 1 2 (v b))))   ; comments run to end of line

The four node kinds are Introduce ``(v NAME [WEIGHT])``, Relabel
``(ren I J e)``, AddEdges ``(add I J e)`` and Union ``(u e e)``.  Introduce
always labels its vertex 1; a missing weight defaults to 1.  Every pass reads
an expression's :class:`Program`, its nodes in postorder as columns, which
the parser fills straight from the text; a leaf carries its label, as
``(ren 1 x (v ...))`` folds into one leaf.  Per-node results are lists.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

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


class CwExpression:
    """A declared ``k`` and a :class:`Program`, compiled from a tree built in
    code or the parser's, whose tree ``root`` is rebuilt on first read."""

    def __init__(self, k: int, root: Node | None = None,
                 program: Program | None = None):
        if (root is None) == (program is None):
            raise ValueError("a CwExpression takes one of root and program")
        self.k = k  # the other of root and program is filled on first read
        vars(self).update({"root": root} if program is None else {"program": program})

    def __eq__(self, other) -> bool:
        return (isinstance(other, CwExpression)
                and (self.k, self.program) == (other.k, other.program))

    def __hash__(self) -> int:
        return hash((self.k, tuple(self.program.op)))

    def __repr__(self) -> str:
        return f"CwExpression(k={self.k}, {len(self.program.op)} positions)"

    @cached_property
    def program(self) -> "Program":
        return compile_program(self.root)

    @cached_property
    def root(self) -> Node:
        return _tree(self.program)

    @cached_property
    def max_label(self) -> int:  # sizes per-label structures, not k
        return max(max(self.program.i), max(self.program.j))


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
# Programs (iterative walks: expression trees can be thousands deep).

LEAF, REN, ADD, UNION = range(4)  # a program's opcodes


class Program(NamedTuple):
    """An expression's nodes in postorder, one column entry per position: a
    unary node's child and a union's right child sit just before it, ``left``
    is a union's left child, ``present`` the mask of nonempty label classes
    (bit l for label l), and a leaf's ``i`` its vertex's label, as ``(ren 1 x
    (v ...))`` is one leaf at label x.  Entries that do not apply are 0, -1,
    None.  Passes only read the columns."""

    op: list[int]
    i: list[int]
    j: list[int]
    left: list[int]
    name: list[str | None]
    weight: list[int | None]
    present: list[int]


def _assemble(nodes: Iterable[tuple]) -> Program:
    """The program of ``nodes``, each ``(op, i, j, name, weight)`` in postorder,
    for the parser and :func:`compile_program`; it folds ``(ren 1 x (v ...))``."""
    program = ops, li, lj, left, names, weights, present = Program(*([] for _ in range(7)))
    done: list[int] = []  # finished subtrees' positions, leftmost first
    for op, i, j, name, weight in nodes:
        if op == LEAF:
            i, mask = 1, 2
            done.append(0)
        elif op == UNION:
            lp = done.pop(-2)
            mask = present[lp] | present[-1]
        elif op == ADD:
            mask = present[-1]
        elif i == 1 < j and ops[-1] == LEAF and li[-1] == 1:
            li[-1], present[-1] = j, 1 << j  # the leaf at label j
            continue
        else:
            mask = present[-1]
            # no bit stands for a label below 1; validate rejects it
            if i > 0 < j and mask >> i & 1:
                mask = mask & ~(1 << i) | 1 << j
        done[-1] = len(ops)
        ops.append(op)
        li.append(i)
        lj.append(j)
        left.append(lp if op == UNION else -1)
        names.append(name)
        weights.append(weight)
        present.append(mask)
    return program


def compile_program(root: Node) -> Program:
    """The :class:`Program` of the tree rooted at ``root``, whose nodes a
    right-first preorder walk, reversed, visits in postorder."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Introduce:
            nodes.append((LEAF, 0, 0, node.name, node.weight))
        elif kind is Union:
            nodes.append((UNION, 0, 0, None, None))
            stack += (node.left, node.right)
        else:
            nodes.append((REN if kind is Relabel else ADD, node.i, node.j, None, None))
            stack.append(node.child)
    return _assemble(reversed(nodes))


def _tree(program: Program, skip=frozenset()) -> Node:
    """The tree of ``program``, without the adds at the positions in ``skip``."""
    built: list[Node] = []  # per open subtree
    for p, (op, i, j, name, weight) in enumerate(zip(
            program.op, program.i, program.j, program.name, program.weight)):
        if op == LEAF:
            leaf = Introduce(name, weight)
            built.append(leaf if i == 1 else Relabel(1, i, leaf))
        elif op == UNION:
            built[-2:] = [Union(*built[-2:])]
        elif op == REN:
            built[-1] = Relabel(i, j, built[-1])
        elif p not in skip:
            built[-1] = AddEdges(i, j, built[-1])
    return built[0]


# ---------------------------------------------------------------------------
# Parsing / serialization.

# A comment runs to the end of its line; a token is a parenthesis or a run of
# characters that are neither whitespace, parentheses nor ';'.  Comments match
# as the empty string, since they hold no group.
_COMMENT_RE = re.compile(r";[^\n]*")
_TOKEN_RE = re.compile(_COMMENT_RE.pattern + r"|([()]|[^\s();]+)")
_INT_RE = re.compile(r"[0-9]+\Z")  # ASCII only: int() reads other digits too


def parse_expression(text: str) -> CwExpression:
    """Parse the file format (header + one s-expression) straight into its
    :class:`Program`, with no tree: nodes end in postorder at their closing
    parentheses, in one loop over the tokens with a stack of open operators."""
    lines = text.splitlines()
    header_idx = next((idx for idx, raw in enumerate(lines)
                       if raw.split(";", 1)[0].strip()), None)
    if header_idx is None:
        raise ExpressionError("empty expression file")
    m = re.match(r"cwexpr\s+k=(\S+)\Z", lines[header_idx].split(";", 1)[0].strip())
    if not m or not _INT_RE.match(m.group(1)):
        raise ExpressionError(f"line {header_idx + 1}: expected header 'cwexpr k=<K>'")
    k = int(m.group(1))
    if k < 1:
        raise ExpressionError("declared k must be at least 1")
    body = "\n" * (header_idx + 1) + "\n".join(lines[header_idx + 1:])
    # _TOKEN_RE's tokens: str.split splits at the whitespace \s matches
    tokens = (_COMMENT_RE.sub("", body) if ";" in body else body).replace(
        "(", " ( ").replace(")", " ) ").split()

    def where(at: int) -> tuple[int, int]:  # errors only: it scans again
        found = (m for m in _TOKEN_RE.finditer(body) if m.lastindex)
        offset = next(islice(found, at, None)).start()
        return body.count("\n", 0, offset) + 1, offset - body.rfind("\n", 0, offset)

    def err(msg: str, at: int):
        raise ExpressionError("line {} col {}: ".format(*where(at)) + msg)

    def integer(at: int) -> int:
        tok = tokens[at]
        if not _INT_RE.match(tok):
            err(f"expected an integer, got {tok!r}", at)
        return int(tok)

    def label(at: int) -> int:
        val = integer(at)
        if not 1 <= val <= k:
            err(f"label {val} outside 1..{k}", at)
        return val

    out: list[tuple] = []  # the nodes in postorder, as _assemble takes them
    frames: list = []  # open operators' nodes; None: a union's left child
    names: set[str] = set()
    pos = 0  # the next token
    try:
        while True:
            if tokens[pos] != "(":
                err(f"expected '(', got {tokens[pos]!r}", pos)
            head = tokens[pos + 1]
            if head == "v":
                name = tokens[pos + 2]
                if not NAME_RE.match(name):
                    err(f"bad vertex name {name!r}", pos + 2)
                if name in names:
                    err(f"duplicate vertex name {name!r}", pos + 2)
                names.add(name)
                if tokens[pos + 3] == ")":
                    weight, pos = 1, pos + 4
                else:
                    weight = integer(pos + 3)
                    if tokens[pos + 4] != ")":
                        err(f"expected ')', got {tokens[pos + 4]!r}", pos + 4)
                    pos += 5
                out.append((LEAF, 0, 0, name, weight))
            elif head == "u":
                frames += (UNION, 0, 0, None, None), None
                pos += 2
                continue
            elif head == "ren" or head == "add":
                tokens[pos + 3]  # both labels are read before either is checked
                i, j = label(pos + 2), label(pos + 3)
                if i == j:
                    err(f"'{head}' needs two distinct labels", pos + 3)
                frames.append((REN if head == "ren" else ADD, i, j, None, None))
                pos += 4
                continue
            else:
                err(f"unknown operator {head!r}", pos + 1)
            # a node ended: it ends every open operator it completes
            while frames:
                if frames[-1] is None:  # a union's left child: its right is next
                    frames.pop()
                    break
                if tokens[pos] != ")":
                    err(f"expected ')', got {tokens[pos]!r}", pos)
                pos += 1
                out.append(frames.pop())
            else:
                break
    except IndexError:  # a token past the last one was read
        end = f"line {where(len(tokens) - 1)[0]}" if tokens else "empty input"
        raise ExpressionError(f"syntax error: unexpected end of input ({end})") from None
    if pos != len(tokens):
        err("trailing input after expression", pos)
    return CwExpression(k, program=_assemble(out))


def _preorder(program: Program) -> Iterator[int]:
    """The positions in the tree's preorder, and a -1 where a subtree ends."""
    stack = [len(program.op) - 1]
    while stack:
        p = stack.pop()
        yield p
        if p >= 0 and program.op[p] != LEAF:
            stack += (-1, p - 1, program.left[p]) if program.op[p] == UNION \
                else (-1, p - 1)


def serialize(expr: CwExpression) -> str:
    program = expr.program
    parts: list[str] = []
    for p in _preorder(program):
        if p < 0:
            parts.append(")")
            continue
        op, i, j = program.op[p], program.i[p], program.j[p]
        if op == LEAF:
            leaf = f"(v {program.name[p]} {program.weight[p]})"
            parts.append(leaf if i == 1 else f"(ren 1 {i} {leaf})")
        else:
            parts.append("(u" if op == UNION else f"({'ren' if op == REN else 'add'} {i} {j}")
    body = " ".join(parts).replace(" )", ")")
    return f"cwexpr k={expr.k}\n{body}\n"


def validate(expr: CwExpression) -> None:
    """Structural checks for programmatically built trees."""
    if expr.k < 1:
        raise ExpressionError("declared k must be at least 1")
    program = expr.program
    names: set[str] = set()
    for name, weight in zip(program.name, program.weight):
        if name is None:
            continue
        if not NAME_RE.match(name):
            raise ExpressionError(f"bad vertex name {name!r}")
        if name in names:
            raise ExpressionError(f"duplicate vertex name {name!r}")
        if weight < 0:
            raise ExpressionError(f"negative weight on vertex {name!r}")
        names.add(name)
    for op, i, j in set(zip(program.op, program.i, program.j)) - {(UNION, 0, 0)}:
        if i == j:
            raise ExpressionError("relabel/add needs two distinct labels")
        if not (1 <= i <= expr.k and (op == LEAF or 1 <= j <= expr.k)):
            raise ExpressionError(f"label outside 1..{expr.k}")


# ---------------------------------------------------------------------------
# Evaluation and irredundancy.

def evaluate(expr: CwExpression) -> LabeledGraph:
    """The labeled graph the expression builds."""
    validate(expr)
    program = expr.program
    classes: list[dict[int, set[str]]] = []  # per open subtree, by label
    edges: set[tuple[str, str]] = set()
    for op, i, j, name in zip(program.op, program.i, program.j, program.name):
        if op == LEAF:
            classes.append({i: {name}})
        elif op == UNION:
            for lab, members in classes.pop().items():
                classes[-1].setdefault(lab, set()).update(members)
        elif op == REN:
            moving = classes[-1].pop(i, None)
            if moving:
                classes[-1].setdefault(j, set()).update(moving)
        else:
            ci, cj = classes[-1].get(i, ()), classes[-1].get(j, ())
            edges.update(edge_key(u, v) for u in ci for v in cj)
    labels = {v: lab for lab, members in classes[0].items() for v in members}
    return LabeledGraph(vertex_weights(expr), edges, labels)


def vertex_weights(expr: CwExpression) -> dict[str, int]:
    """Vertex name -> weight, read off the program's leaf columns."""
    weights = dict(zip(expr.program.name, expr.program.weight))
    weights.pop(None, None)  # the key of every position but a leaf
    return weights


@dataclass(frozen=True)
class RedundancyIssue:
    node_index: int  # preorder position of the offending AddEdges node
    i: int
    j: int
    kind: str  # "full" | "partial"


def check_irredundant(expr: CwExpression) -> list[RedundancyIssue]:
    """Classify every AddEdges node whose cross pairs already partly exist.

    An empty report means the expression is irredundant: each add is applied
    while no edge between the two classes exists yet.
    """
    found = _redundant_adds(expr)
    if not found:
        return []
    program, index, at = expr.program, {}, 0
    for p in _preorder(program):  # a leaf at label x != 1 is two tree nodes
        if p >= 0:
            index[p] = at
            at += 1 + (program.op[p] == LEAF and program.i[p] != 1)
    return [RedundancyIssue(index[p], program.i[p], program.j[p], kind)
            for p, kind in found]


def _redundant_adds(expr: CwExpression) -> list[tuple[int, str]]:
    """(program position, ``"full"`` or ``"partial"``) of every redundant
    add, after validating ``expr``.

    The pass keeps, per open subtree, the class sizes and the edge count
    between each pair of classes, not the edges: an add (i, j) finds
    ``E[i, j]`` of its ``|Ci| * |Cj|`` pairs present and leaves all of them;
    a relabel i -> j moves i's counts onto j and drops those between i and j
    (now one class); a union adds its smaller side's counts into the larger
    (the two sides share no vertex, hence no edge).  O(|expr| * k^2).
    """
    validate(expr)
    program = expr.program
    found = []
    stack: list[tuple[dict, dict]] = []  # (sizes, pair counts) per subtree
    for p, (op, i, j) in enumerate(zip(program.op, program.i, program.j)):
        if op == LEAF:
            stack.append(({i: 1}, {}))
        elif op == REN:
            size, pairs = stack[-1]
            size[j] = size.get(j, 0) + size.pop(i, 0)
            for pair in [pair for pair in pairs if i in pair]:
                count = pairs.pop(pair)
                other = pair[0] + pair[1] - i
                if other != j:
                    key = (j, other) if j < other else (other, j)
                    pairs[key] = pairs.get(key, 0) + count
        elif op == ADD:
            size, pairs = stack[-1]
            key = (i, j) if i < j else (j, i)
            total = size.get(i, 0) * size.get(j, 0)
            existing = pairs.get(key, 0)
            if existing:
                found.append((p, "full" if existing == total else "partial"))
            if total:
                pairs[key] = total
        else:
            right = stack.pop()
            if len(stack[-1][1]) < len(right[1]):
                stack[-1], right = right, stack[-1]
            size, pairs = stack[-1]
            for lab, count in right[0].items():
                size[lab] = size.get(lab, 0) + count
            for pair, count in right[1].items():
                pairs[pair] = pairs.get(pair, 0) + count
    return found


def strip_redundant_adds(expr: CwExpression) -> CwExpression:
    """Drop AddEdges nodes whose every cross pair already exists.

    Raises :class:`PartiallyRedundantError` when a node re-adds only some of
    its pairs; that case cannot be repaired by removal.
    """
    found = _redundant_adds(expr)
    if any(kind == "partial" for _, kind in found):
        raise PartiallyRedundantError(
            "expression has partially redundant add operations")
    return CwExpression(expr.k, _tree(expr.program, {p for p, _ in found}))


def future_degrees(expr: CwExpression) -> list[tuple[int, ...]]:
    """Per position: for each label l up to the largest one the program uses
    (at index l - 1), how many neighbours its class still gains.

    At every add above the node that touches the class, the class gains the
    partner class of that add.  On an irredundant expression these partner
    classes are disjoint and hold no neighbour the class already has (either
    would make some add re-add an edge), so the sum of their sizes counts the
    new neighbours exactly.  Sizes go up the program, sums down: O(|expr| k).
    """
    program, width = expr.program, expr.max_label
    ops, li, lj, left = program.op, program.i, program.j, program.left
    sizes, met = [], {}  # class sizes per open subtree; |Ci|, |Cj| per add
    for p, op in enumerate(ops):
        if op == LEAF:
            sizes.append([0] * li[p] + [1] + [0] * (width - li[p]))
        elif op == REN:
            size = sizes[-1]
            size[lj[p]] += size[li[p]]
            size[li[p]] = 0
        elif op == ADD:
            met[p] = sizes[-1][li[p]], sizes[-1][lj[p]]
        else:
            sizes[-2:] = [[a + b for a, b in zip(*sizes[-2:])]]
    fut = [(0,) * width] * len(ops)  # the root's stays
    for p in range(len(ops) - 1, 0, -1):  # a parent sits after its children
        op, above = ops[p], fut[p]
        if op == UNION:
            fut[p - 1] = fut[left[p]] = above
        elif op != LEAF:
            below = list(above)
            if op == ADD:
                below[li[p] - 1] += met[p][1]
                below[lj[p] - 1] += met[p][0]
            else:  # the child's class i becomes part of class j here
                below[li[p] - 1] = above[lj[p] - 1]
            fut[p - 1] = tuple(below)
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
