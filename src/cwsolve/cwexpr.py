"""The k-expression term language: parse, evaluate, validate, generate.

Expression files are s-expressions with a one-line header::

    cwexpr k=3
    (add 1 2 (u (v a 2) (ren 1 2 (v b))))   ; comments run to end of line

The four node kinds are a leaf ``(v NAME [WEIGHT])``, a relabel ``(ren I J
e)``, an add ``(add I J e)`` and a union ``(u e e)``.  A leaf always labels
its vertex 1; a missing weight defaults to 1.  An expression is its
:class:`Program`, its nodes in postorder as columns, which the parser and the
generators fill through :func:`_assemble`; a leaf carries its label, as
``(ren 1 x (v ...))`` folds into one leaf, and the labels in use are ranked
1..L, so the declared k and the size of a label do not size the DP.
Per-node results are lists.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Iterator, NamedTuple

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class ExpressionError(ValueError):
    """Syntax or structural problem in a k-expression."""


class PartiallyRedundantError(ExpressionError):
    """An add node re-adds some but not all of its cross edges."""


class NotIrredundantError(ExpressionError):
    """Solvers require every add to be applied before any of its edges exist."""


@dataclass(frozen=True)
class CwExpression:
    """A declared ``k`` and the :class:`Program` of the expression's nodes."""

    k: int
    program: Program
    # made by the parser or a generator, so valid by construction
    _valid: bool = field(default=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return hash((self.k, tuple(self.program.op)))

    def __repr__(self) -> str:
        return f"CwExpression(k={self.k}, {len(self.program.op)} positions)"

    @property
    def max_label(self) -> int:  # L, the number of labels in use
        return len(self.program.labels) - 1

    @cached_property
    def adds(self) -> dict[int, tuple[int, int, str | None]]:
        """Per add's position: the sizes |Ci| and |Cj| of the classes it
        joins, and None, ``"full"`` or ``"partial"``, as it is redundant,
        from the irredundancy pass (:func:`_redundant_adds`), once per
        expression, after :func:`validate` unless the program is valid by
        construction."""
        if not self._valid:
            validate(self)
        return _redundant_adds(self.program)


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
    None.  A label in the columns is the rank of a label in use, and
    ``labels[l]`` the file's label of rank l (``labels[0]`` is 0).  Passes
    only read the columns."""

    op: list[int]
    i: list[int]
    j: list[int]
    left: list[int]
    name: list[str | None]
    weight: list[int | None]
    present: list[int]
    labels: tuple[int, ...]


def _v(name: str, weight: int = 1) -> tuple:
    return LEAF, 0, 0, name, weight


def _ren(i: int, j: int) -> tuple:
    return REN, i, j, None, None


def _add(i: int, j: int) -> tuple:
    return ADD, i, j, None, None


_U = UNION, 0, 0, None, None


def _assemble(nodes: list[tuple]) -> Program:
    """The program of ``nodes``, each ``(op, i, j, name, weight)`` in postorder
    with the file's labels, as the parser and the generators make them.

    The labels in use, 1 always among them, are ranked 1..L in order before
    any mask is built (a label below 1 stays; validate rejects it), and
    ``(ren 1 x (v ...))`` folds into one leaf."""
    used = {1, *map(itemgetter(1), nodes), *map(itemgetter(2), nodes)}
    labels = (0, *sorted(lab for lab in used if lab > 0))  # 0: no label
    if labels[-1] != len(labels) - 1:  # not 1..L already
        rank = {lab: r for r, lab in enumerate(labels)}
        nodes = [(op, rank.get(i, i), rank.get(j, j), name, weight)
                 for op, i, j, name, weight in nodes]
    ops, li, lj, left, names, weights, present = columns = [[] for _ in range(7)]
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
            # no bit stands for a label below 1
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
    return Program(*columns, labels)


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

    def label(at: int) -> int:  # first met: checked, and known from now on
        val = known[tokens[at]] = integer(at)
        if not 1 <= val <= k:
            err(f"label {val} outside 1..{k}", at)
        return val

    out: list[tuple] = []  # the nodes in postorder, as _assemble takes them
    frames: list = []  # open operators' nodes; None: a union's left child
    names, known = set(), {}  # vertex names met; label tokens met -> labels
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
                weight = tokens[pos + 3]
                if weight == ")":
                    weight, pos = 1, pos + 4
                else:  # ASCII digits only, as _INT_RE
                    weight = (int(weight) if weight.isdigit() and weight.isascii()
                              else integer(pos + 3))
                    if tokens[pos + 4] != ")":
                        err(f"expected ')', got {tokens[pos + 4]!r}", pos + 4)
                    pos += 5
                out.append((LEAF, 0, 0, name, weight))
            elif head == "u":
                frames += _U, None
                pos += 2
                continue
            elif head == "ren" or head == "add":
                i, j = known.get(tokens[pos + 2]), known.get(tokens[pos + 3])
                if i is None or j is None or i == j:  # both read, then checked
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
    return CwExpression(k, _assemble(out), _valid=True)


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
    program, lab = expr.program, expr.program.labels
    parts: list[str] = []
    for p in _preorder(program):
        if p < 0:
            parts.append(")")
            continue
        op, i, j = program.op[p], program.i[p], program.j[p]
        if op == LEAF:
            leaf = f"(v {program.name[p]} {program.weight[p]})"
            parts.append(leaf if i == 1 else f"(ren 1 {lab[i]} {leaf})")
        else:
            parts.append("(u" if op == UNION else
                         f"({'ren' if op == REN else 'add'} {lab[i]} {lab[j]}")
    body = " ".join(parts).replace(" )", ")")
    return f"cwexpr k={expr.k}\n{body}\n"


def validate(expr: CwExpression) -> None:
    """Structural checks for programs assembled in code; the parser's
    errors say the same with a position."""
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
        if i < 1 or j < 1 and op != LEAF:
            raise ExpressionError(f"label outside 1..{expr.k}")
    if program.labels[-1] > expr.k:
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
    labels = {v: program.labels[lab] for lab, members in classes[0].items()
              for v in members}
    return LabeledGraph(vertex_weights(expr), edges, labels)


def vertex_weights(expr: CwExpression) -> dict[str, int]:
    """Vertex name -> weight, read off the program's leaf columns."""
    weights = dict(zip(expr.program.name, expr.program.weight))
    weights.pop(None, None)  # the key of every position but a leaf
    return weights


@dataclass(frozen=True)
class RedundancyIssue:
    node_index: int  # preorder position of the offending add node
    i: int
    j: int
    kind: str  # "full" | "partial"


def check_irredundant(expr: CwExpression) -> list[RedundancyIssue]:
    """Classify every add node whose cross pairs already partly exist.

    An empty report means the expression is irredundant: each add is applied
    while no edge between the two classes exists yet.
    """
    found = [(p, kind) for p, (_, _, kind) in expr.adds.items() if kind]
    if not found:
        return []
    program, index, at = expr.program, {}, 0
    for p in _preorder(program):  # a leaf at label x != 1 is two tree nodes
        if p >= 0:
            index[p] = at
            at += 1 + (program.op[p] == LEAF and program.i[p] != 1)
    lab = program.labels
    return [RedundancyIssue(index[p], lab[program.i[p]], lab[program.j[p]], kind)
            for p, kind in found]


def _redundant_adds(program: Program) -> dict[int, tuple[int, int, str | None]]:
    """The one bottom-up pass over a valid program before the DP
    (:attr:`CwExpression.adds`): the sizes of the two classes each add
    joins, which :func:`future_degrees` reads, and its redundancy.

    The pass keeps, per open subtree, the class sizes and the edge count
    between each pair of classes, not the edges: an add (i, j) finds
    ``E[i, j]`` of its ``|Ci| * |Cj|`` pairs present and leaves all of them;
    a relabel i -> j moves i's counts onto j and drops those between i and j
    (now one class); a union adds its smaller side's counts into the larger
    (the two sides share no vertex, hence no edge).  O(|expr| * k^2).
    """
    adds = {}
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
            size_i, size_j, existing = size.get(i, 0), size.get(j, 0), pairs.get(key)
            adds[p] = size_i, size_j, existing and (  # None where irredundant
                "full" if existing == size_i * size_j else "partial")
            if size_i and size_j:
                pairs[key] = size_i * size_j
        else:
            right = stack.pop()
            if len(stack[-1][1]) < len(right[1]):
                stack[-1], right = right, stack[-1]
            size, pairs = stack[-1]
            for lab, count in right[0].items():
                size[lab] = size.get(lab, 0) + count
            for pair, count in right[1].items():
                pairs[pair] = pairs.get(pair, 0) + count
    return adds


def strip_redundant_adds(expr: CwExpression) -> CwExpression:
    """Drop the add nodes whose every cross pair already exists.

    Raises :class:`PartiallyRedundantError` when a node re-adds only some of
    its pairs; that case cannot be repaired by removal.
    """
    kinds = {p: kind for p, (_, _, kind) in expr.adds.items() if kind}
    if "partial" in kinds.values():
        raise PartiallyRedundantError(
            "expression has partially redundant add operations")
    program, lab, nodes = expr.program, expr.program.labels, []
    for p, (op, i, j, name, weight) in enumerate(zip(
            program.op, program.i, program.j, program.name, program.weight)):
        if op == LEAF:  # a leaf at label x != 1 is (ren 1 x (v ...))
            nodes.append(_v(name, weight))
            if i != 1:
                nodes.append(_ren(1, lab[i]))
        elif p not in kinds:
            nodes.append((op, lab[i], lab[j], name, weight))
    return CwExpression(expr.k, _assemble(nodes), _valid=True)


def future_degrees(expr: CwExpression,
                   cap: int | None = None) -> list[tuple[int, ...]]:
    """Per position: for each label l of the program's 1..L (at index
    l - 1), how many neighbours its class still gains, capped at ``cap``
    if given.

    At every add above the node that touches the class, the class gains the
    partner class of that add.  On an irredundant expression these partner
    classes are disjoint and hold no neighbour the class already has (either
    would make some add re-add an edge), so the sum of their sizes counts the
    new neighbours exactly.  The sizes are the irredundancy pass's
    (:attr:`CwExpression.adds`), so this is one pass down: O(|expr| k).
    The cap is taken on the way down, as min(cap, x + s) = min(cap,
    min(cap, x) + s) for the non-negative partner sizes s, and capped
    vectors that are equal are one tuple.
    """
    program, adds = expr.program, expr.adds
    ops, li, lj, left = program.op, program.i, program.j, program.left
    root = (0,) * expr.max_label
    fut = [root] * len(ops)  # the root's stays
    seen = {root: root}  # the capped vectors: few, met everywhere
    for p in range(len(ops) - 1, 0, -1):  # a parent sits after its children
        op, above = ops[p], fut[p]
        if op == UNION:
            fut[p - 1] = fut[left[p]] = above
        elif op != LEAF:
            below = list(above)
            a, b = li[p] - 1, lj[p] - 1
            if op == ADD:
                size_i, size_j, _ = adds[p]
                below[a] += size_j
                below[b] += size_i
                if cap is not None:
                    if below[a] > cap:
                        below[a] = cap
                    if below[b] > cap:
                        below[b] = cap
            else:  # the child's class i becomes part of class j here
                below[a] = above[b]
            below = tuple(below)
            fut[p - 1] = below if cap is None else seen.setdefault(below, below)
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
    nodes = [_v(names[0], graph.weights[names[0]])]
    for m, name in enumerate(names[1:], start=2):
        nodes += _v(name, graph.weights[name]), _ren(1, m), _U
        nodes += (_add(lo, hi) for lo, hi in sorted(by_peak.get(m, ())))
    return CwExpression(len(names), _assemble(nodes))


# Each builder returns the declared k and the nodes in postorder, for n >= 2.

def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


def _clique(n: int) -> tuple[int, list]:
    names = _names(n)
    nodes = [_v(names[0])]
    for name in names[1:]:
        nodes += _v(name), _ren(1, 2), _U, _add(1, 2), _ren(2, 1)
    return 2, nodes


def _path(n: int) -> tuple[int, list]:
    # Labels: 1 = settled interior, 2 = current endpoint, 3 = incoming vertex.
    names = _names(n)
    if n == 2:
        return 2, [_v(names[0]), _ren(1, 2), _v(names[1]), _U, _add(1, 2)]
    nodes = [_v(names[0]), _ren(1, 2)]
    for name in names[1:]:
        nodes += _v(name), _ren(1, 3), _U, _add(2, 3), _ren(2, 1), _ren(3, 2)
    return 3, nodes


def _cycle(n: int) -> tuple[int, list]:
    # Labels: 1 = incoming vertex, 2 = current endpoint, 3 = start vertex
    # (kept apart for the closing edge), 4 = settled interior.  Four labels
    # are required: long cycles admit no 3-label construction.
    names = _names(n)
    if n == 2:
        return _path(2)
    nodes = [_v(names[0]), _ren(1, 3), _v(names[1]), _ren(1, 2), _U, _add(3, 2)]
    for name in names[2:]:
        nodes += _v(name), _U, _add(2, 1), _ren(2, 4), _ren(1, 2)
    return 4, nodes + [_add(2, 3)]


def _star(n: int) -> tuple[int, list]:
    names = _names(n)
    nodes = [_v(names[0]), _ren(1, 2)]
    for name in names[1:]:
        nodes += _v(name), _U
    return 2, nodes + [_add(1, 2)]


def _random_cograph(n: int, seed: int) -> tuple[int, list]:
    # Cographs: closed under disjoint union and full join, every vertex
    # labeled 1 between composite steps, label 2 only transiently.
    rng = random.Random(seed)
    names, nodes = _names(n), []

    def build(lo: int, hi: int) -> None:
        if hi - lo == 1:
            nodes.append(_v(names[lo]))
            return
        split = rng.randint(lo + 1, hi - 1)
        build(lo, split)
        build(split, hi)
        if rng.random() < 0.5:
            nodes.append(_U)
        else:  # the right side moves to label 2 for the join
            nodes.extend((_ren(1, 2), _U, _add(1, 2), _ren(2, 1)))

    build(0, n)
    return 2, nodes


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
    k, nodes = (1, [_v("v1")]) if n == 1 else builder(n, seed)
    return CwExpression(k, _assemble(nodes), _valid=True)


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
