"""Optimum connected (co-)(sigma, rho)-dominating sets over a k-expression.

A set S (sigma, rho)-dominates the graph when every vertex inside S has an
S-neighbor count in sigma and every vertex outside has one in rho.  Every
solver optimizes a set X that induces a connected graph.  Plain: X = S.  Co:
X = V minus S.  Steiner: plain with sigma = N+, rho = N and the terminals in X.

One engine runs all three.  A key holds one code per label class, for its state
(c, p, b, q): ``c`` S vertices and ``p`` S-neighbors still promised by future
adds, both capped at ``d = max(d(sigma), d(rho))`` (values from d up pass the
same membership tests) and at the vertex count n.  That cap changes no answer:
every count the DP reads (a class's S vertices that still meet a partner, a
vertex's S-neighbors, a promise) is below n, so min(x, d) = min(x, n), and a
promise at the cap n needs n deliveries, where an irredundant expression
delivers at most n - 1.  ``b`` whether it holds X vertices and ``q`` whether
they still gain an X-neighbor.  A promise nothing reads is a wildcard stored as
0: q when b = 0, p without S vertices under rho = N.  A cell holds weighted
partitions over the open labels (b = q = 1); blocks record which classes X
already connects.  Only :class:`DomContext` knows the variant: the codes that
exist (plain ties b = [c > 0] and q = b and [p > 0]), each leaf's (in S, in X)
placements, and the slot relations the transitions read (:meth:`DomContext.rel`),
whose code pairs are each computed on first read and kept for one solve only.
The cells' weights are the vertex weights times :attr:`DomContext.sign`, -1
for a minimising problem, since the :mod:`~cwsolve.wpsets` kernel only
maximises; the root's largest weight times the sign is the optimum.

Unless ``use_reduce`` is off (the unpruned reference path), a plain class
without S vertices under rho = N minus {0, ..., r - 1} (r >= 1, as for cds and
ctds) stores in ``p`` its *need*, the S-neighbours it still lacks, rather than
the exact number still to come (:attr:`DomContext.at_least`): one code where
exact promises take one per count that meets rho, which an add with an S
partner would split again.  This is the exact-count to "at least" state change
of van Rooij, Bodlaender and Rossmanith (ESA 2009), argued in
:func:`_add_pairs` and :func:`_merge`; the reference path keeps exact counts,
so the two check each other.  The driver :func:`~cwsolve.dp.run` also prunes
in five ways.  It hands each transition the future degrees
(:func:`~cwsolve.cwexpr.future_degrees`) capped at d, which drop the slot
states they rule out, so keys no root key extends are never built; see
:func:`_future_ok`.  It retires dead labels with
:func:`srd_retire`: at a label of future degree 0 every final code becomes
0, and one closed-X marker at the lowest dead label keeps the fact that a
finished class held X, so the up to 2(d + 1) final codes of a finished class
no longer split a table.  It reduces each cell above the rank bound
2^(k-1) with ``reduce_set``.  It hands a node whose parent is an add
that add's labels, child mask and future degrees, with which the node leaves
out the keys the add has no successor for (:func:`_successors`) before it
links or joins their cells.  And at a leaf, add or union where the vertices
still to come cannot complete an X that is finished, by the variant's rule
(:func:`_doomed`), it has the node build no key holding X without an open
class.  The first two drop or merge only keys that answer every completion
alike, so the optimum is the reference path's; only the witness kept among
equal-weight entries may differ.  The lookahead changes no table from the
add up, and the verdict drops only keys with no root descendant, so neither
changes the root table, its optimum or its witness.

Each transition but the leaf's, and :func:`srd_retire`, only plans keys: it
lists a cell step per key it makes, and :func:`~cwsolve.dp.build` makes the
cells, with ``link``, :func:`_complete` for the step :data:`COMPLETE`, and a
union's with ``join_sets``.  Where a node's context repeats, the driver
keeps the first call's steps in a key plan (:class:`~cwsolve.dp.Plan`) and
replays them on the same input keys, without calling the transition.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress, product
from operator import getitem

from . import dp
from .cwexpr import (ADD, LEAF, REN, UNION, CwExpression,
                     NotIrredundantError, Program, check_irredundant,
                     vertex_weights)
from .dp import SolveStats
from .wpsets import (NEG_INF, POS_INF, InvariantError, WPSet, join_sets,
                     reduce_set)

EMPTY_PARTITION = ()  # the one partition of the empty ground set

MAX, MIN = "max", "min"  # a problem's direction


# ---------------------------------------------------------------------------
# Finite / cofinite integer sets.

class MuSetError(ValueError):
    pass


@dataclass(frozen=True)
class MuSet:
    """A non-empty finite or cofinite subset of the non-negative integers."""

    cofinite: bool
    values: frozenset[int]  # members when finite, excluded members when cofinite

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise MuSetError("negative integers are not members of N")
        if not self.cofinite and not self.values:
            raise MuSetError("the empty set is not allowed")

    def __contains__(self, x: int) -> bool:
        return (x not in self.values) if self.cofinite else (x in self.values)

    def describe(self) -> str:
        if self.cofinite:
            if not self.values:
                return "N"
            if self.values == frozenset({0}):
                return "N+"
            return "N\\{" + ",".join(map(str, sorted(self.values))) + "}"
        return "{" + ",".join(map(str, sorted(self.values))) + "}"


NATURALS = MuSet(True, frozenset())
POSITIVES = MuSet(True, frozenset({0}))
_ZERO = MuSet(False, frozenset({0}))


def d_of(mu: MuSet) -> int:
    """Truncation threshold: membership of x equals membership of min(x, d)."""
    if mu.cofinite and not mu.values:
        return 0
    return 1 + max(mu.values)


def mu_contains_truncated(mu: MuSet, x: int, d: int) -> bool:
    if d < d_of(mu):
        raise MuSetError(f"cap {d} is below the set's threshold {d_of(mu)}")
    return min(d, x) in mu


def parse_mu(text: str) -> MuSet:
    """Accepts ``N``, ``N+``, ``{0,1,2}`` and ``N\\{0,1}``."""
    text = text.strip()
    if text == "N":
        return NATURALS
    if text == "N+":
        return POSITIVES
    m = re.match(r"N\\\{([0-9,\s]*)\}\Z", text)
    if m:
        return MuSet(True, _int_items(m.group(1)))
    m = re.match(r"\{([0-9,\s]*)\}\Z", text)
    if m:
        return MuSet(False, _int_items(m.group(1)))
    raise MuSetError(f"cannot parse integer set {text!r}")


def _int_items(body: str) -> frozenset[int]:
    body = body.strip()
    if not body:
        return frozenset()
    return frozenset(int(part) for part in body.split(","))


# ---------------------------------------------------------------------------
# Problem specification and presets.

@dataclass(frozen=True)
class SigmaRhoSpec:
    sigma: MuSet
    rho: MuSet
    direction: str = MIN
    co: bool = False

    @property
    def d(self) -> int:
        return max(d_of(self.sigma), d_of(self.rho))

    def describe(self) -> str:
        kind = "co" if self.co else "plain"
        return (f"sigma={self.sigma.describe()} rho={self.rho.describe()} "
                f"{self.direction} {kind}")


def preset_spec(name: str) -> SigmaRhoSpec:
    if name == "cds":
        return SigmaRhoSpec(NATURALS, POSITIVES, MIN)
    if name == "ctds":
        return SigmaRhoSpec(POSITIVES, POSITIVES, MIN)
    if name == "perfect-cds":
        return SigmaRhoSpec(NATURALS, MuSet(False, frozenset({1})), MIN)
    if name == "cvc":
        return SigmaRhoSpec(MuSet(False, frozenset({0})), NATURALS, MIN, co=True)
    m = re.match(r"d-regular:([0-9]+)\Z", name)  # ASCII digits only
    if m:
        return SigmaRhoSpec(MuSet(False, frozenset({int(m.group(1))})), NATURALS, MAX)
    raise ValueError(f"unknown problem preset {name!r}")


@dataclass
class DomResult:
    optimum: int | float  # +/- infinity when infeasible
    witness: tuple[str, ...] | None
    stats: SolveStats

    @property
    def feasible(self) -> bool:
        return self.optimum not in (POS_INF, NEG_INF)


# ---------------------------------------------------------------------------
# Transition context: the variant's slot codes and per-slot relations.

@dataclass
class DomContext:
    spec: SigmaRhoSpec
    k: int
    with_witness: bool = False
    terminals: frozenset[str] = frozenset()
    n: int | None = None  # the vertex count, which caps d
    pruned: bool = False  # the default path: prunes and may store needs

    def __post_init__(self):
        if self.spec.direction not in (MAX, MIN):
            raise ValueError(f"unknown direction {self.spec.direction!r}")
        if self.spec.d < 1:
            raise ValueError("sigma = rho = N makes the problem trivial; d must be >= 1")
        self.d = d = self.spec.d if self.n is None else min(self.spec.d, self.n)
        self.sign = 1 if self.spec.direction == MAX else -1
        rho = self.spec.rho
        self.rho_wild = rho == NATURALS
        # A class without S stores its need, not an exact promise, when rho
        # is N minus {0, ..., r - 1} for some r >= 1 (plain, pruned path).
        self.at_least = (self.pruned and not self.spec.co and not self.rho_wild
                         and rho.cofinite
                         and rho.values == frozenset(range(d_of(rho))))
        # The slot alphabet, (c, p, b, q) by code; code 0 is the empty slot.
        # Wildcards are stored as 0; plain ties b and q to c and p.
        self.slots = [(c, p, b, q) for c, p, b, q in
                      product(range(d + 1), range(d + 1), (0, 1), (0, 1))
                      if q <= b and not (self.rho_wild and p and not c)
                      and (self.spec.co or (b == (c > 0) and q == (b and p > 0)))]
        self.code = {slot: code for code, slot in enumerate(self.slots)}
        self.has_x = tuple(b for _, _, b, _ in self.slots)
        self.open = tuple(b & q for _, _, b, q in self.slots)
        self.final = tuple(not p and not q for _, p, _, q in self.slots)
        # A retired key's one trace of its finished X classes (srd_retire).
        self.marker = min(code for code in range(len(self.slots))
                          if self.has_x[code] and self.final[code])
        # A vertex lies in S and X as (0, 0) or (1, 1) for plain, (1, 0) or
        # (0, 1) for co; a terminal lies in X.  A vertex promises a count in
        # sigma or rho, but under at_least one outside S needs r = d(rho),
        # capped at d.  Leaf codes by terminality:
        placements = ((1, 0), (0, 1)) if self.spec.co else ((0, 0), (1, 1))
        outside = {min(d_of(rho), d)} if self.at_least else rho
        self.leaf_codes = {t: [self.code[s, p, x, q] for s, x in placements
                               if x or not t for p in range(d + 1)
                               if p in (self.spec.sigma if s else outside)
                               for q in range(x + 1) if (s, p, x, q) in self.code]
                           for t in (False, True)}
        self._rels: dict = {}
        self.leaf_rows: dict = {}  # a leaf context -> its rows (srd_leaf)

    def code_of(self, slot: tuple, fut_s: int | None) -> int | None:
        """The code of a slot state; None if it is not in the alphabet or,
        given the slot's future degree, fails the future filter."""
        keep = fut_s is None or _future_ok(self, slot, fut_s)
        return self.code.get(slot) if keep else None

    def rel(self, fn, *args) -> _Lazy:
        """``[a][b] -> fn(self, slot a, slot b, *args)`` for codes a and b.

        Each code pair is computed the first time a transition reads it and
        kept for the rest of this solve, so a relation costs the pairs the
        tables hold, not |slots|² (which grows as (d + 1)^4)."""
        rel = self._rels.get((fn, args))
        if rel is None:
            slots = self.slots
            rel = self._rels[fn, args] = _Lazy(lambda a: _Lazy(
                lambda b: fn(self, slots[a], slots[b], *args)))
        return rel


class _Lazy(dict):
    """A dict that computes a missing key's value as ``make(key)`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _merge(ctx: DomContext, a: tuple, b: tuple, pres_a: int, pres_b: int,
           fut_s: int | None) -> int | None:
    """The code of one class made of two, or None if their promises disagree
    where both are meaningful.  Union merges slot s of its two tables,
    relabel i -> j slot i into slot j.

    The two classes gain the same neighbours from now on, so exact promises
    must be equal.  Under :attr:`DomContext.at_least` a class without S holds
    a need instead (:func:`_add_pairs`), and the smaller of two differing
    values must be such a need: two needs keep the larger, since every
    member must reach its own, and a need n beside an exact S promise p is
    met iff n <= p, the merged class keeping p (at the cap d, p promises at
    least d S-neighbours, which meets any need, as no need exceeds d)."""
    c1, p1, b1, q1 = a
    c2, p2, b2, q2 = b
    real1 = pres_a and (c1 or not ctx.rho_wild)
    real2 = pres_b and (c2 or not ctx.rho_wild)
    if b1 and b2 and q1 != q2:
        return None
    if real1 and real2:
        if p1 != p2 and (not ctx.at_least or (c1 if p1 < p2 else c2)):
            return None
        p = max(p1, p2)
    else:
        p = p1 if real1 else (p2 if real2 else 0)
    return ctx.code_of((min(ctx.d, c1 + c2), p, b1 | b2, q1 if b1 else q2), fut_s)


def _add_pairs(ctx: DomContext, a: tuple, b: tuple, pres_a: int, pres_b: int,
               fut_a: int | None, fut_b: int | None) -> list[tuple[int, int]]:
    """The code pairs two classes can hold right after an add joins them: each
    gains the other's S and X vertices as neighbors, so what it promised below
    the add is what remains plus what the add delivers.

    Under :attr:`DomContext.at_least` (rho = N minus {0, ..., r - 1}, plain,
    pruned path) a class without S needs n = max(0, r - its S-neighbours so
    far) more, one code where exact promises take one per possible
    remainder; the add leaves max(0, n - partner's c).  Sound: an outside
    vertex is satisfied iff it ends with at least r S-neighbours, and the
    vertices of one class gain the same neighbours from now on, so the class
    needs the largest of its members' needs (:func:`_merge`), and it is met
    iff the adds to come deliver that many.  The partner's c is capped at d,
    but c = d lowers any need to 0, as needs are at most d.  Where the vertex
    count caps d below r, the leaf's need is d, which is never met, since the
    expression delivers at most d - 1 S-neighbours; the future filter drops
    it at once.  So a key with need n reaches the root iff one of the exact
    keys it stands for (promises n, n + 1, ..., d) does, and keys that now
    coincide answer every completion alike, so
    :func:`~cwsolve.dp.build` merging their cells is sound."""
    def remaining(slot, partner, present):
        c, p, x, q = slot
        if not (present and (c or not ctx.rho_wild)):
            ps = [0]
        elif ctx.at_least and not c:
            ps = [max(0, p - partner[0])]
        else:
            ps = [r for r in range(ctx.d + 1) if min(ctx.d, r + partner[0]) == p]
        return ps, [r for r in (0, 1) if min(1, r + partner[2]) == q] if x else [0]

    (pas, qas), (pbs, qbs) = remaining(a, b, pres_a), remaining(b, a, pres_b)
    pairs = [(ctx.code_of((a[0], pa, a[2], qa), fut_a),
              ctx.code_of((b[0], pb, b[2], qb), fut_b))
             for pa, pb, qa, qb in product(pas, pbs, qas, qbs)]
    return [pair for pair in pairs if None not in pair]


def _future_ok(ctx: DomContext, slot: tuple, fut_s: int) -> bool:
    """The future filter, on one label slot of a state.

    The class's vertices still gain exactly ``fut_s`` neighbours (capped at d;
    :func:`~cwsolve.cwexpr.future_degrees`).  A meaningful S promise (c > 0 or
    rho != N) counts S-neighbours among them, exactly below d and at least d
    at d, or, for a class without S under :attr:`DomContext.at_least`, at
    least ``p`` (a need; :func:`_add_pairs`), so ``p > fut_s`` can never be
    met, and need 0 is final like promise 0.  An X promise (q = 1) needs at
    least one of them, whatever the S promise is.  Co also puts each of them
    in S or in X: a meaningful S promise below d leaves exactly ``fut_s - p``
    for X, which forces the X promise to ``min(1, fut_s - p)``.  A state that
    breaks a rule expects neighbours the expression never adds, or forbids
    ones it must add, so no root state extends it.  A key feeding a
    root-reaching key reaches the root itself, so the filter drops no key
    whose cell could reach a kept one: every kept cell, hence the optimum
    and its witness, is the unfiltered path's.  Nodes check only the slots
    they change: the rest passed at the child, whose future degrees agree
    with the node's there.
    """
    c, p, b, q = slot
    if q > (fut_s > 0):  # an X-neighbour no future add brings
        return False
    if ctx.rho_wild and not c:  # the S promise is a wildcard
        return True
    if p > fut_s:
        return False
    if ctx.spec.co and b and p < ctx.d:
        return q == (1 if p < fut_s else 0)
    return True


def _doomed(ctx: DomContext, program: Program, degrees) -> set[int]:
    """The leaves, adds and unions (where keys holding X with no open class
    are made) at which no such key reaches the root, by the variant's rule,
    from the uncapped future ``degrees``
    (:func:`~cwsolve.cwexpr.future_degrees`):

    * T (Steiner): a terminal lies outside the node's subtree.
    * I (plain, 0 not in rho): the future degrees of the node's nonempty
      classes sum to less than the number of vertices still to come.
    * E (co, sigma = {0}): the edge count m exceeds D - I, for D the
      degrees of the subtree's vertices summed and I the edges its adds make.

    Sound: such a key's X classes have q = 0, an exact promise capped at 1,
    so no X vertex gains an X-neighbour above the node, and every edge
    between the node's vertices and one still to come is added above it.  X
    is connected at the root, so no vertex still to come joins X.  Then T: a
    terminal still to come is outside X.  I: every vertex still to come is
    outside S = X and needs an S-neighbour in the subtree; the members of
    class l all gain the same fut_l neighbours (the expression is
    irredundant), so at most the sum of the fut_l vertices still to come
    meet the subtree, and one stays undominated.  E: every vertex still to
    come is in S, and at most D - I edges touch the subtree, so some edge
    joins two vertices still to come, each of which then has an
    S-neighbour, which sigma = {0} forbids.  A dropped key has no root
    descendant, so the root table, its optimum and its witness are as
    without the verdict.

    The subtree of position p is the postorder range [start(p), p], where
    start(p) is p at a leaf, start(p - 1) at a relabel or add and
    start(left[p]) at a union, so its counts are prefix-sum differences.  An
    add's two classes gain each other's vertices, so the future degrees
    fall across it by |Cj| and |Ci|, whose product is the edges it makes.

    Rule I first tries a bound that needs no sum.  A vertex v of the
    subtree gains all its neighbours outside it above the node, so its class
    has future degree at least deg(v) - (|subtree| - 1).  Where deg(v) is
    n - 1, that is n - |subtree|, the vertices still to come, and no
    position above v's leaf qualifies.  At the leaf its future degree is
    deg(v), so where every leaf's is n - 1 (a complete graph), none does."""
    spec, terms, ops = ctx.spec, ctx.terminals, program.op
    plain = not spec.co and 0 not in spec.rho
    if not (terms or plain or spec.co and spec.sigma == _ZERO):
        return set()
    if plain:  # I's bound (below): is every vertex adjacent to all others?
        n = ops.count(LEAF)
        if all(vec[i - 1] == n - 1 for op, i, vec
               in zip(ops, program.i, degrees) if op == LEAF):
            return set()
    start: list[int] = []  # per position, the first one of its subtree
    for p, (op, left) in enumerate(zip(ops, program.left)):
        start.append(p if op == LEAF else start[left if op == UNION else p - 1])
    makers = [p for p, op in enumerate(ops) if op != REN]
    if terms:  # T
        held = list(accumulate(map(terms.__contains__, program.name),
                               initial=0))
        return {p for p in makers if held[p + 1] - held[start[p]] < len(terms)}
    if plain:  # I
        verts = list(accumulate((op == LEAF for op in ops), initial=0))
        present = program.present
        # the nonempty classes of each mask, as selectors
        chosen = {mask: tuple(mask >> l & 1 for l in range(1, ctx.k + 1))
                  for mask in set(present)}
        return {p for p in makers
                if sum(compress(degrees[p], chosen[present[p]]))
                < verts[-1] - verts[p + 1] + verts[start[p]]}
    li, lj = program.i, program.j  # E
    degs = list(accumulate((vec[i - 1] if op == LEAF else 0 for op, i, vec
                            in zip(ops, li, degrees)), initial=0))
    made = list(accumulate(
        ((below[i - 1] - vec[i - 1]) * (below[j - 1] - vec[j - 1])
         if op == ADD else 0 for op, i, j, below, vec
         in zip(ops, li, lj, [None, *degrees], degrees)), initial=0))
    return {p for p in makers if made[-1] > degs[p + 1] - degs[start[p]]
            - made[p + 1] + made[start[p]]}


# ---------------------------------------------------------------------------
# Transitions.  ``fut`` is the node's future degree vector, capped at d, or
# None on the unfiltered reference path.

def _successors(ctx: DomContext, ahead) -> tuple:
    """The parent add's test on keys (:func:`~cwsolve.dp.run`'s lookahead):
    for ``ahead = (i, j, present, fut)``, the add's labels, its child's
    nonempty labels and its future degrees, the slots i - 1 and j - 1 and
    the add's slot relation.  A key whose two codes have no pair there has
    no successor at the add, which drops it.  Without a lookahead the
    relation is None."""
    if ahead is None:
        return 0, 0, None
    i, j, present, fut = ahead
    return i - 1, j - 1, ctx.rel(_add_pairs, present >> i & 1, present >> j & 1,
                                 fut and fut[i - 1], fut and fut[j - 1])


def _check_unpruned(ahead, doomed: bool) -> None:
    """The unpruned reference path takes no lookahead (:func:`_successors`)
    and no verdict ``doomed``, under which a node builds no key holding a
    finished X (:func:`_doomed`)."""
    if ahead is not None or doomed:
        raise InvariantError(
            "the unpruned reference path takes no lookahead and no verdict")


def _complete(cell: WPSet, drop: int = 0) -> WPSet:
    """A cell whose X is complete: each entry's weight and witness on the
    empty partition.  ``drop`` is 0, the one :func:`~cwsolve.dp.build`
    passes for the step :data:`COMPLETE`."""
    return WPSet.from_pairs(((EMPTY_PARTITION, *entry) for entry
                             in cell.values()), 0)


COMPLETE = -1  # a cell step: X is complete (srd_add)


def _leaf_rows(ctx: DomContext, label: int, fut_s: int | None, ahead,
               doomed: bool, terminal: bool) -> list[tuple]:
    """The rows of a leaf's table, for a vertex at ``label`` with future
    degree ``fut_s`` (terminal or not): per key, in order, the key, its
    cell's ground mask and one partition, and whether the cell's entry holds
    the vertex, which its weight and witness fill in (:func:`srd_leaf`)."""
    up_i, up_j, up = _successors(ctx, ahead)
    rows = []
    for code in ctx.leaf_codes[terminal]:
        if ctx.code_of(ctx.slots[code], fut_s) is None:
            continue
        if doomed and ctx.has_x[code] and not ctx.open[code]:
            continue
        key = (0,) * (label - 1) + (code,) + (0,) * (ctx.k - label)
        if up is not None and not up[key[up_i]][key[up_j]]:
            continue
        ground = 1 << label if ctx.open[code] else 0
        rows.append((key, ground, (ground,) if ground else EMPTY_PARTITION,
                     ctx.has_x[code]))
    return rows


def srd_leaf(ctx: DomContext, label: int, name: str, weight: int, fut=None,
             ahead=None, *, doomed: bool = False) -> dict:
    """A leaf's table.  Its rows depend only on the leaf's context, all
    that :func:`_leaf_rows` reads, so each context's are built once per
    solve (:attr:`DomContext.leaf_rows`); a leaf fills in its weight and
    witness."""
    if not ctx.pruned:
        _check_unpruned(ahead, doomed)
    context = (label, fut and fut[label - 1], ahead, doomed,
               name in ctx.terminals)
    rows = ctx.leaf_rows.get(context)
    if rows is None:
        rows = ctx.leaf_rows[context] = _leaf_rows(ctx, *context)
    held = (ctx.sign * weight, name if ctx.with_witness else None)
    empty = (0, () if ctx.with_witness else None)
    cells = {}
    for key, ground, partition, x in rows:
        cell = cells[key] = WPSet(ground)
        cell[partition] = held if x else empty
    return cells


def srd_add(ctx: DomContext, table: dict, present: int, i: int, j: int,
            fut=None, ahead=None, *, doomed: bool = False,
            plan: dp.Plan | None = None) -> dict:
    if not ctx.pruned:
        _check_unpruned(ahead, doomed)
    steps = []
    ii, jj = i - 1, j - 1
    rel = ctx.rel(_add_pairs, present >> i & 1, present >> j & 1,
                  fut and fut[ii], fut and fut[jj])
    up_i, up_j, up = _successors(ctx, ahead)
    is_open, has_x = ctx.open, ctx.has_x
    for key in table:
        ci, cj = key[ii], key[jj]
        cands = rel[ci][cj]
        if not cands:
            continue
        slots, rest_open = list(key), None
        for ni, nj in cands:
            slots[ii], slots[jj] = ni, nj
            if up is not None and not up[slots[up_i]][slots[up_j]]:
                continue
            oi, oj = is_open[ni], is_open[nj]
            if not (oi or oj) and rest_open is None:
                rest_open = (sum(map(is_open.__getitem__, key))
                             > is_open[ci] + is_open[cj])
            if not (oi or oj or rest_open):  # X is complete: keep weights
                if doomed and any(map(has_x.__getitem__, key)):
                    continue
                step = COMPLETE
            elif not (has_x[ci] and has_x[cj]):  # it links no X vertices
                step = None
            else:  # link i and j, then drop the classes that closed
                step = (0 if oi else 1 << i) | (0 if oj else 1 << j)
            steps.append((key, tuple(slots), step))
    return dp.build(plan, steps, (i, j, False, _complete), table)


def srd_ren(ctx: DomContext, table: dict, present: int, i: int, j: int,
            fut=None, ahead=None, *, plan: dp.Plan | None = None) -> dict:
    if not ctx.pruned:
        _check_unpruned(ahead, False)
    steps = []
    ii, jj = i - 1, j - 1
    rel = ctx.rel(_merge, present >> i & 1, present >> j & 1, fut and fut[jj])
    up_i, up_j, up = _successors(ctx, ahead)
    for key in table:
        code = rel[key[ii]][key[jj]]
        if code is not None:
            slots = list(key)
            slots[ii], slots[jj] = 0, code
            if up is not None and not up[slots[up_i]][slots[up_j]]:
                continue
            steps.append((key, tuple(slots),
                          1 << i if ctx.open[code] else None))
    return dp.build(plan, steps, (i, j, False, _complete), table)


def srd_retire(ctx: DomContext, table: dict, dead: int, *,
               plan: dp.Plan | None = None) -> dict:
    """Each key over the mask ``dead`` of labels with future degree 0 (bit l
    for label l): a key owing a promise at a dead label is dropped; every
    other one gets code 0 at every dead label, and the closed-X marker
    :attr:`DomContext.marker` at the lowest one if a dead class held X and
    no live one does.

    Sound: a dead class gains no neighbour again, so no add with a populated
    partner touches it, and a relabel merges it only into another dead
    class.  A promise there is never met, so no root key extends it: the
    future filter's argument (:func:`_future_ok`).  A final dead slot is
    never open, so no cell holds its label, and later transitions read it
    only through the root's finality test, which every final code passes,
    and through ``srd_union``'s question whether the key holds X at all.
    The marker keeps that answer and is final.  Its place is a function of
    the node's dead set, which a union's children share, so the union of
    two retired keys is retired; two markers never meet there, since a key
    with a marker has no open class.  A relabel i -> j, where i is dead
    below exactly where j is dead above, carries a marker at i into j even
    when class i is empty (:func:`srd_ren`), and the driver retires the
    relabel's table, which puts the marker back at the lowest dead label;
    so the marker never sits at a live label, where its S or X count would
    be read.  Keys that now coincide answer every completion alike, so
    their cells, over the same open labels, merge, keeping the best weight
    per partition.
    """
    labels = [l for l in range(ctx.k) if dead >> l + 1 & 1]
    final, has_x, marker = ctx.final, ctx.has_x, ctx.marker
    steps = []
    for key in table:
        x = 0
        for l in labels:
            code = key[l]
            if not final[code]:
                break
            x |= has_x[code]
        else:
            slots = list(key)
            for l in labels:
                slots[l] = 0
            if x and not any(map(has_x.__getitem__, slots)):
                slots[labels[0]] = marker
            steps.append((key, tuple(slots), None))
    return dp.build(plan, steps, (0, 0, False, _complete), table)


def srd_union(ctx: DomContext, table_a: dict, pres_a: int,
              table_b: dict, pres_b: int, fut=None, ahead=None, *,
              doomed: bool = False, plan: dp.Plan | None = None) -> dict:
    if not ctx.pruned:
        _check_unpruned(ahead, doomed)
    rels = [ctx.rel(_merge, pres_a >> s + 1 & 1, pres_b >> s + 1 & 1,
                    fut and fut[s]) for s in range(ctx.k)]
    up_i, up_j, up = _successors(ctx, ahead)
    is_open, has_x = ctx.open.__getitem__, ctx.has_x.__getitem__
    side_b = [(b, key_b, any(map(is_open, key_b)), any(map(has_x, key_b)))
              for b, key_b in enumerate(table_b)]
    # Where a finished X is doomed, a side holding one pairs with nothing:
    # not with a side holding X (below), nor with an X-free one, which
    # would make a key holding a finished X.
    if doomed:
        side_b = [side for side in side_b if side[2] or not side[3]]
    steps = []
    for a, key_a in enumerate(table_a):
        open_a, x_a = any(map(is_open, key_a)), any(map(has_x, key_a))
        if doomed and x_a and not open_a:
            continue
        rows = list(map(getitem, rels, key_a))
        for b, key_b, open_b, x_b in side_b:
            # A side whose X has no open class is a finished connected X; it
            # can never link up, so it may only pair with a side without X.
            if x_a and x_b and not (open_a and open_b):
                continue
            key = tuple(map(getitem, rows, key_b))
            if None in key or up is not None and not up[key[up_i]][key[up_j]]:
                continue
            steps.append((a, b, key, 0, 0))
    return dp.build(plan, steps, (join_sets,), table_a, table_b)


def _solve(expr: CwExpression, spec: SigmaRhoSpec, with_witness: bool,
           use_reduce: bool, started: float, terminals=frozenset()) -> DomResult:
    """Run the transitions over the expression, pruned iff ``use_reduce``,
    with a key slot per label in use; the optimum at the root."""
    ctx = DomContext(spec, expr.max_label, with_witness, terminals,
                     n=expr.program.op.count(LEAF), pruned=use_reduce)
    stats = SolveStats()
    prune = (dp.Prune(ctx.d, 1 << (ctx.k - 1), reduce_set,
                      partial(srd_retire, ctx), lookahead=True,
                      doomed=partial(_doomed, ctx))
             if ctx.pruned else None)
    try:
        table = dp.run(expr, stats, prune,
                       partial(srd_leaf, ctx), partial(srd_ren, ctx),
                       partial(srd_add, ctx), partial(srd_union, ctx))
    finally:
        # the relations' rows are closures over ctx: break the cycle, so
        # that the context is freed as the solve returns
        ctx._rels.clear()
    final = ctx.final.__getitem__
    best, witness = dp.root_optimum(
        cell.get(EMPTY_PARTITION) for key, cell in table.items()
        if all(map(final, key)))
    stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return DomResult(ctx.sign * best, witness, stats)


def _check_irredundant(expr: CwExpression) -> None:
    if check_irredundant(expr):
        raise NotIrredundantError(
            "domination solvers require an irredundant expression")


def solve_connected_sigma_rho(expr: CwExpression, spec: SigmaRhoSpec,
                              with_witness: bool = False,
                              use_reduce: bool = True) -> DomResult:
    """Optimum weight of a connected (co-)(sigma, rho)-dominating set."""
    started = time.perf_counter()
    _check_irredundant(expr)
    return _solve(expr, spec, with_witness, use_reduce, started)


def solve_steiner(expr: CwExpression, terminals, with_witness: bool = False,
                  use_reduce: bool = True) -> DomResult:
    """Minimum-weight connected vertex superset of the terminal set."""
    started = time.perf_counter()
    _check_irredundant(expr)
    terms = frozenset(terminals)
    if not terms:
        raise ValueError("steiner needs at least one terminal")
    weights = vertex_weights(expr)
    unknown = terms - weights.keys()
    if unknown:
        raise ValueError(f"unknown terminals: {sorted(unknown)}")
    if len(terms) == 1:
        # A single terminal is its own tree; the domination machinery cannot
        # express one-vertex solutions under sigma = N+.
        (term,) = terms
        stats = SolveStats(elapsed_ms=(time.perf_counter() - started) * 1000.0)
        return DomResult(weights[term], (term,) if with_witness else None, stats)
    spec = SigmaRhoSpec(POSITIVES, NATURALS, MIN)
    return _solve(expr, spec, with_witness, use_reduce, started, terms)
