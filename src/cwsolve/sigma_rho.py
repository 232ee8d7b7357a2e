"""Optimum connected (co-)(sigma, rho)-dominating sets over a k-expression.

A set D (sigma, rho)-dominates the graph when every vertex inside D has a
D-neighbor count in sigma and every vertex outside has one in rho.  The plain
solver optimizes a connected dominating D; the co solver optimizes a connected
X whose complement dominates; the Steiner solver is the plain machinery with
sigma = N+, rho = N and terminal-forced leaves.

Tables are indexed by per-label-class count vectors, each truncated at
``d = max(d(sigma), d(rho))``:

* ``counts``   - solution vertices per class, capped at d;
* ``promised`` - neighbors the class's vertices will still gain from future
  adds, capped at d.  Membership tests stay exact under the cap because any
  value at or above d behaves like every larger value.

A cell holds weighted partitions over the *active* labels (count and promise
both nonzero); blocks record which classes are already connected through the
partial solution, counting a class's vertices as one node since they all share
every future neighbor.  The co variant carries a second pair of vectors for
the connected side, with counts capped at 1.  Promise entries for classes the
connected side does not touch are stored as 0 and treated as wildcards.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from itertools import product

from .cwexpr import (CwExpression, NotIrredundantError, check_irredundant,
                     evaluate, fold, future_degrees, validate)
from .partitions import Partition
from .stats import SolveStats
from .wpsets import (MAX, MIN, NEG_INF, POS_INF, WPSet, check_size, contrib,
                     join_sets, merge_cells, proj)
from .wpsets import reduce as reduce_set

EMPTY_PARTITION = Partition(0, ())


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
    m = re.match(r"d-regular:(\d+)\Z", name)
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
# Shared transition context.

@dataclass
class DomContext:
    spec: SigmaRhoSpec
    k: int
    use_reduce: bool = True
    with_witness: bool = False
    terminals: frozenset[str] = frozenset()
    stats: SolveStats = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.stats is None:
            self.stats = SolveStats()
        d = self.spec.d
        if d < 1:
            raise ValueError("sigma = rho = N makes the problem trivial; d must be >= 1")
        self.d = d
        self.bound = 1 << (self.k - 1)  # entries a reduced cell can hold
        self.zero = (0,) * self.k
        self.sigma_ok = tuple(x in self.spec.sigma for x in range(d + 1))
        self.rho_ok = tuple(x in self.spec.rho for x in range(d + 1))
        # With rho = N, a class holding no solution-side vertex never consults
        # its promise (its vertices face only always-true membership tests and
        # activity needs a nonzero count), so the promise is stored as a
        # canonical 0 and treated as a wildcard, like absent classes.
        self.rho_wild = self.spec.rho == NATURALS
        # inverse of s = min(d, x + c): preimages x for each (s, c)
        self.inv = {(s, c): tuple(x for x in range(d + 1) if min(d, x + c) == s)
                    for s in range(d + 1) for c in range(d + 1)}
        self.inv1 = {(s, c): tuple(x for x in range(2) if min(1, x + c) == s)
                     for s in range(2) for c in range(2)}

    def edge_cell(self, i: int, j: int) -> WPSet:
        mask = (1 << i) | (1 << j)
        cell = WPSet(mask, self.spec.direction)
        cell.add(Partition(mask, (mask,)), 0,
                 frozenset() if self.with_witness else None)
        return cell

    def flatten(self, cell: WPSet) -> WPSet:
        out = WPSet(0, self.spec.direction)
        for _, (w, wit) in cell.entries.items():
            out.add(EMPTY_PARTITION, w, wit)
        return out


def _patch2(t: tuple, a: int, va: int, b: int, vb: int) -> tuple:
    out = list(t)
    out[a] = va
    out[b] = vb
    return tuple(out)


# ---------------------------------------------------------------------------
# Plain variant transitions.

def srd_leaf(ctx: DomContext, name: str, weight: int) -> dict:
    k, d = ctx.k, ctx.d
    cells = {}
    zero = ctx.zero
    one = (1,) + (0,) * (k - 1)
    wit_out = frozenset() if ctx.with_witness else None
    wit_in = frozenset({name}) if ctx.with_witness else None
    terminal = name in ctx.terminals
    lone = Partition(2, (2,))
    out_promises = (0,) if ctx.rho_wild else range(d + 1)
    if not terminal:
        for rp in out_promises:
            if ctx.rho_ok[rp]:
                cell = WPSet(0, ctx.spec.direction)
                cell.add(EMPTY_PARTITION, 0, wit_out)
                cells[(zero, (rp,) + (0,) * (k - 1))] = cell
    for rp in range(d + 1):
        if ctx.sigma_ok[rp]:
            if rp:
                cell = WPSet(2, ctx.spec.direction)
                cell.add(lone, weight, wit_in)
            else:
                cell = WPSet(0, ctx.spec.direction)
                cell.add(EMPTY_PARTITION, weight, wit_in)
            cells[(one, (rp,) + (0,) * (k - 1))] = cell
    for cell in cells.values():
        ctx.stats.observe_cell(len(cell))
    return cells


def srd_add(ctx: DomContext, table: dict, present: int, i: int, j: int) -> dict:
    ii, jj = i - 1, j - 1
    pi, pj = present >> i & 1, present >> j & 1
    inv, k = ctx.inv, ctx.k
    edge = ctx.edge_cell(i, j)
    observe = ctx.stats.observe_cell
    out: dict = {}
    rho_wild = ctx.rho_wild
    for (counts, child_prom), cell in table.items():
        ri, rj = counts[ii], counts[jj]
        cands_i = inv[(child_prom[ii], rj)] if pi and (ri or not rho_wild) else (0,)
        cands_j = inv[(child_prom[jj], ri)] if pj and (rj or not rho_wild) else (0,)
        rest_active = False
        for s in range(k):
            if s != ii and s != jj and counts[s] and child_prom[s]:
                rest_active = True
                break
        both = ri and rj
        flat = None
        surgeries: dict[int, WPSet] = {}
        prom_list = list(child_prom)
        for rpi in cands_i:
            prom_list[ii] = rpi
            for rpj in cands_j:
                prom_list[jj] = rpj
                if rest_active or (ri and rpi) or (rj and rpj):
                    if not both:
                        res = cell
                    else:
                        drop = ((1 << i if rpi == 0 else 0)
                                | (1 << j if rpj == 0 else 0))
                        res = surgeries.get(drop)
                        if res is None:
                            res = join_sets(cell, edge)
                            if drop:
                                res = proj(res, drop)
                            surgeries[drop] = res
                else:
                    if flat is None:
                        flat = ctx.flatten(cell)
                    res = flat
                if res.entries:
                    if ctx.use_reduce:
                        check_size(res, ctx.bound)
                    out[(counts, tuple(prom_list))] = res
                    observe(len(res))
    return out


def srd_ren(ctx: DomContext, table: dict, present: int, i: int, j: int) -> dict:
    if not present >> i & 1:
        return table
    ii, jj = i - 1, j - 1
    pj = present >> j & 1
    d, rho_wild = ctx.d, ctx.rho_wild
    edge = ctx.edge_cell(i, j)
    acc: dict = {}
    for (counts, prom), cell in table.items():
        # The two classes merge, so their promises must agree wherever both
        # are meaningful (wildcard slots carry a canonical 0).
        real_i = counts[ii] or not rho_wild
        real_j = pj and (counts[jj] or not rho_wild)
        if real_i and real_j and prom[ii] != prom[jj]:
            continue
        v = prom[ii] if real_i else (prom[jj] if real_j else 0)
        cj = min(d, counts[ii] + counts[jj])
        if rho_wild and not cj:
            v = 0
        key = (_patch2(counts, ii, 0, jj, cj), _patch2(prom, ii, 0, jj, v))
        if cj and v:
            moved = proj(join_sets(cell, edge), 1 << i)
        else:
            moved = cell
        contrib(acc, key, moved)
    return merge_cells(acc, reduce_set if ctx.use_reduce else None, ctx.bound,
                       ctx.stats)


def _real_slots(ctx: DomContext, counts: tuple, present: int) -> tuple[bool, ...]:
    """Slots whose promise entry is meaningful rather than a canonical 0."""
    if ctx.rho_wild:
        return tuple(bool(present >> (s + 1) & 1 and counts[s])
                     for s in range(ctx.k))
    return tuple(bool(present >> (s + 1) & 1) for s in range(ctx.k))


def srd_union(ctx: DomContext, table_a: dict, pres_a: int,
              table_b: dict, pres_b: int) -> dict:
    k, d = ctx.k, ctx.d
    side_b = []
    for (counts_b, prom_b), cell_b in table_b.items():
        side_b.append((counts_b, prom_b, cell_b,
                       any(c and p for c, p in zip(counts_b, prom_b)),
                       not any(counts_b),
                       _real_slots(ctx, counts_b, pres_b)))
    acc: dict = {}
    join_cache: dict[tuple[int, int], WPSet] = {}
    for (counts_a, prom_a), cell_a in table_a.items():
        open_a = any(c and p for c, p in zip(counts_a, prom_a))
        empty_a = not any(counts_a)
        real_a = _real_slots(ctx, counts_a, pres_a)
        for counts_b, prom_b, cell_b, open_b, empty_b, real_b in side_b:
            # A nonempty side with no active class is a finished connected
            # solution; it can never link up with the other side, so it may
            # only pair with an empty one.
            if not (empty_a or empty_b or (open_a and open_b)):
                continue
            # Promises must agree wherever both sides hold meaningful values.
            ok = True
            prom = []
            for s in range(k):
                ra, rb = real_a[s], real_b[s]
                if ra:
                    if rb and prom_a[s] != prom_b[s]:
                        ok = False
                        break
                    prom.append(prom_a[s])
                else:
                    prom.append(prom_b[s] if rb else 0)
            if not ok:
                continue
            counts = tuple(min(d, x + y) for x, y in zip(counts_a, counts_b))
            ck = (id(cell_a), id(cell_b))
            joined = join_cache.get(ck)
            if joined is None:
                joined = join_cache[ck] = join_sets(cell_a, cell_b)
            contrib(acc, (counts, tuple(prom)), joined)
    return merge_cells(acc, reduce_set if ctx.use_reduce else None, ctx.bound,
                       ctx.stats)


# ---------------------------------------------------------------------------
# Co variant transitions (connected side X, dominating side V minus X).

def co_leaf(ctx: DomContext, name: str, weight: int, fut) -> dict:
    k, d = ctx.k, ctx.d
    zero = ctx.zero
    one = (1,) + (0,) * (k - 1)
    wit_out = frozenset() if ctx.with_witness else None
    wit_in = frozenset({name}) if ctx.with_witness else None
    lone = Partition(2, (2,))
    cells = {}
    for rp in range(d + 1):
        if ctx.sigma_ok[rp]:
            cell = WPSet(0, ctx.spec.direction)
            cell.add(EMPTY_PARTITION, 0, wit_out)
            cells[(one, (rp,) + (0,) * (k - 1), zero, zero)] = cell
    out_promises = (0,) if ctx.rho_wild else range(d + 1)
    for rp in out_promises:
        if ctx.rho_ok[rp]:
            prom = (rp,) + (0,) * (k - 1)
            cell = WPSet(0, ctx.spec.direction)
            cell.add(EMPTY_PARTITION, weight, wit_in)
            cells[(zero, prom, one, zero)] = cell
            cell2 = WPSet(2, ctx.spec.direction)
            cell2.add(lone, weight, wit_in)
            cells[(zero, prom, one, one)] = cell2
    if fut is not None:
        cells = {key: cell for key, cell in cells.items()
                 if all(_prune_slot_ok(ctx, *slot) for slot in zip(*key, fut))}
    for cell in cells.values():
        ctx.stats.observe_cell(len(cell))
    return cells


def _prune_slot_ok(ctx: DomContext, count_s: int, prom_s: int, side_s: int,
                   sprom_s: int, fut_s: int) -> bool:
    """The co future filter, on one label slot of a state.

    The class's vertices still gain ``fut_s`` neighbours
    (:func:`~cwsolve.cwexpr.future_degrees`), and every one of them lies on
    the dominating or the connected side.  A promise below d is exact, so when
    it is meaningful (not a wildcard 0 under rho = N) exactly
    ``fut_s - prom_s`` of them join the connected side, which forces the
    class's connected-side promise to ``min(1, fut_s - prom_s)``.  A state
    that breaks this expects neighbours the expression never adds, or forbids
    ones it must add, so no root state extends it and dropping it keeps every
    optimum.

    Add and relabel nodes check only the slots they change: their input
    table passed this check at the child, whose future degrees agree with
    the node's on every other slot.
    """
    if side_s and prom_s < ctx.d and (count_s or not ctx.rho_wild):
        return sprom_s == (1 if prom_s < fut_s else 0)
    return True


def co_add(ctx: DomContext, table: dict, present: int, i: int, j: int,
           fut) -> dict:
    ii, jj = i - 1, j - 1
    pi, pj = present >> i & 1, present >> j & 1
    inv, inv1, k = ctx.inv, ctx.inv1, ctx.k
    edge = ctx.edge_cell(i, j)
    rho_wild = ctx.rho_wild
    observe = ctx.stats.observe_cell
    out: dict = {}
    for (counts, child_prom, side, child_sprom), cell in table.items():
        ri, rj = counts[ii], counts[jj]
        bi, bj = side[ii], side[jj]
        cands_i = inv[(child_prom[ii], rj)] if pi and (ri or not rho_wild) else (0,)
        cands_j = inv[(child_prom[jj], ri)] if pj and (rj or not rho_wild) else (0,)
        cands_bi = inv1[(child_sprom[ii], bj)] if bi else (0,)
        cands_bj = inv1[(child_sprom[jj], bi)] if bj else (0,)
        rest_active = False
        for s in range(k):
            if s != ii and s != jj and side[s] and child_sprom[s]:
                rest_active = True
                break
        both = bi and bj
        flat = None
        surgeries: dict[int, WPSet] = {}
        prom_list = list(child_prom)
        sprom_list = list(child_sprom)
        for rpi, rpj, bpi, bpj in product(cands_i, cands_j, cands_bi, cands_bj):
            if fut is not None and not (
                    _prune_slot_ok(ctx, ri, rpi, bi, bpi, fut[ii])
                    and _prune_slot_ok(ctx, rj, rpj, bj, bpj, fut[jj])):
                continue
            if rest_active or (bi and bpi) or (bj and bpj):
                if not both:
                    res = cell
                else:
                    drop = (1 << i if bpi == 0 else 0) | (1 << j if bpj == 0 else 0)
                    res = surgeries.get(drop)
                    if res is None:
                        res = join_sets(cell, edge)
                        if drop:
                            res = proj(res, drop)
                        surgeries[drop] = res
            else:
                if flat is None:
                    flat = ctx.flatten(cell)
                res = flat
            if res.entries:
                if ctx.use_reduce:
                    check_size(res, ctx.bound)
                prom_list[ii] = rpi
                prom_list[jj] = rpj
                sprom_list[ii] = bpi
                sprom_list[jj] = bpj
                out[(counts, tuple(prom_list), side, tuple(sprom_list))] = res
                observe(len(res))
    return out


def co_ren(ctx: DomContext, table: dict, present: int, i: int, j: int,
           fut) -> dict:
    if not present >> i & 1:
        return table
    ii, jj = i - 1, j - 1
    pj = present >> j & 1
    d, rho_wild = ctx.d, ctx.rho_wild
    edge = ctx.edge_cell(i, j)
    acc: dict = {}
    for (counts, prom, side, sprom), cell in table.items():
        real_i = counts[ii] or not rho_wild
        real_j = pj and (counts[jj] or not rho_wild)
        if real_i and real_j and prom[ii] != prom[jj]:
            continue
        bi, bj = side[ii], side[jj]
        if bi and bj and sprom[ii] != sprom[jj]:
            continue
        cj = min(d, counts[ii] + counts[jj])
        v = prom[ii] if real_i else (prom[jj] if real_j else 0)
        if rho_wild and not cj:
            v = 0
        vb = sprom[ii] if bi else sprom[jj]
        b2 = min(1, bi + bj)
        key = (_patch2(counts, ii, 0, jj, cj),
               _patch2(prom, ii, 0, jj, v),
               _patch2(side, ii, 0, jj, b2),
               _patch2(sprom, ii, 0, jj, vb))
        if fut is not None and not _prune_slot_ok(ctx, cj, v, b2, vb, fut[jj]):
            continue
        if b2 and vb:
            moved = proj(join_sets(cell, edge), 1 << i)
        else:
            moved = cell
        contrib(acc, key, moved)
    return merge_cells(acc, reduce_set if ctx.use_reduce else None, ctx.bound,
                       ctx.stats)


def _bits(values: tuple[int, ...]) -> int:
    mask = 0
    for s, v in enumerate(values):
        if v:
            mask |= 1 << s
    return mask


def co_union(ctx: DomContext, table_a: dict, pres_a: int,
             table_b: dict, pres_b: int, fut) -> dict:
    k, d = ctx.k, ctx.d
    side_entries = []
    for key_b, cell_b in table_b.items():
        counts_b, prom_b, side_b, sprom_b = key_b
        side_entries.append((key_b, cell_b, _bits(side_b), _bits(sprom_b),
                             _real_slots(ctx, counts_b, pres_b)))
    acc: dict = {}
    join_cache: dict[tuple[int, int], WPSet] = {}
    for (counts_a, prom_a, side_a, sprom_a), cell_a in table_a.items():
        sm_a, pm_a = _bits(side_a), _bits(sprom_a)
        open_a = bool(sm_a & pm_a)
        real_a = _real_slots(ctx, counts_a, pres_a)
        for key_b, cell_b, sm_b, pm_b, real_b in side_entries:
            # Side promises must agree wherever both halves put vertices into
            # the connected side (elsewhere the stored zero is a wildcard).
            if sm_a & sm_b & (pm_a ^ pm_b):
                continue
            # Closed-component guard, mirrored onto the connected side: once
            # both halves put vertices there, both must still be open.
            if sm_a and sm_b and not (open_a and sm_b & pm_b):
                continue
            counts_b, prom_b, side_b, sprom_b = key_b
            ok = True
            prom = []
            for s in range(k):
                if real_a[s]:
                    if real_b[s] and prom_a[s] != prom_b[s]:
                        ok = False
                        break
                    prom.append(prom_a[s])
                else:
                    prom.append(prom_b[s] if real_b[s] else 0)
            if not ok:
                continue
            counts = tuple(min(d, x + y) for x, y in zip(counts_a, counts_b))
            side = tuple(min(1, x + y) for x, y in zip(side_a, side_b))
            sprom = tuple(x if sa else y
                          for sa, x, y in zip(side_a, sprom_a, sprom_b))
            if fut is not None and not all(
                    _prune_slot_ok(ctx, *slot)
                    for slot in zip(counts, prom, side, sprom, fut)):
                continue
            ck = (id(cell_a), id(cell_b))
            joined = join_cache.get(ck)
            if joined is None:
                joined = join_cache[ck] = join_sets(cell_a, cell_b)
            contrib(acc, (counts, tuple(prom), side, sprom), joined)
    return merge_cells(acc, reduce_set if ctx.use_reduce else None, ctx.bound,
                       ctx.stats)


# ---------------------------------------------------------------------------
# Drivers.

def _drive(expr: CwExpression, ctx: DomContext) -> dict:
    """Fold the plain or co transitions over the expression; the root table.

    Each node's result is its table and the mask of its nonempty label
    classes.  The co transitions also get the node's future degrees, which
    switch their filter on; the unpruned reference path passes ``None`` and
    never computes them.
    """
    ctx.stats.count_nodes(expr.root)
    if ctx.spec.co:
        leaf, add, ren, union = co_leaf, co_add, co_ren, co_union
        fut = future_degrees(expr) if ctx.use_reduce else None

        def tail(node) -> tuple:
            return (None if fut is None else fut[id(node)],)
    else:
        leaf, add, ren, union = srd_leaf, srd_add, srd_ren, srd_union

        def tail(node) -> tuple:
            return ()

    def on_ren(node, child):
        table, present = child
        table = ren(ctx, table, present, node.i, node.j, *tail(node))
        if present >> node.i & 1:
            present = present & ~(1 << node.i) | 1 << node.j
        return table, present

    table, _ = fold(
        expr.root,
        lambda node: (leaf(ctx, node.name, node.weight, *tail(node)), 2),
        on_ren,
        lambda node, child: (add(ctx, *child, node.i, node.j, *tail(node)),
                             child[1]),
        lambda node, a, b: (union(ctx, *a, *b, *tail(node)), a[1] | b[1]))
    return table


def _check_irredundant(expr: CwExpression) -> None:
    if check_irredundant(expr):
        raise NotIrredundantError(
            "domination solvers require an irredundant expression")


def solve_connected_sigma_rho(expr: CwExpression, spec: SigmaRhoSpec,
                              with_witness: bool = False,
                              use_reduce: bool = True) -> DomResult:
    """Optimum weight of a connected (co-)(sigma, rho)-dominating set."""
    started = time.perf_counter()
    validate(expr)
    _check_irredundant(expr)
    ctx = DomContext(spec, expr.k, use_reduce=use_reduce,
                     with_witness=with_witness)
    result = _extract(_drive(expr, ctx), ctx, co=spec.co)
    result.stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return result


def solve_steiner(expr: CwExpression, terminals, with_witness: bool = False,
                  use_reduce: bool = True) -> DomResult:
    """Minimum-weight connected vertex superset of the terminal set."""
    started = time.perf_counter()
    validate(expr)
    _check_irredundant(expr)
    terms = frozenset(terminals)
    if not terms:
        raise ValueError("steiner needs at least one terminal")
    graph = evaluate(expr)
    unknown = terms - set(graph.weights)
    if unknown:
        raise ValueError(f"unknown terminals: {sorted(unknown)}")
    stats = SolveStats()
    if len(terms) == 1:
        # A single terminal is its own tree; the domination machinery cannot
        # express one-vertex solutions under sigma = N+.
        (term,) = terms
        stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
        return DomResult(graph.weights[term],
                         (term,) if with_witness else None, stats)
    spec = SigmaRhoSpec(POSITIVES, NATURALS, MIN)
    ctx = DomContext(spec, expr.k, use_reduce=use_reduce,
                     with_witness=with_witness, terminals=terms, stats=stats)
    result = _extract(_drive(expr, ctx), ctx, co=False)
    result.stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return result


def _extract(table: dict, ctx: DomContext, co: bool) -> DomResult:
    zero = ctx.zero
    is_max = ctx.spec.direction == MAX
    best = NEG_INF if is_max else POS_INF
    best_wit = None
    for key, cell in table.items():
        if co:
            if key[1] != zero or key[3] != zero:
                continue
        elif key[1] != zero:
            continue
        entry = cell.entries.get(EMPTY_PARTITION)
        if entry is None:
            continue
        w, wit = entry
        if (w > best) if is_max else (w < best):
            best, best_wit = w, wit
        elif w == best and wit is not None and best_wit is not None \
                and tuple(sorted(wit)) < tuple(sorted(best_wit)):
            best_wit = wit
    witness = tuple(sorted(best_wit)) if (ctx.with_witness and
                                          best_wit is not None) else None
    return DomResult(best, witness, ctx.stats)
