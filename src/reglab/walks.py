"""Shifted walks and skewed traverses over a reduced digraph with a 1-factor.

A shifted walk from cluster A to cluster B alternates reduced-graph edges
with full traversals of 1-factor cycles: it enters a cluster X, walks its
factor cycle around to the predecessor X-, and hops along an R-edge to the
next entry.  The skewed traverse is the edge skeleton of the same idea when
the factor is a single Hamilton cycle, and is what shifts one unit of
cluster load during rebalancing.

Searches are BFS over the hop graph, so returned walks traverse the minimum
number of cycles, which also forces every cluster to appear at most once as
an entry and once as an exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Digraph, GraphError, bits


@dataclass(frozen=True)
class FactorContext:
    """A reduced digraph together with a spanning cycle cover of it."""

    r: Digraph
    factor: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cyc in self.factor:
            if len(cyc) < 2:
                raise GraphError("factor cycles need length >= 2 (no loops)")
            for i, v in enumerate(cyc):
                if v in seen:
                    raise GraphError("factor cycles overlap")
                seen.add(v)
                if not self.r.has_edge(v, cyc[(i + 1) % len(cyc)]):
                    raise GraphError("factor cycle edge missing from R")
        if seen != set(range(self.r.n)):
            raise GraphError("factor does not span R")

    @property
    def successor(self) -> dict[int, int]:
        succ = {}
        for cyc in self.factor:
            for i, v in enumerate(cyc):
                succ[v] = cyc[(i + 1) % len(cyc)]
        return succ

    @property
    def predecessor(self) -> dict[int, int]:
        pred = {}
        for cyc in self.factor:
            for i, v in enumerate(cyc):
                pred[cyc[(i + 1) % len(cyc)]] = v
        return pred

    @property
    def is_hamiltonian(self) -> bool:
        return len(self.factor) == 1


@dataclass(frozen=True)
class ShiftedWalk:
    """Entries X_1..X_{t+1} and exits X-_1..X-_t; hop i is the R-edge X-_i X_{i+1}."""

    entries: tuple[int, ...]
    exits: tuple[int, ...]

    @property
    def cycles_traversed(self) -> int:
        return len(self.exits)

    def audit(self, ctx: FactorContext) -> bool:
        if len(self.entries) != len(self.exits) + 1:
            return False
        pred = ctx.predecessor
        for i, x in enumerate(self.entries[:-1]):
            if pred[x] != self.exits[i]:
                return False
            if not ctx.r.has_edge(self.exits[i], self.entries[i + 1]):
                return False
        interior_entries = self.entries[1:-1]
        interior_exits = self.exits[1:]
        return (len(set(interior_entries)) == len(interior_entries)
                and len(set(interior_exits)) == len(interior_exits))


@dataclass(frozen=True)
class SkewedTraverse:
    """Edges A V_{i1}, V_{i1-1} V_{i2}, ..., V_{it-1} B; length is t (edges - 1)."""

    edges: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.edges) - 1

    def audit(self, ctx: FactorContext) -> bool:
        pred = ctx.predecessor
        for i, (u, v) in enumerate(self.edges):
            if not ctx.r.has_edge(u, v):
                return False
            if i > 0 and pred[self.edges[i - 1][1]] != u:
                return False
        return True


def find_shifted_walk(ctx: FactorContext, a: int, b: int,
                      avoid: frozenset[int] = frozenset(),
                      t_max: Optional[int] = None) -> Optional[ShiftedWalk]:
    """Minimum-t shifted walk from A to B avoiding ``avoid`` internally.

    Internal clusters are the entries X_2..X_t and exits X-_2..X-_t; the
    endpoints, and the exit of A's own cycle, are exempt.  BFS layers follow
    U_{i+1} = N+(pred(U_i minus avoid)), ties broken towards the smallest
    cluster index.  A degenerate walk with t=0 is returned when A == B.
    """
    r, k = ctx.r, ctx.r.n
    if not (0 <= a < k and 0 <= b < k):
        raise GraphError("endpoints outside the reduced digraph")
    if a in avoid or b in avoid:
        raise GraphError("avoid set may not contain the endpoints")
    if a == b:
        return ShiftedWalk((a,), ())
    pred = ctx.predecessor
    parent: dict[int, Optional[int]] = {a: None}
    frontier = [a]
    t = 0
    limit = t_max if t_max is not None else k + 1
    while frontier and t < limit:
        t += 1
        nxt = []
        for x in sorted(frontier):
            # expanding x means the walk continues through it: internal rules
            if x != a and (x in avoid or pred[x] in avoid):
                continue
            hop_source = pred[x]
            for y in bits(r.rows[hop_source]):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        if b in parent:
            entries = [b]
            while parent[entries[-1]] is not None:
                entries.append(parent[entries[-1]])
            entries.reverse()
            exits = tuple(pred[x] for x in entries[:-1])
            walk = ShiftedWalk(tuple(entries), exits)
            assert walk.audit(ctx)
            return walk
        frontier = nxt
    return None


def find_skewed_traverse(ctx: FactorContext, a: int,
                         b: int) -> Optional[SkewedTraverse]:
    """Minimum-length skewed traverse from A to B (factor must be Hamiltonian)."""
    if not ctx.is_hamiltonian:
        raise GraphError("skewed traverses need a Hamiltonian factor")
    r, k = ctx.r, ctx.r.n
    if not (0 <= a < k and 0 <= b < k):
        raise GraphError("endpoints outside the reduced digraph")
    pred = ctx.predecessor
    # BFS on edge targets; having landed on y, the next hop leaves from pred(y)
    parent: dict[int, tuple[int, Optional[int]]] = {}

    def reconstruct() -> SkewedTraverse:
        edges = []
        cur: Optional[int] = b
        while cur is not None:
            src, prv = parent[cur]
            edges.append((src, cur))
            cur = prv
        edges.reverse()
        tr = SkewedTraverse(tuple(edges))
        assert tr.audit(ctx)
        return tr

    frontier = []
    for y in bits(r.rows[a]):
        parent[y] = (a, None)
        frontier.append(y)
    for _depth in range(k + 1):
        if b in parent:
            return reconstruct()
        nxt = []
        for y in sorted(frontier):
            src = pred[y]
            for z in bits(r.rows[src]):
                if z not in parent:
                    parent[z] = (src, y)
                    nxt.append(z)
        frontier = nxt
        if not frontier:
            break
    return reconstruct() if b in parent else None


# ---------------------------------------------------------------------------
# rebalancing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterAssignment:
    """Per-cluster assigned-vertex counts plus a neutral-pair anchor budget."""

    counts: tuple[int, ...]
    neutral_slots: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts) or any(s < 0 for s in self.neutral_slots):
            raise GraphError("counts and slots must be nonnegative")
        if len(self.counts) != len(self.neutral_slots):
            raise GraphError("counts and slots must align")

    def imbalance(self) -> int:
        return max((abs(c - self.target) for c in self.counts), default=0)


@dataclass(frozen=True)
class RebalanceRecipe:
    mode: str
    traverse: Optional[SkewedTraverse] = None
    walk_out: Optional[ShiftedWalk] = None
    walk_back: Optional[ShiftedWalk] = None
    consumed_anchors: tuple[int, ...] = ()


def rebalance(assign: ClusterAssignment, ctx: FactorContext, i_over: int,
              j_under: int, mode: str = "traverse"
              ) -> tuple[ClusterAssignment, RebalanceRecipe]:
    """Shift one assigned unit from an overfull cluster to an underfull one.

    Traverse mode substitutes neutral-pair sections along a skewed traverse
    T(V_{i-1}, V_j), consuming one anchor at each edge source; walk mode uses
    the pair of shifted walks W(V_{i-1},V_j) W(V_j,V_{i+1}) padded by factor
    copies.  Either way exactly two counts change, by +-1.
    """
    k = len(assign.counts)
    if not (0 <= i_over < k and 0 <= j_under < k) or i_over == j_under:
        raise GraphError("need two distinct clusters in range")
    if assign.counts[i_over] <= assign.target:
        raise GraphError("source cluster is not overfull")
    if assign.counts[j_under] >= assign.target:
        raise GraphError("destination cluster is not underfull")
    if ctx.r.n != k:
        raise GraphError("assignment does not match the reduced digraph")

    pred = ctx.predecessor
    succ = ctx.successor
    if mode == "traverse":
        if not ctx.is_hamiltonian:
            raise GraphError("traverse mode needs a Hamiltonian factor")
        tr = find_skewed_traverse(ctx, pred[i_over], j_under)
        if tr is None:
            raise GraphError("no skewed traverse found")
        anchors = tuple(src for (src, _tgt) in tr.edges)
        slots = list(assign.neutral_slots)
        for anchor in anchors:
            if slots[anchor] <= 0:
                raise GraphError(f"insufficient neutral slots at cluster {anchor}")
            slots[anchor] -= 1
        recipe = RebalanceRecipe("traverse", traverse=tr,
                                 consumed_anchors=anchors)
    elif mode == "walk":
        if not ctx.is_hamiltonian:
            raise GraphError("walk mode needs a Hamiltonian factor")
        w1 = find_shifted_walk(ctx, pred[i_over], j_under)
        w2 = find_shifted_walk(ctx, j_under, succ[i_over])
        if w1 is None or w2 is None:
            raise GraphError("no shifted walk found")
        slots = list(assign.neutral_slots)
        recipe = RebalanceRecipe("walk", walk_out=w1, walk_back=w2)
    else:
        raise GraphError("mode must be traverse or walk")

    counts = list(assign.counts)
    counts[i_over] -= 1
    counts[j_under] += 1
    new_assign = ClusterAssignment(tuple(counts), tuple(slots), assign.target)
    return new_assign, recipe
