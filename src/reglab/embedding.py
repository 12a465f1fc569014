"""Key-Lemma greedy embedding, blow-ups, and the brute-force oracles
(subgraph containment, extremal numbers, Ramsey numbers, perfect packings)
that anchor desk-scale verification.

The oracles are exact within documented caps.  Graph-class enumeration is
isomorph-reduced (see enumeration.py), which is what makes ex(n,H) feasible:
H-freeness is hereditary, so only H-free parents are ever extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence, Union

from .enumeration import enumerate_graphs
from .graphs import (Digraph, Graph, GraphError, bits, full_mask,
                     popcount)
from .regularity import CapExceeded
from .szemeredi import ReducedGraph

SUBGRAPH_CAP = 10
EXTREMAL_CAP = 8
RAMSEY_CAP = 7
PACKING_CAP = 18


@dataclass(frozen=True)
class Embedding:
    """Injective map sending pattern vertex i to host vertex map[i]."""

    map: tuple[int, ...]
    candidate_trace: Optional[tuple[tuple[int, ...], ...]] = None


def embedding_valid(h: Graph | Digraph, g: Graph | Digraph,
                    mapping: Sequence[int]) -> bool:
    if len(mapping) != h.n or len(set(mapping)) != h.n:
        return False
    for u in range(h.n):
        for v in bits(h.rows[u]):
            if not g.has_edge(mapping[u], mapping[v]):
                return False
    return True


def blow_up(r: Graph, s: int) -> Graph:
    """Replace each vertex by s vertices and each edge by a complete bipartite graph."""
    if s < 1:
        raise GraphError("blow-up factor must be >= 1")
    n = r.n * s
    rows = [0] * n
    for u in range(r.n):
        row = 0
        for v in bits(r.rows[u]):
            row |= ((1 << s) - 1) << (v * s)
        for t in range(s):
            rows[u * s + t] = row
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# subgraph oracle
# ---------------------------------------------------------------------------

def _pattern_order(h: Graph | Digraph) -> list[int]:
    """Connected-first ordering: highest degree first, then most-anchored."""
    directed = isinstance(h, Digraph)

    def deg(v: int) -> int:
        if directed:
            return popcount(h.rows[v]) + popcount(h.in_rows[v])
        return popcount(h.rows[v])

    order: list[int] = []
    placed = 0
    while len(order) < h.n:
        best = None
        for v in range(h.n):
            if placed >> v & 1:
                continue
            if directed:
                anchored = popcount((h.rows[v] | h.in_rows[v]) & placed)
            else:
                anchored = popcount(h.rows[v] & placed)
            key = (anchored, deg(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    return order


def subgraph_oracle(h: Graph | Digraph, g: Graph | Digraph,
                    cap: int = SUBGRAPH_CAP) -> Optional[Embedding]:
    """Exact subgraph containment by backtracking with degree pruning.

    Non-induced: every edge of h must map to an edge of g, non-edges are
    unconstrained.  None means no embedding exists.
    """
    if isinstance(h, Digraph) is not isinstance(g, Digraph):
        raise GraphError("pattern and host must be the same kind")
    if h.n > g.n:
        return None
    if h.n > cap:
        raise CapExceeded(f"pattern order {h.n} exceeds cap {cap}")
    directed = isinstance(h, Digraph)
    order = _pattern_order(h)
    pos_of = {u: i for i, u in enumerate(order)}
    # constraints[i]: list of (earlier position, forward?) adjacency demands
    constraints: list[list[tuple[int, bool]]] = [[] for _ in range(h.n)]
    for u in range(h.n):
        for v in bits(h.rows[u]):
            pu, pv = pos_of[u], pos_of[v]
            if pu < pv:
                constraints[pv].append((pu, True))
            else:
                constraints[pu].append((pv, False))

    assignment = [-1] * h.n

    def candidates(i: int, used: int) -> Iterator[int]:
        u = order[i]
        for v in range(g.n):
            if used >> v & 1:
                continue
            if directed:
                if (popcount(g.rows[v]) < popcount(h.rows[u])
                        or popcount(g.in_rows[v]) < popcount(h.in_rows[u])):
                    continue
            elif popcount(g.rows[v]) < popcount(h.rows[u]):
                continue
            for (j, forward) in constraints[i]:
                w = assignment[j]
                if not (g.has_edge(w, v) if forward else g.has_edge(v, w)):
                    break
            else:
                yield v

    def rec(i: int, used: int) -> bool:
        if i == h.n:
            return True
        for v in candidates(i, used):
            assignment[i] = v
            if rec(i + 1, used | (1 << v)):
                return True
        assignment[i] = -1
        return False

    if not rec(0, 0):
        return None
    mapping = [0] * h.n
    for i, u in enumerate(order):
        mapping[u] = assignment[i]
    emb = Embedding(tuple(mapping))
    assert embedding_valid(h, g, emb.map)
    return emb


# ---------------------------------------------------------------------------
# Key-Lemma greedy embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedyEmbedFailure:
    step: int
    candidate_sizes: tuple[int, ...]


def greedy_embed(h: Graph, g: Graph, reduced: ReducedGraph,
                 sigma: Sequence[int], s: int
                 ) -> Union[Embedding, GreedyEmbedFailure]:
    """Embed h into g along a cluster assignment, Key-Lemma style.

    sigma places at most s pattern vertices in each cluster and must respect
    adjacency of the reduced graph.  Pattern vertices are embedded in index
    order; the chosen image always keeps every unembedded neighbour's
    candidate set at a (d - eps) fraction of its former size.  Failure (a
    possibility at desk scale) reports the stuck step and candidate sizes.
    """
    eps, d = reduced.epsilon, reduced.d
    clusters = reduced.clusters
    if len(sigma) != h.n:
        raise GraphError("sigma must assign every pattern vertex")
    if any(not 0 <= c < len(clusters) for c in sigma):
        raise GraphError("sigma assigns an unknown cluster")
    delta = max(1, h.max_degree())
    sizes = {popcount(c) for c in clusters}
    if len(sizes) != 1:
        raise GraphError("clusters must have equal size")
    m = sizes.pop()
    if Fraction(m) < Fraction(2 * s) / d ** delta:
        raise GraphError(f"cluster size m={m} below 2s/d^Delta")
    if (d - eps) ** delta - delta * eps < d ** delta / 2:
        raise GraphError("eps exceeds the eps_0 admissible for this (d, Delta)")
    per_cluster = [0] * len(clusters)
    for c in sigma:
        per_cluster[c] += 1
    if any(cnt > s for cnt in per_cluster):
        raise GraphError("sigma places more than s vertices in a cluster")
    for u in range(h.n):
        for v in bits(h.rows[u]):
            if u < v:
                if sigma[u] == sigma[v] or not reduced.r.has_edge(sigma[u], sigma[v]):
                    raise GraphError("sigma does not respect the blown-up reduced graph")

    candidate = [clusters[sigma[u]] for u in range(h.n)]
    images: list[int] = []
    used = 0
    trace: list[tuple[int, ...]] = []
    for j in range(h.n):
        future = [i for i in bits(h.rows[j]) if i > j]
        chosen = -1
        for v in bits(candidate[j] & ~used):
            ok = True
            for i in future:
                kept = popcount(candidate[i] & g.rows[v])
                if Fraction(kept) < (d - eps) * popcount(candidate[i]):
                    ok = False
                    break
            if ok:
                chosen = v
                break
        if chosen < 0:
            return GreedyEmbedFailure(j, tuple(popcount(c) for c in candidate))
        images.append(chosen)
        used |= 1 << chosen
        for i in future:
            candidate[i] &= g.rows[chosen]
        trace.append(tuple(popcount(c) for c in candidate))
    emb = Embedding(tuple(images), tuple(trace))
    assert embedding_valid(h, g, emb.map)
    return emb


# ---------------------------------------------------------------------------
# extremal numbers
# ---------------------------------------------------------------------------

def _is_h_free(h: Graph):
    def pred(g: Graph) -> bool:
        if g.n < h.n:
            return True
        return subgraph_oracle(h, g) is None
    return pred


def extremal_graphs(n: int, h: Graph,
                    cap: int = EXTREMAL_CAP) -> tuple[int, list[Graph]]:
    """ex(n, H) together with every extremal graph, up to isomorphism."""
    if n > cap:
        raise CapExceeded(f"n={n} exceeds extremal enumeration cap {cap}")
    if h.edge_count == 0:
        raise GraphError("H must have at least one edge")
    free = enumerate_graphs(n, hereditary=_is_h_free(h))
    best = max(g.edge_count for g in free)
    return best, [g for g in free if g.edge_count == best]


def extremal_number(n: int, h: Graph,
                    cap: int = EXTREMAL_CAP) -> tuple[int, Graph]:
    """ex(n, H) = max edges of an n-vertex graph with no H subgraph, plus a witness."""
    value, witnesses = extremal_graphs(n, h, cap)
    return value, witnesses[0]


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound (small graphs only)."""
    n = g.n
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: -popcount(g.rows[v]))
    best = n
    colours = [-1] * n

    def rec(i: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == n:
            best = used
            return
        v = order[i]
        taken = 0
        for u in bits(g.rows[v]):
            if colours[u] >= 0:
                taken |= 1 << colours[u]
        for c in range(used):
            if not taken >> c & 1:
                colours[v] = c
                rec(i + 1, used)
                colours[v] = -1
        colours[v] = used
        rec(i + 1, used + 1)
        colours[v] = -1

    rec(0, 0)
    return best


# ---------------------------------------------------------------------------
# Ramsey oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamseyResult:
    value: Optional[int]          # R(H) when found within the search bound
    witness_n: int                # largest n with an avoiding colouring seen
    witness_red: tuple[tuple[int, int], ...]  # red edges of that colouring
    searched_to: int


def _mono_through(h: Graph, rows: list[int], u: int, v: int, nverts: int) -> bool:
    """Does the graph given by ``rows`` contain h using the edge uv?"""
    hn = h.n
    for (a, b) in [(a, b) for a in range(hn) for b in bits(h.rows[a]) if a < b]:
        for (iu, iv) in ((u, v), (v, u)):
            assignment = {a: iu, b: iv}
            if _extend_mono(h, rows, assignment, nverts):
                return True
    return False


def _extend_mono(h: Graph, rows: list[int], assignment: dict, nverts: int) -> bool:
    if len(assignment) == h.n:
        return True
    # next pattern vertex adjacent to an assigned one, else any unassigned
    unassigned = [x for x in range(h.n) if x not in assignment]
    nxt = None
    for x in unassigned:
        if any(w in assignment for w in bits(h.rows[x])):
            nxt = x
            break
    if nxt is None:
        nxt = unassigned[0]
    used = set(assignment.values())
    for cand in range(nverts):
        if cand in used:
            continue
        ok = True
        for w in bits(h.rows[nxt]):
            if w in assignment and not rows[assignment[w]] >> cand & 1:
                ok = False
                break
        if ok:
            assignment[nxt] = cand
            if _extend_mono(h, rows, assignment, nverts):
                return True
            del assignment[nxt]
    return False


def ramsey_oracle(h: Graph, n_max: int = RAMSEY_CAP) -> RamseyResult:
    """Smallest n <= n_max forcing a monochromatic H in every 2-colouring.

    Searches avoiding colourings by backtracking over the edges of K_n,
    pruning as soon as a monochromatic copy closes; the first edge is fixed
    red by the colour-swap symmetry.  When no avoiding colouring exists the
    value n is forced; otherwise the last avoiding colouring is the
    lower-bound certificate.
    """
    if h.n == 0:
        raise GraphError("H must be nonempty")
    if h.edge_count == 0:
        value = h.n if h.n <= n_max else None
        return RamseyResult(value, 0, (), n_max)

    witness_n = 0
    witness_red: tuple[tuple[int, int], ...] = ()
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        red = [0] * n
        blue = [0] * n
        chosen: list[str] = []

        def try_colour(idx: int) -> bool:
            """True iff some complete avoiding colouring extends the prefix."""
            if idx == len(pairs):
                return True
            u, v = pairs[idx]
            palette = ("r",) if idx == 0 else ("r", "b")
            for colour in palette:
                rows = red if colour == "r" else blue
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                if not _mono_through(h, rows, u, v, n):
                    chosen.append(colour)
                    if try_colour(idx + 1):
                        return True
                    chosen.pop()
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
            return False

        if h.n > n:
            # H cannot even fit; every colouring avoids it.
            witness_n, witness_red = n, ()
            continue
        if try_colour(0):
            witness_n = n
            witness_red = tuple(p for p, c in zip(pairs, chosen) if c == "r")
        else:
            return RamseyResult(n, witness_n, witness_red, n)
    return RamseyResult(None, witness_n, witness_red, n_max)


# ---------------------------------------------------------------------------
# packings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackingResult:
    copies: tuple[tuple[int, ...], ...]
    perfect: bool


def _copies_through(f: Graph, g: Graph, allowed: int, v: int) -> Iterator[int]:
    """Vertex sets of F-copies inside ``allowed`` that contain v (deduplicated)."""
    seen: set[int] = set()
    order = _pattern_order(f)
    assignment = [-1] * f.n
    pos_of = {u: i for i, u in enumerate(order)}
    constraints: list[list[int]] = [[] for _ in range(f.n)]
    for u in range(f.n):
        for w in bits(f.rows[u]):
            pu, pw = pos_of[u], pos_of[w]
            if pu < pw:
                constraints[pw].append(pu)

    def rec(i: int, used: int) -> Iterator[int]:
        if i == f.n:
            if used >> v & 1 and used not in seen:
                seen.add(used)
                yield used
            return
        for cand in bits(allowed & ~used):
            ok = all(g.has_edge(assignment[j], cand) for j in constraints[i])
            if ok:
                assignment[i] = cand
                yield from rec(i + 1, used | (1 << cand))
                assignment[i] = -1

    yield from rec(0, 0)


def packing_oracle(g: Graph, f: Graph, cap: int = PACKING_CAP) -> PackingResult:
    """Exact search for a perfect F-packing (vertex-disjoint copies covering G).

    Requires |F| to divide |G|.  perfect=False only after the backtracking
    search exhausts every disjoint family.
    """
    if f.n == 0 or f.n > g.n:
        raise GraphError("F must be nonempty and no larger than G")
    if g.n % f.n != 0:
        raise GraphError("perfect packing needs |F| dividing |G|")
    if g.n > cap:
        raise CapExceeded(f"host order {g.n} exceeds packing cap {cap}")

    chosen: list[int] = []

    def rec(uncovered: int) -> bool:
        if uncovered == 0:
            return True
        v = (uncovered & -uncovered).bit_length() - 1
        for image in _copies_through(f, g, uncovered, v):
            chosen.append(image)
            if rec(uncovered & ~image):
                return True
            chosen.pop()
        return False

    if rec(full_mask(g.n)):
        copies = tuple(tuple(bits(m)) for m in chosen)
        return PackingResult(copies, True)
    return PackingResult((), False)
