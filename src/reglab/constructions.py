"""Generators for the named graph families, with their claimed properties audited.

Each constructor checks the structural facts the source results assert (degree
sequences, minimum semidegrees, class sizes) and raises if a parameter choice
cannot satisfy them, so a successfully returned object is already a small
certificate.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graphs import Digraph, Graph, GraphError, _check_order


def turan_graph(n: int, r: int) -> Graph:
    """Complete (r-1)-partite graph on n vertices with near-equal classes."""
    if r < 2:
        raise GraphError("Turan graph needs r >= 2")
    _check_order(n)
    parts = min(r - 1, max(n, 1))  # classes beyond n would all be empty
    base, extra = divmod(n, parts)
    sizes = [base + 1] * extra + [base] * (parts - extra)
    g = Graph.complete_multipartite([s for s in sizes if s > 0] or [0])
    if n == 0:
        return Graph.empty(0)
    assert max(sizes) - min(sizes) <= 1
    return g


def turan_count(n: int, r: int) -> int:
    """Number of edges of the Turan graph, checked against the closed form."""
    if r < 2:
        raise GraphError("Turan count needs r >= 2")
    if n < 0:
        raise GraphError("n must be nonnegative")
    parts = min(r - 1, max(n, 1))  # classes beyond n would all be empty
    base, extra = divmod(n, parts)
    count = (n * n - extra * (base + 1) ** 2 - (parts - extra) * base ** 2) // 2
    assert Fraction(count) <= Fraction(r - 2, r - 1) * n * n / 2
    return count


def chvatal_extremal(n: int, r: int) -> Graph:
    """The non-Hamiltonian graph showing the degree-sequence condition is sharp.

    Vertices 1..n (1-indexed as in the construction); i ~ j iff both exceed r,
    or i <= r and j >= n-r+1.  Degree sequence: r vertices of degree r, n-2r
    of degree n-r-1, r of degree n-1.
    """
    if not (1 <= r < Fraction(n, 2)):
        raise GraphError("chvatal_extremal needs 1 <= r < n/2")
    _check_order(n)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i >= r + 1 and j >= r + 1:
                edges.append((i - 1, j - 1))
            elif i <= r and j >= n - r + 1:
                edges.append((i - 1, j - 1))
    g = Graph.from_edges(n, edges)
    seq = g.degree_sequence()
    expected = tuple(sorted([r] * r + [n - r - 1] * (n - 2 * r) + [n - 1] * r))
    assert seq == expected, f"degree sequence audit failed: {seq} != {expected}"
    return g


def regular_tournament(m: int) -> Digraph:
    """Rotational tournament: i -> j iff (j - i) mod m lies in 1..(m-1)/2."""
    if m < 1 or m % 2 == 0:
        raise GraphError("regular tournaments need odd m")
    _check_order(m)
    half = (m - 1) // 2
    edges = [(i, (i + k) % m) for i in range(m) for k in range(1, half + 1)]
    t = Digraph.from_edges(m, edges)
    assert all(t.out_degree(v) == half and t.in_degree(v) == half for v in range(m))
    return t


def _near_regular_bipartite_orientation(b_ids: list[int], d_ids: list[int]) -> list[tuple[int, int]]:
    """Orient all B x D pairs so every vertex's in/out degrees differ by <= 1.

    Parity rule: the edge between the i-th of B and the j-th of D points
    B -> D iff i + j is even.
    """
    edges = []
    for i, b in enumerate(b_ids):
        for j, d in enumerate(d_ids):
            if (i + j) % 2 == 0:
                edges.append((b, d))
            else:
                edges.append((d, b))
    return edges


def haggkvist_graph(m: int) -> Digraph:
    """Haggkvist's oriented graph on n = 4m+3 vertices with no 1-factor.

    Regular tournaments A and C of size m, independent sets B (m+2) and
    D (m+1), complete interfaces A->B->C->D->A, and a near-regular B/D
    orientation.  Minimum semidegree (3n-5)/8, yet every cycle through B must
    spend a D vertex per B visit and |B| > |D|.
    """
    if m < 1 or m % 2 == 0:
        raise GraphError("haggkvist_graph needs odd m")
    n = 4 * m + 3
    _check_order(n)
    a_ids = list(range(0, m))
    b_ids = list(range(m, 2 * m + 2))
    c_ids = list(range(2 * m + 2, 3 * m + 2))
    d_ids = list(range(3 * m + 2, n))
    edges = []
    half = (m - 1) // 2
    for base in (a_ids, c_ids):
        for i in range(m):
            for k in range(1, half + 1):
                edges.append((base[i], base[(i + k) % m]))
    edges += [(a, b) for a in a_ids for b in b_ids]
    edges += [(b, c) for b in b_ids for c in c_ids]
    edges += [(c, d) for c in c_ids for d in d_ids]
    edges += [(d, a) for d in d_ids for a in a_ids]
    edges += _near_regular_bipartite_orientation(b_ids, d_ids)
    g = Digraph.from_edges(n, edges)
    expected = (3 * n - 5) // 8
    assert (3 * n - 5) % 8 == 0 and g.min_semidegree() == expected, \
        f"semidegree audit failed: {g.min_semidegree()} != (3n-5)/8 = {expected}"
    assert g.is_oriented()
    return g


def antidirected_counterexample(m: int) -> Digraph:
    """Oriented graph on n = 8m+4 vertices with delta^0 = (3n-4)/8 and no
    anti-directed Hamilton cycle.

    Same four-block shape as the Haggkvist graph but with all blocks of size
    2m+1; every anti-directed path from B avoids A or avoids C.
    """
    if m < 1:
        raise GraphError("antidirected_counterexample needs m >= 1")
    s = 2 * m + 1
    n = 8 * m + 4
    _check_order(n)
    a_ids = list(range(0, s))
    b_ids = list(range(s, 2 * s))
    c_ids = list(range(2 * s, 3 * s))
    d_ids = list(range(3 * s, n))
    edges = []
    for base in (a_ids, c_ids):
        for i in range(s):
            for k in range(1, m + 1):
                edges.append((base[i], base[(i + k) % s]))
    edges += [(a, b) for a in a_ids for b in b_ids]
    edges += [(b, c) for b in b_ids for c in c_ids]
    edges += [(c, d) for c in c_ids for d in d_ids]
    edges += [(d, a) for d in d_ids for a in a_ids]
    edges += _near_regular_bipartite_orientation(b_ids, d_ids)
    g = Digraph.from_edges(n, edges)
    assert g.min_semidegree() == 3 * m + 1 == (3 * n - 4) // 8
    assert g.is_oriented()
    return g


def c6_sharpness_graph(n: int) -> Graph:
    """Disjoint K_{n/2+1} and K_{n/2-1}: min degree n/2-2, no perfect C6-packing."""
    if n % 6 != 0:
        raise GraphError("c6_sharpness_graph needs 6 | n")
    _check_order(n)
    big = n // 2 + 1
    edges = [(i, j) for i in range(big) for j in range(i + 1, big)]
    edges += [(i, j) for i in range(big, n) for j in range(i + 1, n)]
    g = Graph.from_edges(n, edges)
    assert g.min_degree() == n // 2 - 2
    return g


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n,p) with independent edge coins from random.Random(seed)."""
    if not 0 <= p <= 1:
        raise GraphError("p must lie in [0,1]")
    _check_order(n)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """D(n,p): each ordered pair is an arc independently with probability p."""
    if not 0 <= p <= 1:
        raise GraphError("p must lie in [0,1]")
    _check_order(n)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Digraph.from_edges(n, edges)


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Random bipartite graph on sides 0..a-1 and a..a+b-1."""
    if not 0 <= p <= 1:
        raise GraphError("p must lie in [0,1]")
    _check_order(a + b)
    rng = random.Random(seed)
    edges = [(u, a + v) for u in range(a) for v in range(b)
             if rng.random() < p]
    return Graph.from_edges(a + b, edges)


def random_tournament(n: int, seed: int) -> Digraph:
    """Uniformly random tournament (every pair flips one coin)."""
    _check_order(n)
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph.from_edges(n, edges)


def half_graph(k: int) -> Graph:
    """Bipartite half graph: a_i ~ b_j iff i <= j; the classic irregular pair."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    return Graph.from_edges(2 * k, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)
