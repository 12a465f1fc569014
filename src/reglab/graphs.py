"""Dense bit-set graphs and digraphs with exact rational arithmetic.

Vertices are the integers ``0 .. n-1``.  Vertex sets are plain Python ints
used as bit-sets, so neighbourhood algebra is bitwise and subset enumeration
is cheap.  Densities and all epsilon/d thresholds are ``fractions.Fraction``
values; comparisons are exact (no float rounding anywhere in a verdict).

Both graph kinds are immutable after construction and all operations here are
pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Sequence, TypeVar, Union

#: Hard cap on graph order.  Everything in this package is desk-scale; the
#: cap mostly guards against accidentally huge bit-set allocations.
MAX_VERTICES = 4096

RationalLike = Union[int, str, Fraction, float]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Floats are interpreted through their shortest decimal representation
    (``0.45`` becomes 9/20, not the binary float it rounds to), which is what
    a human writing ``eps=0.45`` means.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def least_count_at_least(threshold: Fraction) -> int:
    """Smallest integer c with c >= threshold (used for ``|X| >= eps|A|``)."""
    return max(0, frac_ceil(threshold))


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


class GraphError(ValueError):
    """Domain error for graph construction or operation preconditions."""


def _check_order(n: int) -> None:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds cap {MAX_VERTICES}")


_G = TypeVar("_G", bound="_BitRows")


@dataclass(frozen=True)
class _BitRows:
    """Rows as neighbour bit-sets over vertices 0..n-1: the plumbing Graph and
    Digraph share.  Subclasses stay distinct types, so a Graph never equals a
    Digraph with the same rows."""

    n: int
    rows: tuple[int, ...]

    #: rows must be symmetric, and ``from_edges`` adds each edge both ways
    _symmetric: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _check_order(self.n)
        if len(self.rows) != self.n:
            raise GraphError("row count does not match vertex count")
        fm = full_mask(self.n)
        for u, row in enumerate(self.rows):
            if row & ~fm:
                raise GraphError(f"row {u} mentions vertices outside 0..n-1")
            if row >> u & 1:
                raise GraphError(f"loop at vertex {u}")
        if self._symmetric:
            for u in range(self.n):
                for v in bits(self.rows[u]):
                    if not self.rows[v] >> u & 1:
                        raise GraphError(f"adjacency not symmetric at ({u},{v})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls: type[_G], n: int, edges: Iterable[tuple[int, int]]) -> _G:
        _check_order(n)  # before allocating n rows
        rows = [0] * n
        symmetric = cls._symmetric
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            if symmetric:
                rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls: type[_G], n: int) -> _G:
        _check_order(n)
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls: type[_G], n: int) -> _G:
        _check_order(n)
        fm = full_mask(n)
        return cls(n, tuple(fm ^ (1 << v) for v in range(n)))

    # -- accessors ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def vertices_mask(self) -> int:
        return full_mask(self.n)

    # -- operations --------------------------------------------------------

    def induced(self: _G, subset: int) -> tuple[_G, tuple[int, ...]]:
        """Induced subgraph on the bit-set ``subset``, relabelled 0..|S|-1.

        Returns the subgraph together with the label map: entry i is the
        original vertex now called i.
        """
        labels = tuple(bits(subset))
        if not labels:
            raise GraphError("induced subgraph of empty set")
        index = {v: i for i, v in enumerate(labels)}
        rows = []
        for v in labels:
            row = 0
            for w in bits(self.rows[v] & subset):
                row |= 1 << index[w]
            rows.append(row)
        return type(self)(len(labels), tuple(rows)), labels

    def relabel(self: _G, perm: Sequence[int]) -> _G:
        """Image under ``perm`` (old vertex v becomes perm[v])."""
        rows = [0] * self.n
        for u in range(self.n):
            for v in bits(self.rows[u]):
                rows[perm[u]] |= 1 << perm[v]
        return type(self)(self.n, tuple(rows))


class Graph(_BitRows):
    """Undirected simple graph over vertices 0..n-1, rows as neighbour bit-sets."""

    _symmetric = True

    # -- constructors ------------------------------------------------------

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        _check_order(n)
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        _check_order(n)
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        _check_order(a + b)
        left = mask_of(range(a))
        right = mask_of(range(a, a + b))
        rows = [right] * a + [left] * b
        return cls(a + b, tuple(rows))

    @classmethod
    def complete_multipartite(cls, sizes: Sequence[int]) -> "Graph":
        n = sum(sizes)
        _check_order(n)
        fm = full_mask(n)
        rows = []
        start = 0
        for s in sizes:
            cls_mask = mask_of(range(start, start + s))
            rows.extend([fm ^ cls_mask] * s)
            start += s
        return cls(n, tuple(rows))

    # -- accessors ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return popcount(self.rows[v])

    @cached_property
    def edge_count(self) -> int:
        return sum(popcount(r) for r in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(popcount(r) for r in self.rows))

    def min_degree(self) -> int:
        return min((popcount(r) for r in self.rows), default=0)

    def max_degree(self) -> int:
        return max((popcount(r) for r in self.rows), default=0)

    # -- operations --------------------------------------------------------

    def complement(self) -> "Graph":
        fm = full_mask(self.n)
        return Graph(self.n, tuple((fm ^ r) & ~(1 << v) for v, r in enumerate(self.rows)))

    def add_vertex(self, neighbours: int) -> "Graph":
        """New graph with vertex n joined to the bit-set ``neighbours``."""
        rows = [r | ((neighbours >> v & 1) << self.n) for v, r in enumerate(self.rows)]
        rows.append(neighbours)
        return Graph(self.n + 1, tuple(rows))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == full_mask(self.n)


class Digraph(_BitRows):
    """Directed simple graph; ``rows[u]`` is the out-neighbourhood bit-set."""

    # -- constructors ------------------------------------------------------

    @classmethod
    def directed_cycle(cls, n: int) -> "Digraph":
        if n < 2:
            raise GraphError("directed cycle needs at least 2 vertices")
        _check_order(n)
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    # -- accessors ---------------------------------------------------------

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for u in range(self.n):
            for v in bits(self.rows[u]):
                rows[v] |= 1 << u
        return tuple(rows)

    def out_degree(self, v: int) -> int:
        return popcount(self.rows[v])

    def in_degree(self, v: int) -> int:
        return popcount(self.in_rows[v])

    @cached_property
    def edge_count(self) -> int:
        return sum(popcount(r) for r in self.rows)

    def degree_sequences(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        out = tuple(sorted(popcount(r) for r in self.rows))
        inn = tuple(sorted(popcount(r) for r in self.in_rows))
        return out, inn

    def min_semidegree(self) -> int:
        if self.n == 0:
            return 0
        return min(min(popcount(r) for r in self.rows),
                   min(popcount(r) for r in self.in_rows))

    def is_oriented(self) -> bool:
        """True iff no 2-cycles, i.e. the digraph orients a simple graph."""
        return all(not (self.rows[u] >> v & 1 and self.rows[v] >> u & 1)
                   for u in range(self.n) for v in bits(self.rows[u]))

    def two_cycle_free_rows(self) -> tuple[int, ...]:
        """Out-rows with both arcs of every 2-cycle dropped (oriented restriction)."""
        return tuple(self.rows[u] & ~mask_of(
            v for v in bits(self.rows[u]) if self.rows[v] >> u & 1)
            for u in range(self.n))

    # -- operations --------------------------------------------------------

    def add_vertex(self, out_mask: int, in_mask: int) -> "Digraph":
        rows = [r | ((in_mask >> v & 1) << self.n) for v, r in enumerate(self.rows)]
        rows.append(out_mask)
        return Digraph(self.n + 1, tuple(rows))

    def reverse(self) -> "Digraph":
        return Digraph(self.n, self.in_rows)

    def underlying_graph(self) -> Graph:
        rows = tuple(self.rows[v] | self.in_rows[v] for v in range(self.n))
        return Graph(self.n, rows)


AnyGraph = Union[Graph, Digraph]


def edges_between(g: AnyGraph, a: int, b: int) -> int:
    """Number of edges from the bit-set ``a`` to the bit-set ``b``.

    For a Graph this counts unordered edges with one end in each set (a, b
    disjoint); for a Digraph it counts arcs directed from ``a`` into ``b``.
    """
    return sum(popcount(g.rows[v] & b) for v in bits(a))


def density(g: AnyGraph, a: int, b: int) -> Fraction:
    """d(A,B) = e(A,B) / (|A||B|) as an exact rational.

    A and B must be nonempty and disjoint.  For digraphs only arcs directed
    from A to B are counted.
    """
    ca, cb = popcount(a), popcount(b)
    if ca == 0 or cb == 0:
        raise GraphError("density needs nonempty sides")
    if a & b:
        raise GraphError("density needs disjoint sides")
    if a | b != (a | b) & full_mask(g.n):
        raise GraphError("vertex sets outside host range")
    return Fraction(edges_between(g, a, b), ca * cb)


def degree_sequences(g: AnyGraph):
    """Sorted degree data: one list for graphs, (out, in) pair for digraphs."""
    if isinstance(g, Digraph):
        return g.degree_sequences()
    return g.degree_sequence()
