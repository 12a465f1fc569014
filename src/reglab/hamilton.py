"""Hamiltonicity: degree-sequence certifiers, exact oracles, matchings,
1-factors, and the rotation-extension construction for dense digraphs.

The oracles are exhaustive backtracking searches with sound pruning only, so
"none" answers are proofs at the instance scale.  The digraph oracle begins
with a 1-factor feasibility check (a Hamilton cycle is a 1-factor), which is
what makes bottleneck constructions like the Haggkvist graph cheap to refute:
the Hall violator of the auxiliary bipartite graph is returned as the reason.

Certifiers are sound but not complete, and say so: C_5 fails Dirac yet is
Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import (Digraph, Graph, GraphError, RationalLike, as_fraction,
                     bits, frac_floor, full_mask, mask_of, popcount)
from .regularity import CapExceeded

HAMILTON_CAP = 20
ORIENTED_CAP = 16

CERTIFICATE_KINDS = ("dirac", "posa", "chvatal", "ghouila_houri",
                     "nash_williams", "robdegseq")


@dataclass(frozen=True)
class Certificate:
    kind: str
    satisfied: bool
    failing_index: Optional[int] = None  # 1-based index into the degree sequence


def _normalise_kind(kind: str) -> str:
    k = kind.lower().replace("-", "_").replace(" ", "_")
    if k in ("ghouilahouri",):
        k = "ghouila_houri"
    if k in ("nashwilliams", "nash_williams_style", "nashwilliamsstyle"):
        k = "nash_williams"
    if k not in CERTIFICATE_KINDS:
        raise GraphError(f"unknown certificate kind {kind!r}")
    return k


def certify(g: Graph | Digraph, kind: str,
            eta: Optional[RationalLike] = None) -> Certificate:
    """Evaluate a sufficient Hamiltonicity condition exactly.

    Graph kinds: dirac, posa, chvatal.  Digraph kinds: ghouila_houri,
    nash_williams, robdegseq (the last takes the eta parameter).  All of
    these are sound, none complete.
    """
    k = _normalise_kind(kind)
    n = g.n
    if n < 3:
        raise GraphError("Hamiltonicity certificates need n >= 3")
    directed = isinstance(g, Digraph)
    if k in ("dirac", "posa", "chvatal") and directed:
        raise GraphError(f"{k} applies to undirected graphs")
    if k in ("ghouila_houri", "nash_williams", "robdegseq") and not directed:
        raise GraphError(f"{k} applies to digraphs")

    if k == "dirac":
        ok = Fraction(g.min_degree()) >= Fraction(n, 2)
        return Certificate(k, ok, None if ok else 1)

    if k == "posa":
        d = g.degree_sequence()
        i = 1
        while Fraction(i) < Fraction(n - 1, 2):
            if d[i - 1] < i + 1:
                return Certificate(k, False, i)
            i += 1
        if n % 2 == 1:
            half = (n + 1) // 2
            if d[half - 1] < half:
                return Certificate(k, False, half)
        return Certificate(k, True)

    if k == "chvatal":
        d = g.degree_sequence()
        i = 1
        while Fraction(i) < Fraction(n, 2):
            if not (d[i - 1] >= i + 1 or d[n - i - 1] >= n - i):
                return Certificate(k, False, i)
            i += 1
        return Certificate(k, True)

    if k == "ghouila_houri":
        ok = Fraction(g.min_semidegree()) >= Fraction(n, 2)
        return Certificate(k, ok, None if ok else 1)

    dplus, dminus = g.degree_sequences()

    if k == "nash_williams":
        i = 1
        while Fraction(i) < Fraction(n, 2):
            first = dplus[i - 1] >= i + 1 or dminus[n - i - 1] >= n - i
            second = dminus[i - 1] >= i + 1 or dplus[n - i - 1] >= n - i
            if not (first and second):
                return Certificate(k, False, i)
            i += 1
        return Certificate(k, True)

    # robdegseq
    if eta is None:
        raise GraphError("robdegseq needs the eta parameter")
    et = as_fraction(eta)
    if not 0 < et < 1:
        raise GraphError("eta must lie in (0,1)")
    shift = frac_floor(et * n)  # eta*n subscripts floor: sequences are integer-indexed

    def entry(seq: tuple[int, ...], idx: int) -> Optional[int]:
        return seq[idx - 1] if 1 <= idx <= n else None

    i = 1
    while Fraction(i) < Fraction(n, 2):
        lo_plus = Fraction(dplus[i - 1]) >= i + et * n
        hi_minus = entry(dminus, n - i - shift)
        lo_minus = Fraction(dminus[i - 1]) >= i + et * n
        hi_plus = entry(dplus, n - i - shift)
        first = lo_plus or (hi_minus is not None and hi_minus >= n - i)
        second = lo_minus or (hi_plus is not None and hi_plus >= n - i)
        if not (first and second):
            return Certificate(k, False, i)
        i += 1
    return Certificate(k, True)


# ---------------------------------------------------------------------------
# exact Hamilton oracles
# ---------------------------------------------------------------------------

def verify_hamilton_cycle(g: Graph | Digraph, order: Sequence[int]) -> bool:
    """Independent audit: ``order`` visits every vertex once and consecutive
    pairs (with wraparound) are edges, directed for digraphs."""
    n = g.n
    if len(order) != n or len(set(order)) != n:
        return False
    if any(not 0 <= v < n for v in order):
        return False
    return all(g.has_edge(order[i], order[(i + 1) % n]) for i in range(n))


def _reachable(rows: Sequence[int], start_mask: int, allowed: int) -> int:
    seen = start_mask & allowed
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def hamilton_oracle(g: Graph | Digraph,
                    cap: int = HAMILTON_CAP) -> Optional[tuple[int, ...]]:
    """Exhaustive Hamilton-cycle search; None is a proof of absence.

    Backtracking anchored at vertex 0 with sound pruning: degree and
    connectivity checks for graphs, and for digraphs a 1-factor (bipartite
    Hall) pre-check plus reachability pruning.
    """
    n = g.n
    if n > cap:
        raise CapExceeded(f"n={n} exceeds Hamilton oracle cap {cap}")
    directed = isinstance(g, Digraph)
    if directed:
        if n < 2:
            return None
        if one_factor(g).cycles is None:
            return None
        return _hamilton_digraph(g)
    if n < 3:
        return None
    if not g.is_connected() or g.min_degree() < 2:
        return None
    return _hamilton_graph(g)


def _hamilton_graph(g: Graph) -> Optional[tuple[int, ...]]:
    n = g.n
    rows = g.rows
    fm = full_mask(n)
    path = [0]

    def extend(visited: int) -> Optional[list[int]]:
        last = path[-1]
        if len(path) == n:
            return path[:] if rows[last] & 1 else None
        unvisited = fm & ~visited
        # every unvisited vertex still needs two contacts in the open pool
        pool = unvisited | (1 << last) | 1
        for v in bits(unvisited):
            avail = popcount(rows[v] & pool)
            if avail < 2:
                return None
        if _reachable(rows, 1 << last, unvisited | (1 << last)) != (
                unvisited | (1 << last)):
            return None
        for v in bits(rows[last] & unvisited):
            path.append(v)
            res = extend(visited | (1 << v))
            if res is not None:
                return res
            path.pop()
        return None

    res = extend(1)
    return tuple(res) if res is not None else None


def _hamilton_digraph(g: Digraph) -> Optional[tuple[int, ...]]:
    n = g.n
    out_rows, in_rows = g.rows, g.in_rows
    fm = full_mask(n)
    path = [0]

    def extend(visited: int) -> Optional[list[int]]:
        last = path[-1]
        if len(path) == n:
            return path[:] if out_rows[last] & 1 else None
        unvisited = fm & ~visited
        out_pool = unvisited | 1            # future successors
        in_pool = unvisited | (1 << last)   # future predecessors
        for v in bits(unvisited):
            if not out_rows[v] & (out_pool & ~(1 << v)):
                return None
            if not in_rows[v] & (in_pool & ~(1 << v)):
                return None
        if _reachable(out_rows, 1 << last, unvisited | (1 << last)) != (
                unvisited | (1 << last)):
            return None
        for v in bits(out_rows[last] & unvisited):
            path.append(v)
            res = extend(visited | (1 << v))
            if res is not None:
                return res
            path.pop()
        return None

    res = extend(1)
    return tuple(res) if res is not None else None


def hamilton_cycle_by_permutations(g: Graph | Digraph) -> Optional[tuple[int, ...]]:
    """Unpruned permutation-enumeration oracle (independent cross-check).

    Fixes vertex 0 first and tries orders depth-first with no pruning beyond
    edge existence.  Exponential; use only at n <= 10.
    """
    n = g.n
    directed = isinstance(g, Digraph)
    if n < (2 if directed else 3):
        return None
    order = [0]
    used = [False] * n
    used[0] = True

    def rec() -> bool:
        if len(order) == n:
            return g.has_edge(order[-1], 0)
        for v in range(1, n):
            if not used[v] and g.has_edge(order[-1], v):
                used[v] = True
                order.append(v)
                if rec():
                    return True
                order.pop()
                used[v] = False
        return False

    return tuple(order) if rec() else None


# ---------------------------------------------------------------------------
# oriented patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientedPattern:
    """Cyclic direction word over {f, b}: letter i orients the edge between
    cycle positions i and i+1 (f forwards, b backwards)."""

    word: str

    def __post_init__(self) -> None:
        if not self.word or any(c not in "fb" for c in self.word):
            raise GraphError("pattern must be a nonempty word over {f,b}")

    def __len__(self) -> int:
        return len(self.word)

    def rotations(self) -> list[str]:
        seen = []
        w = self.word
        for i in range(len(w)):
            r = w[i:] + w[:i]
            if r not in seen:
                seen.append(r)
        return seen

    def is_linear_alternating(self) -> bool:
        return all(self.word[i] != self.word[i + 1]
                   for i in range(len(self.word) - 1))

    def sink_count(self) -> int:
        w = self.word
        return sum(1 for i in range(len(w)) if w[i - 1] == "f" and w[i] == "b")

    def source_count(self) -> int:
        w = self.word
        return sum(1 for i in range(len(w)) if w[i - 1] == "b" and w[i] == "f")


@dataclass(frozen=True)
class OrientedHamiltonResult:
    cycle: Optional[tuple[int, ...]]
    status: str  # found | none | impossible

    @property
    def found(self) -> bool:
        return self.status == "found"


def verify_oriented_cycle(g: Digraph, order: Sequence[int], word: str) -> bool:
    n = g.n
    if len(order) != n or len(set(order)) != n or len(word) != n:
        return False
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if word[i] == "f":
            if not g.has_edge(u, v):
                return False
        else:
            if not g.has_edge(v, u):
                return False
    return True


def _slot_requirements(word: str, pos: int) -> str:
    """Cycle position type: through / sink / source, from its two edge letters."""
    before, after = word[pos - 1], word[pos]
    if before == "f" and after == "b":
        return "sink"
    if before == "b" and after == "f":
        return "source"
    return "through"


def oriented_hamilton_oracle(g: Digraph, pattern: OrientedPattern,
                             cap: int = ORIENTED_CAP) -> OrientedHamiltonResult:
    """Find a cyclic vertex order realising the direction word, or prove none.

    All rotations of the word are tried; reflections are not (direction words
    are chirality-sensitive).  An alternating word of odd length can never
    close into an anti-directed cycle and reports "impossible".
    """
    n = g.n
    if len(pattern) != n:
        raise GraphError("pattern length must equal the digraph order")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds oriented oracle cap {cap}")
    if n % 2 == 1 and n >= 2 and pattern.is_linear_alternating():
        return OrientedHamiltonResult(None, "impossible")
    out_rows, in_rows = g.rows, g.in_rows
    fm = full_mask(n)

    for word in pattern.rotations():
        # sink/source slots remaining at suffix positions, for pruning
        sink_suffix = [0] * (n + 1)
        source_suffix = [0] * (n + 1)
        for p in range(n - 1, 0, -1):
            t = _slot_requirements(word, p)
            sink_suffix[p] = sink_suffix[p + 1] + (t == "sink")
            source_suffix[p] = source_suffix[p + 1] + (t == "source")

        order = [0]

        def feasible(visited: int, pos: int) -> bool:
            unvisited = fm & ~visited
            last = order[-1]
            pool = unvisited | (1 << last) | 1
            sinks_needed = sink_suffix[pos] if pos < n else 0
            sources_needed = source_suffix[pos] if pos < n else 0
            sink_capable = source_capable = 0
            for v in bits(unvisited):
                pv = pool & ~(1 << v)
                ins = popcount(in_rows[v] & pv)
                outs = popcount(out_rows[v] & pv)
                if ins >= 2:
                    sink_capable += 1
                if outs >= 2:
                    source_capable += 1
                if not ((ins >= 2) or (outs >= 2) or (ins >= 1 and outs >= 1)):
                    return False
            return sink_capable >= sinks_needed and source_capable >= sources_needed

        def rec(visited: int, pos: int) -> bool:
            if pos == n:
                u = order[-1]
                return (g.has_edge(u, 0) if word[n - 1] == "f"
                        else g.has_edge(0, u))
            if not feasible(visited, pos):
                return False
            last = order[-1]
            cands = (out_rows[last] if word[pos - 1] == "f" else in_rows[last])
            for v in bits(cands & ~visited):
                order.append(v)
                if rec(visited | (1 << v), pos + 1):
                    return True
                order.pop()
            return False

        if rec(1, 1):
            cycle = tuple(order)
            assert verify_oriented_cycle(g, cycle, word)
            return OrientedHamiltonResult(cycle, "found")
    return OrientedHamiltonResult(None, "none")


def find_oriented_path(g: Digraph, x: int, y: int, word: str,
                       cap: int = ORIENTED_CAP) -> Optional[tuple[int, ...]]:
    """A path from x to y realising the direction word, by backtracking."""
    n = g.n
    if x == y:
        raise GraphError("endpoints must differ")
    if not word or any(c not in "fb" for c in word):
        raise GraphError("word must be nonempty over {f,b}")
    k = len(word)
    if k > n - 1:
        raise GraphError("word longer than any path")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds oriented path cap {cap}")
    out_rows, in_rows = g.rows, g.in_rows
    path = [x]

    def rec(visited: int, pos: int) -> bool:
        last = path[-1]
        cands = out_rows[last] if word[pos] == "f" else in_rows[last]
        if pos == k - 1:
            if cands >> y & 1 and not visited >> y & 1:
                path.append(y)
                return True
            return False
        for v in bits(cands & ~visited & ~(1 << y)):
            path.append(v)
            if rec(visited | (1 << v), pos + 1):
                return True
            path.pop()
        return False

    return tuple(path) if rec(1 << x, 0) else None


# ---------------------------------------------------------------------------
# neutral pairs
# ---------------------------------------------------------------------------

def neutral_pairs(g: Digraph) -> int:
    """Number of neutral pairs: unordered {x,z} plus y with arcs xy and zy.

    Counted on the oriented restriction (both arcs of a 2-cycle dropped);
    whether that restriction lost anything is visible via g.is_oriented().
    """
    rows = g.two_cycle_free_rows()
    indeg = [0] * g.n
    for u in range(g.n):
        for v in bits(rows[u]):
            indeg[v] += 1
    return sum(d * (d - 1) // 2 for d in indeg)


def neutral_pairs_cycle(pattern: OrientedPattern) -> int:
    """Neutral pairs of an oriented cycle word = number of sink positions."""
    return pattern.sink_count()


# ---------------------------------------------------------------------------
# matchings, 1-factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingResult:
    matching: tuple[int, ...]       # matching[a] = matched b or -1
    saturates: bool
    violator: Optional[int]         # Hall violator S (bit-set over A) if not


def bipartite_matching(adjacency: Sequence[int], b_size: int) -> MatchingResult:
    """Maximum matching by augmenting paths; Hall violator when A is unsaturated.

    ``adjacency[a]`` is the bit-set of B-side partners of a.  The violator is
    the set of A-vertices reachable from the unmatched ones by alternating
    paths; its neighbourhood is strictly smaller and is re-checkable.
    """
    a_size = len(adjacency)
    match_a = [-1] * a_size
    match_b = [-1] * b_size

    def augment(a: int, visited_b: list[bool]) -> bool:
        for b in bits(adjacency[a]):
            if not visited_b[b]:
                visited_b[b] = True
                if match_b[b] == -1 or augment(match_b[b], visited_b):
                    match_a[a] = b
                    match_b[b] = a
                    return True
        return False

    for a in range(a_size):
        augment(a, [False] * b_size)

    if all(m != -1 for m in match_a):
        return MatchingResult(tuple(match_a), True, None)

    # Alternating BFS from the unmatched A-vertices.
    s_mask = mask_of(a for a in range(a_size) if match_a[a] == -1)
    frontier = s_mask
    t_mask = 0
    while frontier:
        new_t = 0
        for a in bits(frontier):
            new_t |= adjacency[a]
        new_t &= ~t_mask
        t_mask |= new_t
        frontier = 0
        for b in bits(new_t):
            if match_b[b] != -1 and not s_mask >> match_b[b] & 1:
                frontier |= 1 << match_b[b]
        s_mask |= frontier
    nbhd = 0
    for a in bits(s_mask):
        nbhd |= adjacency[a]
    assert popcount(nbhd) < popcount(s_mask)
    return MatchingResult(tuple(match_a), False, s_mask)


@dataclass(frozen=True)
class OneFactorResult:
    cycles: Optional[tuple[tuple[int, ...], ...]]
    violator: Optional[int]


def one_factor(g: Digraph) -> OneFactorResult:
    """Spanning cycle cover via the auxiliary bipartite graph G*.

    A perfect matching of (V, V) with a->b iff arc ab exists is exactly a
    successor assignment, i.e. a 1-factor; a Hall violator certifies absence.
    """
    res = bipartite_matching(g.rows, g.n)
    if not res.saturates:
        return OneFactorResult(None, res.violator)
    succ = res.matching
    seen = [False] * g.n
    cycles = []
    for start in range(g.n):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = succ[v]
        cycles.append(tuple(cyc))
    return OneFactorResult(tuple(cycles), None)


# ---------------------------------------------------------------------------
# rotation-extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationExtensionResult:
    cycle: Optional[tuple[int, ...]]
    failed_step: Optional[str] = None
    detail: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.cycle is not None


def _cycle_path_from(cycle: tuple[int, ...], start: int) -> list[int]:
    i = cycle.index(start)
    return list(cycle[i:]) + list(cycle[:i])


def _close_path(g: Digraph, path: list[int]) -> Optional[list[int]]:
    """Rearrange ``path`` into a cycle on the same vertex set, if possible.

    Tries the direct closing edge, then single-crossing rotations (Case 1),
    then double rotations (Case 2), searching candidate sets exhaustively.
    """
    k = len(path) - 1
    start, end = path[0], path[-1]
    if g.has_edge(end, start):
        return path[:]
    pos = {v: i for i, v in enumerate(path)}
    a_positions = sorted(pos[v] for v in bits(g.rows[end]) if v in pos)
    b_positions = sorted(pos[v] for v in bits(g.in_rows[start]) if v in pos)

    # Case 1: u0..a-, b+..uk, a..b with one crossing edge a- -> b+.
    for pa in a_positions:
        if pa == 0:
            continue
        before = path[pa - 1]
        for pb in b_positions:
            if pb < pa or pb >= k:
                continue
            if g.has_edge(before, path[pb + 1]):
                return (path[:pa] + path[pb + 1:] + path[pa:pb + 1])

    # Case 2: double rotation through an early and a late segment.
    out_end_positions = a_positions
    for px in b_positions:
        if px < 1 or px + 2 > k:
            continue
        x_next = path[px + 1]
        i_cands = [i for i in range(px) if g.has_edge(path[i], x_next)]
        if not i_cands:
            continue
        i_plus_mask = mask_of(path[i + 1] for i in i_cands)
        for py in out_end_positions:
            if py < px + 2 or py >= k:
                continue
            y_prev = path[py - 1]
            for j in (pos[v] for v in bits(g.rows[y_prev]) if v in pos):
                if j <= py or j > k:
                    continue
                hit = g.rows[path[j - 1]] & i_plus_mask
                if hit:
                    target = min(bits(hit), key=lambda v: pos[v])
                    i = pos[target] - 1
                    return (path[:i + 1] + path[px + 1:py] + path[j:]
                            + path[py:j] + path[i + 1:px + 1])
    return None


def rotation_extension_hamilton(g: Digraph) -> RotationExtensionResult:
    """Best-effort Hamilton cycle by 1-factor, path extension, rotation and
    absorption; intended regime is dense superregular digraphs.

    Failure is a value: the report names the first step with no admissible
    edge.  Every returned cycle is audited before being returned.
    """
    n = g.n
    if n < 2:
        return RotationExtensionResult(None, "one_factor", "graph too small")
    factor = one_factor(g)
    if factor.cycles is None:
        return RotationExtensionResult(None, "one_factor",
                                       f"Hall violator {factor.violator:#x}")
    alive = {min(c): c for c in factor.cycles}
    cycle_of = {}
    for key, c in alive.items():
        for v in c:
            cycle_of[v] = key

    first = alive.pop(min(alive))
    path = _cycle_path_from(first, min(first))
    for v in first:
        del cycle_of[v]

    while True:
        # extend both ends while an outside neighbour exists
        extended = True
        while extended:
            extended = False
            on_path = mask_of(path)
            out_free = g.rows[path[-1]] & ~on_path
            if out_free:
                x = min(bits(out_free))
                cyc = alive.pop(cycle_of[x])
                seg = _cycle_path_from(cyc, x)
                for v in cyc:
                    del cycle_of[v]
                path = path + seg
                extended = True
                continue
            in_free = g.in_rows[path[0]] & ~on_path
            if in_free:
                x = min(bits(in_free))
                cyc = alive.pop(cycle_of[x])
                seg = _cycle_path_from(cyc, x)
                for v in cyc:
                    del cycle_of[v]
                path = seg[1:] + [seg[0]] + path
                extended = True

        closed = _close_path(g, path)
        if closed is None:
            return RotationExtensionResult(None, "close",
                                           f"path of length {len(path)} would not close")
        if len(closed) == n:
            cycle = tuple(closed)
            assert verify_hamilton_cycle(g, cycle)
            return RotationExtensionResult(cycle)

        # absorb another factor cycle through any edge into the current cycle
        on_cycle = mask_of(closed)
        cpos = {v: i for i, v in enumerate(closed)}
        absorbed = False
        for x in sorted(cycle_of):
            hit_out = g.rows[x] & on_cycle
            hit_in = g.in_rows[x] & on_cycle
            if not hit_out and not hit_in:
                continue
            cyc = alive.pop(cycle_of[x])
            for v in cyc:
                del cycle_of[v]
            cx = _cycle_path_from(cyc, x)
            if hit_out:
                y = min(bits(hit_out))
                main = closed[cpos[y]:] + closed[:cpos[y]]  # y .. y-
                path = cx[1:] + [x] + main
            else:
                y = min(bits(hit_in))
                main = closed[cpos[y] + 1:] + closed[:cpos[y] + 1]  # y+ .. y
                path = main + cx
            absorbed = True
            break
        if not absorbed:
            return RotationExtensionResult(None, "absorb",
                                           "no factor cycle touches the current cycle")
