"""Independent reference checks for the answers the benchmark times.

Every function here works on plain bit-set rows (``rows[u]`` is the
neighbour or out-neighbour set of ``u``) and shares no code with reglab, so a
defect in the library cannot hide in the check.  A check raises
``CheckFailed`` with a reason when an answer is wrong and returns None when
it holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations


class CheckFailed(Exception):
    """An answer disagreed with its independent reference."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def in_rows_of(rows) -> list[int]:
    inn = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in members(row):
            inn[v] |= 1 << u
    return inn


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def edge_count(rows, x: int, y: int) -> int:
    return sum((rows[v] & y).bit_count() for v in members(x))


def check_regularity_witness(rows, a: int, b: int, eps: Fraction,
                             x: int, y: int, deviation: Fraction) -> None:
    """A failing eps-regularity verdict: the witness really violates.

    The deviation is recomputed in exact rationals and the witness sizes are
    checked against eps|A| and eps|B|.
    """
    require(x != 0 and x & ~a == 0, "witness X is not a nonempty subset of A")
    require(y != 0 and y & ~b == 0, "witness Y is not a nonempty subset of B")
    require(Fraction(x.bit_count()) >= eps * a.bit_count(), "witness X undersized")
    require(Fraction(y.bit_count()) >= eps * b.bit_count(), "witness Y undersized")
    d_ab = Fraction(edge_count(rows, a, b), a.bit_count() * b.bit_count())
    d_xy = Fraction(edge_count(rows, x, y), x.bit_count() * y.bit_count())
    dev = abs(d_xy - d_ab)
    require(dev == deviation, f"reported deviation {deviation} != recomputed {dev}")
    require(dev >= eps, f"witness deviation {dev} below eps {eps}")


def lex_subsets(items: list[int]):
    """Nonempty subsets of ``items`` in sorted-member lexicographic order."""
    def rec(prefix: list[int], start: int):
        for i in range(start, len(items)):
            nxt = prefix + [items[i]]
            yield nxt
            yield from rec(nxt, i + 1)
    yield from rec([], 0)


def naive_pair_witness(rows, a: int, b: int, eps: Fraction):
    """Lex-least violating (X, Y) by a plain double-subset scan, or None.

    Intended for sides of at most 8 vertices: every qualifying X and every
    qualifying Y is tried, X first, in sorted-member lexicographic order.
    A pair violates when |e(X,Y)/(|X||Y|) - e(A,B)/(|A||B|)| >= eps, compared
    in integers.
    """
    a_list, b_list = members(a), members(b)
    den = len(a_list) * len(b_list)
    e_ab = edge_count(rows, a, b)
    p, q = eps.numerator, eps.denominator
    min_x = ceil_frac(eps * len(a_list))
    min_y = ceil_frac(eps * len(b_list))

    def first_y(degs, x_size):
        # DFS over Y in lex order, carrying e(X, Y) = sum of X-degrees over Y
        def rec(start, y, size, e):
            for j in range(start, len(b_list)):
                ny, ns, ne = y | 1 << b_list[j], size + 1, e + degs[j]
                if (ns >= min_y and abs(ne * den - e_ab * x_size * ns) * q
                        >= p * x_size * ns * den):
                    return ny
                hit = rec(j + 1, ny, ns, ne)
                if hit is not None:
                    return hit
            return None
        return rec(0, 0, 0, 0)

    for xs in lex_subsets(a_list):
        if len(xs) < min_x:
            continue
        x = sum(1 << v for v in xs)
        degs = [sum(rows[v] >> w & 1 for v in xs) for w in b_list]
        y = first_y(degs, len(xs))
        if y is not None:
            return x, y
    return None


def check_pair_verdict(rows, a: int, b: int, eps: Fraction, holds: bool,
                       witness) -> None:
    """Check an eps-regularity verdict.

    ``witness`` is (x, y, deviation) or None.  Failing verdicts always get the
    exact witness check; sides of at most 8 vertices also get the naive scan,
    which confirms the verdict and that the witness is the lex-least one.
    """
    if not holds:
        require(witness is not None, "failing verdict without a witness")
        check_regularity_witness(rows, a, b, eps, *witness)
    elif witness is not None:
        raise CheckFailed("holding verdict carries a witness")
    if a.bit_count() <= 8 and b.bit_count() <= 8:
        naive = naive_pair_witness(rows, a, b, eps)
        require((naive is None) == holds,
                f"verdict holds={holds} but naive scan says {naive is None}")
        if naive is not None:
            require(naive == tuple(witness[:2]),
                    "witness is not the lex-least violating pair")


# ---------------------------------------------------------------------------
# partitions and the degree form
# ---------------------------------------------------------------------------

def energy(rows, classes) -> Fraction:
    """Squared Frobenius norm of the block-mean projection."""
    total = Fraction(0)
    for ci in classes:
        for cj in classes:
            e = edge_count(rows, ci, cj)
            total += Fraction(e * e, ci.bit_count() * cj.bit_count())
    return total


def check_partition(rows, n: int, eps: Fraction, k0: int, classes,
                    exceptional: int, clusters, trace) -> None:
    """regularity_partition output: the classes cover V, |V0| <= eps*n, the
    clusters have equal size, and the energy trace starts at the energy of
    the k0 equal initial classes (plus leftover) and strictly increases."""
    union = 0
    for c in classes:
        require(c & union == 0, "partition classes overlap")
        union |= c
    require(union == (1 << n) - 1, "partition classes do not cover V")
    v0 = classes[exceptional]
    require(Fraction(v0.bit_count()) <= eps * n, "|V0| exceeds eps*n")
    require(len({c.bit_count() for c in clusters}) <= 1, "cluster sizes differ")
    require(all(c for c in clusters), "empty cluster")
    m0 = n // k0
    initial = [((1 << m0) - 1) << (i * m0) for i in range(k0)]
    if n % k0:
        initial.append(((1 << n) - 1) ^ ((1 << (m0 * k0)) - 1))
    require(len(trace) >= 1 and trace[0] == energy(rows, initial),
            "energy trace does not start at the initial partition's energy")
    require(all(b > a for a, b in zip(trace, trace[1:])),
            "energy trace does not increase")


def check_degree_form(rows, n: int, eps: Fraction, k0: int, pure_rows,
                      classes, exceptional: int, clusters, audit) -> None:
    """Re-derive degree-form audits (i) and (ii) and the pure-graph shape."""
    union = 0
    for c in classes:
        require(c & union == 0, "degree-form classes overlap")
        union |= c
    require(union == (1 << n) - 1, "degree-form classes do not cover V")
    v0 = classes[exceptional]
    audit_i = len(clusters) >= k0 and Fraction(v0.bit_count()) <= eps * n
    audit_ii = len({c.bit_count() for c in clusters}) <= 1
    require(audit.get("i") == audit_i, f"audit (i) reported {audit.get('i')}, "
            f"re-derived {audit_i}")
    require(audit.get("ii") == audit_ii, f"audit (ii) reported "
            f"{audit.get('ii')}, re-derived {audit_ii}")
    require(all(p & ~r == 0 for p, r in zip(pure_rows, rows)),
            "pure graph is not a subgraph of G")
    require(all(pure_rows[v] & c == 0 for c in clusters for v in members(c)),
            "a cluster is not independent in the pure graph")


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def robust_count(count_rows, s: int, threshold: int) -> int:
    return sum(1 for row in count_rows if (row & s).bit_count() >= threshold)


def expansion_violated(rows, inn, s: int, nu: Fraction, mode: str) -> bool:
    n = len(rows)
    thr = ceil_frac(nu * n)
    size = s.bit_count()
    if mode in ("out", "di") and Fraction(robust_count(inn, s, thr)) < size + nu * n:
        return True
    if mode in ("in", "di") and Fraction(robust_count(rows, s, thr)) < size + nu * n:
        return True
    return False


def in_window(n: int, tau: Fraction, size: int) -> bool:
    return tau * n < size < (1 - tau) * n


def brute_force_violator(rows, nu: Fraction, tau: Fraction, mode: str):
    """Lex-least violating S over every subset, or None (small n only)."""
    n = len(rows)
    inn = in_rows_of(rows)
    for ss in lex_subsets(list(range(n))):
        if not in_window(n, tau, len(ss)):
            continue
        s = sum(1 << v for v in ss)
        if expansion_violated(rows, inn, s, nu, mode):
            return s
    return None


def check_expander_verdict(rows, nu: Fraction, tau: Fraction, mode: str,
                           holds: bool, violator) -> None:
    """Violators are re-counted from the rows; at n <= 10 the verdict and the
    canonical violator are confirmed by brute force over all S."""
    n = len(rows)
    if not holds:
        require(violator is not None, "failing verdict without a violator")
        require(in_window(n, tau, violator.bit_count()), "violator outside size window")
        require(expansion_violated(rows, in_rows_of(rows), violator, nu, mode),
                "violator expands robustly")
    else:
        require(violator is None, "holding verdict carries a violator")
    if n <= 10:
        brute = brute_force_violator(rows, nu, tau, mode)
        require((brute is None) == holds,
                f"verdict holds={holds} but brute force says {brute is None}")
        if brute is not None:
            require(brute == violator, "violator is not the lex-least one")


# ---------------------------------------------------------------------------
# Hamilton cycles, 1-factors, Hall violators, walks
# ---------------------------------------------------------------------------

def check_hamilton_cycle(rows, cycle) -> None:
    n = len(rows)
    require(len(cycle) == n and set(cycle) == set(range(n)),
            "cycle does not visit every vertex exactly once")
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        require(rows[u] >> v & 1, f"cycle uses a missing arc {u}->{v}")


def check_oriented_cycle(rows, cycle, word: str) -> None:
    n = len(rows)
    require(len(cycle) == n and set(cycle) == set(range(n)),
            "cycle does not visit every vertex exactly once")
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        tail, head = (u, v) if word[i] == "f" else (v, u)
        require(rows[tail] >> head & 1, f"cycle uses a missing arc {tail}->{head}")


def check_one_factor(rows, cycles) -> None:
    seen = set()
    for cyc in cycles:
        for i, v in enumerate(cyc):
            require(v not in seen, f"vertex {v} covered twice")
            seen.add(v)
            w = cyc[(i + 1) % len(cyc)]
            require(v != w and rows[v] >> w & 1, f"1-factor uses a missing arc {v}->{w}")
    require(seen == set(range(len(rows))), "1-factor does not cover every vertex")


def check_hall_violator(rows, violator: int) -> None:
    require(violator != 0, "empty Hall violator")
    nbhd = 0
    for v in members(violator):
        nbhd |= rows[v]
    require(nbhd.bit_count() < violator.bit_count(), "Hall violator has |N(S)| >= |S|")


def hamilton_cycle_exists(rows, word: str | None = None) -> bool:
    """Plain backtracking over vertex orders from vertex 0 (small n only).

    Without ``word`` this looks for a directed Hamilton cycle; with it, for a
    cycle whose i-th edge runs forwards ('f') or backwards ('b').
    """
    n = len(rows)
    if word is not None:
        rotations = {word[i:] + word[:i] for i in range(n)}
    else:
        rotations = {"f" * n}

    def arc(w: str, i: int, u: int, v: int) -> bool:
        return bool(rows[u] >> v & 1) if w[i] == "f" else bool(rows[v] >> u & 1)

    for w in rotations:
        order = [0]

        def rec(used: int) -> bool:
            if len(order) == n:
                return arc(w, n - 1, order[-1], 0)
            for v in range(1, n):
                if not used >> v & 1 and arc(w, len(order) - 1, order[-1], v):
                    order.append(v)
                    if rec(used | 1 << v):
                        return True
                    order.pop()
            return False

        if rec(1):
            return True
    return False


def check_shifted_walks(rows, factor, walks) -> None:
    """Every walk is well formed and uses the minimum number of cycles.

    ``walks`` maps (a, b) to (entries, exits).  Minimality is checked against
    a breadth-first search over the hop graph x -> N+(pred(x)).
    """
    k = len(rows)
    pred = {}
    for cyc in factor:
        for i, v in enumerate(cyc):
            pred[cyc[(i + 1) % len(cyc)]] = v
    for a in range(k):
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for x in frontier:
                for y in members(rows[pred[x]]):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        for b in range(k):
            entries, exits = walks[(a, b)]
            require(entries[0] == a and entries[-1] == b, "walk endpoints wrong")
            require(len(entries) == len(exits) + 1, "walk entries/exits misaligned")
            for i, x in enumerate(entries[:-1]):
                require(exits[i] == pred[x], "walk exit is not the entry's predecessor")
                require(rows[exits[i]] >> entries[i + 1] & 1, "walk hop is not an arc")
            require(len(exits) == (0 if a == b else dist[b]),
                    f"walk {a}->{b} is not minimal")


# ---------------------------------------------------------------------------
# enumeration-backed constants
# ---------------------------------------------------------------------------

#: OEIS A000088 (graphs) and A000568 (tournaments) on n unlabelled vertices
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
TOURNAMENT_CLASSES = (1, 1, 1, 2, 4, 12, 56, 456, 6880)


def turan_edges(n: int, r: int) -> int:
    """Edges of the complete (r-1)-partite graph with near-equal classes."""
    parts = r - 1
    base, extra = divmod(n, parts)
    sizes = [base + 1] * extra + [base] * (parts - extra)
    return (n * n - sum(s * s for s in sizes)) // 2


def is_h_free(rows, h_rows) -> bool:
    """Plain search for a copy of the pattern ``h_rows`` in ``rows``."""
    n, hn = len(rows), len(h_rows)
    for image in combinations(range(n), hn):
        for perm in permutations(image):
            if all(rows[perm[u]] >> perm[v] & 1
                   for u in range(hn) for v in members(h_rows[u])):
                return False
    return True


def check_extremal(n: int, r: int, value: int, graphs) -> None:
    """ex(n, K_r) equals the Turan count and each witness is K_r-free with
    that many edges; the unique extremal graph is the Turan graph."""
    require(value == turan_edges(n, r), f"ex({n},K{r}) = {value}, Turan count "
            f"is {turan_edges(n, r)}")
    require(len(graphs) == 1, f"{len(graphs)} extremal graphs, expected 1")
    k_rows = [((1 << r) - 1) ^ (1 << v) for v in range(r)]
    for rows in graphs:
        require(sum(row.bit_count() for row in rows) // 2 == value,
                "extremal witness edge count differs from the value")
        require(is_h_free(rows, k_rows), f"extremal witness contains K{r}")


def check_ramsey_k3(value, witness_n: int, witness_red) -> None:
    """R(K3) = 6 and the certificate colours K5 without a monochromatic K3."""
    require(value == 6, f"R(K3) reported as {value}")
    require(witness_n == 5, f"certificate on K{witness_n}, expected K5")
    red = {tuple(sorted(e)) for e in witness_red}
    for tri in combinations(range(5), 3):
        colours = {tuple(sorted(p)) in red for p in combinations(tri, 2)}
        require(len(colours) == 2, f"certificate has a monochromatic triangle {tri}")


# ---------------------------------------------------------------------------
# degree-sequence certificates and packings
# ---------------------------------------------------------------------------

def chvatal_failing_index(rows):
    """First 1-based i < n/2 with d_i <= i and d_{n-i} < n-i, or None."""
    n = len(rows)
    d = sorted(row.bit_count() for row in rows)
    i = 1
    while 2 * i < n:
        if d[i - 1] <= i and d[n - i - 1] < n - i:
            return i
        i += 1
    return None


def components(rows) -> list[int]:
    seen, comps = 0, []
    for v in range(len(rows)):
        if seen >> v & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            for u in members(frontier):
                nxt |= rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(comp)
    return comps


def spans_cycle(rows, vertices: list[int]) -> bool:
    first, rest = vertices[0], vertices[1:]
    for perm in permutations(rest):
        order = [first, *perm]
        if all(rows[order[i]] >> order[(i + 1) % len(order)] & 1
               for i in range(len(order))):
            return True
    return False


def check_cycle_packing(rows, size: int, perfect: bool, copies) -> None:
    """A perfect C_size packing is a partition of V into vertex sets that each
    carry a spanning cycle.  "No packing" is confirmed when some connected
    component has an order that |C_size| does not divide."""
    n = len(rows)
    if perfect:
        covered = 0
        for copy in copies:
            mask = sum(1 << v for v in copy)
            require(len(copy) == size and mask & covered == 0,
                    "packing copies overlap or have the wrong size")
            covered |= mask
            require(spans_cycle(rows, list(copy)), f"copy {copy} carries no C{size}")
        require(covered == (1 << n) - 1, "packing does not cover V")
    else:
        require(any(c.bit_count() % size for c in components(rows)),
                "no packing reported, but every component order divides")
