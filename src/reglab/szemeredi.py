"""The Regularity Lemma as an executable energy-increment loop.

The potential driving everything is the squared Frobenius norm of the
block-mean projection of the adjacency matrix.  For a partition P it equals

    sum over ordered class pairs (I,J) of  e(I,J)^2 / (|I||J|)

with e(I,J) the number of ordered adjacent pairs (so diagonal blocks count
twice each internal edge).  All values are exact rationals: the increment
comparison against eps^5 n^2 / 4 decides loop termination and must never be
a float race.

``regularity_partition`` follows the textbook proof shape: refine a
not-yet-good partition along irregularity witnesses (energy boost), then
rebalance to near-equal classes, at most floor(4/eps^5) times.  Witness
search is exhaustive for classes within the cap and seeded-sampled above it;
a sampled "no witness found" is exactly the witness-absence criterion the
verdicts report.

The degree form runs the five-step cleanup (red irregular pairs, blue sparse
pairs with per-vertex marking, evictions at eps*n/10, internal deletions,
equalisation) and then audits its own five guarantees; the audit is part of
the returned value, not a side promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import (Digraph, Graph, GraphError, RationalLike, as_fraction,
                     bits, edges_between, frac_ceil, frac_floor, full_mask,
                     mask_of, popcount)
from .regularity import (DEFAULT_CAP, PairSpec, RegularityVerdict,
                         check_pair_regular, check_pair_superregular,
                         low_degree_vertices)


class InfeasibleError(GraphError):
    """A hypothesis fails at this desk scale (the guaranteed regime is tower-type)."""


@dataclass(frozen=True)
class Partition:
    """Ordered vertex classes; optionally a balancing subset and an exceptional class.

    Classes are disjoint bit-sets covering 0..n-1 and are nonempty, except
    that the designated exceptional class may be empty.  Balancing classes
    all have equal size.
    """

    n: int
    classes: tuple[int, ...]
    balancing: Optional[tuple[int, ...]] = None
    exceptional: Optional[int] = None

    def __post_init__(self) -> None:
        union = 0
        for idx, c in enumerate(self.classes):
            if c & union:
                raise GraphError("partition classes overlap")
            if c == 0 and idx != self.exceptional:
                raise GraphError("non-exceptional class is empty")
            union |= c
        if union != full_mask(self.n):
            raise GraphError("classes do not cover the vertex set")
        if self.balancing is not None:
            sizes = {popcount(self.classes[i]) for i in self.balancing}
            if len(sizes) > 1:
                raise GraphError("balancing classes must have equal size")
            if self.exceptional is not None and self.exceptional in self.balancing:
                raise GraphError("exceptional class cannot balance")

    def sizes(self) -> tuple[int, ...]:
        return tuple(popcount(c) for c in self.classes)

    def is_refinement_of(self, other: "Partition") -> bool:
        return all(any(c & ~o == 0 for o in other.classes) for c in self.classes)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple(1 << v for v in range(n)))

    @classmethod
    def single_class(cls, n: int) -> "Partition":
        return cls(n, (full_mask(n),))


@dataclass(frozen=True)
class EnergyReport:
    value: Fraction
    class_count: int
    block_densities: tuple[tuple[Fraction, ...], ...]


def _ordered_count(g: Graph, a: int, b: int) -> int:
    return sum(popcount(g.rows[v] & b) for v in bits(a))


def energy(g: Graph, p: Partition) -> EnergyReport:
    """Squared Frobenius norm of the block-mean projection, exactly."""
    if p.n != g.n:
        raise GraphError("partition is for a different vertex count")
    sizes = p.sizes()
    k = len(p.classes)
    value = Fraction(0)
    dens: list[tuple[Fraction, ...]] = []
    for i in range(k):
        row = []
        for j in range(k):
            e = _ordered_count(g, p.classes[i], p.classes[j])
            area = sizes[i] * sizes[j]
            row.append(Fraction(e, area))
            value += Fraction(e * e, area)
        dens.append(tuple(row))
    return EnergyReport(value, k, tuple(dens))


def balance_refine(p: Partition, epsilon: RationalLike, n: int) -> Partition:
    """Split every class into chunks of size ceil(eps n / |P|) plus one remainder.

    The chunked classes form the balancing subset; leftover vertices total at
    most eps n.  Requires |P| <= eps n (else the lemma hypothesis fails).
    """
    eps = as_fraction(epsilon)
    k = len(p.classes)
    if Fraction(k) > eps * n:
        raise InfeasibleError(f"balance_refine needs |P| <= eps*n, got {k} > {eps * n}")
    t = frac_ceil(eps * n / k)
    classes: list[int] = []
    balancing: list[int] = []
    for c in p.classes:
        members = list(bits(c))
        for start in range(0, len(members), t):
            chunk = members[start:start + t]
            idx = len(classes)
            classes.append(mask_of(chunk))
            if len(chunk) == t:
                balancing.append(idx)
    if len(classes) > (1 + 1 / eps) * k:
        raise AssertionError("refinement size bound violated")
    return Partition(p.n, tuple(classes), balancing=tuple(balancing))


WitnessTuple = tuple[int, int, int, int]  # (class i, class j, X mask, Y mask)


def witness_refine(g: Graph, p: Partition,
                   witnesses: Sequence[WitnessTuple]) -> Partition:
    """Refine P by the Venn atoms of the witness sets within each class.

    Witnesses must sit on pairwise distinct ordered class pairs with
    X inside class i and Y inside class j; the energy gain is then at least
    sum |X||Y| (d(X,Y) - d(I,J))^2, which is re-checked exactly.
    """
    seen_pairs = set()
    for (i, j, x, y) in witnesses:
        if not (0 <= i < len(p.classes) and 0 <= j < len(p.classes)) or i == j:
            raise GraphError("witness classes out of range")
        if (i, j) in seen_pairs:
            raise GraphError("witnesses must come from distinct class pairs")
        seen_pairs.add((i, j))
        if x == 0 or y == 0 or x & ~p.classes[i] or y & ~p.classes[j]:
            raise GraphError("witness sets must be nonempty subsets of their classes")
    if not witnesses:
        return p

    cuts: dict[int, list[int]] = {}
    for (i, j, x, y) in witnesses:
        cuts.setdefault(i, []).append(x)
        cuts.setdefault(j, []).append(y)

    new_classes: list[int] = []
    for idx, c in enumerate(p.classes):
        parts = [c]
        for cut in cuts.get(idx, ()):
            nxt = []
            for part in parts:
                inside = part & cut
                outside = part & ~cut
                if inside:
                    nxt.append(inside)
                if outside:
                    nxt.append(outside)
            parts = nxt
        parts.sort(key=lambda m: (m & -m).bit_length())
        new_classes.extend(parts)
    q = Partition(p.n, tuple(new_classes))

    gain = energy(g, q).value - energy(g, p).value
    bound = Fraction(0)
    for (i, j, x, y) in witnesses:
        dev = (Fraction(edges_between(g, x, y), popcount(x) * popcount(y))
               - Fraction(edges_between(g, p.classes[i], p.classes[j]),
                          popcount(p.classes[i]) * popcount(p.classes[j])))
        bound += popcount(x) * popcount(y) * dev * dev
    if gain < bound:
        raise AssertionError("energy gain fell below the witness bound")
    return q


@dataclass(frozen=True)
class RegularityPartitionResult:
    partition: Partition
    iterations: int
    energy_trace: tuple[Fraction, ...]
    seed: int
    sampled_pairs: int  # balancing pairs that needed sampled checking


def _check_pair(spec: PairSpec, cap: int, seed: int,
                superregular: bool = False) -> RegularityVerdict:
    """The one checking policy: exact within ``cap``, sampled beyond it.

    The checkers are looked up as module globals on every call, so a wrapper
    installed on this module's names sees each check.
    """
    check = check_pair_superregular if superregular else check_pair_regular
    sampled = max(popcount(spec.a), popcount(spec.b)) > cap
    return check(spec, cap=cap, sampled=sampled, seed=seed)


def _pair_witnesses(g: Graph, classes: tuple[int, ...], balancing: tuple[int, ...],
                    eps: Fraction, cap: int,
                    seed: int) -> tuple[list[WitnessTuple], int, int]:
    """Irregularity witnesses among balancing-class pairs; exhaustive within cap."""
    witnesses: list[WitnessTuple] = []
    irregular = 0
    sampled_used = 0
    for ai in range(len(balancing)):
        for bi in range(ai + 1, len(balancing)):
            i, j = balancing[ai], balancing[bi]
            verdict = _check_pair(PairSpec(g, classes[i], classes[j], eps), cap,
                                  seed ^ (i * 0x9E3779B1 + j))
            sampled_used += verdict.mode == "sampled"
            if not verdict.holds:
                irregular += 1
                w = verdict.witness
                witnesses.append((i, j, w.x, w.y))
    return witnesses, irregular, sampled_used


def regularity_partition(g: Graph, epsilon: RationalLike, k0: int,
                         cap: int = DEFAULT_CAP,
                         seed: int = 0) -> RegularityPartitionResult:
    """Run the energy-increment proof of the Regularity Lemma on ``g``.

    Returns an eps-regular partition (exceptional class at index 0, clusters
    after it) together with the iteration count and the exact energy trace.
    Raises InfeasibleError when the hypotheses cannot hold at this n: the
    initial leftover must fit in eps*n, and every rebalancing step needs
    |P| <= eps*n.
    """
    eps = as_fraction(epsilon)
    n = g.n
    if not (0 < eps):
        raise GraphError("epsilon must be positive")
    if k0 < 1 or k0 > n:
        raise InfeasibleError(f"need 1 <= k0 <= n, got k0={k0}, n={n}")
    if Fraction(n % k0) > eps * n:
        raise InfeasibleError("initial leftover class would exceed eps*n")

    leftover = n % k0
    m0 = n // k0
    main = [mask_of(range(i * m0, (i + 1) * m0)) for i in range(k0)]
    classes = list(main)
    if leftover:
        classes.append(mask_of(range(n - leftover, n)))
    p = Partition(n, tuple(classes), balancing=tuple(range(k0)))

    s_max = frac_floor(Fraction(4) / eps ** 5)
    increment = eps ** 5 * n * n / 4
    trace = [energy(g, p).value]
    iterations = 0
    sampled_total = 0

    while True:
        assert p.balancing is not None
        witnesses, irregular, sampled = _pair_witnesses(
            g, p.classes, p.balancing, eps, cap, seed)
        sampled_total += sampled
        c_len = len(p.balancing)
        if Fraction(irregular) <= eps * c_len * c_len:
            covered = 0
            for i in p.balancing:
                covered |= p.classes[i]
            v0 = full_mask(n) ^ covered
            out = [v0] + [p.classes[i] for i in p.balancing]
            final = Partition(n, tuple(out),
                              balancing=tuple(range(1, c_len + 1)),
                              exceptional=0)
            return RegularityPartitionResult(final, iterations, tuple(trace),
                                             seed, sampled_total)
        if iterations >= s_max:
            raise AssertionError("energy increment argument failed to terminate")
        q = witness_refine(g, p, witnesses)
        p = balance_refine(q, eps, n)
        iterations += 1
        e = energy(g, p).value
        if e <= trace[-1] + increment:
            raise AssertionError("boost iteration failed the eps^5 n^2/4 increment")
        trace.append(e)


# ---------------------------------------------------------------------------
# Degree form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeFormResult:
    pure_graph: Graph | Digraph
    partition: Partition
    audit: dict
    inner_epsilon: Fraction
    inner_k0: int
    used_fallback: bool


def _inner_constants(eps: Fraction, d: Fraction, k0: int) -> tuple[Fraction, int]:
    candidates = [eps / 40]
    if d > 0:
        candidates += [d / 10, eps * eps * d]
    eps_p = min(candidates)
    k0_p = max(k0, frac_ceil(Fraction(10) / eps))
    return eps_p, k0_p


def degree_form(g: Graph, epsilon: RationalLike, d: RationalLike, k0: int,
                cap: int = DEFAULT_CAP, seed: int = 0) -> DegreeFormResult:
    """Degree form of the Regularity Lemma: pure graph + partition + audit.

    Inner constants follow the documented materialisation eps' = min(eps/40,
    d/10, eps^2 d), k0' = max(k0, ceil(10/eps)); when that instantiation is
    infeasible at this n (the usual case at desk scale) the inner lemma is
    rerun with k0' = n, which always succeeds and still satisfies
    1/k0' << eps, d, 1/k0.
    """
    return _degree_form_impl(g, epsilon, d, k0, cap, seed, directed=False)


def degree_form_digraph(g: Digraph, epsilon: RationalLike, d: RationalLike,
                        k0: int, cap: int = DEFAULT_CAP,
                        seed: int = 0) -> DegreeFormResult:
    """Digraph analogue: the same five steps applied to ordered cluster pairs."""
    return _degree_form_impl(g, epsilon, d, k0, cap, seed, directed=True)


def _degree_form_impl(g, epsilon, d_val, k0, cap, seed, directed):
    eps = as_fraction(epsilon)
    d = as_fraction(d_val)
    n = g.n
    if not 0 <= d < 1:
        raise GraphError("d must lie in [0,1)")
    if k0 < 1 or k0 > n:
        raise InfeasibleError("need 1 <= k0 <= n")

    eps_p, k0_p = _inner_constants(eps, d, k0)
    used_fallback = False
    underlying = g.underlying_graph() if directed else g
    try:
        inner = regularity_partition(underlying, eps_p, k0_p, cap, seed)
    except InfeasibleError:
        used_fallback = True
        k0_p = n
        inner = regularity_partition(underlying, eps_p, k0_p, cap, seed)

    part = inner.partition
    v0 = part.classes[part.exceptional]
    clusters = [part.classes[i] for i in part.balancing]
    k_prime = len(clusters)
    m_prime = popcount(clusters[0]) if clusters else 0
    evict_threshold = eps * n / 10

    out_rows = list(g.rows)
    in_rows = list(g.in_rows) if directed else None

    def pair_density(ci: int, cj: int) -> Fraction:
        e = sum(popcount(out_rows[v] & cj) for v in bits(ci))
        return Fraction(e, popcount(ci) * popcount(cj))

    def current_host():
        if directed:
            return Digraph(n, tuple(out_rows))
        return Graph(n, tuple(out_rows))

    def delete_between(ci: int, cj: int) -> None:
        for u in bits(ci):
            out_rows[u] &= ~cj
        if directed:
            for w in bits(cj):
                in_rows[w] &= ~ci
        else:
            for w in bits(cj):
                out_rows[w] &= ~ci

    ordered_pairs = ([(i, j) for i in range(k_prime) for j in range(k_prime) if i != j]
                     if directed else
                     [(i, j) for i in range(k_prime) for j in range(i + 1, k_prime)])

    # Step 1: red = irregular cluster pairs; evict heavy vertices, delete the rest.
    host0 = current_host()
    red: set[tuple[int, int]] = set()
    for (i, j) in ordered_pairs:
        verdict = _check_pair(PairSpec(host0, clusters[i], clusters[j], eps_p),
                              cap, seed ^ (i * 0x9E3779B1 + j))
        if not verdict.holds:
            red.add((i, j))
    red_count = [0] * n
    for (i, j) in red:
        for u in bits(clusters[i]):
            red_count[u] += popcount(out_rows[u] & clusters[j])
        back = in_rows if directed else out_rows
        for w in bits(clusters[j]):
            red_count[w] += popcount(back[w] & clusters[i])
    for v in range(n):
        if red_count[v] and Fraction(red_count[v]) >= evict_threshold:
            v0 |= 1 << v
    clusters = [c & ~v0 for c in clusters]
    for (i, j) in red:
        delete_between(clusters[i], clusters[j])

    # Step 2: blue = sparse pairs; mark per-vertex excess over (d+2eps')m'.
    keep = frac_floor((d + 2 * eps_p) * m_prime)
    blue: list[tuple[int, int]] = []
    marked = [0] * n
    for (i, j) in ordered_pairs:
        ci, cj = clusters[i], clusters[j]
        if not ci or not cj:
            continue
        if (i, j) in red:
            continue
        if pair_density(ci, cj) <= d + eps_p:
            blue.append((i, j))
            for u in bits(ci):
                nbrs = list(bits(out_rows[u] & cj))
                if len(nbrs) > keep:
                    for w in nbrs[keep:]:
                        marked[u] |= 1 << w
                        marked[w] |= 1 << u
            back = in_rows if directed else out_rows
            for w in bits(cj):
                nbrs = list(bits(back[w] & ci))
                if len(nbrs) > keep:
                    for u in nbrs[keep:]:
                        marked[w] |= 1 << u
                        marked[u] |= 1 << w

    # Step 3: evict heavily marked vertices, then delete blue edges.
    for v in range(n):
        if marked[v] and Fraction(popcount(marked[v])) >= evict_threshold:
            v0 |= 1 << v
    clusters = [c & ~v0 for c in clusters]
    for (i, j) in blue:
        delete_between(clusters[i], clusters[j])

    # Step 4: clusters become independent sets.
    for c in clusters:
        for v in bits(c):
            out_rows[v] &= ~c
            if directed:
                in_rows[v] &= ~c

    # Step 5: equalise by splitting into chunks of ceil(eps n / 4k').
    m_final = max(1, frac_ceil(eps * n / (4 * k_prime))) if k_prime else 1
    final_clusters: list[int] = []
    for c in clusters:
        members = list(bits(c))
        for start in range(0, len(members) - m_final + 1, m_final):
            final_clusters.append(mask_of(members[start:start + m_final]))
        rem = len(members) % m_final
        if rem:
            v0 |= mask_of(members[len(members) - rem:])

    pure = current_host()
    k = len(final_clusters)
    partition = Partition(n, tuple([v0] + final_clusters),
                          balancing=tuple(range(1, k + 1)), exceptional=0)
    audit = _degree_form_audit(g, pure, partition, eps, d, k0, cap, seed,
                               directed)
    return DegreeFormResult(pure, partition, audit, eps_p, k0_p, used_fallback)


def _degree_form_audit(g, pure, partition, eps, d, k0, cap, seed,
                       directed) -> dict:
    n = g.n
    v0 = partition.classes[partition.exceptional]
    clusters = [partition.classes[i] for i in partition.balancing]
    k = len(clusters)
    audit: dict = {}
    audit["i"] = (k >= k0) and Fraction(popcount(v0)) <= as_fraction(eps) * n
    sizes = {popcount(c) for c in clusters}
    audit["ii"] = len(sizes) <= 1

    eps_f, d_f = as_fraction(eps), as_fraction(d)
    loss_budget = (d_f + eps_f) * n
    if directed:
        ok = all(Fraction(popcount(pure.rows[v])) > popcount(g.rows[v]) - loss_budget
                 for v in range(n))
        ok_in = all(Fraction(popcount(pure.in_rows[v])) > popcount(g.in_rows[v]) - loss_budget
                    for v in range(n))
        audit["iii"] = ok
        audit["iv"] = ok_in
        audit["v"] = all(popcount(pure.rows[v] & c) == 0
                         for c in clusters for v in bits(c))
        pair_key = "vi"
        pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    else:
        audit["iii"] = all(
            Fraction(popcount(pure.rows[v])) > popcount(g.rows[v]) - loss_budget
            for v in range(n))
        audit["iv"] = all(popcount(pure.rows[v] & c) == 0
                          for c in clusters for v in bits(c))
        pair_key = "v"
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    pair_ok = True
    for (i, j) in pairs:
        e = edges_between(pure, clusters[i], clusters[j])
        if e == 0:
            continue
        dens = Fraction(e, popcount(clusters[i]) * popcount(clusters[j]))
        if dens <= d_f:
            pair_ok = False
            break
        verdict = _check_pair(PairSpec(pure, clusters[i], clusters[j], eps_f),
                              cap, seed ^ (i * 0x9E3779B1 + j))
        if not verdict.holds:
            pair_ok = False
            break
    audit[pair_key] = pair_ok
    audit["all"] = all(v for kk, v in audit.items() if kk != "all")
    return audit


# ---------------------------------------------------------------------------
# Reduced graphs and superregular subclusters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedGraph:
    r: Graph | Digraph
    epsilon: Fraction
    d: Fraction
    pure_graph: Graph | Digraph
    clusters: tuple[int, ...]


def reduced_graph(pure: Graph | Digraph, partition: Partition,
                  epsilon: RationalLike, d: RationalLike,
                  cap: int = DEFAULT_CAP, seed: int = 0) -> ReducedGraph:
    """Cluster graph: edges are the regular pairs of the pure graph denser than d.

    For digraphs an arc V_i -> V_j requires density >= d; for graphs the
    density must strictly exceed d (the two standard conventions).
    """
    eps = as_fraction(epsilon)
    dd = as_fraction(d)
    if partition.exceptional is None or partition.balancing is None:
        raise GraphError("reduced graph needs a degree-form style partition")
    clusters = tuple(partition.classes[i] for i in partition.balancing)
    k = len(clusters)
    directed = isinstance(pure, Digraph)
    edges = []
    pairs = ([(i, j) for i in range(k) for j in range(k) if i != j] if directed
             else [(i, j) for i in range(k) for j in range(i + 1, k)])
    for (i, j) in pairs:
        e = edges_between(pure, clusters[i], clusters[j])
        dens = Fraction(e, popcount(clusters[i]) * popcount(clusters[j]))
        if (dens >= dd if directed else dens > dd):
            verdict = _check_pair(PairSpec(pure, clusters[i], clusters[j], eps),
                                  cap, seed ^ (i * 0x9E3779B1 + j))
            if verdict.holds:
                edges.append((i, j))
    r = (Digraph.from_edges(k, edges) if directed else Graph.from_edges(k, edges))
    return ReducedGraph(r, eps, dd, pure, clusters)


def audit_reduced_mindeg(red: ReducedGraph, g: Graph, c: RationalLike) -> dict:
    """Check delta(R) >= (c - 2d)|R| under the hypothesis 2 eps <= d <= c/2."""
    cc = as_fraction(c)
    hyp = 2 * red.epsilon <= red.d <= cc / 2
    concl = Fraction(red.r.min_degree()) >= (cc - 2 * red.d) * red.r.n
    return {"hypothesis": hyp, "conclusion": concl}


@dataclass(frozen=True)
class SuperregularizeResult:
    subclusters: tuple[int, ...]
    removed: int
    audits: tuple[RegularityVerdict, ...]


def superregularize_path(pure: Graph | Digraph, partition: Partition,
                         r_edges: Sequence[tuple[int, int]],
                         epsilon: RationalLike, d: RationalLike,
                         cap: int = DEFAULT_CAP,
                         seed: int = 0) -> SuperregularizeResult:
    """Shrink clusters so the selected reduced-graph edges become superregular.

    Removes the low-degree vertices each selected pair identifies, pads every
    cluster to an equal removal count of ceil(2*Delta*eps*m), and audits the
    surviving pairs at (2 eps, d - 3 eps).
    """
    eps = as_fraction(epsilon)
    dd = as_fraction(d)
    if partition.balancing is None:
        raise GraphError("need a clustered partition")
    clusters = [partition.classes[i] for i in partition.balancing]
    k = len(clusters)
    deg = [0] * k
    for (i, j) in r_edges:
        deg[i] += 1
        deg[j] += 1
    delta = max(deg, default=0)
    if delta > 4:
        raise GraphError("selected subgraph must have maximum degree <= 4")
    m = popcount(clusters[0])
    t0 = frac_ceil(2 * delta * eps * m)

    low = [0] * k
    for (i, j) in r_edges:
        spec_ij = PairSpec(pure, clusters[i], clusters[j], eps, dd)
        low[i] |= low_degree_vertices(spec_ij, clusters[j])
        spec_ji = PairSpec(pure, clusters[j], clusters[i], eps, dd)
        low[j] |= low_degree_vertices(spec_ji, clusters[i])
    removed_total = 0
    subclusters = []
    for i in range(k):
        if popcount(low[i]) > t0:
            raise GraphError(
                f"cluster {i} has {popcount(low[i])} low-degree vertices > bound {t0}")
        drop = low[i]
        for v in sorted(bits(clusters[i] & ~low[i]), reverse=True):
            if popcount(drop) >= t0:
                break
            drop |= 1 << v
        subclusters.append(clusters[i] & ~drop)
        removed_total += popcount(drop)

    audits = tuple(
        _check_pair(PairSpec(pure, subclusters[i], subclusters[j], 2 * eps,
                             dd - 3 * eps), cap, seed, superregular=True)
        for (i, j) in r_edges)
    return SuperregularizeResult(tuple(subclusters), removed_total, audits)
