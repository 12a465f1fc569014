"""Exact epsilon-regularity and superregularity checkers with witnesses.

A bipartite pair (A,B) is eps-regular when every X in A, Y in B with
|X| >= eps|A|, |Y| >= eps|B| has |d(A,B) - d(X,Y)| < eps.  The checkers here
are exhaustive and exact, and every comparison is integer
cross-multiplication (never floats).

Only minimum sizes need scanning.  For |X| > s the density d(X,Y) is the
average of d(X',Y) over the s-subsets X' of X, and likewise for Y, so both
extreme deviations (and the least density, in superdensity mode) are reached
at |X| = ceil(eps|A|) and |Y| = ceil(eps|B|).  For a fixed X the extreme
values of e(X,Y) over those Y are the sums of the largest/smallest X-degrees
on the B side, so the existence pass costs one sort per minimum-size X
instead of a 2^|A| * 2^|B| scan.  ``checked_pairs`` still reports the
combinatorial count of qualifying (X,Y) pairs of all sizes.

Witnesses are canonical: the lexicographically least violating (X,Y) under
the sorted-member-tuple order, so failing verdicts are reproducible.  That
recovery runs only after the existence pass found a violation, and walks X
and Y of every size.

A seeded sampled mode exists for sides beyond the exhaustive cap; it draws a
fixed number of X (``DEFAULT_TRIALS``), can only report "no witness found"
and never feeds acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .graphs import (Digraph, Graph, GraphError, RationalLike, as_fraction,
                     bits, edges_between, full_mask, least_count_at_least,
                     mask_of, popcount)

DEFAULT_CAP = 14
DEFAULT_TRIALS = 2000


@dataclass(frozen=True)
class PairSpec:
    """A bipartite pair inside a host graph plus the (eps, d) parameters."""

    host: Graph | Digraph
    a: int
    b: int
    epsilon: Fraction
    d: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "d", as_fraction(self.d))
        if popcount(self.a) == 0 or popcount(self.b) == 0:
            raise GraphError("pair sides must be nonempty")
        if self.a & self.b:
            raise GraphError("pair sides must be disjoint")
        if (self.a | self.b) & ~full_mask(self.host.n):
            raise GraphError("pair sides outside host vertex range")
        if self.epsilon <= 0:
            raise GraphError("epsilon must be positive")


@dataclass(frozen=True)
class Witness:
    """A violating configuration; ``kind`` is density/degree/out_degree/in_degree."""

    x: int
    y: int
    deviation: Fraction
    kind: str = "density"


@dataclass(frozen=True)
class RegularityVerdict:
    holds: bool
    witness: Optional[Witness]
    checked_pairs: int
    mode: str = "exact"


class CapExceeded(GraphError):
    """Raised when an exhaustive scan would exceed the configured cap."""


# ---------------------------------------------------------------------------
# scan engine
# ---------------------------------------------------------------------------

def _columns(host: Graph | Digraph, a_members: tuple[int, ...],
             b_members: tuple[int, ...], directed_into_b: bool) -> list[int]:
    """For each b in B (positionally), the A-position bitmask of its partners.

    ``directed_into_b`` selects arcs A->B for digraphs; for graphs it is
    ignored (adjacency is symmetric).
    """
    rows = host.in_rows if (isinstance(host, Digraph) and directed_into_b) else host.rows
    cols = []
    for b in b_members:
        row = rows[b]
        cols.append(mask_of(i for i, v in enumerate(a_members) if row >> v & 1))
    return cols


def _x_has_violation(degs: list[int], x: int, smin_b: int,
                     num: int, den: int, p: int, q: int, mode: str) -> bool:
    """Does some qualifying Y violate, for the X whose B-degrees are ``degs``?

    mode "regular": violation iff |e/(x s) - num/den| >= p/q.
    mode "superdensity": violation iff e/(x s) <= num/den  (d(X,Y) > d fails).
    Only |Y| = smin_b is tested (see the module docstring), where the extreme
    e(X,Y) are the sums of the smin_b smallest and largest degrees.
    """
    if smin_b > len(degs):
        return False
    degs_sorted = sorted(degs)
    t = num * x * smin_b
    lo = sum(degs_sorted[:smin_b]) * den
    if mode != "regular":
        return lo <= t
    bound = p * x * smin_b * den
    return ((sum(degs_sorted[-smin_b:]) * den - t) * q >= bound
            or (t - lo) * q >= bound)


def _lex_subsets_with_violation_check(members: tuple[int, ...], smin: int, test):
    """DFS over subsets in sorted-member lex order; yield first mask with test(mask, size) truthy."""
    k = len(members)

    def rec(mask: int, size: int, start: int):
        for i in range(start, k):
            nm = mask | (1 << i)
            ns = size + 1
            if ns >= smin:
                hit = test(nm, ns)
                if hit is not None:
                    return hit
            hit = rec(nm, ns, i + 1)
            if hit is not None:
                return hit
        return None

    return rec(0, 0, 0)


def _positions_to_vertices(mask: int, members: tuple[int, ...]) -> int:
    return mask_of(members[i] for i in bits(mask))


def _verdict(witness: Optional[Witness], checked: int,
             sampled: bool) -> RegularityVerdict:
    return RegularityVerdict(witness is None, witness, checked,
                             "sampled" if sampled else "exact")


def _scan_pair(host, a_mask: int, b_mask: int, eps: Fraction,
               target: Fraction, mode: str, cap: int,
               directed_into_b: bool = True,
               sampled: bool = False, seed: int = 0) -> RegularityVerdict:
    """Core scan: exact within ``cap``, or DEFAULT_TRIALS seeded draws of X.

    target is the density to compare against (pair density for Definition-
    style regularity, the prescribed d for digraph regularity, or d itself in
    superdensity mode).
    """
    a_members = tuple(bits(a_mask))
    b_members = tuple(bits(b_mask))
    la, lb = len(a_members), len(b_members)
    smin_a = max(1, least_count_at_least(eps * la))
    smin_b = max(1, least_count_at_least(eps * lb))
    if smin_a > la or smin_b > lb:
        return _verdict(None, 0, False)  # no (X, Y) qualifies (eps > 1)
    num, den = target.numerator, target.denominator
    p, q = eps.numerator, eps.denominator
    cols = _columns(host, a_members, b_members, directed_into_b)
    witness = None

    if sampled:
        rng = random.Random(seed)
        for t in range(DEFAULT_TRIALS):
            sx = smin_a if t % 2 == 0 else rng.randint(smin_a, la)
            xpos = rng.sample(range(la), sx)
            xmask = mask_of(xpos)
            degs = [popcount(c & xmask) for c in cols]
            if _x_has_violation(degs, sx, smin_b, num, den, p, q, mode):
                witness = _extract_extremal_y(degs, xmask, sx, smin_b, num, den,
                                              p, q, mode, a_members, b_members)
                break
        return _verdict(witness, t + 1, sampled)

    if la > cap or lb > cap:
        raise CapExceeded(
            f"sides {la}x{lb} exceed exhaustive cap {cap}; request sampled mode")

    checked = (sum(comb(la, s) for s in range(smin_a, la + 1))
               * sum(comb(lb, s) for s in range(smin_b, lb + 1)))

    def x_test(xmask: int, size: int):
        degs = [popcount(c & xmask) for c in cols]
        if not _x_has_violation(degs, size, smin_b, num, den, p, q, mode):
            return None
        return _least_y_witness(degs, xmask, size, smin_b, num, den, p, q,
                                mode, a_members, b_members)

    units = [1 << i for i in range(la)]
    for xmask in map(sum, combinations(units, smin_a)):
        degs = [popcount(c & xmask) for c in cols]
        if _x_has_violation(degs, smin_a, smin_b, num, den, p, q, mode):
            # A violation exists; recover the lexicographically least witness.
            witness = _lex_subsets_with_violation_check(a_members, smin_a, x_test)
            assert witness is not None
            break
    return _verdict(witness, checked, sampled)


def _violates(e: int, x: int, s: int, num: int, den: int, p: int, q: int,
              mode: str) -> bool:
    if mode == "regular":
        diff = e * den - num * x * s
        return abs(diff) * q >= p * x * s * den
    return e * den <= num * x * s


def _witness(xmask: int, ymask: int, e: int, x: int, s: int, num: int,
             den: int, mode: str, a_members, b_members) -> Witness:
    """Position masks to a vertex-set Witness; deviation signed by ``mode``."""
    target = Fraction(num, den)
    dev = (abs(Fraction(e, x * s) - target) if mode == "regular"
           else target - Fraction(e, x * s))
    return Witness(_positions_to_vertices(xmask, a_members),
                   _positions_to_vertices(ymask, b_members), dev)


def _least_y_witness(degs: list[int], xmask: int, x: int, smin_b: int,
                     num: int, den: int, p: int, q: int, mode: str,
                     a_members, b_members) -> Witness:
    """Lex-least violating Y for a fixed X known to admit one."""
    k = len(degs)

    def rec(ymask: int, size: int, e: int, start: int):
        for j in range(start, k):
            ne = e + degs[j]
            nm = ymask | (1 << j)
            ns = size + 1
            if ns >= smin_b and _violates(ne, x, ns, num, den, p, q, mode):
                return nm, ne, ns
            hit = rec(nm, ns, ne, j + 1)
            if hit is not None:
                return hit
        return None

    hit = rec(0, 0, 0, 0)
    assert hit is not None
    ymask, e, s = hit
    return _witness(xmask, ymask, e, x, s, num, den, mode, a_members, b_members)


def _extract_extremal_y(degs: list[int], xmask: int, x: int, smin_b: int,
                        num: int, den: int, p: int, q: int, mode: str,
                        a_members, b_members) -> Witness:
    """An extremal violating Y of size smin_b, for sampled-mode witnesses."""
    by_asc = sorted((d, j) for j, d in enumerate(degs))
    for ordering in (by_asc, by_asc[::-1]):
        chosen = ordering[:smin_b]
        e = sum(d for d, _ in chosen)
        if _violates(e, x, smin_b, num, den, p, q, mode):
            ymask = mask_of(j for _, j in chosen)
            return _witness(xmask, ymask, e, x, smin_b, num, den, mode,
                            a_members, b_members)
    raise AssertionError("violation vanished during extraction")


# ---------------------------------------------------------------------------
# public checkers
# ---------------------------------------------------------------------------

def check_pair_regular(spec: PairSpec, cap: int = DEFAULT_CAP,
                       sampled: bool = False,
                       seed: int = 0) -> RegularityVerdict:
    """Is the bipartite pair (A,B) eps-regular?  Exhaustive within ``cap``."""
    target = Fraction(edges_between(spec.host, spec.a, spec.b),
                      popcount(spec.a) * popcount(spec.b))
    return _scan_pair(spec.host, spec.a, spec.b, spec.epsilon, target,
                      "regular", cap, sampled=sampled, seed=seed)


def check_pair_superregular(spec: PairSpec, cap: int = DEFAULT_CAP,
                            sampled: bool = False,
                            seed: int = 0) -> RegularityVerdict:
    """(eps,d)-superregularity: qualifying sub-densities > d and degrees > d * opposite side.

    Degree failures are reported first, as a singleton witness on the failing
    side with deviation d - deg/|other side|.
    """
    host, a, b, d = spec.host, spec.a, spec.b, spec.d
    ca, cb = popcount(a), popcount(b)
    for v in bits(a):
        deg = popcount(host.rows[v] & b)
        if Fraction(deg) <= d * cb:
            return _verdict(Witness(1 << v, b, d - Fraction(deg, cb), "degree"),
                            0, sampled)
    back_rows = host.in_rows if isinstance(host, Digraph) else host.rows
    for v in bits(b):
        deg = popcount(back_rows[v] & a)
        if Fraction(deg) <= d * ca:
            return _verdict(Witness(a, 1 << v, d - Fraction(deg, ca), "degree"),
                            0, sampled)
    return _scan_pair(host, a, b, spec.epsilon, d, "superdensity", cap,
                      sampled=sampled, seed=seed)


def check_digraph_regular(dg: Digraph, epsilon: RationalLike, d: RationalLike,
                          cap: int = DEFAULT_CAP, sampled: bool = False,
                          seed: int = 0) -> RegularityVerdict:
    """Whole-digraph regularity: |d(X,Y) - d| < eps for all X,Y with |X|,|Y| >= eps n.

    X and Y range over arbitrary vertex subsets and may intersect (the
    definition quantifies over all subsets of V).
    """
    eps = as_fraction(epsilon)
    dd = as_fraction(d)
    if eps <= 0:
        raise GraphError("epsilon must be positive")
    if dg.n == 0:
        raise GraphError("empty digraph")
    fm = full_mask(dg.n)
    return _scan_pair(dg, fm, fm, eps, dd, "regular", cap, sampled=sampled,
                      seed=seed)


def check_digraph_superregular(dg: Digraph, epsilon: RationalLike,
                               d: RationalLike, cap: int = DEFAULT_CAP,
                               sampled: bool = False,
                               seed: int = 0) -> RegularityVerdict:
    """[eps,d]-superregularity: eps-regular with density d and min semidegree >= d n."""
    eps = as_fraction(epsilon)
    dd = as_fraction(d)
    n = dg.n
    for v in range(n):
        for kind, deg in (("out_degree", dg.out_degree(v)),
                          ("in_degree", dg.in_degree(v))):
            if Fraction(deg) < dd * n:
                return _verdict(Witness(1 << v, 0, dd - Fraction(deg, n), kind),
                                0, sampled)
    return check_digraph_regular(dg, eps, dd, cap, sampled, seed)


def low_degree_vertices(spec: PairSpec, y: int) -> int:
    """Vertices of A with at most (d - eps)|Y| neighbours in Y, as a bit-set.

    Boundary: the threshold (d - eps)|Y| may be negative, in which case no
    vertex qualifies; at threshold exactly 0 the degree-0 vertices qualify.
    """
    if y & ~spec.b:
        raise GraphError("Y must be a subset of B")
    sy = popcount(y)
    if Fraction(sy) < spec.epsilon * popcount(spec.b):
        raise GraphError("Y is undersized (|Y| < eps|B|)")
    threshold = (spec.d - spec.epsilon) * sy
    out = 0
    for v in bits(spec.a):
        if Fraction(popcount(spec.host.rows[v] & y)) <= threshold:
            out |= 1 << v
    return out
