"""Exact robust out/in/di-expansion checkers with canonical violators.

RN+_nu(S) is the set of vertices with at least nu*n inneighbours in S; a
robust (nu,tau)-outexpander has |RN+(S)| >= |S| + nu*n for every S with
tau*n < |S| < (1-tau)*n.  The subset scan is exhaustive (cap-guarded): it
keeps per-vertex S-degree counters and |RN| incrementally, visits subsets in
sorted-member lexicographic order so the first violator found is the
canonical least one, and skips only subtrees that cannot contain a violator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .graphs import (Digraph, GraphError, RationalLike, as_fraction, bits,
                     frac_ceil, frac_floor, popcount)
from .hamilton import Certificate, certify
from .regularity import CapExceeded

EXPANDER_CAP = 18


@dataclass(frozen=True)
class ExpansionSpec:
    nu: Fraction
    tau: Fraction
    mode: str  # out | in | di

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", as_fraction(self.nu))
        object.__setattr__(self, "tau", as_fraction(self.tau))
        if not 0 < self.nu <= self.tau < 1:
            raise GraphError("need 0 < nu <= tau < 1")
        if self.mode not in ("out", "in", "di"):
            raise GraphError("mode must be out, in or di")


@dataclass(frozen=True)
class ExpansionVerdict:
    holds: bool
    violator: Optional[int]
    checked_sets: int  # qualifying S up to the violator, pruned ones included
    visited: int       # subsets the scan expanded instead of skipping


def robust_neighbourhood(g: Digraph, s: int, nu: RationalLike,
                         direction: str = "out") -> int:
    """RN+ (direction out): vertices with >= nu*n inneighbours in S.
    RN- (direction in): vertices with >= nu*n outneighbours in S."""
    if s == 0:
        raise GraphError("S must be nonempty")
    if direction not in ("out", "in"):
        raise GraphError("direction must be out or in")
    rows = g.in_rows if direction == "out" else g.rows
    threshold = frac_ceil(as_fraction(nu) * g.n)   # count >= nu n, exactly
    out = 0
    for x in range(g.n):
        if popcount(rows[x] & s) >= threshold:
            out |= 1 << x
    return out


def check_expander(g: Digraph, spec: ExpansionSpec,
                   cap: int = EXPANDER_CAP) -> ExpansionVerdict:
    """Exhaustive robust-expansion check over all qualifying S.

    Subsets are visited in sorted-member lexicographic order, so a failing
    verdict carries the canonical least violator (re-checkable with
    robust_neighbourhood).  RN+ and RN- only grow with S, so a subtree whose
    root already satisfies |RN(S)| - top >= nu n, where top is the largest
    qualifying size reachable in it, holds throughout and is skipped; its
    qualifying sets still count towards ``checked_sets``.
    """
    n = g.n
    if n > cap:
        raise CapExceeded(f"n={n} exceeds expander cap {cap}; use sampling")
    # integer thresholds, exact: |S| > tau n iff |S| >= floor(tau n)+1, etc.
    size_lo = frac_floor(spec.tau * n) + 1
    size_hi = frac_ceil((1 - spec.tau) * n) - 1
    # nu > 0, so gain >= 1 is both the S-degree a vertex needs to join RN
    # and the least allowed |RN| - |S|
    gain = frac_ceil(spec.nu * n)
    # per needed direction: the vertices whose S-degree v feeds, and the
    # S-degrees themselves (arcs from S for RN+, arcs into S for RN-)
    directions = []
    if spec.mode in ("out", "di"):
        directions.append(([list(bits(r)) for r in g.rows], [0] * n))
    if spec.mode in ("in", "di"):
        directions.append(([list(bits(r)) for r in g.in_rows], [0] * n))
    rn = [0] * len(directions)   # |RN(S)| per direction
    checked = visited = 0

    def add(v: int, delta: int) -> None:
        # a degree crosses the threshold upwards at gain, downwards at gain-1
        mark = gain if delta > 0 else gain - 1
        for k, (feeds, degree) in enumerate(directions):
            for x in feeds[v]:
                degree[x] += delta
                if degree[x] == mark:
                    rn[k] += delta

    def rec(s_mask: int, size: int, start: int) -> Optional[int]:
        nonlocal checked, visited
        size += 1   # the size of each child S + v
        for v in range(start, n):
            top = min(size_hi, size + n - 1 - v)
            if top < size_lo:
                return None   # no qualifying set here or in later siblings
            add(v, 1)
            least = min(rn)
            if least - top >= gain:
                checked += sum(comb(n - 1 - v, k - size)
                               for k in range(max(size_lo, size), top + 1))
            else:
                visited += 1
                nm = s_mask | 1 << v
                if size >= size_lo:
                    checked += 1
                    if least - size < gain:
                        return nm
                if size < size_hi:
                    hit = rec(nm, size, v + 1)
                    if hit is not None:
                        return hit
            add(v, -1)
        return None

    violator = rec(0, 0, 0)
    return ExpansionVerdict(violator is None, violator, checked, visited)


def robdegseq_condition(g: Digraph, eta: RationalLike) -> Certificate:
    """The degree-sequence hypothesis that forces robust outexpansion."""
    return certify(g, "robdegseq", eta=eta)
