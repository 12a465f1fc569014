"""The four workloads: corpus blocks generated from a seed, and the operations
the benchmark times on them.

An operation answers one question about one input, the unit a ``reglab``
subcommand user waits for.  Each operation kind has four parts, and a kind
whose answers can rest on sampled regularity checks also has
``sampled(result)``:

* ``prepare(data)`` builds fresh library objects from plain data (untimed),
  so no cached property survives from an earlier pass;
* ``run(inputs)`` is the timed call into reglab's public functions;
* ``check(data, result)`` compares the answer with an independent reference
  from ``checks`` (untimed);
* ``canon(data, result)`` is the canonical part of the answer that the
  digest covers, or None when the answer has no canonical form.

A workload is a sequence of blocks.  Every block of a workload has the same
groups (sizes, densities, operation kinds), so a run of whole blocks always
has the same mix and its quantiles land inside the same groups.  Library
functions are looked up on their modules at call time, so tracing wrappers
installed on those modules see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from reglab import (constructions, embedding, enumeration, expansion, graphs,
                    hamilton, regularity, szemeredi, walks)

import checks

#: criterion 5/6 settings
SZ_EPS = Fraction(9, 20)
SZ_D = Fraction(1, 20)
SZ_K0 = 2
#: irregular pairs need witness recovery at this epsilon
REFUTE_EPS = Fraction(1, 4)
#: criterion 9 size window; nu is 1/n
EXP_TAU = Fraction(1, 4)
#: criterion 10 reduced-digraph check
WALK_NU, WALK_TAU = Fraction(1, 5), Fraction(2, 5)
MODES = ("out", "in", "di")


@dataclass(frozen=True)
class Op:
    kind: str
    data: tuple


def graph_data(g) -> tuple:
    return ("D" if isinstance(g, graphs.Digraph) else "G", g.n, g.rows)


def build(gdata):
    cls = graphs.Digraph if gdata[0] == "D" else graphs.Graph
    return cls(gdata[1], gdata[2])


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# operation kinds
# ---------------------------------------------------------------------------

class Partition:
    """regularity_partition at the criterion 5 settings."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return szemeredi.regularity_partition(g, SZ_EPS, SZ_K0)

    @staticmethod
    def check(data, res):
        _, n, rows = data[0]
        p = res.partition
        checks.check_partition(rows, n, SZ_EPS, SZ_K0, p.classes, p.exceptional,
                               [p.classes[i] for i in p.balancing],
                               res.energy_trace)

    @staticmethod
    def canon(data, res):
        # a partition that rests on a sampled "no witness found" is left
        # out: a sound exact or certified check may refine it differently
        if Partition.sampled(res):
            return None
        trace = ",".join(frac(e) for e in res.energy_trace)
        return f"{res.partition.classes}|{res.iterations}|{trace}"

    @staticmethod
    def sampled(res):
        return res.sampled_pairs > 0


class DegreeForm:
    """degree_form at the criterion 6 settings."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return szemeredi.degree_form(g, SZ_EPS, SZ_D, SZ_K0)

    @staticmethod
    def check(data, res):
        _, n, rows = data[0]
        p = res.partition
        checks.check_degree_form(rows, n, SZ_EPS, SZ_K0, res.pure_graph.rows,
                                 p.classes, p.exceptional,
                                 [p.classes[i] for i in p.balancing], res.audit)
        checks.require(res.audit.get("all"), f"degree-form audit failed: {res.audit}")

    @staticmethod
    def canon(data, res):
        audit = ",".join(f"{k}={v}" for k, v in sorted(res.audit.items()))
        return (f"{res.partition.classes}|{hash_rows(res.pure_graph.rows)}|"
                f"{audit}|{res.used_fallback}|{frac(res.inner_epsilon)}")

    @staticmethod
    def sampled(res):
        # DegreeFormResult carries no label; the traced run confirms this
        # from the wrapped check_pair_regular calls
        return False


class Pair:
    """check_pair_regular on one bipartite pair."""

    @staticmethod
    def prepare(data):
        gdata, a, b, eps = data
        return regularity.PairSpec(build(gdata), a, b, eps)

    @staticmethod
    def run(spec):
        return regularity.check_pair_regular(spec)

    @staticmethod
    def check(data, res):
        gdata, a, b, eps = data
        w = res.witness
        checks.check_pair_verdict(gdata[2], a, b, eps, res.holds,
                                  None if w is None else (w.x, w.y, w.deviation))

    @staticmethod
    def canon(data, res):
        if Pair.sampled(res):
            return None
        w = res.witness
        return f"{res.holds}|" + ("" if w is None else f"{w.x}|{w.y}|{frac(w.deviation)}")

    @staticmethod
    def sampled(res):
        return res.mode == "sampled"


@dataclass(frozen=True)
class ExpanderAnswer:
    verdict: object  # ExpansionVerdict
    followed: str | None = None  # which follow-up ran: "oracle" or "walks"
    cycle: tuple | None = None
    factor: object = None  # OneFactorResult
    walks: dict | None = None


class Expander:
    """One expander question: check_expander and, for a holding verdict with
    semidegree at least n/4, what the expander theorem then promises -- a
    Hamilton cycle from hamilton_oracle (``then == "oracle"``), or, for a
    criterion-10 reduced digraph, its 1-factor and every shifted walk, each
    audited (``then == "walks"``)."""

    @staticmethod
    def prepare(data):
        gdata, nu, tau, mode, then = data
        return build(gdata), expansion.ExpansionSpec(nu, tau, mode), then

    @staticmethod
    def run(inputs):
        d, spec, then = inputs
        verdict = expansion.check_expander(d, spec)
        if not verdict.holds or then is None or 4 * d.min_semidegree() < d.n:
            return ExpanderAnswer(verdict)
        if then == "oracle":
            return ExpanderAnswer(verdict, then, cycle=hamilton.hamilton_oracle(d))
        factor = hamilton.one_factor(d)
        if factor.cycles is None:
            return ExpanderAnswer(verdict, then, factor=factor)
        ctx = walks.FactorContext(d, factor.cycles)
        found = {}
        for a in range(d.n):
            for b in range(d.n):
                w = walks.find_shifted_walk(ctx, a, b)
                found[(a, b)] = w if w is not None and w.audit(ctx) else None
        return ExpanderAnswer(verdict, then, factor=factor, walks=found)

    @staticmethod
    def check(data, res):
        (_, n, rows), nu, tau, mode, then = data
        v = res.verdict
        checks.check_expander_verdict(rows, nu, tau, mode, v.holds, v.violator)
        inn = checks.in_rows_of(rows)
        linear = 4 * min(r.bit_count() for r in rows + tuple(inn)) >= n
        expect = then if v.holds and linear else None
        checks.require(res.followed == expect,
                       f"follow-up {res.followed} ran, {expect} was due")
        if res.followed == "oracle":
            Hamilton.check(data, res.cycle)
        elif res.followed == "walks":
            OneFactor.check(data, res.factor)
            if res.factor.cycles is not None:
                checks.require(all(w is not None for w in res.walks.values()),
                               "a shifted walk is missing or fails its audit")
                checks.check_shifted_walks(rows, res.factor.cycles, {
                    key: (w.entries, w.exits) for key, w in res.walks.items()})

    @staticmethod
    def canon(data, res):
        # the Hamilton cycle and the walks are left out: they depend on
        # search order and on the 1-factor, which a valid change may alter
        v = res.verdict
        found = None
        if res.followed == "oracle":
            found = res.cycle is not None
        elif res.followed == "walks":
            found = res.factor.cycles is not None
        return f"{v.holds}|{v.violator}|{res.followed}|{found}"


class Hamilton:
    """hamilton_oracle; "none" is confirmed by plain search at n <= 10."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return hamilton.hamilton_oracle(g)

    @staticmethod
    def check(data, cycle):
        _, n, rows = data[0]
        if cycle is not None:
            checks.check_hamilton_cycle(rows, cycle)
        elif n <= 10:
            checks.require(not checks.hamilton_cycle_exists(rows),
                           "oracle says none, plain search finds a cycle")

    @staticmethod
    def canon(data, cycle):
        return "found" if cycle is not None else "none"


class OneFactor:
    """one_factor; its Hall violator is canonical (the vertices reachable
    from unmatched ones by alternating paths are the same for every maximum
    matching), its cycles are not."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return hamilton.one_factor(g)

    @staticmethod
    def check(data, res):
        rows = data[0][2]
        if res.cycles is not None:
            checks.check_one_factor(rows, res.cycles)
        else:
            checks.check_hall_violator(rows, res.violator)

    @staticmethod
    def canon(data, res):
        return "factor" if res.cycles is not None else f"violator|{res.violator}"


class Rotation:
    """rotation_extension_hamilton; best effort, so only the 1-factor part of
    a failure is an exact verdict."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return hamilton.rotation_extension_hamilton(g)

    @staticmethod
    def check(data, res):
        rows = data[0][2]
        if res.cycle is not None:
            checks.check_hamilton_cycle(rows, res.cycle)
        elif res.failed_step == "one_factor":
            checks.check_hall_violator(rows, int(res.detail.split()[-1], 16))

    @staticmethod
    def canon(data, res):
        return "no-factor" if res.failed_step == "one_factor" else "factor"


class Certify:
    """certify(g, "chvatal") against the degree sequence."""

    @staticmethod
    def prepare(data):
        return build(data[0])

    @staticmethod
    def run(g):
        return hamilton.certify(g, "chvatal")

    @staticmethod
    def check(data, cert):
        expect = checks.chvatal_failing_index(data[0][2])
        checks.require(cert.satisfied == (expect is None)
                       and cert.failing_index == expect,
                       f"certificate {cert} but the degree sequence fails at {expect}")

    @staticmethod
    def canon(data, cert):
        return f"{cert.satisfied}|{cert.failing_index}"


class Oriented:
    """oriented_hamilton_oracle for one direction word."""

    @staticmethod
    def prepare(data):
        gdata, word = data
        return build(gdata), hamilton.OrientedPattern(word)

    @staticmethod
    def run(inputs):
        return hamilton.oriented_hamilton_oracle(*inputs)

    @staticmethod
    def check(data, res):
        gdata, word = data
        if res.cycle is not None:
            checks.check_oriented_cycle(gdata[2], res.cycle, word)
        elif gdata[1] <= 10 and res.status == "none":
            checks.require(not checks.hamilton_cycle_exists(gdata[2], word),
                           "oracle says none, plain search finds a cycle")

    @staticmethod
    def canon(data, res):
        return res.status


class Packing:
    """packing_oracle for a perfect C_k packing."""

    @staticmethod
    def prepare(data):
        gdata, k = data
        return build(gdata), graphs.Graph.cycle(k)

    @staticmethod
    def run(inputs):
        return embedding.packing_oracle(*inputs)

    @staticmethod
    def check(data, res):
        gdata, k = data
        checks.check_cycle_packing(gdata[2], k, res.perfect, res.copies)

    @staticmethod
    def canon(data, res):
        return str(res.perfect)


class Extremal:
    """extremal_graphs(n, K_r) by isomorph-free enumeration."""

    @staticmethod
    def prepare(data):
        n, r = data
        return n, graphs.Graph.complete(r)

    @staticmethod
    def run(inputs):
        return embedding.extremal_graphs(*inputs)

    @staticmethod
    def check(data, res):
        n, r = data
        value, found = res
        checks.check_extremal(n, r, value, [g.rows for g in found])

    @staticmethod
    def canon(data, res):
        return f"{res[0]}|{len(res[1])}"


class Ramsey:
    """ramsey_oracle(K3) up to n = 6."""

    @staticmethod
    def prepare(data):
        return graphs.Graph.complete(3)

    @staticmethod
    def run(k3):
        return embedding.ramsey_oracle(k3, 6)

    @staticmethod
    def check(data, res):
        checks.check_ramsey_k3(res.value, res.witness_n, res.witness_red)

    @staticmethod
    def canon(data, res):
        return f"{res.value}|{res.witness_n}|{res.searched_to}"


class Enumerate:
    """Isomorph-free enumeration of graphs or tournaments."""

    @staticmethod
    def prepare(data):
        return data

    @staticmethod
    def run(data):
        what, n = data
        if what == "graphs":
            return enumeration.enumerate_graphs(n)
        return enumeration.enumerate_tournaments(n)

    @staticmethod
    def check(data, found):
        what, n = data
        table = checks.GRAPH_CLASSES if what == "graphs" else checks.TOURNAMENT_CLASSES
        checks.require(len(found) == table[n],
                       f"{len(found)} {what} classes on {n} vertices, OEIS says {table[n]}")

    @staticmethod
    def canon(data, found):
        return str(len(found))


KINDS = {
    "partition": Partition, "degree_form": DegreeForm, "pair": Pair,
    "expander": Expander, "hamilton": Hamilton, "one_factor": OneFactor,
    "rotation": Rotation, "certify": Certify,
    "oriented": Oriented, "packing": Packing, "extremal": Extremal,
    "ramsey": Ramsey, "enumerate": Enumerate,
}


def hash_rows(rows) -> str:
    return hashlib.sha256(repr(tuple(rows)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# corpus blocks
# ---------------------------------------------------------------------------

def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _pair_op(rng: random.Random, k: int, eps: Fraction) -> Op:
    g = constructions.random_bipartite(k, k, 0.5, _seed(rng))
    a, b = (1 << k) - 1, ((1 << k) - 1) << k
    return Op("pair", (graph_data(g), a, b, eps))


def szemeredi_block(rng: random.Random, index: int) -> list[Op]:
    """G(n, 1/2) for n = 20, 40, ..., 120, each through the partition and the
    degree form, plus holding pairs with 8 to 14 vertices a side.

    The sizes are fixed so that every block has the same groups of similar
    cost: p50 falls in the middle of the eleven 12x12 pairs and p90 on the
    degree form at n = 60, between the partitions and the larger degree
    forms.
    """
    ops = []
    for n in (20, 40, 60, 80, 100, 120):
        gdata = graph_data(constructions.random_graph(n, 0.5, _seed(rng)))
        ops += [Op("partition", (gdata,)), Op("degree_form", (gdata,))]
    for k in (8, 8, 8, 9, 9, 9, 10, 10, 11, 11) + (12,) * 11 + (13, 14):
        ops.append(_pair_op(rng, k, SZ_EPS))
    return ops


def expansion_block(rng: random.Random, index: int) -> list[Op]:
    """Expander questions on D(n, p) for n = 10..18, on rotational
    tournaments, and on criterion-10 reduced digraphs.

    p50 falls inside the nine D(12, p) scans and p90 inside the six
    D(16, 0.7) scans, two per mode; the single D(18, 1/2), always in out
    mode, is the costliest holding scan.
    """
    cases = [(n, p) for n in (10, 11) for p in (0.3, 0.5, 0.7, 0.9)]
    cases += [(12, p) for p in (0.5, 0.7, 0.9)] * 3
    cases += [(14, p) for p in (0.3, 0.5, 0.7, 0.9)]
    cases += [(16, 0.7)] * 6
    ops = []
    for i, (n, p) in enumerate(cases):
        d = constructions.random_digraph(n, p, _seed(rng))
        ops.append(Op("expander", (graph_data(d), Fraction(1, n), EXP_TAU,
                                   MODES[(i + index) % 3], "oracle")))
    d = constructions.random_digraph(18, 0.5, _seed(rng))
    ops.append(Op("expander", (graph_data(d), Fraction(1, 18), EXP_TAU, "out", "oracle")))
    for m in (11, 13, 15):
        t = constructions.regular_tournament(m)
        ops.append(Op("expander", (graph_data(t), Fraction(1, m), EXP_TAU,
                                   MODES[(m + index) % 3], "oracle")))
    for k in (9, 11, 13):
        r = constructions.random_digraph(k, 0.8, _seed(rng))
        ops.append(Op("expander", (graph_data(r), WALK_NU, WALK_TAU, "out", "walks")))
    return ops


def matching_block(rng: random.Random, index: int) -> list[Op]:
    """D(n, 1/2) for n = 50, 100, 150, four D(300, 1/4), D(1000, 1/32) and
    D(1200, 1/64); the last lies past the recursion limit of the seed's
    augmenting-path matching.

    p50 falls inside the D(100, 1/2) group and p90 inside the D(300, 1/4)
    group.  Operations alternate between one_factor and rotation-extension.
    """
    sizes = ([(50, 1 / 2)] * 16 + [(100, 1 / 2)] * 8 + [(150, 1 / 2)] * 6
             + [(300, 1 / 4)] * 4 + [(1000, 1 / 32), (1200, 1 / 64)])
    ops = []
    for i, (n, p) in enumerate(sizes):
        d = constructions.random_digraph(n, p, _seed(rng))
        kind = ("one_factor", "rotation")[(i + index) % 2]
        ops.append(Op(kind, (graph_data(d),)))
    return ops


def refutation_block(rng: random.Random, index: int) -> list[Op]:
    """Inputs whose answer is "none" or a canonical counterexample."""
    ops = [_pair_op(rng, k, REFUTE_EPS) for k in range(8, 15)]
    for eps in (Fraction(1, 5), REFUTE_EPS):
        for k in range(8, 15):
            g = constructions.half_graph(k)
            ops.append(Op("pair", (graph_data(g), (1 << k) - 1,
                                   ((1 << k) - 1) << k, eps)))
    for i, n in enumerate(range(10, 17)):
        d = constructions.random_digraph(n, 0.15, _seed(rng))
        ops.append(Op("expander", (graph_data(d), Fraction(1, n), EXP_TAU,
                                   MODES[(i + index) % 3], None)))
    chvatal = [(n, r) for n in (9, 10, 11) for r in range(1, (n + 1) // 2)]
    chvatal.append((12, 3))
    for n, r in chvatal:
        gdata = graph_data(constructions.chvatal_extremal(n, r))
        ops.append(Op("hamilton", (gdata,)))
        ops.append(Op("certify", (gdata,)))
    for m in (1, 3):
        ops.append(Op("hamilton", (graph_data(constructions.haggkvist_graph(m)),)))
    ops.append(Op("one_factor", (graph_data(constructions.haggkvist_graph(3)),)))
    ops.append(Op("oriented", (graph_data(constructions.antidirected_counterexample(1)),
                               "fb" * 6)))
    ops.append(Op("packing", (graph_data(constructions.c6_sharpness_graph(12)), 6)))
    ops += [Op("extremal", (6, 3)), Op("extremal", (7, 3)), Op("extremal", (6, 4))]
    ops.append(Op("ramsey", ()))
    ops += [Op("enumerate", ("graphs", 5)), Op("enumerate", ("tournaments", 5))]
    return ops


BLOCKS = {
    "szemeredi": szemeredi_block, "expansion": expansion_block,
    "matching": matching_block, "refutation": refutation_block,
}


def block(workload: str, seed: int, index: int) -> list[Op]:
    """Block ``index`` of a workload's corpus; the same arguments always give
    the same operations."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return BLOCKS[workload](rng, index)
