"""Command-line surface: one subcommand per library operation, each declared
once by ``@subcommand`` on its handler, file formats, and reproducible JSON
reports.

Graph files are plain text: a header line ``graph <n>`` or ``digraph <n>``
followed by one ``u v`` pair per line (0-indexed; for digraphs the line means
the arc u -> v).  Reports are JSON with rationals rendered as "p/q" strings
and vertex sets as sorted lists; identical inputs and seeds produce
byte-identical reports (``runtime_ms`` appears only under --timing, since a
wall-clock field would break reproducibility).

Exit codes: 2 for usage or domain errors, 1 when --expect names a different
verdict (or a self-test fails), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import constructions as cons
from .embedding import (EXTREMAL_CAP, PACKING_CAP, SUBGRAPH_CAP, blow_up,
                        extremal_number, greedy_embed, packing_oracle,
                        ramsey_oracle, subgraph_oracle, Embedding)
from .expansion import (EXPANDER_CAP, ExpansionSpec, check_expander,
                        robust_neighbourhood)
from .graphs import (Digraph, Graph, GraphError, bits, full_mask, mask_of,
                     popcount)
from .hamilton import (HAMILTON_CAP, ORIENTED_CAP, OrientedPattern, certify,
                       find_oriented_path, hamilton_oracle, bipartite_matching,
                       one_factor, oriented_hamilton_oracle,
                       rotation_extension_hamilton)
from .regularity import (DEFAULT_CAP, CapExceeded, PairSpec,
                         check_digraph_regular, check_digraph_superregular,
                         check_pair_regular, check_pair_superregular)
from .szemeredi import (InfeasibleError, Partition, degree_form,
                        degree_form_digraph, reduced_graph,
                        regularity_partition)
from .walks import ClusterAssignment, FactorContext, find_shifted_walk, \
    find_skewed_traverse, rebalance


def thread_cap() -> int:
    """Parallelism cap from REG_LAB_THREADS (>=1); the library is sequential,
    so any cap is trivially honoured, but the variable is validated here."""
    raw = os.environ.get("REG_LAB_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise GraphError(f"REG_LAB_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise GraphError("REG_LAB_THREADS must be >= 1")
    return value


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_graph_file(path: str) -> Graph | Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GraphError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("graph", "digraph"):
        raise GraphError(f"{path}: header must be 'graph <n>' or 'digraph <n>'")
    n = int(head[1])
    directed = head[0] == "digraph"
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"{path}: bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"{path}: duplicate edge line {ln!r}")
        seen.add(key)
        edges.append((u, v))
    return (Digraph.from_edges(n, edges) if directed
            else Graph.from_edges(n, edges))


def write_graph_file(path: str, g: Graph | Digraph) -> None:
    directed = isinstance(g, Digraph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{'digraph' if directed else 'graph'} {g.n}\n")
        for u in range(g.n):
            for v in bits(g.rows[u]):
                if directed or u < v:
                    fh.write(f"{u} {v}\n")


def parse_rational(text: str) -> Fraction:
    """Accepts p/q or decimal text; decimals parse exactly (0.25 -> 1/4)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad rational {text!r}") from exc


def parse_vertex_set(text: str) -> int:
    """Ranges 'a-b' are inclusive; comma-separated terms combine."""
    mask = 0
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        if "-" in term:
            a, b = term.split("-")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise GraphError(f"bad range {term!r}")
            mask |= mask_of(range(lo, hi + 1))
        else:
            mask |= 1 << int(term)
    if mask == 0:
        raise GraphError(f"empty vertex set {text!r}")
    return mask


def parse_clusters(text: str) -> list[int]:
    return [parse_vertex_set(part) for part in text.split(";") if part.strip()]


NAMED_GRAPHS = {
    "K2": lambda: Graph.complete(2), "K3": lambda: Graph.complete(3),
    "K4": lambda: Graph.complete(4), "K5": lambda: Graph.complete(5),
    "K6": lambda: Graph.complete(6),
    "C3": lambda: Graph.cycle(3), "C4": lambda: Graph.cycle(4),
    "C5": lambda: Graph.cycle(5), "C6": lambda: Graph.cycle(6),
    "P2": lambda: Graph.path(2), "P3": lambda: Graph.path(3),
    "P4": lambda: Graph.path(4),
    "K33": lambda: Graph.complete_bipartite(3, 3),
    "petersen": cons.petersen_graph,
}


def parse_pattern_graph(text: str) -> Graph:
    """Named small graph (K3, C6, P3, ...) or @path to a graph file."""
    if text.startswith("@"):
        g = read_graph_file(text[1:])
        if isinstance(g, Digraph):
            raise GraphError("pattern file must be an undirected graph")
        return g
    if text in NAMED_GRAPHS:
        return NAMED_GRAPHS[text]()
    raise GraphError(f"unknown pattern graph {text!r} "
                     f"(known: {', '.join(sorted(NAMED_GRAPHS))} or @file)")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def fmt(value):
    """Canonical JSON-ready rendering: Fractions as 'p/q', masks via set_list."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [fmt(v) for v in value]
    return value


def set_list(mask: int) -> list[int]:
    return list(bits(mask))


def emit_report(command: str, parameters: dict, verdict: str,
                witness=None, audit=None, seed: Optional[int] = None,
                runtime_ms: Optional[int] = None,
                extra: Optional[dict] = None) -> dict:
    report: dict = {
        "command": command,
        "parameters": fmt(parameters),
        "verdict": verdict,
    }
    if witness is not None:
        report["witness"] = fmt(witness)
    if audit is not None:
        report["audit"] = fmt(audit)
    if seed is not None:
        report["seed"] = seed
    if extra:
        for k, v in extra.items():
            report[k] = fmt(v)
    if runtime_ms is not None:
        report["runtime_ms"] = runtime_ms
    return report


def witness_dict(w) -> dict:
    return {"X": set_list(w.x), "Y": set_list(w.y),
            "deviation": w.deviation, "kind": w.kind}


# ---------------------------------------------------------------------------
# subcommands: each is declared once, on its handler
# ---------------------------------------------------------------------------

class Subcommand(NamedTuple):
    handler: Callable
    arguments: tuple  # (flags, keyword arguments) per own argument, in order
    fixture: Callable  # graph-file writer -> (argv after the name, verdict)
    graph: bool  # takes a graph file, positional or --graph
    seed: bool  # --seed, --cap and -o exist only where the handler reads them
    cap: bool
    output: bool


SUBCOMMANDS: dict[str, Subcommand] = {}


def subcommand(name: str, *arguments, fixture: Callable, graph: bool = True,
               seed: bool = False, cap: bool = False, output: bool = False):
    """Register the decorated handler as ``reglab <name>``.

    The handler returns (verdict, witness, audit, extra).  ``arguments`` are
    the subcommand's own ``arg(...)`` declarations.  ``fixture`` is the
    pinned self-test: given a function that writes a graph file and returns
    its name, it returns the argv after the subcommand name and the verdict
    that argv must produce.
    """
    def register(handler):
        SUBCOMMANDS[name] = Subcommand(handler, arguments, fixture, graph,
                                       seed, cap, output)
        return handler
    return register


def arg(*flags, **kwargs):
    return flags, kwargs


_LEFT_RIGHT = (arg("--left"), arg("--right"))
_SOURCE_TARGET = (arg("--source", type=int), arg("--target", type=int))
_PAIR_CHECK = (*_LEFT_RIGHT, arg("--eps"), arg("--d"),
               arg("--sampled", action="store_true"))
_DEGREE_FORM = (arg("--eps"), arg("--d"), arg("--k0", type=int))


def _load(args, kind=None):
    path = args.graph or getattr(args, "graph_pos", None)
    if path is None:
        raise GraphError("a graph file is required (positional or --graph)")
    g = read_graph_file(path)
    if kind == "graph" and isinstance(g, Digraph):
        raise GraphError("this subcommand needs an undirected graph")
    if kind == "digraph" and not isinstance(g, Digraph):
        raise GraphError("this subcommand needs a digraph")
    return g


@subcommand("construct", arg("family", nargs="?"),
            *(arg(flag, type=int) for flag in ("--n", "--r", "--m", "--a", "--b")),
            arg("--p", type=float), graph=False, seed=True, output=True,
            fixture=lambda g: (["haggkvist", "--m", "3"], "found"))
def cmd_construct(args):
    fam = args.family
    builders = {
        "turan": lambda: cons.turan_graph(args.n, args.r),
        "chvatal": lambda: cons.chvatal_extremal(args.n, args.r),
        "tournament": lambda: cons.regular_tournament(args.m),
        "haggkvist": lambda: cons.haggkvist_graph(args.m),
        "antidirected": lambda: cons.antidirected_counterexample(args.m),
        "c6sharp": lambda: cons.c6_sharpness_graph(args.n),
        "random-graph": lambda: cons.random_graph(args.n, args.p, args.seed),
        "random-digraph": lambda: cons.random_digraph(args.n, args.p, args.seed),
        "random-bipartite": lambda: cons.random_bipartite(args.a, args.b, args.p, args.seed),
        "complete": lambda: Graph.complete(args.n),
        "complete-digraph": lambda: Digraph.complete(args.n),
        "cycle": lambda: Graph.cycle(args.n),
        "directed-cycle": lambda: Digraph.directed_cycle(args.n),
        "petersen": cons.petersen_graph,
    }
    if fam not in builders:
        raise GraphError(f"unknown family {fam!r}")
    need = {"turan": "nr", "chvatal": "nr", "tournament": "m", "haggkvist": "m",
            "antidirected": "m", "c6sharp": "n", "random-graph": "np",
            "random-digraph": "np", "random-bipartite": "abp",
            "complete": "n", "complete-digraph": "n", "cycle": "n",
            "directed-cycle": "n", "petersen": ""}[fam]
    for attr in need:
        if getattr(args, attr) is None:
            raise GraphError(f"construct {fam} needs --{attr}")
    g = builders[fam]()
    if args.output:
        write_graph_file(args.output, g)
    extra = {"n": g.n, "edges": g.edge_count}
    if isinstance(g, Digraph):
        extra["min_semidegree"] = g.min_semidegree()
    else:
        extra["min_degree"] = g.min_degree()
    return "found", None, None, extra


@subcommand("density", *_LEFT_RIGHT,
            fixture=lambda g: (["--graph", g(Graph.complete_bipartite(3, 3)),
                                "--left", "0-2", "--right", "3-5"], "1/1"))
def cmd_density(args):
    g = _load(args)
    a = parse_vertex_set(args.left)
    b = parse_vertex_set(args.right)
    from .graphs import density
    d = density(g, a, b)
    return fmt(d), None, None, {"edges": sum(popcount(g.rows[v] & b) for v in bits(a))}


def _pair_or_digraph_check(args, superregular: bool):
    g = _load(args)
    eps = parse_rational(args.eps)
    if args.left and args.right:
        d = parse_rational(args.d) if args.d else Fraction(0)
        spec = PairSpec(g, parse_vertex_set(args.left),
                        parse_vertex_set(args.right), eps, d)
        fn = check_pair_superregular if superregular else check_pair_regular
        verdict = fn(spec, cap=args.cap or DEFAULT_CAP, sampled=args.sampled,
                     seed=args.seed or 0)
    else:
        if not isinstance(g, Digraph):
            raise GraphError("whole-graph regularity needs a digraph "
                             "(or give --left/--right)")
        if args.d is None:
            raise GraphError("whole-digraph checks need --d")
        d = parse_rational(args.d)
        fn = check_digraph_superregular if superregular else check_digraph_regular
        verdict = fn(g, eps, d, cap=args.cap or DEFAULT_CAP,
                     sampled=args.sampled, seed=args.seed or 0)
    wit = witness_dict(verdict.witness) if verdict.witness else None
    return ("holds" if verdict.holds else "fails"), wit, None, {
        "checked_pairs": verdict.checked_pairs, "mode": verdict.mode}


@subcommand("check-regular", *_PAIR_CHECK, seed=True, cap=True,
            fixture=lambda g: (["--graph", g(cons.half_graph(6)),
                                "--left", "0-5", "--right", "6-11",
                                "--eps", "1/4"], "fails"))
def cmd_check_regular(args):
    return _pair_or_digraph_check(args, superregular=False)


@subcommand("check-superregular", *_PAIR_CHECK, seed=True, cap=True,
            fixture=lambda g: (["--graph", g(Graph.complete_bipartite(4, 4)),
                                "--left", "0-3", "--right", "4-7",
                                "--eps", "1/10", "--d", "1/2"], "holds"))
def cmd_check_superregular(args):
    return _pair_or_digraph_check(args, superregular=True)


@subcommand("partition", arg("--eps"), arg("--k0", type=int),
            seed=True, cap=True,
            fixture=lambda g: (["--graph", g(Graph.complete(12)),
                                "--eps", "0.45", "--k0", "2"], "found"))
def cmd_partition(args):
    g = _load(args, "graph")
    eps = parse_rational(args.eps)
    try:
        res = regularity_partition(g, eps, args.k0,
                                   cap=args.cap or DEFAULT_CAP,
                                   seed=args.seed or 0)
    except InfeasibleError as exc:
        return "infeasible", None, None, {"reason": str(exc)}
    part = res.partition
    extra = {
        "iterations": res.iterations,
        "cluster_count": len(part.balancing),
        "cluster_size": popcount(part.classes[1]) if len(part.classes) > 1 else 0,
        "exceptional_size": popcount(part.classes[0]),
        "energy_trace": [fmt(e) for e in res.energy_trace],
        "classes": [set_list(c) for c in part.classes],
    }
    return "found", None, None, extra


@subcommand("degree-form", *_DEGREE_FORM, seed=True, cap=True,
            fixture=lambda g: (["--graph", g(Graph.complete(12)), "--eps", "0.45",
                                "--d", "0.05", "--k0", "2"], "holds"))
def cmd_degree_form(args):
    g = _load(args)
    eps = parse_rational(args.eps)
    d = parse_rational(args.d)
    fn = degree_form_digraph if isinstance(g, Digraph) else degree_form
    try:
        res = fn(g, eps, d, args.k0, cap=args.cap or DEFAULT_CAP,
                 seed=args.seed or 0)
    except InfeasibleError as exc:
        return "infeasible", None, None, {"reason": str(exc)}
    part = res.partition
    extra = {
        "cluster_count": len(part.balancing),
        "cluster_size": popcount(part.classes[1]) if len(part.classes) > 1 else 0,
        "exceptional_size": popcount(part.classes[0]),
        "pure_edges": res.pure_graph.edge_count,
        "inner_epsilon": res.inner_epsilon,
        "inner_k0": res.inner_k0,
        "used_fallback": res.used_fallback,
    }
    return ("holds" if res.audit["all"] else "fails"), None, res.audit, extra


@subcommand("reduce", *_DEGREE_FORM, seed=True, cap=True, output=True,
            fixture=lambda g: (["--graph", g(Graph.complete(12)), "--eps", "0.45",
                                "--d", "0.05", "--k0", "2"], "found"))
def cmd_reduce(args):
    g = _load(args)
    eps = parse_rational(args.eps)
    d = parse_rational(args.d)
    fn = degree_form_digraph if isinstance(g, Digraph) else degree_form
    try:
        res = fn(g, eps, d, args.k0, cap=args.cap or DEFAULT_CAP,
                 seed=args.seed or 0)
    except InfeasibleError as exc:
        return "infeasible", None, None, {"reason": str(exc)}
    red = reduced_graph(res.pure_graph, res.partition, eps, d,
                        cap=args.cap or DEFAULT_CAP, seed=args.seed or 0)
    if args.output:
        write_graph_file(args.output, red.r)
    extra = {"reduced_order": red.r.n, "reduced_edges": red.r.edge_count,
             "degree_form_audit": res.audit}
    return "found", None, None, extra


@subcommand("certify", arg("--kind"), arg("--eta"),
            fixture=lambda g: (["--graph", g(cons.chvatal_extremal(8, 3)),
                                "--kind", "chvatal"], "fails"))
def cmd_certify(args):
    g = _load(args)
    eta = parse_rational(args.eta) if args.eta else None
    cert = certify(g, args.kind, eta=eta)
    extra = {"kind": cert.kind, "failing_index": cert.failing_index}
    return ("holds" if cert.satisfied else "fails"), None, None, extra


@subcommand("hamilton", cap=True,
            fixture=lambda g: (["--graph", g(cons.chvatal_extremal(8, 3))],
                               "none"))
def cmd_hamilton(args):
    g = _load(args)
    cycle = hamilton_oracle(g, cap=args.cap or HAMILTON_CAP)
    if cycle is None:
        return "none", None, None, {}
    return "found", None, None, {"cycle": list(cycle)}


@subcommand("oriented-hamilton", arg("--pattern"), cap=True,
            fixture=lambda g: (["--graph", g(cons.antidirected_counterexample(1)),
                                "--pattern", "fb" * 6], "none"))
def cmd_oriented_hamilton(args):
    g = _load(args, "digraph")
    res = oriented_hamilton_oracle(g, OrientedPattern(args.pattern),
                                   cap=args.cap or ORIENTED_CAP)
    extra = {"cycle": list(res.cycle)} if res.cycle else {}
    return res.status, None, None, extra


@subcommand("oriented-path", *_SOURCE_TARGET, arg("--pattern"), cap=True,
            fixture=lambda g: (["--graph", g(Digraph.directed_cycle(5)),
                                "--source", "0", "--target", "2",
                                "--pattern", "ff"], "found"))
def cmd_oriented_path(args):
    g = _load(args, "digraph")
    path = find_oriented_path(g, args.source, args.target, args.pattern,
                              cap=args.cap or ORIENTED_CAP)
    if path is None:
        return "none", None, None, {}
    return "found", None, None, {"path": list(path)}


@subcommand("matching", *_LEFT_RIGHT,
            fixture=lambda g: (["--graph", g(Graph.complete_bipartite(3, 3)),
                                "--left", "0-2", "--right", "3-5"], "found"))
def cmd_matching(args):
    g = _load(args, "graph")
    a = parse_vertex_set(args.left)
    b = parse_vertex_set(args.right)
    if a & b:
        raise GraphError("sides must be disjoint")
    a_list = list(bits(a))
    b_list = list(bits(b))
    b_index = {v: i for i, v in enumerate(b_list)}
    adjacency = [mask_of(b_index[w] for w in bits(g.rows[v] & b)) for v in a_list]
    res = bipartite_matching(adjacency, len(b_list))
    if res.saturates:
        pairs = [[a_list[i], b_list[res.matching[i]]] for i in range(len(a_list))]
        return "found", None, None, {"matching": pairs}
    violator = [a_list[i] for i in bits(res.violator)]
    return "none", {"hall_violator": violator}, None, {}


@subcommand("one-factor",
            fixture=lambda g: (["--graph", g(cons.haggkvist_graph(3))], "none"))
def cmd_one_factor(args):
    g = _load(args, "digraph")
    res = one_factor(g)
    if res.cycles is None:
        return "none", {"hall_violator": set_list(res.violator)}, None, {}
    return "found", None, None, {"cycles": [list(c) for c in res.cycles]}


@subcommand("rotation-hamilton",
            fixture=lambda g: (["--graph", g(Digraph.complete(6))], "found"))
def cmd_rotation_hamilton(args):
    g = _load(args, "digraph")
    res = rotation_extension_hamilton(g)
    if res.found:
        return "found", None, None, {"cycle": list(res.cycle)}
    return "none", None, None, {"failed_step": res.failed_step,
                                "detail": res.detail}


@subcommand("expander", arg("--nu"), arg("--tau"),
            arg("--mode", choices=["out", "in", "di"], default="out"), cap=True,
            fixture=lambda g: (["--graph", g(Digraph.complete(10)), "--nu", "1/10",
                                "--tau", "1/5", "--mode", "out"], "holds"))
def cmd_expander(args):
    g = _load(args, "digraph")
    spec = ExpansionSpec(parse_rational(args.nu), parse_rational(args.tau),
                         args.mode)
    verdict = check_expander(g, spec, cap=args.cap or EXPANDER_CAP)
    wit = {"S": set_list(verdict.violator)} if verdict.violator is not None else None
    return ("holds" if verdict.holds else "fails"), wit, None, {
        "checked_sets": verdict.checked_sets, "visited": verdict.visited}


@subcommand("rn", arg("--set"), arg("--nu"),
            arg("--direction", choices=["out", "in"], default="out"),
            fixture=lambda g: (["--graph", g(Digraph.directed_cycle(8)),
                                "--set", "0-3", "--nu", "1/8",
                                "--direction", "out"], "found"))
def cmd_rn(args):
    g = _load(args, "digraph")
    s = parse_vertex_set(args.set)
    rn = robust_neighbourhood(g, s, parse_rational(args.nu), args.direction)
    return "found", None, None, {"members": set_list(rn), "size": popcount(rn)}


def _factor_context(g: Digraph) -> FactorContext:
    res = one_factor(g)
    if res.cycles is None:
        raise GraphError("reduced digraph has no 1-factor")
    return FactorContext(g, res.cycles)


def _hamiltonian_factor_context(g: Digraph) -> FactorContext:
    cycle = hamilton_oracle(g, cap=max(HAMILTON_CAP, g.n))
    if cycle is None:
        raise GraphError("reduced digraph has no Hamilton cycle to use as F")
    return FactorContext(g, (cycle,))


@subcommand("shifted-walk", *_SOURCE_TARGET, arg("--avoid"),
            arg("--tmax", type=int),
            fixture=lambda g: (["--graph", g(Digraph.complete(5)),
                                "--source", "0", "--target", "2"], "found"))
def cmd_shifted_walk(args):
    g = _load(args, "digraph")
    ctx = _factor_context(g)
    avoid = frozenset(bits(parse_vertex_set(args.avoid))) if args.avoid else frozenset()
    walk = find_shifted_walk(ctx, args.source, args.target, avoid,
                             t_max=args.tmax)
    if walk is None:
        return "none", None, None, {}
    return "found", None, None, {"entries": list(walk.entries),
                                 "exits": list(walk.exits),
                                 "cycles_traversed": walk.cycles_traversed}


@subcommand("skewed-traverse", *_SOURCE_TARGET,
            fixture=lambda g: (["--graph", g(Digraph.complete(5)),
                                "--source", "0", "--target", "2"], "found"))
def cmd_skewed_traverse(args):
    g = _load(args, "digraph")
    ctx = _hamiltonian_factor_context(g)
    tr = find_skewed_traverse(ctx, args.source, args.target)
    if tr is None:
        return "none", None, None, {}
    return "found", None, None, {"edges": [list(e) for e in tr.edges],
                                 "length": tr.length}


@subcommand("rebalance", arg("--counts"), arg("--slots"),
            arg("--m", type=int), arg("--over", type=int), arg("--under", type=int),
            arg("--mode", choices=["traverse", "walk"], default="traverse"),
            fixture=lambda g: (["--graph", g(Digraph.complete(4)),
                                "--counts", "5,3,4,4", "--slots", "2,2,2,2",
                                "--m", "4", "--over", "0", "--under", "1"],
                               "found"))
def cmd_rebalance(args):
    g = _load(args, "digraph")
    ctx = _hamiltonian_factor_context(g)
    counts = tuple(int(x) for x in args.counts.split(","))
    slots = tuple(int(x) for x in args.slots.split(","))
    assign = ClusterAssignment(counts, slots, args.m)
    try:
        new_assign, recipe = rebalance(assign, ctx, args.over, args.under,
                                       mode=args.mode)
    except GraphError as exc:
        return "none", None, None, {"reason": str(exc)}
    extra = {"counts": list(new_assign.counts),
             "neutral_slots": list(new_assign.neutral_slots),
             "mode": recipe.mode}
    if recipe.traverse is not None:
        extra["traverse"] = [list(e) for e in recipe.traverse.edges]
        extra["consumed_anchors"] = list(recipe.consumed_anchors)
    if recipe.walk_out is not None:
        extra["walk_out"] = list(recipe.walk_out.entries)
        extra["walk_back"] = list(recipe.walk_back.entries)
    return "found", None, None, extra


@subcommand("ex-number", arg("--n", type=int), arg("--h"), graph=False,
            cap=True, fixture=lambda g: (["--n", "5", "--h", "K3"], "6"))
def cmd_ex_number(args):
    h = parse_pattern_graph(args.h)
    value, witness = extremal_number(args.n, h, cap=args.cap or EXTREMAL_CAP)
    edges = [[u, v] for u in range(witness.n) for v in bits(witness.rows[u]) if u < v]
    return str(value), None, None, {"witness_edges": edges}


@subcommand("ramsey", arg("--h"), arg("--nmax", type=int, default=7),
            graph=False, fixture=lambda g: (["--h", "K3", "--nmax", "6"], "6"))
def cmd_ramsey(args):
    h = parse_pattern_graph(args.h)
    res = ramsey_oracle(h, n_max=args.nmax)
    extra = {"witness_n": res.witness_n,
             "witness_red_edges": [list(e) for e in res.witness_red],
             "searched_to": res.searched_to}
    if res.value is None:
        return "none", None, None, extra
    return str(res.value), None, None, extra


@subcommand("packing", arg("--f"), cap=True,
            fixture=lambda g: (["--graph", g(cons.c6_sharpness_graph(12)),
                                "--f", "C6"], "none"))
def cmd_packing(args):
    g = _load(args, "graph")
    f = parse_pattern_graph(args.f)
    res = packing_oracle(g, f, cap=args.cap or PACKING_CAP)
    if res.perfect:
        return "found", None, None, {"copies": [list(c) for c in res.copies]}
    return "none", None, None, {}


@subcommand("embed", arg("--h"), arg("--clusters"), arg("--eps"), arg("--d"),
            arg("--s", type=int, default=1), seed=True, cap=True,
            fixture=lambda g: (["--graph", g(blow_up(Graph.complete(3), 8)),
                                "--h", "K3", "--clusters", "0-7;8-15;16-23",
                                "--eps", "1/100", "--d", "1/2", "--s", "1"],
                               "found"))
def cmd_embed(args):
    g = _load(args, "graph")
    h = parse_pattern_graph(args.h)
    eps = parse_rational(args.eps)
    d = parse_rational(args.d)
    clusters = parse_clusters(args.clusters)
    covered = 0
    for c in clusters:
        covered |= c
    classes = [full_mask(g.n) ^ covered] + clusters
    part = Partition(g.n, tuple(classes),
                     balancing=tuple(range(1, len(clusters) + 1)), exceptional=0)
    red = reduced_graph(g, part, eps, d, cap=args.cap or DEFAULT_CAP,
                        seed=args.seed or 0)
    rs = blow_up(red.r, args.s)
    found = subgraph_oracle(h, rs)
    if found is None:
        return "none", None, None, {"reason": "H is not a subgraph of R^s"}
    sigma = [v // args.s for v in found.map]
    result = greedy_embed(h, g, red, sigma, args.s)
    if isinstance(result, Embedding):
        return "found", None, None, {"map": list(result.map),
                                     "sigma": list(sigma)}
    return "none", None, None, {"failed_step": result.step,
                                "candidate_sizes": list(result.candidate_sizes)}


@subcommand("oracle-embed", arg("--h"), cap=True,
            fixture=lambda g: (["--graph", g(Graph.cycle(5)), "--h", "K3"],
                               "none"))
def cmd_oracle_embed(args):
    g = _load(args)
    if isinstance(g, Digraph):
        raise GraphError("oracle-embed currently takes undirected hosts")
    h = parse_pattern_graph(args.h)
    emb = subgraph_oracle(h, g, cap=args.cap or SUBGRAPH_CAP)
    if emb is None:
        return "none", None, None, {}
    return "found", None, None, {"map": list(emb.map)}


# ---------------------------------------------------------------------------
# self-tests, argument parsing and dispatch
# ---------------------------------------------------------------------------

def _fixture_graph(g: Graph | Digraph) -> str:
    write_graph_file("g.txt", g)
    return "g.txt"


def selftest(command: str) -> int:
    """Run the pinned fixture for ``command``; 0 on success, 1 on failure.

    The fixture runs inside a temporary working directory and names its
    graph file relatively, so the report is byte-identical across reruns.
    """
    import tempfile
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argv, expected = SUBCOMMANDS[command].fixture(_fixture_graph)
            return run([command, *argv, "--expect", expected])
        finally:
            os.chdir(cwd)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="reglab",
                                  description="regularity / expansion / "
                                              "Hamiltonicity laboratory")
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flags, kwargs in cmd.arguments:
            p.add_argument(*flags, **kwargs)
        # the shared options come last: reports list parameters in this order
        if cmd.graph:
            p.add_argument("graph_pos", nargs="?", metavar="GRAPH_FILE")
            p.add_argument("--graph")
        if cmd.seed:
            p.add_argument("--seed", type=int)
        if cmd.cap:
            p.add_argument("--cap", type=int)
        p.add_argument("--expect")
        p.add_argument("--timing", action="store_true")
        p.add_argument("--selftest", action="store_true")
        if cmd.output:
            p.add_argument("-o", "--output")
    return top


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        thread_cap()
        if args.selftest:
            return selftest(args.command)
        start = time.perf_counter()
        verdict, witness, audit, extra = SUBCOMMANDS[args.command].handler(args)
        runtime = (int((time.perf_counter() - start) * 1000)
                   if args.timing else None)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "expect", "timing", "selftest")
                  and v is not None}
        report = emit_report(args.command, params, verdict, witness=witness,
                             audit=audit, seed=getattr(args, "seed", None),
                             runtime_ms=runtime, extra=extra)
        print(json.dumps(report, indent=2))
        if args.expect is not None and args.expect != verdict:
            print(f"expectation failed: wanted {args.expect!r}, got {verdict!r}",
                  file=sys.stderr)
            return 1
        return 0
    except (GraphError, CapExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
