"""Spans around reglab's public entry points, recorded from outside the library.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper in place of the original wherever a reglab module holds a
reference to it: the defining module, the ``reglab`` package namespace, and
sibling modules that imported it by name (``szemeredi.check_pair_regular``,
``expansion.certify``, ``embedding.enumerate_graphs``, ...).  Calls inside one
module that go through its own globals are therefore seen as well.

Each span records its parent, so a layer's self time is its span duration
minus the time its child spans cover.  Spans stay in memory and are written
out when the run ends.  While ``enabled`` is false a wrapper only forwards
the call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

#: traced layers; ``graphs`` is the leaf every layer uses and ``cli`` a thin
#: shell over the same calls, so neither gets spans
LAYERS = ("regularity", "szemeredi", "expansion", "hamilton", "walks",
          "enumeration", "embedding", "constructions")

HAMILTON_GROUPS = {
    "oracle": ("hamilton_oracle", "oriented_hamilton_oracle",
               "find_oriented_path", "hamilton_cycle_by_permutations"),
    "certify": ("certify", "verify_hamilton_cycle", "verify_oriented_cycle"),
    "matching": ("bipartite_matching", "one_factor"),
    "rotation": ("rotation_extension_hamilton",),
}

#: per-layer metrics: (name, unit, better, what it should move)
METRICS = (
    ("regularity.calls", "count", "lower", "work count for the pair checks"),
    ("regularity.self_s", "s", "lower",
     "ops_per_s and op_p90_ms on szemeredi; op_p50_ms on refutation"),
    ("regularity.sampled_calls", "count", "lower", "exact_share on szemeredi"),
    ("regularity.checked_pairs", "count", "lower",
     "none: the library's combinatorial problem size, not work done"),
    ("szemeredi.calls", "count", "lower", "work count for the partition loop"),
    ("szemeredi.self_s", "s", "lower", "ops_per_s on szemeredi"),
    ("szemeredi.iterations", "count", "lower", "ops_per_s on szemeredi"),
    ("szemeredi.fallbacks", "count", "lower", "ops_per_s on szemeredi"),
    ("expansion.calls", "count", "lower", "work count for the subset scans"),
    ("expansion.self_s", "s", "lower",
     "ops_per_s and op_p90_ms on expansion; op_p50_ms on refutation"),
    ("expansion.checked_sets", "count", "lower", "ops_per_s on expansion"),
    ("hamilton.oracle_calls", "count", "lower", "work count for the oracles"),
    ("hamilton.oracle_self_s", "s", "lower",
     "op_p50_ms on expansion and refutation"),
    ("hamilton.certify_self_s", "s", "lower", "op_p50_ms on refutation"),
    ("hamilton.matching_calls", "count", "lower", "work count for matching"),
    ("hamilton.matching_self_s", "s", "lower",
     "ops_per_s and op_p90_ms on matching"),
    ("hamilton.rotation_self_s", "s", "lower",
     "ops_per_s and op_p90_ms on matching"),
    ("hamilton.recursion_errors", "count", "lower", "passed_share on matching"),
    ("walks.calls", "count", "lower", "work count for shifted walks"),
    ("walks.self_s", "s", "lower", "ops_per_s on expansion"),
    ("enumeration.canonical_calls", "count", "lower",
     "ops_per_s and op_p90_ms on refutation"),
    ("enumeration.self_s", "s", "lower", "ops_per_s and op_p90_ms on refutation"),
    ("enumeration.classes", "count", "higher",
     "none: classes found, a check that enumeration is complete"),
    ("embedding.calls", "count", "lower", "work count for the oracles"),
    ("embedding.self_s", "s", "lower", "ops_per_s and op_p90_ms on refutation"),
    ("constructions.self_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_share", "ratio", "lower",
     "none: (traced - untraced) / untraced wall time of the same operations"),
)


def _verdict_info(args, kwargs, res):
    return (getattr(res, "mode", None) == "sampled", getattr(res, "checked_pairs", 0))


#: counters read from a span's return value, by traced function name
EXTRACTORS = {
    "regularity.check_pair_regular": _verdict_info,
    "regularity.check_pair_superregular": _verdict_info,
    "regularity.check_digraph_regular": _verdict_info,
    "regularity.check_digraph_superregular": _verdict_info,
    "szemeredi.regularity_partition": lambda a, k, res: res.iterations,
    "szemeredi.degree_form": lambda a, k, res: res.used_fallback,
    "expansion.check_expander": lambda a, k, res: res.checked_sets,
    "enumeration.enumerate_graphs": lambda a, k, res: len(res),
    "enumeration.enumerate_tournaments": lambda a, k, res: len(res),
}


class Tracer:
    """Span recorder; one per run."""

    def __init__(self) -> None:
        self.enabled = False
        self.tag = None  # attached to every span, e.g. (pass, operation index)
        self.spans: list[tuple] = []  # (id, parent, tag, name, t0, t1, status, info)
        self._stack = [0]
        self._next_id = 1

    def install(self) -> None:
        """Wrap the traced layers' public functions at every import site."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"reglab.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "reglab" or modname.startswith("reglab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, name: str):
        extract = EXTRACTORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            status, info, t1 = "ok", None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if extract is not None:
                    info = extract(args, kwargs, result)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                if t1 is None:
                    t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.tag, name, t0, t1,
                                     status, info))

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\ttag\tname\tstart_s\tend_s\tstatus\tinfo\n")
            for span in self.spans:
                out.write("\t".join(str(field) for field in span) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    child = defaultdict(float)
    for span_id, parent, _tag, _name, t0, t1, _status, _info in spans:
        child[parent] += t1 - t0
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times over one set of spans."""
    own = self_times(spans)
    m = defaultdict(float)
    raised_inside = {s[1] for s in spans if s[6] == "RecursionError"}
    for span in spans:
        span_id, _parent, _tag, name, _t0, _t1, status, info = span
        layer, func = name.split(".", 1)
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += own[span_id]
        if layer == "regularity" and info is not None:
            m["regularity.sampled_calls"] += info[0]
            m["regularity.checked_pairs"] += info[1]
        elif name == "szemeredi.regularity_partition" and info is not None:
            m["szemeredi.iterations"] += info
        elif name == "szemeredi.degree_form" and info is not None:
            m["szemeredi.fallbacks"] += info
        elif name == "expansion.check_expander" and info is not None:
            m["expansion.checked_sets"] += info
        elif layer == "enumeration":
            if func == "canonical_form":
                m["enumeration.canonical_calls"] += 1
            if info is not None:
                m["enumeration.classes"] += info
        elif layer == "hamilton":
            for group, funcs in HAMILTON_GROUPS.items():
                if func in funcs:
                    m[f"hamilton.{group}_calls"] += 1
                    m[f"hamilton.{group}_self_s"] += own[span_id]
            # count each RecursionError once, at the span where it started
            if status == "RecursionError" and span_id not in raised_inside:
                m["hamilton.recursion_errors"] += 1
    return m


def per_layer_summary(pass_spans: list[list[tuple]], setup_spans: list[tuple],
                      traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics for one pass over the same operations.

    Counts come from the first traced pass (every pass repeats them exactly);
    self times are medians over the traced passes; constructions are timed
    while the corpus is generated; the overhead compares the fastest traced
    and untraced passes.
    """
    per_pass = [layer_metrics(spans) for spans in pass_spans]
    out = {}
    for name, _unit, _better, _moves in METRICS:
        if name == "trace.overhead_share":
            # fastest passes: the first pass also pays for warming up
            out[name] = min(traced_s) / min(untraced_s) - 1
        elif name == "constructions.self_s":
            out[name] = layer_metrics(setup_spans).get(name, 0.0)
        elif name.endswith("_s"):
            out[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
        else:
            out[name] = per_pass[0].get(name, 0)
    return out


def counts_agree(pass_spans: list[list[tuple]]) -> bool:
    """Do all traced passes make exactly the same calls with the same counters?"""
    def key(spans):
        return sorted((s[3], s[6], repr(s[7])) for s in spans)
    first = key(pass_spans[0])
    return all(key(spans) == first for spans in pass_spans[1:])
