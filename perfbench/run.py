#!/usr/bin/env python3
"""reglab benchmark: four exact-verdict workloads, timed from outside the library.

Run from the repository root:

    python3 perfbench/run.py --workload szemeredi --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each run is a closed loop with one client in one thread: the next operation
starts when the previous one returns.  Operations come in blocks generated
from ``--seed`` (see workloads.py); the run executes whole blocks until the
timed operations add up to ``--seconds`` and number at least 100.  Times are
scaled by a speed probe run between operations (see reference_seconds).
Every answer is checked against an independent reference outside the timed
span, and the canonical answers of block 0 are compared with the digest
recorded for the default seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps reglab's
public entry points (trace.py), alternates untraced and traced passes over
block 0, and prints the per-layer metrics for one pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

``--record-digest`` rewrites digests.json from block 0 of the default seed;
use it only when a change to canonical output is intended.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOAD_NAMES = ("szemeredi", "expansion", "matching", "refutation")
DEFAULT_SEED = 1
#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 7
#: operation times are scaled to a machine on which the speed probe takes
#: this long; see reference_seconds
REFERENCE_S = 0.0007
#: operations shorter than this are repeated, see execute
SHORT_OP_S = 0.002
SHORT_OP_RUNS = 9
#: a run goes on to the next whole block until it has this many operations,
#: so that op_p90_ms has at least ten samples beyond it
MIN_OPERATIONS = 100
#: no new block starts after this much wall time, so a run ends well
#: inside three minutes even on a slow machine
WALL_LIMIT_S = 100.0

E2E_METRICS = (
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("passed_share", "ratio"), ("exact_share", "ratio"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def refuse(reason: str) -> None:
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import reglab from this checkout's src/ and nowhere else."""
    if sys.flags.optimize:
        refuse("refusing to run under python -O or PYTHONOPTIMIZE: reglab's "
               "assert-based self-audits would vanish and a different program "
               "would be timed")
    if not (SRC / "reglab" / "__init__.py").is_file():
        refuse(f"no reglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reglab
    if Path(reglab.__file__).resolve().parent != (SRC / "reglab").resolve():
        refuse(f"imported reglab from {reglab.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "reglab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# executing operations
# ---------------------------------------------------------------------------

def _reference_rows(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.getrandbits(n) & ~(1 << v) for v in range(n))


_REFERENCE_RNG = random.Random(0)
_REFERENCE_SCAN = _reference_rows(14, _REFERENCE_RNG)
_REFERENCE_DIGRAPH = _reference_rows(6, _REFERENCE_RNG)
_REFERENCE_CYCLE = _reference_rows(7, _REFERENCE_RNG)
_REFERENCE_PAIR = Fraction(9, 20), 0b11111, 0b1111100000, tuple(
    (0b1111100000 if v < 5 else 0b11111) for v in range(10))


def _reference_kernels() -> tuple[float, float]:
    t0 = perf_counter()
    hits = 0
    for s in range(1, 1 << 9):
        for row in _REFERENCE_SCAN:
            if (row & s).bit_count() >= 2:
                hits += 1
    t1 = perf_counter()
    eps, a, b, rows = _REFERENCE_PAIR
    checks.naive_pair_witness(rows, a, b, eps)
    checks.brute_force_violator(_REFERENCE_DIGRAPH, Fraction(1, 6), Fraction(1, 4), "di")
    checks.hamilton_cycle_exists(_REFERENCE_CYCLE)
    return t1 - t0, perf_counter() - t1


def reference_seconds() -> float:
    """Speed probe: a fixed pure-Python workload that shares no code with
    reglab.

    A shared machine can change speed by up to half for tens of seconds at
    a time (other tenants, frequency scaling), and pure-Python code slows
    down with it.  Timing this probe next to every operation and scaling the
    operation's time by REFERENCE_S / (probe time) removes most of that
    drift, so runs made minutes apart stay comparable.  The probe is the
    geometric mean of two kernels, each the faster of two runs: a tight
    bit-set scan, and the benchmark's own reference checks (subset scans,
    rationals, backtracking) on fixed small inputs, whose wider footprint
    tracks slowdowns that the tight loop over- or under-states.
    """
    first, second = _reference_kernels(), _reference_kernels()
    return (min(first[0], second[0]) * min(first[1], second[1])) ** 0.5


@dataclasses.dataclass
class Record:
    kind: str
    wall: float  # raw wall seconds of the timed call
    outcome: str  # passed | raised | rejected
    error: str = ""
    canon: str | None = None
    sampled: bool = False
    seconds: float = 0.0  # wall scaled to the reference machine speed
    runs: int = 1  # timed runs behind ``wall`` (short operations repeat)

    @property
    def digest_entry(self) -> str:
        """Short hash of the canonical answer; "" when there is none, "!" when
        the operation produced no accepted answer."""
        if self.outcome != "passed":
            return "!"
        if self.canon is None:
            return ""
        return hashlib.sha256(self.canon.encode()).hexdigest()[:16]


def execute(op, tracer=None, check=True, repeat=True) -> Record:
    """Time one operation, then check its answer outside the timed span.

    With ``repeat``, an operation that returns in under SHORT_OP_S runs
    again on freshly built inputs until its runs add up to SHORT_OP_S (at
    most SHORT_OP_RUNS runs), and its time is their median: a single run of
    a few microseconds is mostly timer and cache noise.  The traced run
    times each operation once, so span counts stay exact.
    """
    import workloads

    kind = workloads.KINDS[op.kind]
    runs = []
    while True:
        inputs = kind.prepare(op.data)
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result = kind.run(inputs)
        except Exception as exc:  # the loop goes on; the failure is counted by type
            return Record(op.kind, perf_counter() - t0, "raised", type(exc).__name__)
        finally:
            if tracer is not None:
                tracer.enabled = False
        runs.append(perf_counter() - t0)
        if not repeat or sum(runs) >= SHORT_OP_S or len(runs) >= SHORT_OP_RUNS:
            break
    seconds = statistics.median(runs)
    try:
        if check:
            kind.check(op.data, result)
    except checks.CheckFailed as exc:
        return Record(op.kind, seconds, "rejected", str(exc))
    except Exception as exc:  # a malformed answer can break its check
        return Record(op.kind, seconds, "rejected", f"check raised {exc!r}")
    sampled = getattr(kind, "sampled", None)
    return Record(op.kind, seconds, "passed", canon=kind.canon(op.data, result),
                  sampled=bool(sampled and sampled(result)), runs=len(runs))


def run_block(ops, tracer=None, tag=None, check=True, repeat=True) -> list[Record]:
    """Execute a block in order.  The reference scan runs before every
    operation and after the last; each operation is scaled by the median of
    the eight scans nearest to it, which follows the machine's drift without
    copying the noise of a single scan."""
    records, refs = [], [reference_seconds()]
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.tag = (tag, index)
        records.append(execute(op, tracer, check, repeat))
        refs.append(reference_seconds())
    for i, rec in enumerate(records):
        rec.seconds = rec.wall * REFERENCE_S / statistics.median(refs[max(0, i - 3):i + 5])
    return records


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def digest_mismatches(workload: str, seed: int, block0: list[Record]) -> list[str]:
    """Compare block 0 with the recorded digest (default seed only).

    Operations that had no accepted answer when the digest was recorded are
    skipped, so a fix that turns a failure into an answer keeps the digest.
    """
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    if recorded is None:
        return []
    current = [f"{r.kind}:{r.digest_entry}" for r in block0]
    if len(current) != len(recorded):
        return [f"block 0 has {len(current)} operations, digest has {len(recorded)}"]
    return [f"operation {i}: {now} != recorded {then}"
            for i, (now, then) in enumerate(zip(current, recorded))
            if not then.endswith(":!") and now != then]


def digest_status(workload: str, seed: int, mismatches: list[str]) -> str:
    if seed != DEFAULT_SEED:
        return f"recorded for seed {DEFAULT_SEED} only"
    if not DIGESTS.is_file() or workload not in json.loads(DIGESTS.read_text()):
        return "no recorded digest"
    return "MISMATCH with the recorded digest" if mismatches else "matches the recorded digest"


def block_digest(block0: list[Record]) -> str:
    text = "\n".join(f"{r.kind}:{r.digest_entry}" for r in block0)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_digests(names) -> None:
    import workloads

    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in names:
        records = run_block(workloads.block(name, DEFAULT_SEED, 0))
        bad = [r for r in records if r.outcome == "rejected"]
        if bad:
            refuse(f"{name}: {len(bad)} answers rejected; not recording a digest")
        table[name] = [f"{r.kind}:{r.digest_entry}" for r in records]
        print(f"{name}: {len(records)} operations, digest {block_digest(records)}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time from starting a fresh interpreter to the point where the first
    operation would be timed (imports plus block-0 generation), scaled by the
    reference scans around each probe like an operation."""
    times = []
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--setup-probe"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE) as probe:
            ready = probe.stdout.readline()
            wall = perf_counter() - t0
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or ready.strip() != "ready":
                refuse("setup probe failed")
        after = reference_seconds()
        times.append(wall * REFERENCE_S * 2 / (before + after))
        before = after
    return times


def answers(records: list[Record]) -> list[tuple]:
    return [(r.kind, r.outcome != "raised", r.error if r.outcome == "raised" else r.canon)
            for r in records]


def latency_metrics(records: list[Record], seconds: list[float]) -> dict:
    passed = sum(r.outcome == "passed" for r in records)
    ms = [t * 1000 for t in seconds]
    return {"ops_per_s": passed / sum(seconds),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8]}


def summarize(records: list[Record]) -> dict:
    passed = sum(r.outcome == "passed" for r in records)
    return {
        "attempted": len(records),
        "passed": passed,
        "raised": Counter(r.error for r in records if r.outcome == "raised"),
        "rejected": [f"{r.kind}: {r.error}" for r in records if r.outcome == "rejected"],
        "sampled": sum(r.sampled for r in records),
    }


def timed_run(workload: str, seed: int, seconds: float, t_start: float) -> dict:
    import workloads

    ops = workloads.block(workload, seed, 0)
    records: list[Record] = []
    block0: list[Record] = []
    index = timed = 0
    while True:
        recs = run_block(ops)
        timed += sum(r.wall * r.runs for r in recs)
        block0 = block0 or recs
        records += recs
        index += 1
        if ((timed >= seconds and len(records) >= MIN_OPERATIONS)
                or perf_counter() - t_start > WALL_LIMIT_S):
            break
        ops = workloads.block(workload, seed, index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_seconds(workload, seed)

    s = summarize(records)
    scaled = latency_metrics(records, [r.seconds for r in records])
    raw = latency_metrics(records, [r.wall for r in records])
    metrics = {
        **scaled,
        "passed_share": s["passed"] / s["attempted"],
        "exact_share": 1 - s["sampled"] / s["attempted"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    mismatches = digest_mismatches(workload, seed, block0)
    lines = [
        f"blocks {index}, operations {s['attempted']}, timed {timed:.3f} s",
        "unscaled wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"failed_share {(s['attempted'] - s['passed']) / s['attempted']:.6f} ratio "
        f"(raised {dict(s['raised'])}, rejected {len(s['rejected'])})",
        f"sampled_share {s['sampled'] / s['attempted']:.6f} ratio",
        f"setup probes {[round(t, 4) for t in setup]} s",
        f"block-0 digest {block_digest(block0)} ({digest_status(workload, seed, mismatches)})",
    ] + [f"REJECTED {line}" for line in s["rejected"]] + [
        f"DIGEST {line}" for line in mismatches]
    units = dict(E2E_METRICS)
    return {
        "correct": not s["rejected"] and not mismatches,
        "attempted": s["attempted"],
        "failed": s["attempted"] - s["passed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in E2E_METRICS},
        "lines": lines,
        "operations": [[r.kind, r.outcome, r.seconds, r.wall] for r in records],
    }


def traced_run(workload: str, seed: int, seconds: float, t_start: float) -> dict:
    import trace
    import workloads

    tracer = trace.Tracer()
    tracer.install()
    tracer.tag = ("setup", 0)
    tracer.enabled = True
    ops = workloads.block(workload, seed, 0)
    tracer.enabled = False
    setup_spans = list(tracer.spans)

    passes: list[tuple[bool, list[Record]]] = []
    pass_spans: list[list[tuple]] = []
    while True:
        traced = len(passes) % 2 == 1
        before = len(tracer.spans)
        recs = run_block(ops, tracer if traced else None, tag=len(passes),
                         check=not passes, repeat=False)
        passes.append((traced, recs))
        if traced:
            pass_spans.append(tracer.spans[before:])
        total = sum(r.wall for _, rs in passes for r in rs)
        if len(passes) >= 2 and (total >= seconds or perf_counter() - t_start > WALL_LIMIT_S):
            break

    problems = []
    if any(answers(recs) != answers(passes[0][1]) for _, recs in passes):
        problems.append("passes over the same block gave different answers")
    if not trace.counts_agree(pass_spans):
        problems.append("traced passes made different calls or counted different work")
    for spans, (_, recs) in zip(pass_spans, [p for p in passes if p[0]]):
        wrapped = {s[2][1] for s in spans if s[3].startswith("regularity.")
                   and s[7] is not None and s[7][0]}
        labelled = {i for i, r in enumerate(recs) if r.sampled}
        if wrapped != labelled:
            problems.append(f"sampled labels {sorted(labelled)} disagree with the "
                            f"wrapped pair checks {sorted(wrapped)}")

    per_pass = [sum(r.seconds for r in recs) for _, recs in passes]
    values = trace.per_layer_summary(
        pass_spans, setup_spans,
        traced_s=[t for (tr, _), t in zip(passes, per_pass) if tr],
        untraced_s=[t for (tr, _), t in zip(passes, per_pass) if not tr])
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(span_file)

    records = [r for _, recs in passes for r in recs]
    s = summarize(records)
    lines = [f"passes {len(passes)} over block 0 ({len(ops)} generated operations), "
             f"per-pass seconds {[round(t, 3) for t in per_pass]}",
             f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}"]
    lines += [f"  {name:30s} should move: {moves}"
              for name, _u, _b, moves in trace.METRICS]
    lines += [f"REJECTED {line}" for line in s["rejected"]]
    lines += [f"TRACE {line}" for line in problems]
    return {
        "correct": not s["rejected"] and not problems,
        "attempted": s["attempted"],
        "failed": s["attempted"] - s["passed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _b, _m in trace.METRICS},
        "lines": lines,
    }


def run_one(args, t_start: float) -> int:
    env = environment(args.seed)
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds, t_start)
    print(f"workload {args.workload}, trace {args.trace}, environment {json.dumps(env)}")
    for line in result.pop("lines"):
        print(line)
    detail = {"operations": result.pop("operations", [])}
    for name, metric in result["metrics"].items():
        print(f"{name:30s} {metric['value']:.6g} {metric['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, **result, **detail}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, text=True, capture_output=True, timeout=600)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"{'metric':30s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES) + "  unit")
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric:30s}" + "".join(
            f"{results[w]['metrics'][metric]['value']:14.6g}" for w in WORKLOAD_NAMES)
            + f"  {unit}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and generate block 0, print 'ready', exit")
    parser.add_argument("--record-digest", action="store_true",
                        help="rewrite digests.json from block 0 of the default seed")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.record_digest:
        return run_all(args)

    load_library()
    import workloads

    if args.setup_probe:
        workloads.block(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0
    if args.record_digest:
        record_digests(WORKLOAD_NAMES if args.workload == "all" else (args.workload,))
        return 0
    return run_one(args, t_start)


if __name__ == "__main__":
    sys.exit(main())
