"""Tests of the benchmark itself: its checks reject corrupted answers, its
corpus follows the seed, and every workload completes a smoke-size run.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from reglab import constructions as cons  # noqa: E402

F = Fraction


def op_result(op):
    kind = workloads.KINDS[op.kind]
    return kind.run(kind.prepare(op.data))


def assert_rejected(op, result):
    with pytest.raises(checks.CheckFailed):
        workloads.KINDS[op.kind].check(op.data, result)


def assert_accepted(op, result):
    workloads.KINDS[op.kind].check(op.data, result)


def pair_op(g, k, eps):
    return workloads.Op("pair", (workloads.graph_data(g), (1 << k) - 1,
                                 ((1 << k) - 1) << k, eps))


def moved(mask, within):
    """``mask`` with its lowest member swapped for the lowest non-member."""
    low = mask & -mask
    free = within & ~mask
    return mask ^ low | (free & -free)


# ---------------------------------------------------------------------------
# each independent check rejects a corrupted answer
# ---------------------------------------------------------------------------

def test_pair_check_rejects_flipped_verdicts_and_moved_witnesses():
    irregular = pair_op(cons.half_graph(8), 8, F(1, 4))
    res = op_result(irregular)
    assert not res.holds
    assert_accepted(irregular, res)
    assert_rejected(irregular, dataclasses.replace(res, holds=True, witness=None))
    w = res.witness
    assert_rejected(irregular, dataclasses.replace(
        res, witness=dataclasses.replace(w, x=moved(w.x, (1 << 8) - 1))))
    assert_rejected(irregular, dataclasses.replace(
        res, witness=dataclasses.replace(w, deviation=w.deviation + F(1, 100))))

    holding = pair_op(cons.random_bipartite(8, 8, 0.5, 7), 8, F(9, 20))
    res = op_result(holding)
    assert res.holds
    assert_accepted(holding, res)
    assert_rejected(holding, dataclasses.replace(res, holds=False, witness=w))


def test_larger_pair_witness_is_recomputed_exactly():
    op = pair_op(cons.random_bipartite(12, 12, 0.5, 3), 12, F(1, 4))
    res = op_result(op)
    assert not res.holds
    assert_accepted(op, res)
    w = res.witness
    assert_rejected(op, dataclasses.replace(
        res, witness=dataclasses.replace(w, y=moved(w.y, op.data[2]))))


def test_expander_check_rejects_flipped_verdicts_and_moved_violators():
    d = cons.random_digraph(10, 0.15, 3)
    op = workloads.Op("expander", (workloads.graph_data(d), F(1, 10),
                                   workloads.EXP_TAU, "out", None))
    res = op_result(op)
    v = res.verdict
    assert not v.holds
    assert_accepted(op, res)

    def with_verdict(**changes):
        return dataclasses.replace(res, verdict=dataclasses.replace(v, **changes))

    assert_rejected(op, with_verdict(holds=True, violator=None))
    assert_rejected(op, with_verdict(violator=moved(v.violator, (1 << 10) - 1)))

    dense = cons.random_digraph(10, 0.9, 3)
    op = workloads.Op("expander", (workloads.graph_data(dense), F(1, 10),
                                   workloads.EXP_TAU, "di", None))
    res = op_result(op)
    v = res.verdict
    assert v.holds
    assert_rejected(op, with_verdict(holds=False, violator=0b11111))


def test_cycle_checks_reject_a_missing_vertex():
    d = cons.random_digraph(10, 0.7, 5)
    op = workloads.Op("expander", (workloads.graph_data(d), F(1, 10),
                                   workloads.EXP_TAU, "out", "oracle"))
    res = op_result(op)
    assert res.followed == "oracle" and res.cycle is not None
    assert_accepted(op, res)
    assert_rejected(op, dataclasses.replace(res, cycle=res.cycle[:-1]))
    # a flipped verdict: plain search finds a cycle
    assert_rejected(op, dataclasses.replace(res, cycle=None))

    op = workloads.Op("rotation", (workloads.graph_data(cons.random_digraph(40, 0.5, 1)),))
    res = op_result(op)
    assert res.found
    assert_rejected(op, dataclasses.replace(res, cycle=res.cycle[1:]))


def test_one_factor_and_hall_checks_reject_corruption():
    op = workloads.Op("one_factor", (workloads.graph_data(cons.random_digraph(30, 0.5, 2)),))
    res = op_result(op)
    assert res.cycles is not None
    assert_accepted(op, res)
    broken = (res.cycles[0][1:],) + res.cycles[1:]
    assert_rejected(op, dataclasses.replace(res, cycles=broken))

    hg = workloads.Op("one_factor", (workloads.graph_data(cons.haggkvist_graph(3)),))
    res = op_result(hg)
    assert res.cycles is None
    assert_accepted(hg, res)
    assert_rejected(hg, dataclasses.replace(res, violator=res.violator & -res.violator))


def test_enumeration_and_extremal_checks_reject_wrong_counts():
    op = workloads.Op("enumerate", ("graphs", 5))
    found = op_result(op)
    assert_accepted(op, found)
    assert_rejected(op, found[:-1])

    op = workloads.Op("extremal", (6, 3))
    value, graphs = op_result(op)
    assert_accepted(op, (value, graphs))
    assert_rejected(op, (value - 1, graphs))
    assert_rejected(op, (value, graphs + graphs))

    op = workloads.Op("ramsey", ())
    res = op_result(op)
    assert_accepted(op, res)
    assert_rejected(op, dataclasses.replace(res, value=5))


def test_partition_and_degree_form_checks_reject_corruption():
    gdata = workloads.graph_data(cons.random_graph(24, 0.5, 4))
    op = workloads.Op("partition", (gdata,))
    res = op_result(op)
    assert_accepted(op, res)
    p = res.partition
    v0, first = p.classes[0], p.classes[1]
    low = first & -first
    shifted = SimpleNamespace(classes=(v0 | low, first ^ low) + p.classes[2:],
                              exceptional=p.exceptional, balancing=p.balancing)
    assert_rejected(op, SimpleNamespace(partition=shifted, energy_trace=res.energy_trace))
    assert_rejected(op, dataclasses.replace(res, energy_trace=(res.energy_trace[0] + 1,)))

    op = workloads.Op("degree_form", (gdata,))
    res = op_result(op)
    assert_accepted(op, res)
    assert_rejected(op, dataclasses.replace(res, audit={**res.audit, "ii": not res.audit["ii"]}))


def test_certificate_and_walk_checks_reject_corruption():
    gdata = workloads.graph_data(cons.chvatal_extremal(10, 3))
    op = workloads.Op("certify", (gdata,))
    cert = op_result(op)
    assert not cert.satisfied
    assert_accepted(op, cert)
    assert_rejected(op, dataclasses.replace(cert, satisfied=True, failing_index=None))

    r = cons.random_digraph(9, 0.8, 9004)
    op = workloads.Op("expander", (workloads.graph_data(r), workloads.WALK_NU,
                                   workloads.WALK_TAU, "out", "walks"))
    res = op_result(op)
    assert res.followed == "walks" and res.walks
    assert_accepted(op, res)
    assert_rejected(op, dataclasses.replace(res, followed=None))
    (a, b), walk = next((key, w) for key, w in res.walks.items() if w.exits)
    longer = dataclasses.replace(walk, entries=walk.entries[:1] + walk.entries,
                                 exits=walk.exits[:1] + walk.exits)
    assert_rejected(op, dataclasses.replace(res, walks={**res.walks, (a, b): longer}))


def test_packing_check_rejects_a_claimed_packing():
    op = workloads.Op("packing", (workloads.graph_data(cons.c6_sharpness_graph(12)), 6))
    res = op_result(op)
    assert not res.perfect
    assert_accepted(op, res)
    assert_rejected(op, dataclasses.replace(res, perfect=True,
                                            copies=((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))))


# ---------------------------------------------------------------------------
# corpus and metric names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_decides_the_corpus(name):
    assert tuple(workloads.BLOCKS) == run.WORKLOAD_NAMES
    assert workloads.block(name, 1, 0) == workloads.block(name, 1, 0)
    assert workloads.block(name, 1, 0) != workloads.block(name, 2, 0)
    assert workloads.block(name, 1, 0) != workloads.block(name, 1, 1)
    kinds = [op.kind for op in workloads.block(name, 1, 0)]
    assert kinds == [op.kind for op in workloads.block(name, 2, 0)]


def bench(*args, cwd=ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_different_seeds_give_the_same_metric_names():
    one = last_json(bench("--workload", "refutation", "--seed", "1", "--seconds", "0"))
    two = last_json(bench("--workload", "refutation", "--seed", "2", "--seconds", "0"))
    assert list(one["metrics"]) == list(two["metrics"]) == [m for m, _ in run.E2E_METRICS]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(one["metrics"])
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in trace.METRICS]


# ---------------------------------------------------------------------------
# smoke runs and guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_completes(name):
    result = last_json(bench("--workload", name, "--seconds", "0"))
    assert result["correct"] and result["attempted"] >= 1
    assert all(m["value"] > 0 for k, m in result["metrics"].items())
    if name == "matching":
        assert result["failed"] > 0  # the seed's RecursionError at n = 1500
    else:
        assert result["failed"] == 0


def test_traced_smoke_run_reports_every_layer_metric():
    result = last_json(bench("--workload", "refutation", "--seconds", "0", "--trace", "1"))
    assert result["correct"]
    assert list(result["metrics"]) == [m[0] for m in trace.METRICS]
    assert result["metrics"]["enumeration.canonical_calls"]["value"] > 0
    assert result["metrics"]["embedding.self_s"]["value"] > 0


def test_refuses_optimized_interpreter():
    done = bench("--workload", "szemeredi", "--seconds", "0", flags=("-O",))
    assert done.returncode != 0 and not done.stdout.strip()


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", "szemeredi", "--seconds", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()
