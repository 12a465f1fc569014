"""CLI surface: file formats, reports, exit codes, self-tests."""

import contextlib
import hashlib
import io
import json
import os

import pytest

from reglab import constructions as cons
from reglab.cli import (parse_rational, parse_vertex_set, read_graph_file,
                        run, write_graph_file)
from reglab.graphs import Digraph, Graph, GraphError

ALL_COMMANDS = ["construct", "density", "check-regular", "check-superregular",
                "partition", "degree-form", "reduce", "certify", "hamilton",
                "oriented-hamilton", "oriented-path", "matching", "one-factor",
                "rotation-hamilton", "expander", "rn", "shifted-walk",
                "skewed-traverse", "rebalance", "ex-number", "ramsey",
                "packing", "embed", "oracle-embed"]


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_selftest_fixture(command):
    assert run([command, "--selftest"]) == 0


def test_graph_file_roundtrip(tmp_path):
    g = cons.random_graph(9, 0.4, 2)
    path = str(tmp_path / "g.txt")
    write_graph_file(path, g)
    assert read_graph_file(path) == g
    d = cons.random_digraph(7, 0.4, 3)
    dpath = str(tmp_path / "d.txt")
    write_graph_file(dpath, d)
    assert read_graph_file(dpath) == d


def test_graph_file_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("graph 3\n0 1\n1 0\n")
    with pytest.raises(GraphError):
        read_graph_file(str(path))


def test_rational_parsing():
    from fractions import Fraction
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("0.45") == Fraction(9, 20)
    with pytest.raises(GraphError):
        parse_rational("abc")


def test_vertex_set_parsing():
    assert parse_vertex_set("0-3") == 0b1111
    assert parse_vertex_set("1,3-4") == 0b11010
    with pytest.raises(GraphError):
        parse_vertex_set("")


def test_reports_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    write_graph_file(path, cons.chvatal_extremal(8, 3))
    assert run(["certify", "--graph", path, "--kind", "chvatal"]) == 0
    first = capsys.readouterr().out
    assert run(["certify", "--graph", path, "--kind", "chvatal"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["command"] == "certify"
    assert report["verdict"] == "fails"
    assert "runtime_ms" not in report  # wall-clock time only under --timing
    assert run(["certify", "--graph", path, "--kind", "chvatal", "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert isinstance(timed.pop("runtime_ms"), int)
    assert timed == report


def test_seeded_commands_reproducible(tmp_path, capsys):
    argv = ["construct", "random-graph", "--n", "10", "--p", "0.5",
            "--seed", "1"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_expect_mismatch_exits_one(tmp_path):
    path = str(tmp_path / "g.txt")
    write_graph_file(path, Graph.complete(4))
    assert run(["hamilton", "--graph", path, "--expect", "found"]) == 0
    assert run(["hamilton", "--graph", path, "--expect", "none"]) == 1


def test_usage_error_exits_two(tmp_path):
    assert run(["hamilton", "--graph", str(tmp_path / "missing.txt")]) == 2
    assert run(["construct", "nosuchfamily"]) == 2
    assert run(["not-a-command"]) == 2


def test_huge_graph_header_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("digraph 1000000000000000000\n")
    assert run(["expander", "--graph", str(path), "--nu", "1/10",
                "--tau", "1/5"]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_huge_construct_exits_two(capsys):
    assert run(["construct", "complete", "--n", str(10 ** 18)]) == 2
    assert "exceeds cap" in capsys.readouterr().err


#: sha256 (first 16 hex digits) of each subcommand's --selftest stdout
SELFTEST_DIGESTS = {
    "construct": "e78c57761c293888",
    "density": "0b6730f47a49c0de",
    "check-regular": "77cdea6a64789e42",
    "check-superregular": "05d321608362d1a3",
    "partition": "c81c797048f911ae",
    "degree-form": "bb28437647187e69",
    "reduce": "74b61c46313eb4b6",
    "certify": "d11d99f0a82da557",
    "hamilton": "3e5f8d565d674894",
    "oriented-hamilton": "f9b5756be5ad76ba",
    "oriented-path": "e6b9ae5045d4028c",
    "matching": "8ee3cad511e7b638",
    "one-factor": "ba188948c3d36096",
    "rotation-hamilton": "acf6d61e9062d3fe",
    "expander": "63ff7d865a3dd01f",
    "rn": "dab6adc8ddc2bbec",
    "shifted-walk": "49c97b19aa29f12b",
    "skewed-traverse": "8952f1485c8f7274",
    "rebalance": "789b61923771a65c",
    "ex-number": "76a2bfceaeefcd26",
    "ramsey": "9a116eed3d3a16bb",
    "packing": "d403417636738963",
    "embed": "77d1a53f34f09649",
    "oracle-embed": "12b7ee8b0f023735",
}


def test_selftest_reports_pinned():
    assert list(SELFTEST_DIGESTS) == ALL_COMMANDS
    for command, digest in SELFTEST_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run([command, "--selftest"]) == 0
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        assert got == digest, command


def test_unread_flags_are_usage_errors(tmp_path):
    # --seed, --cap and -o exist only on the subcommands whose handler reads them
    path = str(tmp_path / "g.txt")
    write_graph_file(path, Graph.complete(4))
    assert run(["hamilton", "--graph", path, "--seed", "1"]) == 2
    assert run(["density", "--graph", path, "--left", "0-1", "--right", "2-3",
                "-o", str(tmp_path / "x")]) == 2
    assert run(["matching", "--graph", path, "--left", "0-1", "--right", "2-3",
                "--cap", "3"]) == 2
    assert run(["hamilton", "--graph", path, "--cap", "20"]) == 0
    assert not (tmp_path / "x").exists()


def test_construct_turan_with_huge_r(capsys):
    assert run(["construct", "turan", "--n", "5", "--r", str(10 ** 18)]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == 10


def test_selftest_report_byte_identical(capsys):
    assert run(["check-regular", "--selftest"]) == 0
    first = capsys.readouterr().out
    assert run(["check-regular", "--selftest"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["parameters"]["graph"] == "g.txt"


def test_expander_report_counts_work(tmp_path, capsys):
    path = str(tmp_path / "t.txt")
    write_graph_file(path, cons.random_tournament(13, 5))
    assert run(["expander", "--graph", path, "--nu", "1/13", "--tau", "1/4",
                "--expect", "holds"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["checked_sets"], report["visited"]) == (7436, 43)


def test_construct_writes_file(tmp_path, capsys):
    out = str(tmp_path / "h.txt")
    assert run(["construct", "haggkvist", "--m", "3", "-o", out]) == 0
    capsys.readouterr()
    g = read_graph_file(out)
    assert isinstance(g, Digraph) and g.n == 15
    assert run(["hamilton", "--graph", out, "--expect", "none"]) == 0


def test_density_verdict_is_exact_rational(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    write_graph_file(path, Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)]))
    assert run(["density", "--graph", path, "--left", "0-1",
                "--right", "2-3", "--expect", "3/4"]) == 0


def test_thread_cap_env(monkeypatch, tmp_path):
    path = str(tmp_path / "g.txt")
    write_graph_file(path, Graph.complete(4))
    monkeypatch.setenv("REG_LAB_THREADS", "2")
    assert run(["hamilton", "--graph", path]) == 0
    monkeypatch.setenv("REG_LAB_THREADS", "zero")
    assert run(["hamilton", "--graph", path]) == 2
