"""Named graph families and their audited properties."""

import tracemalloc
from fractions import Fraction

import pytest

from reglab import constructions as cons
from reglab.embedding import subgraph_oracle
from reglab.enumeration import isomorphic
from reglab.graphs import MAX_VERTICES, Digraph, Graph, GraphError

F = Fraction


def test_turan_t5_9():
    g = cons.turan_graph(9, 6)
    assert g.edge_count == 32 == cons.turan_count(9, 6)
    # class sizes (2,2,2,2,1): degree multiset check
    assert sorted(g.degree_sequence()) == sorted([7] * 8 + [8])


def test_turan_single_class_edgeless():
    assert cons.turan_count(7, 2) == 0
    assert cons.turan_graph(7, 2).edge_count == 0


def test_turan_bounds_classes_by_n():
    # T(n, r-1) with r - 1 >= n is K_n; a list of r - 1 class sizes built
    # before bounding r by n takes 8 bytes a class, megabytes here
    tracemalloc.start()
    try:
        assert cons.turan_graph(5, 10 ** 6) == Graph.complete(5)
        assert cons.turan_count(5, 10 ** 6) == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert cons.turan_graph(0, 10 ** 6) == Graph.empty(0)
    assert cons.turan_count(0, 10 ** 6) == 0
    with pytest.raises(GraphError):
        cons.turan_count(-3, 3)


def test_turan_bound_tight_when_divisible():
    assert cons.turan_count(4, 3) == 4
    assert F(cons.turan_count(4, 3)) == F(1, 2) * 16 / 2


def test_turan_graphs_are_kr_free():
    for n in range(2, 11):
        for r in range(3, 6):
            g = cons.turan_graph(n, r)
            assert subgraph_oracle(Graph.complete(r), g) is None


def test_turan_contains_k_rminus1_when_big_enough():
    g = cons.turan_graph(8, 4)
    assert subgraph_oracle(Graph.complete(3), g) is not None


def test_chvatal_extremal_structure():
    g = cons.chvatal_extremal(8, 3)
    assert g.degree_sequence() == (3, 3, 3, 4, 4, 7, 7, 7)
    for n in range(3, 11):
        for r in range(1, (n - 1) // 2 + 1):
            if F(r) >= F(n, 2):
                continue
            seq = cons.chvatal_extremal(n, r).degree_sequence()
            assert seq[r - 1] == r
            assert seq[n - r - 1] == n - r - 1


def test_chvatal_extremal_r1_structure():
    g = cons.chvatal_extremal(6, 1)
    seq = g.degree_sequence()
    assert seq[0] == 1  # the pendant vertex
    assert seq[-1] == 5


def test_chvatal_extremal_rejects_bad_r():
    with pytest.raises(GraphError):
        cons.chvatal_extremal(8, 4)  # r = n/2 not allowed


def test_regular_tournament_small():
    t3 = cons.regular_tournament(3)
    assert isomorphic(t3, Digraph.directed_cycle(3))
    t5 = cons.regular_tournament(5)
    assert all(t5.out_degree(v) == 2 and t5.in_degree(v) == 2 for v in range(5))
    t7 = cons.regular_tournament(7)
    assert t7.is_oriented()
    with pytest.raises(GraphError):
        cons.regular_tournament(4)


def test_haggkvist_graph_values():
    g = cons.haggkvist_graph(3)
    assert g.n == 15
    assert g.min_semidegree() == 5 == (3 * 15 - 5) // 8
    g1 = cons.haggkvist_graph(1)
    assert g1.n == 7 and g1.min_semidegree() == 2
    with pytest.raises(GraphError):
        cons.haggkvist_graph(2)


def test_haggkvist_bd_orientation_near_regular():
    g = cons.haggkvist_graph(3)
    m = 3
    b_ids = range(m, 2 * m + 2)
    d_ids = list(range(3 * m + 2, g.n))
    for b in b_ids:
        out = sum(1 for d in d_ids if g.has_edge(b, d))
        inn = sum(1 for d in d_ids if g.has_edge(d, b))
        assert abs(out - inn) <= 1
    for d in d_ids:
        out = sum(1 for b in b_ids if g.has_edge(d, b))
        inn = sum(1 for b in b_ids if g.has_edge(b, d))
        assert abs(out - inn) <= 1


def test_antidirected_counterexample_values():
    g = cons.antidirected_counterexample(1)
    assert g.n == 12
    assert g.min_semidegree() == 4 == (3 * 12 - 4) // 8
    assert g.is_oriented()
    g2 = cons.antidirected_counterexample(2)
    assert g2.n == 20 and g2.min_semidegree() == 7


def test_c6_sharpness_graph():
    g = cons.c6_sharpness_graph(12)
    assert g.min_degree() == 4 == 12 // 2 - 2
    assert g.edge_count == 21 + 10  # C(7,2) + C(5,2)
    with pytest.raises(GraphError):
        cons.c6_sharpness_graph(10)


def test_random_graph_extremes():
    assert cons.random_graph(8, 0, 1).edge_count == 0
    assert cons.random_graph(8, 1, 1).edge_count == 28
    assert cons.random_digraph(6, 1, 1).edge_count == 30


def test_random_graph_fixture_frozen():
    # reproducibility fixture: G(10, 0.5, seed=1) built once and pinned
    g = cons.random_graph(10, 0.5, 1)
    assert g.edge_count == 28
    assert g == cons.random_graph(10, 0.5, 1)


def test_random_bipartite_sides():
    g = cons.random_bipartite(4, 5, 0.5, 3)
    for u in range(4):
        for v in range(4):
            assert not g.has_edge(u, v)


def test_random_tournament_is_tournament():
    t = cons.random_tournament(9, 4)
    assert t.is_oriented()
    assert t.edge_count == 36


def test_families_check_order_before_building(monkeypatch):
    # every edge list and coin sequence here starts with a range(); make that
    # fail, so only a family that checks its vertex count first gets to raise
    # GraphError (one vertex over the cap keeps a failure cheap)
    def no_range(*args):
        raise AssertionError("built before checking the vertex count")

    monkeypatch.setattr(cons, "range", no_range, raising=False)
    n = MAX_VERTICES + 1
    m = (MAX_VERTICES + 1) // 4 | 1  # odd, with 4m + 3 and 8m + 4 over the cap
    builders = [lambda: cons.random_graph(n, 0.5, 0),
                lambda: cons.random_digraph(n, 0.5, 0),
                lambda: cons.random_bipartite(n - 1, 1, 0.5, 0),
                lambda: cons.random_tournament(n, 0),
                lambda: cons.chvatal_extremal(n, 1),
                lambda: cons.regular_tournament(n),
                lambda: cons.haggkvist_graph(m),
                lambda: cons.antidirected_counterexample(m),
                lambda: cons.c6_sharpness_graph(6 * (MAX_VERTICES // 6 + 1))]
    for build in builders:
        with pytest.raises(GraphError, match="exceeds cap"):
            build()
