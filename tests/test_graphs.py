"""Core graph/digraph values and the exact density accessor."""

import tracemalloc
from fractions import Fraction

import pytest

from reglab import constructions as cons
from reglab.enumeration import isomorphic
from reglab.graphs import (MAX_VERTICES, Digraph, Graph, GraphError, bits,
                           density, degree_sequences, full_mask, mask_of,
                           popcount)


def test_density_complete_bipartite_is_one():
    g = Graph.complete_bipartite(3, 3)
    assert density(g, mask_of(range(3)), mask_of(range(3, 6))) == 1


def test_density_edgeless_is_zero():
    g = Graph.empty(6)
    assert density(g, mask_of(range(3)), mask_of(range(3, 6))) == 0


def test_density_three_quarters():
    # |A|=|B|=2 with edges a1b1, a1b2, a2b1
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
    assert density(g, mask_of([0, 1]), mask_of([2, 3])) == Fraction(3, 4)


def test_density_rejects_bad_sides():
    g = Graph.complete(4)
    with pytest.raises(GraphError):
        density(g, 0, mask_of([1]))
    with pytest.raises(GraphError):
        density(g, mask_of([0, 1]), mask_of([1, 2]))


def test_digraph_density_counts_one_direction():
    d = Digraph.from_edges(4, [(0, 2), (0, 3), (2, 1)])
    assert density(d, mask_of([0, 1]), mask_of([2, 3])) == Fraction(1, 2)
    assert density(d, mask_of([2, 3]), mask_of([0, 1])) == Fraction(1, 4)


def test_degree_sequences_k4():
    assert degree_sequences(Graph.complete(4)) == (3, 3, 3, 3)


def test_degree_sequences_chvatal_graph():
    # Fig. caption value for the (8,3) extremal construction
    g = cons.chvatal_extremal(8, 3)
    assert degree_sequences(g) == (3, 3, 3, 4, 4, 7, 7, 7)


def test_degree_sequences_directed_triangle():
    d = Digraph.directed_cycle(3)
    assert degree_sequences(d) == ((1, 1, 1), (1, 1, 1))


def test_degree_sum_is_twice_edges():
    for seed in range(5):
        g = cons.random_graph(12, 0.4, seed)
        assert sum(g.degree_sequence()) == 2 * g.edge_count


def test_digraph_degree_sums_match_edges():
    for seed in range(5):
        d = cons.random_digraph(10, 0.4, seed)
        out, inn = d.degree_sequences()
        assert sum(out) == sum(inn) == d.edge_count


def test_complement_of_complete_is_edgeless():
    assert Graph.complete(6).complement().edge_count == 0


def test_complement_involution():
    g = cons.random_graph(10, 0.5, 1)
    assert g.complement().complement() == g


def test_complement_edge_count_identity():
    g = cons.random_graph(9, 0.3, 2)
    assert g.edge_count + g.complement().edge_count == 9 * 8 // 2


def test_complement_c5_is_c5():
    assert isomorphic(Graph.cycle(5).complement(), Graph.cycle(5))


def test_density_complement_identity():
    g = cons.random_graph(10, 0.5, 7)
    a, b = mask_of(range(4)), mask_of(range(4, 9))
    assert density(g.complement(), a, b) == 1 - density(g, a, b)


def test_induced_k5_triple_is_k3():
    sub, labels = Graph.complete(5).induced(mask_of([1, 2, 4]))
    assert sub == Graph.complete(3)
    assert labels == (1, 2, 4)


def test_induced_full_set_is_identity():
    g = cons.random_graph(8, 0.5, 3)
    sub, labels = g.induced(full_mask(8))
    assert sub == g and labels == tuple(range(8))


def test_induced_c6_prefix_is_path():
    sub, _ = Graph.cycle(6).induced(mask_of([0, 1, 2]))
    assert sub == Graph.path(3)


def test_induced_empty_set_rejected():
    with pytest.raises(GraphError):
        Graph.complete(4).induced(0)


def test_complement_commutes_with_relabeling():
    g = cons.random_graph(9, 0.5, 13)
    perm = [4, 7, 1, 0, 8, 3, 2, 6, 5]
    assert g.relabel(perm).complement() == g.complement().relabel(perm)


def test_induced_commutes_with_relabeling():
    g = cons.random_graph(9, 0.5, 11)
    perm = [3, 1, 4, 0, 8, 2, 7, 5, 6]
    h = g.relabel(perm)
    s = mask_of([0, 2, 5, 6])
    s_image = mask_of(perm[v] for v in bits(s))
    assert isomorphic(g.induced(s)[0], h.induced(s_image)[0])


def test_no_loops_or_asymmetry_allowed():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # 0 adjacent to ... wait, row 0 says 0~0: loop
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # 0~1 present but 1~0 missing


def test_from_edges_checks_order_before_allocating():
    # 10**18 rows would fail to allocate (MemoryError) if built first
    for kind in (Graph, Digraph):
        with pytest.raises(GraphError, match="exceeds cap"):
            kind.from_edges(10 ** 18, [])


def test_constructors_check_order_before_allocating():
    # one vertex over the cap: rows, masks or edge lists built before the
    # check take at least 8 bytes per vertex, raising the error a few KB
    n = MAX_VERTICES + 1
    builders = [lambda: Graph.empty(n), lambda: Graph.complete(n),
                lambda: Graph.cycle(n), lambda: Graph.path(n),
                lambda: Graph.complete_bipartite(n - 1, 1),
                lambda: Graph.complete_multipartite([n]),
                lambda: Digraph.empty(n), lambda: Digraph.complete(n),
                lambda: Digraph.directed_cycle(n)]
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="exceeds cap"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n


def test_oriented_predicate():
    assert cons.regular_tournament(5).is_oriented()
    assert not Digraph.from_edges(2, [(0, 1), (1, 0)]).is_oriented()


def test_underlying_graph():
    d = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert d.underlying_graph() == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_popcount_and_bits_helpers():
    m = mask_of([0, 3, 5])
    assert popcount(m) == 3
    assert list(bits(m)) == [0, 3, 5]
