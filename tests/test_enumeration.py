"""Canonical forms and isomorph-free enumeration.

The counts for n <= 5 are re-derived here by an independent labelled brute
force (minimise the edge bitmask over all vertex permutations); the larger
counts are pinned to the published class numbers.
"""

import pytest

from reglab import constructions as cons
from reglab.enumeration import (brute_force_graph_classes,
                                brute_force_tournament_classes,
                                canonical_form, enumerate_graphs,
                                enumerate_tournaments, isomorphic)
from reglab.graphs import Digraph, Graph

GRAPH_CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]       # n = 0..7
TOURNAMENT_CLASS_COUNTS = [1, 1, 1, 2, 4, 12, 56, 456]     # n = 0..7


def test_counts_match_independent_brute_force():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == brute_force_graph_classes(n)
    for n in range(1, 5):
        assert len(enumerate_tournaments(n)) == brute_force_tournament_classes(n)


@pytest.mark.parametrize("n", range(8))
def test_graph_class_counts(n, small_graphs):
    assert len(small_graphs(n)) == GRAPH_CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(8))
def test_tournament_class_counts(n, small_tournaments):
    assert len(small_tournaments(n)) == TOURNAMENT_CLASS_COUNTS[n]


def test_canonical_form_invariant_under_relabeling():
    g = cons.random_graph(8, 0.5, 5)
    perms = [[1, 0, 2, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1, 0],
             [2, 4, 6, 0, 1, 3, 5, 7]]
    for perm in perms:
        assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_canonical_form_separates_nonisomorphic():
    assert canonical_form(Graph.path(4)) != canonical_form(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))


def test_digraph_canonical_form_relabeling():
    d = cons.random_digraph(7, 0.4, 9)
    perm = [3, 0, 6, 1, 5, 2, 4]
    assert canonical_form(d.relabel(perm)) == canonical_form(d)
    assert isomorphic(d.relabel(perm), d)


def test_directed_cycle_not_isomorphic_to_reverse_orientation_pair():
    # C3 directed vs a path-with-sink orientation on 3 vertices
    c3 = Digraph.directed_cycle(3)
    other = Digraph.from_edges(3, [(0, 1), (2, 1)])
    assert not isomorphic(c3, other)


def test_hereditary_filter_triangle_free():
    frees = enumerate_graphs(6, hereditary=lambda g: _triangle_free(g))
    assert len(frees) == 38  # triangle-free graphs on 6 vertices
    full = enumerate_graphs(6)
    assert len([g for g in full if _triangle_free(g)]) == 38


def _triangle_free(g: Graph) -> bool:
    from reglab.graphs import bits
    for u in range(g.n):
        for v in bits(g.rows[u]):
            if v > u and g.rows[u] & g.rows[v]:
                return False
    return True


def test_connected_counts(small_graphs):
    connected = [1, 1, 2, 6, 21, 112, 853]  # n = 1..7
    for n in range(1, 8):
        got = sum(1 for g in small_graphs(n) if g.is_connected())
        assert got == connected[n - 1]
