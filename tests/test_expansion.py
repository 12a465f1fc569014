"""Robust neighbourhoods and expansion verdicts."""

from fractions import Fraction

import pytest

from reglab import constructions as cons
from reglab.expansion import (ExpansionSpec, ExpansionVerdict, check_expander,
                              robdegseq_condition, robust_neighbourhood)
from reglab.graphs import Digraph, GraphError, bits, full_mask, mask_of, popcount
from reglab.regularity import CapExceeded

F = Fraction


def test_rn_complete_digraph_is_everything():
    d = Digraph.complete(8)
    s = mask_of(range(3))
    assert robust_neighbourhood(d, s, F(1, 8)) == full_mask(8)


def test_rn_edgeless_empty():
    assert robust_neighbourhood(Digraph.empty(6), mask_of(range(3)), F(1, 6)) == 0


def test_rn_directed_c8_successors():
    d = Digraph.directed_cycle(8)
    rn = robust_neighbourhood(d, mask_of(range(4)), F(1, 8))
    assert sorted(bits(rn)) == [1, 2, 3, 4]


def test_rn_in_direction():
    d = Digraph.directed_cycle(8)
    rn = robust_neighbourhood(d, mask_of(range(4)), F(1, 8), "in")
    assert sorted(bits(rn)) == [0, 1, 2, 7]


def test_rn_rejects_empty_set():
    with pytest.raises(GraphError):
        robust_neighbourhood(Digraph.complete(4), 0, F(1, 4))


def test_spec_validation():
    with pytest.raises(GraphError):
        ExpansionSpec(F(1, 2), F(1, 4), "out")  # nu > tau
    with pytest.raises(GraphError):
        ExpansionSpec(F(1, 4), F(1, 2), "sideways")


def test_complete_digraph_expands():
    spec = ExpansionSpec(F(1, 10), F(1, 5), "out")
    assert check_expander(Digraph.complete(10), spec).holds


def test_directed_c10_fails_with_canonical_violator():
    spec = ExpansionSpec(F(1, 5), F(1, 5), "out")
    d = Digraph.directed_cycle(10)
    v = check_expander(d, spec)
    assert not v.holds
    assert sorted(bits(v.violator)) == [0, 1, 2]
    # violator re-validates against the definition
    rn = robust_neighbourhood(d, v.violator, spec.nu)
    assert F(popcount(rn)) < popcount(v.violator) + spec.nu * d.n


def test_di_mode_requires_both_directions():
    # all arcs into a heavy core: out-expansion may hold while in fails
    d = cons.random_digraph(10, 0.8, 0)
    out_spec = ExpansionSpec(F(1, 10), F(1, 4), "out")
    di_spec = ExpansionSpec(F(1, 10), F(1, 4), "di")
    if check_expander(d, out_spec).holds:
        v = check_expander(d, di_spec)
        in_spec = ExpansionSpec(F(1, 10), F(1, 4), "in")
        assert v.holds == check_expander(d, in_spec).holds


def test_random_tournament_13_verdict_frozen():
    t = cons.random_tournament(13, 5)
    v = check_expander(t, ExpansionSpec(F(1, 13), F(1, 4), "out"))
    assert v.holds
    assert v.checked_sets == 7436
    assert v.visited == 43
    assert v.visited < v.checked_sets  # pruned subtrees are counted, not walked


def brute_force_verdict(d, spec):
    """Every S in sorted-member lex order, checked by robust_neighbourhood:
    (holds, least violator, qualifying sets up to and including it)."""
    n = d.n
    directions = {"out": ["out"], "in": ["in"], "di": ["out", "in"]}[spec.mode]
    checked = 0
    for s in sorted(range(1, 1 << n), key=lambda m: list(bits(m))):
        size = popcount(s)
        if not spec.tau * n < size < (1 - spec.tau) * n:
            continue
        checked += 1
        for direction in directions:
            rn = robust_neighbourhood(d, s, spec.nu, direction)
            if popcount(rn) < size + spec.nu * n:
                return False, s, checked
    return True, None, checked


# (nu, tau) pairs: a wide window, the README's example, nu = tau, a
# narrow window, and tau >= 1/2, whose size window is empty
BRUTE_FORCE_PARAMS = [(F(1, 20), F(1, 10)), (F(1, 10), F(1, 5)),
                      (F(1, 4), F(1, 4)), (F(1, 8), F(1, 3)),
                      (F(1, 5), F(3, 5))]


@pytest.mark.parametrize("mode", ["out", "in", "di"])
def test_scan_matches_brute_force(mode):
    verdicts = set()
    for n in range(3, 12):
        for i, p in enumerate((0.1, 0.3, 0.5, 0.9)):
            d = cons.random_digraph(n, p, 10 * n + i)
            for nu, tau in BRUTE_FORCE_PARAMS:
                spec = ExpansionSpec(nu, tau, mode)
                v = check_expander(d, spec)
                assert (v.holds, v.violator, v.checked_sets) == \
                    brute_force_verdict(d, spec), (n, p, nu, tau)
                verdicts.add(v.holds)
    assert verdicts == {True, False}


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        check_expander(Digraph.complete(19), ExpansionSpec(F(1, 10), F(1, 5), "out"))


def test_robdegseq_condition():
    assert robdegseq_condition(Digraph.complete(8), F(1, 8)).satisfied
    cert = robdegseq_condition(Digraph.directed_cycle(8), F(1, 4))
    assert not cert.satisfied and cert.failing_index == 1


def test_reduced_digraph_inherits_expansion():
    # audit of the reduced-digraph inheritance statement: where the digraph
    # degree form runs at desk scale, a verified robust (nu,tau)-outexpander
    # with linear semidegree yields a reduced digraph passing the halved
    # parameters, with semidegree at least eta |R| / 2
    from reglab.szemeredi import degree_form_digraph, reduced_graph
    eta = F(1, 4)
    base = ExpansionSpec(F(1, 8), F(1, 4), "out")
    halved = ExpansionSpec(F(1, 16), F(1, 2), "out")
    audited = 0
    for seed in range(30):
        d = cons.random_digraph(14, 0.7, seed)
        if F(d.min_semidegree()) < eta * 14:
            continue
        if not check_expander(d, base).holds:
            continue
        res = degree_form_digraph(d, F(45, 100), F(5, 100), 2)
        assert res.audit["all"]
        red = reduced_graph(res.pure_graph, res.partition, F(45, 100), F(5, 100))
        assert F(red.r.min_semidegree()) >= eta * red.r.n / 2
        assert check_expander(red.r, halved).holds
        audited += 1
        if audited >= 5:
            break
    assert audited > 0


def test_removing_preserves_expansion_small():
    # a verified robust (1/4,1/3)-outexpander keeps (1/8,2/3)-outexpansion
    # after one vertex is removed (the shrunk window makes this exact)
    base = ExpansionSpec(F(1, 4), F(1, 3), "out")
    weaker = ExpansionSpec(F(1, 8), F(2, 3), "out")
    hits = 0
    for seed in range(20):
        d = cons.random_digraph(12, 0.8, seed)
        if not check_expander(d, base).holds:
            continue
        hits += 1
        for v in range(d.n):
            sub, _ = d.induced(full_mask(12) ^ (1 << v))
            assert check_expander(sub, weaker).holds
        if hits >= 3:
            break
    assert hits > 0
