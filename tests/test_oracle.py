import random

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds.bounds import greedy_matching
from helpers import (brute_max_bipartite_family, naive_max_cut,
                     random_connected_graph)


def test_max_cut_fixtures():
    assert cb.exact_max_cut(cb.cycle(5)).value == 4
    assert cb.exact_max_cut(cb.complete(4)).value == 4
    assert cb.exact_max_cut(cb.complete(6)).value == 9
    assert cb.exact_max_cut(cb.petersen()).value == 12
    assert cb.exact_max_cut(cb.petersen_c3(10, 1)).value == 56


def test_max_cut_agrees_with_naive():
    rng = random.Random(0)
    for i in range(200):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.randint(0, 10), rng, i % 2 == 0)
        fast = cb.exact_max_cut(g)
        assert abs(float(fast.value) - naive_max_cut(g)) < 1e-9
        assert abs(fast.witness.weight - float(fast.value)) < 1e-9


def test_max_cut_guard():
    with pytest.raises(cb.SizeGuardError):
        cb.exact_max_cut(cb.cycle(20), max_n=10)
    assert cb.exact_max_cut(cb.cycle(20), max_n=20).value == 20


def test_max_induced_bipartite_fixtures():
    assert cb.max_induced_bipartite(cb.cycle(5)).value == 3
    # two disjoint edges beat any single edge in K4 (components are induced
    # and bipartite; edges between components are allowed)
    assert cb.max_induced_bipartite(cb.complete(4)).value == 2
    assert cb.max_induced_bipartite(cb.cycle(6)).value == 6  # bipartite: all of it


def test_max_induced_bipartite_weighted_and_brute():
    rng = random.Random(1)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 6), rng.randint(0, 4), rng, True)
        res = cb.max_induced_bipartite(g)
        assert float(res.value) == pytest.approx(brute_max_bipartite_family(g))
        witness_w = sum(g.edges[e][2] for e in res.witness)
        assert witness_w == pytest.approx(float(res.value))
        cb.verify_induced_bipartite(g, res.witness)


def test_max_induced_bipartite_guard():
    with pytest.raises(cb.SizeGuardError):
        cb.max_induced_bipartite(cb.cycle(20))


def test_max_dfs_tree_fixtures():
    assert cb.max_dfs_tree_weight(cb.cycle(5)).value == 4
    weighted_cycle = cb.WeightedGraph(5, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 7.0),
                                          (3, 4, 2.0), (0, 4, 3.0)])
    # DFS trees of a cycle are paths: drop the cheapest edge
    assert cb.max_dfs_tree_weight(weighted_cycle).value == 17
    tree = cb.WeightedGraph(4, [(0, 1, 2.0), (1, 2, 3.0), (1, 3, 4.0)])
    assert cb.max_dfs_tree_weight(tree).value == 9
    assert cb.max_dfs_tree_weight(cb.complete(4)).value == 3


def test_max_dfs_witness_is_dfs_tree():
    g = cb.petersen_c3(3, 1)
    res = cb.max_dfs_tree_weight(g)
    assert len(res.witness) == g.n - 1
    assert float(res.value) >= cb.dfs_tree(g, 0).weight - 1e-9


def test_five_cycle_fixtures():
    pet = cb.petersen()
    cycles = cb.enumerate_five_cycles(pet)
    assert len(cycles) == 12
    # every edge lies in exactly four 5-cycles
    from collections import Counter
    counts = Counter(e for cyc in cycles for e in cyc)
    assert all(counts[e] == 4 for e in range(pet.m))
    res = cb.five_cycle_cover(pet)
    assert res.value == 3
    assert cb.is_exact_five_cycle_cover(pet, res.witness)
    # hand-checked witness: one spoke, one inner edge, one outer edge
    known = [pet.edge_id(0, 5), pet.edge_id(7, 8), pet.edge_id(2, 3)]
    assert cb.is_exact_five_cycle_cover(pet, known)


def test_five_cycle_c5_and_c4():
    res = cb.five_cycle_cover(cb.cycle(5))
    assert res.value == 1
    res = cb.five_cycle_cover(cb.cycle(4))
    assert res.value == 0 and res.witness == ()


def test_five_cycle_rejects_triangles():
    with pytest.raises(cb.TriangleFoundError):
        cb.five_cycle_cover(cb.complete(4))


def test_five_cycle_preconditions_are_typed():
    star = cb.WeightedGraph(5, [(0, v, 1.0) for v in range(1, 5)])  # K1,4
    for g, error, message in (
            (cb.complete(4), cb.TriangleFoundError,
             "five-cycle covers are defined for triangle-free graphs"),
            (star, cb.NotSubcubicError, "five-cycle covers are defined for subcubic graphs")):
        with pytest.raises(error) as info:
            cb.five_cycle_cover(g)
        assert isinstance(info.value, cb.PreconditionError)
        assert str(info.value) == message


def test_conjecture_report_c5():
    rep = cb.conjecture_report(cb.cycle(5))
    assert rep.theta_ratio == pytest.approx(0.375)
    assert rep.cut_ratio == pytest.approx(0.8)
    assert rep.flags == []


def test_conjecture_report_petersen_c3():
    rep = cb.conjecture_report(cb.petersen_c3(10, 1))
    assert rep.matching_ratio == pytest.approx(0.6)
    assert rep.matching_weight == 50.0
    assert rep.flags == []


def test_conjecture_report_bipartite():
    rep = cb.conjecture_report(cb.cycle(6))
    assert rep.cut_ratio == pytest.approx(1.0)
    assert rep.flags == []


def test_conjecture_report_deterministic():
    a = cb.conjecture_report(cb.petersen())
    b = cb.conjecture_report(cb.petersen())
    assert a == b


# The lab takes each ratio at one object; these check that no other object
# of its family gives a lower ratio.


def _random_tree_ids(g, rng):
    """A random spanning tree: the minimum tree under random edge weights."""
    perturbed = cb.WeightedGraph(g.n, [(u, v, rng.random()) for u, v, _ in g.edges])
    return cb.min_spanning_tree(perturbed).edge_ids


def _random_maximal_matching(g, rng):
    order = list(range(g.m))
    rng.shuffle(order)
    used = [False] * g.n
    chosen = []
    for eid in order:
        u, v, _ = g.edges[eid]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(eid)
    return chosen


def _at_least(ratio, lab):
    # equal-weight objects can sum in another order, off by a rounding
    return ratio >= lab or ratio == pytest.approx(lab, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 12), st.integers(0, 10 ** 6), st.booleans())
def test_no_spanning_tree_gives_a_lower_theta(n, extra, seed, integer):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng, integer)
    rep = cb.conjecture_report(g)
    trees = [cb.min_spanning_tree(g).edge_ids] + [_random_tree_ids(g, rng) for _ in range(20)]
    for ids in trees:
        tw = sum(g.edges[e][2] for e in ids)
        if tw > 0:
            assert _at_least((rep.max_cut - g.total_weight / 2) / tw, rep.theta_ratio)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 12), st.integers(0, 10 ** 6), st.booleans())
def test_no_maximal_matching_gives_a_lower_matching_ratio(n, extra, seed, integer):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng, integer)
    assert g.m <= cb.bounds.EXACT_MATCHING_MAX_EDGES
    rep = cb.conjecture_report(g)
    w = g.total_weight
    matchings = [greedy_matching(g)] + [_random_maximal_matching(g, rng) for _ in range(20)]
    for m_ids in matchings:
        wm = sum(g.edges[e][2] for e in m_ids)
        if w - wm > 0:
            ratio = (rep.max_cut - wm) / (w - wm)
            if rep.matching_ratio is None:
                # the heaviest matching holds all the weight, so mac = w
                assert ratio == pytest.approx(1.0)
            else:
                assert _at_least(ratio, rep.matching_ratio)
