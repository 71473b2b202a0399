import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds.bounds import (EXACT_MATCHING_MAX_EDGES, _best_dfs_tree, exact_matching_small,
                             greedy_matching)
from cutbounds.graph import _exact_weights
from cutbounds.spanning import _dfs
from helpers import (certified, exact_matching_by_suffix_bound, naive_max_cut,
                     petersen_spoke_ids, random_connected_graph)


def test_poljak_turzik_fixtures():
    r = cb.poljak_turzik(cb.cycle(5))
    assert r.bound_exact == Fraction(7, 2) and r.cut.weight == 4.0
    r = cb.poljak_turzik(cb.WeightedGraph(2, [(0, 1, 7.0)]))
    assert r.bound_value == 5.25 and r.cut.weight == 7.0
    r = cb.poljak_turzik(cb.complete(4))
    assert r.bound_value == 3.75 and r.cut.weight == 4.0


def test_dfs_bound_fixtures():
    r = cb.dfs_bound(cb.cycle(5))
    assert r.bound_value == 3.5 and r.cut.weight == 4.0
    tree = cb.WeightedGraph(4, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 4.0)])
    r = cb.dfs_bound(tree)
    assert r.bound_value == 6.0 and r.cut.weight == 8.0  # trees are bipartite
    pc3 = cb.petersen_c3(10, 1)
    r = cb.dfs_bound(pc3)
    assert r.bound_value >= 30.0 + 9.0 / 4.0
    assert r.cut.weight <= 56.0


def test_matching_bound_fixtures():
    r = cb.matching_bound(cb.complete(4))
    assert r.bound_exact == Fraction(4) and r.cut.weight == 4.0
    pc3 = cb.petersen_c3(10, 1)
    r = cb.matching_bound(pc3, matching=greedy_matching(pc3))
    assert r.bound_value == 55.0
    assert r.details["matching_weight"] == 50.0
    g = cb.WeightedGraph(4, [(0, 1, 0.0), (1, 2, 5.0), (2, 3, 0.0)])
    r = cb.matching_bound(g)
    assert r.bound_value == 5.0 and r.cut.weight == 5.0


def test_matching_bound_provided_validation():
    g = cb.cycle(5)
    with pytest.raises(cb.NotAMatchingError):
        cb.matching_bound(g, matching=[0, 1])
    r = cb.matching_bound(g, matching=[0, 2])
    assert r.bound_value == 3.5


def test_best_matching_is_exact_up_to_24_edges():
    # on the path weighted 2, 3, 2 greedy keeps the middle edge (3), exact both ends (4)
    paths = [(4 * i + j, 4 * i + j + 1, w) for i in range(8) for j, w in enumerate((2, 3, 2))]
    g = cb.WeightedGraph(34, paths)
    assert g.m == 24 and sum(g.edges[e][2] for e in cb.best_matching(g)) == 32
    g = cb.WeightedGraph(34, paths + [(32, 33, 1)])
    assert g.m == 25 and sum(g.edges[e][2] for e in cb.best_matching(g)) == 8 * 3 + 1


def test_exact_matching_agrees_with_greedy_corpus():
    rng = random.Random(2)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 8), rng.randint(0, 6), rng, True)
        exact = exact_matching_small(g)
        w_exact = sum(g.edges[e][2] for e in exact)
        w_greedy = sum(g.edges[e][2] for e in greedy_matching(g))
        assert w_exact >= w_greedy - 1e-12
        cb.cuts.check_matching(g, exact)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, EXACT_MATCHING_MAX_EDGES), st.integers(0, 10 ** 6),
       st.sampled_from(["ties", "integer", "float"]))
def test_exact_matching_prunes_to_the_same_matching(n, m, seed, weights):
    # the tighter bound may prune more nodes, never the first heaviest leaf
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    draw = {"ties": lambda: float(rng.randint(0, 2)),
            "integer": lambda: float(rng.randint(0, 10 ** 6)),
            "float": lambda: rng.choice([0.1, 0.2, 0.3, 0.7, rng.uniform(0, 9)])}[weights]
    g = cb.WeightedGraph(n, [(u, v, draw()) for u, v in rng.sample(pairs, min(m, len(pairs)))])
    assert exact_matching_small(g) == exact_matching_by_suffix_bound(g)


def test_girth_bound_fixtures():
    r = cb.girth_bound(cb.cycle(5))
    assert r.bound_exact == Fraction(4) and r.cut.weight == 4.0
    assert r.details["k"] == 4
    r = cb.girth_bound(cb.cycle(7))
    assert r.bound_exact == Fraction(6) and r.cut.weight == 6.0
    assert r.details["k"] == 6
    with pytest.raises(cb.BoundPreconditionError):
        cb.girth_bound(cb.complete(4))
    with pytest.raises(cb.BoundPreconditionError):
        cb.girth_bound(cb.cycle(6), k=3)
    with pytest.raises(cb.BoundPreconditionError):
        cb.girth_bound(cb.cycle(6), k=8)


def test_girth_bound_monotone_in_k():
    g = cb.cycle(9)
    b2 = cb.girth_bound(g, k=2).bound_value
    b4 = cb.girth_bound(g, k=4).bound_value
    b8 = cb.girth_bound(g, k=8).bound_value
    assert b2 <= b4 <= b8


def test_triangle_free_tree_fixtures():
    pc3 = cb.petersen_c3(10, 1)
    r = cb.triangle_free_tree_bound(pc3)
    assert r.bound_value == 43.5 and r.details["tree_weight"] == 54.0
    assert r.cut.weight >= 43.5
    tree = cb.WeightedGraph(4, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 4.0)])
    r = cb.triangle_free_tree_bound(tree)
    assert r.bound_value == 6.0 and r.cut.weight == 8.0
    with pytest.raises(cb.TriangleFoundError):
        cb.triangle_free_tree_bound(cb.complete(4))


def test_edge_rooted_tree_fixtures():
    r = cb.edge_rooted_tree_bound(cb.cycle(8), k=4)
    assert r.bound_value == 6.75 and r.cut.weight == 8.0
    single = cb.WeightedGraph(2, [(0, 1, 3.0)])
    r = cb.edge_rooted_tree_bound(single, k=2)
    assert r.bound_value == 3.0 and r.cut.weight == 3.0
    with pytest.raises(cb.OddCycleError):
        cb.edge_rooted_tree_bound(cb.cycle(5), k=4)
    r = cb.edge_rooted_tree_bound(cb.cycle(5))  # default k = 2 from r = 5
    assert r.details["k"] == 2


def test_edge_rooted_tree_rejects_a_triangle_through_the_tree():
    # K4's heaviest tree is the star at 0; every non-tree edge closes a triangle
    with pytest.raises(cb.OddCycleError, match="odd cycle of length 3 <= 2k-1 = 3"):
        cb.edge_rooted_tree_bound(cb.complete(4), k=2)


def test_dominance_dfs_over_pt_corpus():
    rng = random.Random(6)
    for _ in range(120):
        g = random_connected_graph(rng.randint(2, 12), rng.randint(0, 10), rng)
        dfs = cb.dfs_bound(g).bound_exact
        pt = cb.poljak_turzik(g).bound_exact
        assert dfs >= pt


def test_bounds_below_exact_max_cut():
    rng = random.Random(8)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 10), rng.randint(0, 8), rng, True)
        mac = naive_max_cut(g)
        for fn in (cb.poljak_turzik, cb.dfs_bound, cb.matching_bound):
            r = fn(g)
            assert r.bound_exact <= mac
            assert r.cut.exact_weight <= mac
            assert certified(r)


def test_per_component():
    g = cb.WeightedGraph(7, [(0, 1, 2.0), (1, 2, 2.0), (3, 4, 4.0),
                             (4, 5, 4.0), (5, 6, 4.0)])
    r = cb.per_component(g, cb.dfs_bound, "dfs_tree")
    # both components are trees: bound 3w/4 each, cut = w each
    assert r.bound_value == 0.75 * 16.0
    assert r.cut.weight == 16.0
    assert r.details["components"] == 2
    assert r.bound_exact == Fraction(12)


def test_matching_vizing_spokes():
    pc3 = cb.petersen_c3(10, 1)
    r = cb.matching_vizing_bound(pc3, petersen_spoke_ids(pc3))
    assert r.bound_exact == Fraction(56)
    assert r.cut.weight == 56.0
    assert r.details["color_count"] == 5


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(0, 30), st.integers(0, 10 ** 6))
def test_root_sweep_ranks_roots_as_their_dfs_trees(n, extra, seed):
    # weights 1 and 2 tie many roots; the lowest of the heaviest must win
    rng = random.Random(seed)
    shape = random_connected_graph(n, extra, rng)
    g = cb.WeightedGraph(n, [(u, v, float(rng.randint(1, 2))) for u, v, _ in shape.edges])
    ints = _exact_weights(g).ints
    weights = [sum(ints[e] for e in cb.dfs_tree(g, r).edge_ids) for r in range(n)]
    assert [sum(ints[e] for e in _dfs(g, r, bytearray(n))) for r in range(n)] == weights
    best = _best_dfs_tree(g)
    assert best.roots[0] == weights.index(max(weights))
    assert best == cb.dfs_tree(g, best.roots[0])
