import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds import spanning
from cutbounds.spanning import (_forest_cycle_lengths, cross_edges, layer_edge_sets,
                                reroot_at_edge, shortest_fundamental_odd_cycle)
from helpers import (cross_edges_by_parent_walk, dfs_tree_by_direct_build, disjoint_union,
                     fundamental_cycle_lengths, layer_sets_by_definition,
                     random_connected_graph,
                     shortest_odd_fundamental_cycle_by_bfs, spanning_tree_weights,
                     tree_distances_from)


def _layer_sets(g, t, k):
    """The k layer sets by their definition; the library builds one of them."""
    sets = layer_sets_by_definition(g, t, k)
    j, ids = layer_edge_sets(g, t, k)
    assert sets[j] == ids
    return sets


def test_dfs_on_cycle_is_path():
    g = cb.cycle(5)
    t = cb.dfs_tree(g, 0)
    assert t.weight == 4.0
    assert sorted(t.level) == [0, 1, 2, 3, 4]
    t.validate(g)


def test_dfs_on_star():
    g = cb.WeightedGraph(5, [(0, v, 1.0) for v in range(1, 5)])
    t = cb.dfs_tree(g, 0)
    assert t.edge_ids == frozenset(range(4))


def _shuffled(g, rng):
    """``g`` with its vertices relabelled by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return cb.WeightedGraph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20), st.integers(0, 25), st.integers(0, 10 ** 6), st.booleans())
def test_dfs_tree_equals_the_direct_build_at_every_root(n, extra, seed, integer):
    # dfs_tree levels the search's edges by BFS; the search's own depths agree
    rng = random.Random(seed)
    g = _shuffled(random_connected_graph(n, extra, rng, integer), rng)
    for r in range(n):
        assert cb.dfs_tree(g, r) == dfs_tree_by_direct_build(g, r)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 12), st.integers(0, 10 ** 6),
       st.booleans())
def test_dfs_tree_rejects_a_disconnected_graph_at_every_root(a, b, extra, seed, integer):
    rng = random.Random(seed)
    parts = [random_connected_graph(size, extra, rng, integer) for size in (a, b)]
    g = _shuffled(disjoint_union(parts), rng)
    for r in range(g.n):
        for build in (cb.dfs_tree, dfs_tree_by_direct_build):
            with pytest.raises(cb.DisconnectedGraphError, match="^graph is not connected$"):
                build(g, r)


def test_dfs_petersen_no_cross_edges():
    g = cb.petersen()
    t = cb.dfs_tree(g, 0)
    assert len(t.edge_ids) == 9
    assert len([e for e in range(g.m) if e not in t.edge_ids]) == 6
    assert cross_edges(g, t) == []
    t.validate(g)


def test_dfs_disconnected_rejected():
    g = cb.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(cb.DisconnectedGraphError):
        cb.dfs_tree(g, 0)


def test_mst_uniform():
    g = cb.complete(5, 2.0)
    assert cb.min_spanning_tree(g).weight == 8.0
    assert cb.max_spanning_tree(g).weight == 8.0


def test_mst_petersen_c3_extremes():
    # frozen from exhaustive enumeration of all spanning trees (helpers check)
    g = cb.petersen_c3(10, 1)
    assert cb.min_spanning_tree(g).weight == 18.0
    assert cb.max_spanning_tree(g).weight == 54.0


def test_mst_matches_enumeration_small():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng.randint(3, 7), rng.randint(0, 4), rng, True)
        weights = spanning_tree_weights(g)
        assert min(weights) == cb.min_spanning_tree(g).weight
        assert max(weights) == cb.max_spanning_tree(g).weight


def test_parity_layers_path():
    g = cb.WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    t = cb.dfs_tree(g, 0)
    g1, g2 = (cb.verify_induced_bipartite(g, s) for s in _layer_sets(g, t, 2))
    assert g1.weight(g) + g2.weight(g) == t.weight
    assert g1.edge_ids == frozenset({1})       # level-1 to level-2 edge
    assert g2.edge_ids == frozenset({0, 2})


def test_parity_layers_c5_dfs():
    g = cb.cycle(5)
    g1, g2 = (cb.verify_induced_bipartite(g, s)
              for s in _layer_sets(g, cb.dfs_tree(g, 0), 2))
    assert g1.weight(g) + g2.weight(g) == 4.0


def test_parity_layers_k4_star_tree_fails():
    g = cb.complete(4)
    star = cb.spanning.RootedSpanningTree(
        parent=(None, 0, 0, 0), roots=(0,), level=(0, 1, 1, 1),
        edge_ids=frozenset({g.edge_id(0, 1), g.edge_id(0, 2), g.edge_id(0, 3)}),
        kind="arbitrary", exact_weight=Fraction(3))
    # the second set joins the star to the triangle on its leaves: K4 itself
    with pytest.raises(cb.NotBipartiteError):
        for s in _layer_sets(g, star, 2):
            cb.verify_induced_bipartite(g, s)


def test_girth_layers_c5():
    g = cb.cycle(5)
    certs = [cb.verify_induced_bipartite(g, s)
             for s in _layer_sets(g, cb.dfs_tree(g, 0), 4)]
    assert len(certs) == 4
    for eid in cb.dfs_tree(g, 0).edge_ids:
        assert sum(eid in c.edge_ids for c in certs) == 3


FIG_TREE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (1, 7), (7, 8)]
FIG_BACK = [(1, 5), (1, 6), (0, 8)]


def test_girth_layers_reproduce_figure():
    """9-vertex DFS fixture with three back edges; k = 4 layer sets."""
    g = cb.WeightedGraph(9, [(u, v, 1.0) for u, v in FIG_TREE + FIG_BACK])
    t = cb.dfs_tree(g, 0)
    assert t.edge_ids == frozenset(range(8))  # DFS rediscovers the drawn tree
    certs = [cb.verify_induced_bipartite(g, s) for s in _layer_sets(g, t, 4)]

    def ids(pairs):
        return frozenset(g.edge_id(u, v) for u, v in pairs)

    expected = [
        ids([(1, 2), (2, 3), (3, 4), (3, 6), (1, 7), (7, 8), (1, 6)]),
        ids([(0, 1), (2, 3), (3, 4), (4, 5), (3, 6), (7, 8)]),
        ids([(0, 1), (1, 2), (3, 4), (4, 5), (3, 6), (1, 7)]),
        ids([(0, 1), (1, 2), (2, 3), (4, 5), (1, 7), (7, 8), (0, 8)]),
    ]
    assert [c.edge_ids for c in certs] == expected


def test_marked_edge_layers():
    g = cb.cycle(8)
    t = cb.max_spanning_tree(g)
    marked = sorted(t.edge_ids)[0]
    certs = [cb.verify_induced_bipartite(g, s)
             for s in _layer_sets(g, reroot_at_edge(g, t, [marked]), 4)]
    for eid in t.edge_ids:
        want = 4 if eid == marked else 3
        assert sum(eid in c.edge_ids for c in certs) == want


def test_shortest_fundamental_odd_cycle():
    g5, g8 = cb.cycle(5), cb.cycle(8)
    assert shortest_fundamental_odd_cycle(g5, cb.max_spanning_tree(g5)) == [5]
    assert shortest_fundamental_odd_cycle(g8, cb.max_spanning_tree(g8)) == [None]
    pet = cb.petersen()
    assert shortest_fundamental_odd_cycle(pet, cb.dfs_tree(pet, 0)) == [5]
    union = disjoint_union([g8, g5, cb.WeightedGraph(1, []), pet])
    assert shortest_fundamental_odd_cycle(union, cb.max_spanning_tree(union)) == [None, 5,
                                                                                  None, 5]


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 60), st.integers(0, 40), st.integers(0, 10 ** 6))
def test_fundamental_cycle_lengths_match_tree_bfs(n, extra, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng)
    dfs = cb.dfs_tree(g, rng.randrange(n))
    heavy = cb.max_spanning_tree(g)
    two_rooted = reroot_at_edge(g, heavy, [rng.choice(sorted(heavy.edge_ids))])
    for t in (dfs, heavy, two_rooted):
        want = [(eid, tree_distances_from(g, t, u)[v] + 1)
                for eid, (u, v, _) in enumerate(g.edges) if eid not in t.edge_ids]
        assert fundamental_cycle_lengths(g, t.edge_ids) == want
        assert _forest_cycle_lengths(g, t) == want  # two roots joined by a tree edge
        assert (shortest_fundamental_odd_cycle(g, t)
                == [shortest_odd_fundamental_cycle_by_bfs(g, t.edge_ids)])


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 60), st.integers(0, 40), st.integers(0, 10 ** 6))
def test_cross_edges_equal_the_parent_walk(n, extra, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng)
    dfs = cb.dfs_tree(g, rng.randrange(n))
    heavy = cb.max_spanning_tree(g)
    two_rooted = reroot_at_edge(g, heavy, [rng.choice(sorted(heavy.edge_ids))])
    for t in (dfs, heavy, two_rooted):
        assert cross_edges(g, t) == cross_edges_by_parent_walk(g, t)
    assert cross_edges(g, dfs) == []


def test_fundamental_cycle_lengths_long_cycle():
    g = cb.cycle(301)
    t = cb.max_spanning_tree(g)
    assert fundamental_cycle_lengths(g, t.edge_ids) == [(g.m - 1, 301)]
    assert fundamental_cycle_lengths(cb.WeightedGraph(0, []), frozenset()) == []
    path = cb.WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert fundamental_cycle_lengths(path, frozenset({0, 1, 2})) == []


def test_forest_cycle_lengths_tell_trees_apart():
    # the 6-cycle 0..5 leveled as two trees, 1 -> 0 <- 5 and 2 -> 3 <- 4, and
    # the 4-cycle 6..9 as the path 7 -> 6 <- 9 <- 8
    g = cb.WeightedGraph(10, list(cb.cycle(6).edges)
                         + [(6 + i, 6 + (i + 1) % 4, 1.0) for i in range(4)])
    forest = frozenset(g.edge_id(u, v) for u, v in
                       [(0, 1), (0, 5), (2, 3), (3, 4), (6, 7), (6, 9), (8, 9)])
    t = spanning._orient(g, forest, (0, 3, 6), "arbitrary")
    assert _forest_cycle_lengths(g, t) == [(g.edge_id(1, 2), None), (g.edge_id(4, 5), None),
                                           (g.edge_id(7, 8), 4)]


def test_fundamental_cycle_lengths_need_spanning_edges():
    g = cb.cycle(6)
    with pytest.raises(cb.DisconnectedGraphError):
        fundamental_cycle_lengths(g, frozenset({0, 1, 2}))


def test_reroot_at_edge_levels():
    g = cb.cycle(8)
    t = cb.max_spanning_tree(g)
    marked = sorted(t.edge_ids)[0]
    lev = reroot_at_edge(g, t, [marked])
    u, v, _ = g.edges[marked]
    assert lev.level[u] == lev.level[v] == 0
    lev.validate(g)


def test_dfs_weight_dominates_min_tree():
    rng = random.Random(9)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 12), rng.randint(0, 10), rng)
        tmin = cb.min_spanning_tree(g).weight
        tmax = cb.max_spanning_tree(g).weight
        d = cb.dfs_tree(g, 0).weight
        assert tmin <= tmax + 1e-12
        assert d >= tmin - 1e-12
        assert cross_edges(g, cb.dfs_tree(g, 0)) == []


def test_layer_sum_invariant():
    rng = random.Random(4)
    for _ in range(20):
        g = random_connected_graph(rng.randint(3, 10), rng.randint(0, 6), rng, True)
        t = cb.max_spanning_tree(g)
        k = 3
        marked = sorted(t.edge_ids)[0]
        leveled = reroot_at_edge(g, t, [marked])
        sets = _layer_sets(g, leveled, k)
        for eid in t.edge_ids:
            want = k if eid == marked else k - 1
            assert sum(eid in s for s in sets) == want
