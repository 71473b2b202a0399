"""The engine's steps agree with the bounds built from them: the 2/3
placement is ``place_blocks`` with one rigid block, the greedy matching is
the plain heaviest-first loop, the parity layers are the k = 2 layer family,
and every best-of selection keeps the first maximum, also where it stops
early."""

import random

from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds import bounds
from cutbounds.bounds import _best_dfs_tree, _best_layer_cut, greedy_matching
from cutbounds.cuts import place_blocks
from cutbounds.spanning import layer_edge_sets
from cutbounds.subcubic import color_components
from helpers import (best_layer_cut_by_full_scan, greedy_matching_by_loop,
                     parity_layer_split, pendant_graph, random_certificate_edges,
                     random_connected_graph, random_tf_subcubic_graph)


def _assert_two_thirds_is_rigid_pair_placement(g):
    # classes i and j as one rigid block carry all of class k's weight, so the
    # block goes first with orientation 0, then each k-vertex takes its side
    rep = cb.two_thirds_bound(g)
    i, j = rep.details["kept_pair"]
    block = {v: int(c == j) for v, c in enumerate(color_components(g).class_of)
             if c in (i, j)}
    placed = place_blocks(g, [block])
    assert rep.cut.side == placed.side and rep.cut.weight == placed.weight


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6), st.booleans())
def test_two_thirds_cut_is_the_rigid_pair_placement(n, seed, integer):
    _assert_two_thirds_is_rigid_pair_placement(
        random_tf_subcubic_graph(n, random.Random(seed), integer))


def test_two_thirds_fixtures_are_the_rigid_pair_placement():
    for g in (cb.cycle(5), cb.cycle(7, 3.0), cb.petersen(), cb.gadget_k33_subdivided(2.0),
              cb.random_triangle_free_subcubic(30, seed=4)):
        _assert_two_thirds_is_rigid_pair_placement(g)


def test_best_layer_cut_ties_go_to_the_first_certificate():
    g = cb.cycle(6)
    cert = cb.verify_induced_bipartite(g, [0, 3])
    cut, j = _best_layer_cut(g, iter([[0, 3], [0, 3]]))
    assert j == 0 and cut == cb.derandomized_cut(g, cert)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 10 ** 6), st.booleans())
def test_parity_layers_are_the_k2_layer_family(n, extra, seed, integer):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng, integer)
    d = cb.dfs_tree(g, rng.randrange(n))
    assert list(layer_edge_sets(g, d, 2)) == parity_layer_split(g, d)
    h = random_tf_subcubic_graph(n, rng, integer)
    t = cb.max_spanning_tree(h)
    assert list(layer_edge_sets(h, t, 2)) == parity_layer_split(h, t)


def _weighted(n, pairs, rng, integer):
    draw = (lambda: float(rng.randint(0, 9))) if integer else (lambda: rng.random() * 5.0)
    return cb.WeightedGraph(n, [(u, v, draw()) for u, v in pairs])


def _grid(rows, cols, rng, integer):
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return _weighted(rows * cols, pairs, rng, integer)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["random", "forest", "even_cycle", "grid"]),
       st.integers(2, 14), st.integers(0, 10 ** 6), st.booleans())
def test_early_stopping_layer_cut_matches_a_full_scan(family, n, seed, integer):
    rng = random.Random(seed)
    g = {"random": lambda: random_connected_graph(n, rng.randint(0, 2 * n), rng, integer),
         "forest": lambda: pendant_graph(0, n, rng, integer),
         "even_cycle": lambda: _weighted(2 * n, [(i, (i + 1) % (2 * n)) for i in range(2 * n)],
                                         rng, integer),
         "grid": lambda: _grid(2 + n % 3, n, rng, integer)}[family]()
    # random certificates around the whole edge set, which cuts every edge
    # when g is bipartite; repeats make ties on both sides of the stop
    sets = [random_certificate_edges(g, rng) for _ in range(rng.randint(0, 4))]
    if family != "random":
        sets.append(list(range(g.m)))
    sets += [random_certificate_edges(g, rng) for _ in range(rng.randint(0, 4))]
    sets += sets[:rng.randint(0, len(sets))]
    if family != "forest":
        sets += layer_edge_sets(g, cb.dfs_tree(g, 0), 2)
    assert _best_layer_cut(g, iter(sets)) == best_layer_cut_by_full_scan(g, sets)


def test_k_equals_n_layers_stop_at_the_first_full_cut(monkeypatch):
    calls = []

    def counting(g, cert):
        calls.append(cert)
        return cb.derandomized_cut(g, cert)

    monkeypatch.setattr(bounds, "derandomized_cut", counting)
    g = cb.generators.path(300)
    for bound in (cb.girth_bound, cb.edge_rooted_tree_bound):
        calls.clear()
        rep = bound(g)
        assert rep.details["k"] >= 150 and rep.cut.weight == g.total_weight
        assert len(calls) == 1


def test_best_dfs_tree_sweep_ties_go_to_the_lowest_root():
    # every DFS tree of a uniform C6 weighs 5
    t = _best_dfs_tree(cb.cycle(6), None, True)
    assert t.roots[0] == 0 and t.weight == 5.0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 40), st.integers(0, 10 ** 6), st.booleans())
def test_greedy_matching_matches_the_loop(n, extra, seed, integer):
    g = random_connected_graph(n, extra, random.Random(seed), integer)
    assert greedy_matching(g) == greedy_matching_by_loop(g)
