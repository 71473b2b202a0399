"""The engine's steps agree with the bounds built from them: the 2/3
placement is ``place_blocks`` with one rigid block, the greedy matching is
the plain heaviest-first loop, and every best-of selection keeps the first
maximum."""

import random

from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds.bounds import _best_dfs_tree, _best_layer_cut, greedy_matching
from cutbounds.cuts import place_blocks
from cutbounds.subcubic import color_components
from helpers import greedy_matching_by_loop, random_connected_graph, random_tf_subcubic_graph


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
    cut, j = _best_layer_cut(g, iter([cert, cert]))
    assert j == 0 and cut == cb.derandomized_cut(g, cert)


def test_best_dfs_tree_sweep_ties_go_to_the_lowest_root():
    # every DFS tree of a uniform C6 weighs 5
    t = _best_dfs_tree(cb.cycle(6), None, True)
    assert t.roots[0] == 0 and t.weight == 5.0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 40), st.integers(0, 10 ** 6), st.booleans())
def test_greedy_matching_matches_the_loop(n, extra, seed, integer):
    g = random_connected_graph(n, extra, random.Random(seed), integer)
    assert greedy_matching(g) == greedy_matching_by_loop(g)
