"""Differential checks of graph primitives against networkx (skipped when
networkx is not installed)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds.bounds import EXACT_MATCHING_MAX_EDGES, exact_matching_small
from cutbounds.cuts import NotBipartiteError
from cutbounds.subcubic import _articulation_points
from helpers import pendant_graph, random_connected_graph

nx = pytest.importorskip("networkx")


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from(g.edges)
    return h


def _graphs(max_n, max_extra):
    return st.builds(lambda n, extra, seed, integer: random_connected_graph(
        n, extra, random.Random(seed), integer),
        st.integers(1, max_n), st.integers(0, max_extra), st.integers(0, 10 ** 6),
        st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.one_of(_graphs(14, 20), st.builds(
    lambda cycle_len, extra, seed, integer: pendant_graph(
        cycle_len, extra, random.Random(seed), integer),
    st.sampled_from([0, 3, 4, 5, 6, 7, 9]), st.integers(0, 20), st.integers(0, 10 ** 6),
    st.booleans())))
def test_girth_and_triangles(g):
    h = _to_nx(g)
    want = nx.girth(h)
    assert cb.girth(g) == (None if want == float("inf") else want)
    assert cb.triangle_free(g) == (sum(nx.triangles(h).values()) == 0)


@settings(max_examples=150, deadline=None)
@given(_graphs(14, 6))
def test_whole_edge_set_certificate_iff_bipartite(g):
    try:
        cb.verify_induced_bipartite(g, range(g.m))
        bipartite = True
    except NotBipartiteError:
        bipartite = False
    assert bipartite == nx.is_bipartite(_to_nx(g))


@settings(max_examples=150, deadline=None)
@given(_graphs(16, 10))
def test_articulation_points(g):
    assert _articulation_points(g) == sorted(nx.articulation_points(_to_nx(g)))


@settings(max_examples=100, deadline=None)
@given(_graphs(14, 20))
def test_spanning_tree_weights(g):
    h = _to_nx(g)
    for ours, theirs in ((cb.min_spanning_tree(g), nx.minimum_spanning_tree(h)),
                         (cb.max_spanning_tree(g), nx.maximum_spanning_tree(h))):
        want = theirs.size(weight="weight")
        if g.integer_weights:
            assert ours.weight == want
        else:
            assert ours.weight == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(_graphs(12, EXACT_MATCHING_MAX_EDGES - 11))
def test_exact_matching_small_is_maximum(g):
    h = _to_nx(g)
    ours = sum(g.edges[e][2] for e in exact_matching_small(g))
    want = sum(h[u][v]["weight"] for u, v in nx.max_weight_matching(h))
    if g.integer_weights:
        assert ours == want
    else:
        assert ours == pytest.approx(want, rel=1e-12, abs=1e-12)
