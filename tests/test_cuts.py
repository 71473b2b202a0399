import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds.cuts import _two_color
from helpers import (certificate_cut_by_dicts, local_search_by_full_sweeps,
                     random_certificate_edges, random_connected_graph, two_color_blocks)


def test_verify_single_edge():
    g = cb.cycle(5)
    cert = cb.verify_induced_bipartite(g, [0])
    assert cert.labelling.count == 1
    assert [v for v, b in enumerate(cert.labelling.label) if b == 0] == [0, 1]


def test_verify_spanning_path_not_induced():
    g = cb.cycle(5)
    with pytest.raises(cb.NotInducedError):
        cb.verify_induced_bipartite(g, [0, 1, 2, 3])


def test_verify_three_edge_path():
    g = cb.cycle(5)
    # path v0-v1-v2-v3; v0 and v3 are not adjacent in C5
    assert not g.has_edge(0, 3)
    cert = cb.verify_induced_bipartite(g, [0, 1, 2])
    assert cert.labelling.count == 1


def test_verify_odd_component():
    g = cb.complete(3)
    with pytest.raises(cb.NotBipartiteError):
        cb.verify_induced_bipartite(g, [0, 1, 2])


def test_verify_matching_with_cross_edges():
    # two disjoint edges of C5 joined by a cycle edge: still a certificate
    g = cb.cycle(5)
    cert = cb.verify_induced_bipartite(g, [0, 2])
    assert cert.labelling.count == 2


def test_derandomized_cut_fixtures():
    g = cb.cycle(5)
    one = cb.derandomized_cut(g, cb.verify_induced_bipartite(g, [0]))
    assert one.weight >= 3.0
    empty = cb.derandomized_cut(g, cb.verify_induced_bipartite(g, []))
    assert empty.weight >= 2.5
    path3 = cb.derandomized_cut(g, cb.verify_induced_bipartite(g, [0, 1, 2]))
    assert path3.weight == 4.0  # >= (5+3)/2 and the maximum cut is 4


def test_certificate_edges_cross():
    rng = random.Random(7)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 10), rng.randint(0, 8), rng, True)
        ids = random_certificate_edges(g, rng)
        cert = cb.verify_induced_bipartite(g, ids)
        cut = cb.derandomized_cut(g, cert)
        for e in ids:
            assert cut.crosses(g, e)
        assert cut.exact_weight == cut.recompute_weight(g)


def test_derandomizer_exact_guarantee_integer_mode():
    rng = random.Random(11)
    for _ in range(400):
        g = random_connected_graph(rng.randint(2, 9), rng.randint(0, 7), rng, True)
        ids = random_certificate_edges(g, rng)
        cert = cb.verify_induced_bipartite(g, ids)
        cut = cb.derandomized_cut(g, cert)
        need = (Fraction(int(g.total_weight)) + Fraction(int(cert.weight(g)))) / 2
        assert Fraction(cut.weight) >= need


def test_local_search_k4():
    g = cb.complete(4)
    flat = cb.Cut.from_side(g, [0, 0, 0, 0])
    out = cb.local_search_improve(g, flat)
    assert out.weight >= 3.0


def test_local_search_keeps_optimum():
    g = cb.cycle(5)
    opt = cb.Cut.from_side(g, [0, 1, 0, 1, 1])
    assert opt.weight == 4.0
    assert cb.local_search_improve(g, opt).weight == 4.0


def test_local_search_monotone():
    rng = random.Random(3)
    for _ in range(50):
        g = random_connected_graph(rng.randint(2, 9), rng.randint(0, 6), rng)
        side = [rng.randint(0, 1) for _ in range(g.n)]
        start = cb.Cut.from_side(g, side)
        out = cb.local_search_improve(g, start)
        assert out.weight >= start.weight
        # local optimum: no single flip improves
        for v in range(g.n):
            flipped = list(out.side)
            flipped[v] ^= 1
            assert cb.Cut.from_side(g, flipped).exact_weight <= out.exact_weight


# Integer weights 0..2 give zero-weight edges and gains of exactly 0; the
# float weights include 0.1, 0.2 and 0.3, whose float sums would round by
# order, so only exact gains flip where the sweeps do.
_SEARCH_WEIGHTS = {True: (0.0, 1.0, 2.0), False: (0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 1.9)}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2 ** 32))
def test_worklist_search_equals_full_sweeps(n, density, integer, seed):
    rng = random.Random(seed)
    g = cb.WeightedGraph(n, [(u, v, rng.choice(_SEARCH_WEIGHTS[integer]))
                             for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
    for _ in range(rng.randint(1, 4)):
        side = [rng.getrandbits(1) for _ in range(n)]
        want = cb.Cut.from_side(g, local_search_by_full_sweeps(g, side))
        assert cb.local_search_improve(g, cb.Cut.from_side(g, side)) == want


def test_check_matching():
    g = cb.cycle(5)
    with pytest.raises(cb.NotAMatchingError):
        cb.cuts.check_matching(g, [0, 1])
    assert cb.cuts.check_matching(g, [0, 2]) == (0, 2)


@pytest.mark.parametrize("ids, bad", [([-1], -1), ([15], 15), ([0, -15], -15)])
@pytest.mark.parametrize("bound", [cb.matching_bound, cb.matching_vizing_bound])
def test_matching_edge_ids_outside_the_graph_are_rejected(bound, ids, bad):
    # Petersen has edge ids 0..14: -1 would contract a self-loop, 15 would
    # index past the edges, and -15 would alias edge 0 and share its ends
    with pytest.raises(ValueError, match=f"^edge id {bad} out of range$"):
        bound(cb.petersen(), ids)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 10), st.integers(0, 9), st.integers(0, 10 ** 6))
def test_derandomizer_guarantee_property(n, extra, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng, integer_weights=True)
    cert = cb.verify_induced_bipartite(g, random_certificate_edges(g, rng))
    cut = cb.derandomized_cut(g, cert)
    assert Fraction(cut.weight) >= (Fraction(int(g.total_weight))
                                    + Fraction(int(cert.weight(g)))) / 2
    assert all(cut.crosses(g, e) for e in cert.edge_ids)
    assert cut.exact_weight == cut.recompute_weight(g)


def test_empty_and_single_vertex_graphs():
    empty = cb.WeightedGraph(0, [])
    assert cb.derandomized_cut(empty, cb.verify_induced_bipartite(empty, ())).weight == 0.0
    one = cb.WeightedGraph(1, [])
    cut = cb.derandomized_cut(one, cb.verify_induced_bipartite(one, ()))
    assert cut.side == (0,)
    with pytest.raises(cb.DisconnectedGraphError):
        cb.dfs_bound(empty)


def _labels_of(blocks):
    """vertex -> (block, color) of ``{vertex: color}`` blocks."""
    return {v: (b, c) for b, block in enumerate(blocks) for v, c in block.items()}


def _labels(labelling):
    return {v: (b, c) for v, (b, c) in enumerate(zip(labelling.label, labelling.color))
            if b >= 0}


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.integers(0, 12), st.integers(0, 2 ** 32), st.data())
def test_two_color_equals_reference_blocks(n, extra, seed, data):
    g = random_connected_graph(n, extra, random.Random(seed))
    ids = sorted(data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else [])
    try:
        want = two_color_blocks(g, ids)
    except cb.NotBipartiteError:
        with pytest.raises(cb.NotBipartiteError):
            _two_color(g, ids)
        return
    got = _two_color(g, ids)
    assert _labels(got) == _labels_of(want) and got.count == len(want)
    assert all(got.label[v] == -1 and got.color[v] == 0
               for v in range(g.n) if v not in _labels(got))
    firsts = [got.label.index(b) for b in range(got.count)]
    assert firsts == sorted(firsts) and all(got.color[v] == 0 for v in firsts)


def test_two_color_rejects_odd_cycles():
    g = cb.cycle(7)
    with pytest.raises(cb.NotBipartiteError):
        _two_color(g, range(g.m))
    with pytest.raises(cb.NotBipartiteError):
        two_color_blocks(g, range(g.m))
    path = range(g.m - 1)
    assert _labels(_two_color(g, path)) == _labels_of(two_color_blocks(g, path))


def _placed_by_labels(g, ids):
    return cb.derandomized_cut(g, cb.verify_induced_bipartite(g, ids))


def _assert_same_cut_or_error(g, ids):
    try:
        want = certificate_cut_by_dicts(g, ids)
    except (cb.NotBipartiteError, cb.NotInducedError) as exc:
        with pytest.raises(type(exc)):
            _placed_by_labels(g, ids)
        return
    got = _placed_by_labels(g, ids)
    assert (got.side, got.exact_weight) == (want.side, want.exact_weight)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2 ** 32),
       st.data())
def test_label_placement_equals_dict_blocks(n, density, integer, seed, data):
    # graphs with isolated vertices and edge sets of every kind: valid
    # certificates, odd cycles, non-induced sets and the empty set
    rng = random.Random(seed)
    g = cb.WeightedGraph(n, [(u, v, rng.choice(_SEARCH_WEIGHTS[integer]))
                             for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
    _assert_same_cut_or_error(g, ())
    _assert_same_cut_or_error(g, random_certificate_edges(g, rng))
    _assert_same_cut_or_error(g, data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else ())


def test_label_placement_fixtures():
    c5, k4 = cb.cycle(5), cb.complete(4)
    path_and_isolated = cb.WeightedGraph(5, [(0, 1, 2.0), (1, 2, 1.0)])
    for g, ids in ((c5, range(5)), (c5, [0, 1, 2, 3]), (k4, [0, 1, 2]), (k4, [0, 5]),
                   (c5, ()), (path_and_isolated, ()), (path_and_isolated, [1]),
                   (cb.WeightedGraph(3, []), ())):
        _assert_same_cut_or_error(g, list(ids))
