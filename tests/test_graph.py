import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from helpers import (girth_by_edge_removal, induced_by_edge_scan, pendant_graph,
                     random_connected_graph, regularize_to_cubic)

C5_FILE = """c five cycle
p 5 5
e 0 1 1
e 1 2 1
e 2 3 1
e 3 4 1
e 0 4 1
"""


def test_load_single_edge():
    g = cb.load_graph("p 2 1\ne 0 1 3.5\n")
    assert g.n == 2 and g.m == 1
    assert g.edges[0] == (0, 1, 3.5)
    assert not g.integer_weights


def test_load_c5_girth():
    g = cb.load_graph(C5_FILE)
    assert cb.stats(g).girth == 5
    assert g.integer_weights


def test_self_loop_rejected():
    with pytest.raises(cb.SelfLoopError):
        cb.load_graph("p 2 1\ne 0 0 1\n")


def test_duplicate_edge_rejected():
    with pytest.raises(cb.DuplicateEdgeError):
        cb.load_graph("p 2 2\ne 0 1 1\ne 1 0 2\n")


def test_negative_weight_rejected():
    with pytest.raises(cb.NegativeWeightError):
        cb.load_graph("p 2 1\ne 0 1 -1\n")


@pytest.mark.parametrize("edges", [
    [(0, 1, float("nan"))], [(0, 1, float("inf"))], [(0, 1, float("-inf"))],
    [(0, 1, 1e308), (1, 2, 1e308)],   # total overflows
])
def test_non_finite_weights_rejected(edges):
    with pytest.raises(cb.NonFiniteWeightError):
        cb.WeightedGraph(3, edges)


@pytest.mark.parametrize("text", [
    "e 0 1 1\n",                      # edge before header
    "p 2\n",                          # short header
    "p 2 1\ne 0 1\n",                 # short edge line
    "p 2 1\ne 0 7 1\n",               # vertex out of range
    "p 2 1\nq 0 1 1\n",               # unknown line type
    "p 2 2\ne 0 1 1\n",               # edge count mismatch
    "p 2 1\ne 0 1 x\n",               # unparsable weight
    "p 3 1\ne 0 1 1_0\n",             # underscore-grouped weight
    "p 3 1\ne 1 \uff12 7\n",           # full-width digit as a vertex id
    "p 3 1\ne 0 \u0661 7\n",           # Arabic-Indic digit as a vertex id
    "p 0_3 2\ne 0 1 1\ne 1 2 1\n",    # underscore in the header
    "p 3 1\ne 0 1 \uff17\n",           # full-width digit as a weight
])
def test_malformed_lines(text):
    with pytest.raises(cb.MalformedLineError):
        cb.load_graph(text)


@pytest.mark.parametrize("text, error, message", [
    ("p 2 1\ne 0 1 nan\n", cb.NonFiniteWeightError, "non-finite weight nan"),
    ("p 2 1\ne 0 1 inf\n", cb.NonFiniteWeightError, "non-finite weight inf"),
    ("p -1 0\n", cb.MalformedLineError, "negative header field"),
])
def test_ascii_fields_keep_their_messages(text, error, message):
    with pytest.raises(error, match=message):
        cb.load_graph(text)


def test_stats_fixtures():
    c5 = cb.cycle(5)
    s = cb.stats(c5)
    assert (s.total_weight, s.girth, s.triangle_free) == (5.0, 5, True)
    k4 = cb.complete(4)
    s = cb.stats(k4)
    assert (s.girth, s.triangle_free) == (3, False)
    pet = cb.petersen()
    s = cb.stats(pet)
    assert (s.girth, s.max_degree) == (5, 3)
    tree = cb.load_graph("p 3 2\ne 0 1 1\ne 1 2 1\n")
    assert cb.stats(tree).girth is None
    assert cb.stats(tree).triangle_free


def _theta(*lengths):
    """Vertices 0 and 1 joined by internally disjoint paths of these lengths."""
    pairs, n = [], 2
    for length in lengths:
        inner = list(range(n, n + length - 1))
        n += length - 1
        walk = [0] + inner + [1]
        pairs += list(zip(walk, walk[1:]))
    return cb.WeightedGraph(n, [(u, v, 1.0) for u, v in pairs])


def test_girth_matches_independent_oracle():
    import random
    graphs = [random_connected_graph(random.Random(seed).randint(3, 10), seed % 5,
                                     random.Random(seed + 1)) for seed in range(60)]
    graphs += [cb.cycle(n) for n in (3, 4, 99, 100, 201)]
    graphs += [_theta(*lengths) for lengths in ((1, 2, 2), (2, 3, 4), (5, 5, 7), (40, 41, 60),
                                                  (3, 3, 3, 3))]
    graphs += [pendant_graph(cycle_len, extra, random.Random(cycle_len), True)
               for cycle_len in (3, 5, 8, 31, 60) for extra in (1, 20)]
    for g in graphs:
        assert cb.girth(g) == girth_by_edge_removal(g), cb.save_graph(g)


def test_adjacency_consistency():
    g = cb.petersen_c3(10, 1)
    for v in range(g.n):
        for u, eid in g.adj[v]:
            a, b, _ = g.edges[eid]
            assert {a, b} == {u, v}
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_components_and_induced():
    g = cb.WeightedGraph(5, [(0, 1, 1.0), (3, 4, 2.0)])
    assert g.components() == [[0, 1], [2], [3, 4]]
    sub, orig_v, orig_e = g.induced([3, 4])
    assert sub.n == 2 and sub.edges[0] == (0, 1, 2.0)
    assert orig_v == (3, 4) and orig_e == (1,)
    assert not g.is_connected()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 20), st.integers(0, 10 ** 6), st.data())
def test_induced_matches_edge_scan(n, extra, seed, data):
    import random
    g = random_connected_graph(n, extra, random.Random(seed))
    vertices = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    sub, orig_v, orig_e = g.induced(vertices)
    want_sub, want_v, want_e = induced_by_edge_scan(g, vertices)
    assert sub == want_sub and orig_v == want_v and orig_e == want_e


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 8), st.integers(0, 10 ** 6), st.booleans())
def test_save_load_round_trip(n, extra, seed, integer_mode):
    import random
    g = random_connected_graph(n, extra, random.Random(seed), integer_mode)
    text = cb.save_graph(g)
    h = cb.load_graph(text)
    assert h.n == g.n
    assert sorted(h.edges) == sorted(g.edges)
    assert h.integer_weights == g.integer_weights
    assert cb.save_graph(h) == text  # identity on the canonical form


def test_zero_weight_edges_legal():
    g = cb.WeightedGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])
    assert g.total_weight == 1.0
    assert g.integer_weights


# -- triangle_free ------------------------------------------------------------


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return [(u, v, 1.0) for u, v in chosen], n


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_triangle_free_matches_girth_stats(spec):
    edges, n = spec
    fresh = cb.WeightedGraph(n, edges)  # no stats memo: the edge check runs
    expected = cb.stats(cb.WeightedGraph(n, edges)).triangle_free
    assert cb.triangle_free(fresh) == expected
    assert cb.triangle_free(fresh) == expected  # memoized
    with_stats = cb.WeightedGraph(n, edges)
    cb.stats(with_stats)
    assert cb.triangle_free(with_stats) == expected


def test_triangle_free_edge_cases():
    assert cb.triangle_free(cb.WeightedGraph(0, []))
    assert cb.triangle_free(cb.WeightedGraph(5, []))
    assert cb.triangle_free(cb.cycle(4))
    assert not cb.triangle_free(cb.cycle(3))
    assert cb.triangle_free(cb.petersen_c3(2.0, 1.0))
    assert not cb.triangle_free(cb.WeightedGraph(5, [(0, 1, 1.0), (1, 4, 1.0), (0, 4, 0.0)]))


def test_triangle_free_skips_the_girth_pass(monkeypatch):
    def no_girth(g):
        raise AssertionError("girth called")
    monkeypatch.setattr(cb.graph, "girth", no_girth)
    assert cb.triangle_free(cb.petersen())
    assert not cb.triangle_free(cb.complete(4))


_TRIANGLE_MESSAGES = [
    (lambda g: cb.brooks_3_coloring(g), "coloring expects a triangle-free graph"),
    (lambda g: regularize_to_cubic(g), "regularization expects a triangle-free graph"),
    (lambda g: cb.two_thirds_bound(g), "bound expects a triangle-free graph"),
    (lambda g: cb.eight_elevenths_bound(g), "bound expects a triangle-free graph"),
    (lambda g: cb.shearer_bound(g, trials=4), "redistribution bound expects a triangle-free graph"),
    (lambda g: cb.contract_matching(g, []), "matching contraction needs a triangle-free graph"),
    (lambda g: cb.vizing_classes_bound(g), "coefficient bound needs a triangle-free graph"),
]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("call, message", _TRIANGLE_MESSAGES)
def test_triangle_preconditions_keep_their_errors(n, call, message):
    with pytest.raises(cb.TriangleFoundError) as info:
        call(cb.complete(n))
    assert str(info.value) == message
