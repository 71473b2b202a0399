import io
import math
import random
import statistics
import tracemalloc
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cutbounds as cb
from cutbounds import cli, generators, subcubic
from cutbounds.bounds import meets
from cutbounds.cuts import NotBipartiteError, _two_color
from cutbounds.graph import _component_split, _exact_weights, _incidence_arrays
from cutbounds.subcubic import (_BATCH_CELLS, _BLOCK_CELLS, _successors, color_components,
                                percolation_expectation, _peel_greedy)
from cutbounds.spanning import dfs_tree, max_spanning_tree, reroot_at_edge
from helpers import (_padded_candidates, certified, complete_bipartite, disjoint_union,
                     double_stars, eight_elevenths_candidate_cuts, eight_elevenths_padded,
                     gadget_colors, gadget_hosts, naive_max_cut, padded_coloring,
                     peel_colors_by_scan, percolation_conditional_expectation, percolation_raw,
                     random_connected_graph, random_tf_subcubic_graph,
                     reference_tree_percolation, regularize_to_cubic, shearer_expectation,
                     shearer_sides_by_loop, successor_digraph, tree_paths,
                     tree_percolation_sample, two_color_blocks)


def bridged_gadgets():
    """Cubic triangle-free graph with a bridge: two gadgets joined at their
    degree-2 vertices.  Exercises the articulation-point coloring branch."""
    ga = cb.gadget_k33_subdivided()
    edges = [(u, v, 1.0) for u, v, _ in ga.edges]
    edges += [(u + 7, v + 7, 1.0) for u, v, _ in ga.edges]
    edges.append((6, 13, 1.0))
    return cb.WeightedGraph(14, edges)


# -- regularization ------------------------------------------------------


def test_regularize_c5():
    ext = regularize_to_cubic(cb.cycle(5))
    g3 = ext.graph
    assert g3.n == 5 + 5 * 7
    assert all(g3.degree(v) == 3 for v in range(g3.n))
    assert g3.total_weight == 5.0
    assert cb.stats(g3).triangle_free
    assert ext.gadget_count == 5


def test_regularize_identity_on_cubic():
    assert regularize_to_cubic(cb.petersen()).graph == cb.petersen()


def test_regularize_single_edge():
    ext = regularize_to_cubic(cb.WeightedGraph(2, [(0, 1, 1.0)]))
    assert ext.gadget_count == 4
    assert all(ext.graph.degree(v) == 3 for v in range(ext.graph.n))


def test_regularize_rejects():
    with pytest.raises(cb.TriangleFoundError):
        regularize_to_cubic(cb.complete(4))
    star4 = cb.WeightedGraph(5, [(0, v, 1.0) for v in range(1, 5)])
    with pytest.raises(ValueError):
        regularize_to_cubic(star4)  # degree 4, triangle-free


# -- Brooks coloring -------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: cb.cycle(5),
    lambda: cb.cycle(6),
    lambda: cb.petersen(),
    lambda: cb.gadget_k33_subdivided(),
    bridged_gadgets,
    lambda: regularize_to_cubic(cb.cycle(5)).graph,
    lambda: regularize_to_cubic(cb.WeightedGraph(2, [(0, 1, 1.0)])).graph,
])
def test_brooks_fixtures(make):
    g = make()
    col = cb.brooks_3_coloring(g)
    col.validate(g)


def test_brooks_petersen_is_three_chromatic():
    # 2 colors cannot do it: odd cycles
    g = cb.petersen()
    col = cb.brooks_3_coloring(g)
    assert len(set(col.class_of)) == 3


def test_brooks_rejects():
    with pytest.raises(cb.TriangleFoundError):
        cb.brooks_3_coloring(cb.complete(3))
    with pytest.raises(cb.DisconnectedGraphError):
        cb.brooks_3_coloring(cb.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    with pytest.raises(ValueError):
        cb.brooks_3_coloring(cb.WeightedGraph(5, [(0, v, 1.0) for v in range(1, 5)]))


def test_brooks_regularized_corpus():
    for seed in range(30):
        g = cb.random_triangle_free_subcubic(4 + seed % 12, seed=seed)
        g3 = regularize_to_cubic(g).graph
        col = color_components(g3)
        col.validate(g3)


def test_padding_rule_colors_the_extension_properly():
    rng = random.Random(5)
    graphs = [random_tf_subcubic_graph(rng.randint(1, 40), rng, True) for _ in range(40)]
    graphs += [cb.random_triangle_free_subcubic(4 + seed, seed=seed) for seed in range(20)]
    graphs += [generators.path(3), cb.cycle(5), cb.WeightedGraph(3, [])]
    for g in graphs:
        ext = regularize_to_cubic(g)
        col = padded_coloring(ext)
        col.validate(ext.graph)
        assert col.class_of[:g.n] == color_components(g).class_of
        hosts = gadget_hosts(g)
        assert len(hosts) == ext.gadget_count
        for i, s in enumerate(hosts):
            mid = g.n + 7 * i + 6  # the subdivision vertex
            assert ext.graph.has_edge(s, mid)
            assert col.class_of[mid] != col.class_of[s]


def test_bridged_cubic_input_colors_through_the_split(monkeypatch, tmp_path):
    g = bridged_gadgets()
    assert all(g.degree(v) == 3 for v in range(g.n)) and cb.stats(g).triangle_free
    split = []
    color_split_at = subcubic._color_split_at

    def counting(h, a):
        split.append(a)
        return color_split_at(h, a)

    monkeypatch.setattr(subcubic, "_color_split_at", counting)
    assert certified(cb.two_thirds_bound(g))
    assert certified(cb.eight_elevenths_bound(g))
    assert len(split) == 1  # one Brooks coloring, shared by both bounds
    path = tmp_path / "bridged.graph"
    path.write_text(cb.save_graph(g))
    out = io.StringIO()
    assert cli.main(["verify", "--input", str(path)], out=out) == 0
    assert out.getvalue().splitlines()[-1] == "verify: 1 instance(s), all sound"


def test_one_bound_suite_colors_each_component_once(monkeypatch):
    calls = []
    brooks = subcubic.brooks_3_coloring

    def counting(h):
        calls.append(h.n)
        return brooks(h)

    monkeypatch.setattr(subcubic, "brooks_3_coloring", counting)
    parts = [generators.path(3), cb.cycle(5), cb.petersen(), cb.gadget_k33_subdivided(),
             cb.cycle(6)]
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n, w) for u, v, w in part.edges]
        n += part.n
    g = cb.WeightedGraph(n, edges)
    for _, run in cli._bound_suite(g, seed=0, trials=16):
        run()
    assert calls == [part.n for part in parts]


# -- successor digraph and classification ----------------------------------


def test_successor_rule_on_cubic_vertex():
    # explicit star: center 0 colored 1, neighbors colored 2, 2, 3
    g = cb.WeightedGraph(6, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                             (1, 4, 1.0), (2, 4, 1.0), (3, 5, 1.0)])
    col = cb.VertexColoring3((1, 2, 2, 3, 1, 1))
    succ = successor_digraph(g, col)
    assert succ.succ[0] == 3  # color 3 appears exactly once in N(0)


def test_successor_undefined_for_degree_two_distinct():
    g = cb.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    col = cb.VertexColoring3((1, 2, 3))
    succ = successor_digraph(g, col)
    assert succ.succ[1] is None      # both colors appear once: ambiguous
    assert succ.succ[0] == 1         # degree 1: the single color is unique
    assert succ.succ[2] == 1


def test_classification_partition_and_matching():
    g3 = regularize_to_cubic(cb.petersen()).graph
    col = color_components(g3)
    succ = successor_digraph(g3, col)
    cls = cb.classify_edges(g3, succ)
    w0, w1, w2 = map(_exact_weights(g3).value, cls.sums(g3))
    assert w0 + w1 + w2 == g3.total_weight
    cb.cuts.check_matching(g3, cls.edge_ids(2))
    # mutual edges classify as 2
    for e in cls.edge_ids(2):
        u, v, _ = g3.edges[e]
        assert succ.succ[u] == v and succ.succ[v] == u


def test_successor_triple_color_property():
    # any edge into the tail of an arc sees all three classes
    for seed in (0, 3, 7):
        g = cb.random_triangle_free_subcubic(12, seed=seed)
        ext = regularize_to_cubic(g)
        g3 = ext.graph
        for col in (color_components(g3), padded_coloring(ext)):
            succ = successor_digraph(g3, col)
            for p2, p3 in succ.arcs():
                for p1, _ in g3.adj[p2]:
                    if p1 == p3:
                        continue
                    trio = {col.class_of[p1], col.class_of[p2], col.class_of[p3]}
                    assert trio == {1, 2, 3}


# -- certified cuts ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_certified_cuts_hold(seed):
    g = cb.random_triangle_free_subcubic(4 + seed, seed=seed, weight_dist="int")
    g3, candidates = eight_elevenths_candidate_cuts(g)
    for cut, value in candidates.values():
        assert meets(cut, value)


def test_per_class_cut_petersen():
    _, candidates = eight_elevenths_candidate_cuts(cb.petersen())
    cut, value = candidates["drop_class"]
    assert cut.weight >= value
    assert cut.weight <= 12.0


def test_mutual_matching_cut_empty_matching():
    # This cubic graph has no class-2 edge, so the mutual matching is empty
    # and the certified value is (3/5)(w0 + w1) with nothing contracted.
    g = cb.random_triangle_free_subcubic(6, seed=102, weight_dist="int")
    g3, candidates = eight_elevenths_candidate_cuts(g)
    ext = regularize_to_cubic(g)
    cls = cb.classify_edges(g3, successor_digraph(g3, padded_coloring(ext)))
    assert cls.edge_ids(2) == ()
    w0, w1, _ = map(_exact_weights(g3).value, cls.sums(g3))
    cut, value = candidates["mutual_matching"]
    assert value == Fraction(3, 5) * (w0 + w1)
    assert meets(cut, value)


def test_eight_elevenths_fixtures():
    r = cb.eight_elevenths_bound(cb.cycle(5))
    assert r.bound_exact == Fraction(40, 11)
    assert r.cut.weight == 4.0
    r = cb.eight_elevenths_bound(cb.petersen())
    assert r.bound_exact == Fraction(120, 11)
    assert r.cut.weight in (11.0, 12.0)
    r = cb.eight_elevenths_bound(cb.cycle(6))
    assert r.cut.weight == 6.0  # bipartite


def test_eight_elevenths_corpus():
    for seed in range(30):
        g = cb.random_triangle_free_subcubic(4 + seed % 14, seed=100 + seed,
                                             weight_dist="int")
        r = cb.eight_elevenths_bound(g)
        assert r.cut.exact_weight >= r.bound_exact
        assert r.cut.exact_weight <= naive_max_cut(g)  # integral weights: an exact sum


def test_eight_elevenths_rejects_triangles():
    with pytest.raises(cb.TriangleFoundError):
        cb.eight_elevenths_bound(cb.complete(4))


# -- the 8/11 pipeline on G, its padding counted --------------------------------

# one graph each candidate wins on
LAYERED_WINNER = cb.WeightedGraph(2, [(0, 1, 2.0)])
MUTUAL_WINNER = cb.WeightedGraph(5, [(0, 1, 5.0), (0, 3, 0.0), (1, 2, 4.0), (1, 4, 4.0)])
# a drop-class residue that leaves a padded vertex without an edge of G: it
# is still a labelled block, or place_blocks breaks a tie the other way
PADDED_ALONE = cb.WeightedGraph(8, [(0, 1, 6.0), (1, 2, 8.0), (1, 4, 9.0), (2, 3, 5.0),
                                    (2, 6, 5.0), (3, 4, 3.0), (3, 5, 7.0), (5, 6, 2.0)])
# a host pointing into its gadget whose tree, leveled from the host at 0
# rather than 1, picks another layer set: the padded graph levels it deeper
HOST_DEEPER = cb.WeightedGraph(6, [(0, 1, 7.0), (0, 2, 0.0), (0, 5, 5.0), (1, 3, 9.0),
                                   (1, 4, 1.0), (2, 3, 5.0), (4, 5, 6.0)])


@st.composite
def tf_subcubic_unions(draw):
    """Disjoint unions of isolated vertices, paths, cycles of length 4 or
    more and random connected tf subcubic graphs, weighted by integers or
    by floats."""
    integer = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 10 ** 6)))

    def weight():
        return float(rng.randint(0, 9)) if integer else rng.random() * 5.0

    parts = []
    for kind, k in draw(st.lists(st.tuples(st.sampled_from(("isolated", "path", "cycle",
                                                            "random")),
                                           st.integers(1, 24)), min_size=1, max_size=5)):
        if kind == "isolated":
            parts.append(cb.WeightedGraph(1, []))
        elif kind == "path":
            parts.append(cb.WeightedGraph(k + 1, [(i, i + 1, weight()) for i in range(k)]))
        elif kind == "cycle":
            parts.append(cb.WeightedGraph(k + 3, [(i, (i + 1) % (k + 3), weight())
                                                  for i in range(k + 3)]))
        else:
            parts.append(random_tf_subcubic_graph(k, rng, integer))
    return disjoint_union(parts)


@settings(max_examples=150, deadline=None)
@given(tf_subcubic_unions())
@example(LAYERED_WINNER)
@example(MUTUAL_WINNER)
@example(PADDED_ALONE)
@example(cb.cycle(5))
def test_eight_elevenths_equals_the_padded_pipeline(g):
    rep, ref = cb.eight_elevenths_bound(g), eight_elevenths_padded(g)
    assert rep.bound_exact == ref.bound_exact and rep.bound_value == ref.bound_value
    if rep.details.get("winner") == "mutual_matching":
        # G's own contraction may give another cut, certified all the same
        winner = ref.details["winner"]
        assert rep.details["winner"] == winner
        del rep.details[winner]["cut_weight"], ref.details[winner]["cut_weight"]
        assert rep.details == ref.details
        assert meets(rep.cut, Fraction(rep.details[winner]["certified"]))
    else:
        assert rep.cut == ref.cut
        assert rep.details == ref.details
    if g.n:  # the successors on G are the padded graph's, restricted to G
        ext = regularize_to_cubic(g)
        padded = successor_digraph(ext.graph, padded_coloring(ext)).succ
        padding = [3 - g.degree(v) for v in range(g.n)]
        assert _successors(g, color_components(g), padding).succ == padded[:g.n]


def test_each_candidate_wins_somewhere():
    for g, winner in ((cb.cycle(5), "drop_class"), (LAYERED_WINNER, "layered_components"),
                      (MUTUAL_WINNER, "mutual_matching")):
        assert cb.eight_elevenths_bound(g).details["winner"] == winner
        assert eight_elevenths_padded(g).details["winner"] == winner


@pytest.mark.parametrize("host_color", (1, 2, 3))
@pytest.mark.parametrize("degree", (0, 1, 2))
def test_gadget_template(host_color, degree):
    # a host of the given color and degree, its neighbors (leaves) colored
    # in every proper way: the padded graph's arcs in the host's gadgets,
    # and the gadget edges each dropped class removes, are the fixed ones
    # per_class_cut counts on G without building them
    mid_color = host_color % 3 + 1
    third = 6 - host_color - mid_color
    for leaf_colors in product((mid_color, third), repeat=degree):
        g = cb.WeightedGraph(1 + degree, [(0, i + 1, float(i + 1)) for i in range(degree)])
        color = cb.VertexColoring3((host_color,) + leaf_colors)
        ext = regularize_to_cubic(g)
        g3 = ext.graph
        pad = [c for s in gadget_hosts(g) for c in gadget_colors(color.class_of[s])]
        color3 = cb.VertexColoring3(color.class_of + tuple(pad))
        succ3 = successor_digraph(g3, color3)
        padding = [3 - g.degree(v) for v in range(g.n)]
        succ = _successors(g, color, padding)
        assert succ.succ == succ3.succ[:g.n]
        host_in = degree == 2 and leaf_colors == (third, third)
        for i in range(3 - degree):  # the host's gadgets come first
            a0, a1, a2, b0, b1, b2, mid = range(g.n + 7 * i, g.n + 7 * i + 7)
            assert color3.class_of[mid] == mid_color
            arcs = {v: succ3.succ[v] for v in range(a0, mid + 1)}
            assert arcs == {a0: mid, a1: None, a2: None, b0: mid, b1: None, b2: None, mid: a0}
            assert (succ3.succ[0] == mid) == host_in
            gadget = range(g.m + 11 * i, g.m + 11 * i + 11)
            assert g3.edges[gadget[-1]][:2] == (0, mid)
            inner = gadget[:-1]
            with pytest.raises(NotBipartiteError):  # the subdivided K3,3 has a 5-cycle
                _two_color(g3, inner)
            for dropped in (1, 2, 3):
                removed = {g3.edge_id(v, s) for v, s in succ3.arcs()
                           if color3.class_of[v] == dropped}.intersection(gadget)
                if dropped == host_color:
                    expected = {g3.edge_id(b0, mid)} | ({g3.edge_id(0, mid)} if host_in else set())
                else:
                    expected = {g3.edge_id(a0, mid)}
                assert removed == expected
                kept = _two_color(g3, (e for e in inner if e not in removed))
                assert len({kept.label[v] for v in range(a0, mid + 1)}) == 1  # whole, bipartite
        # on G, the drop-class cut is the padded one restricted
        assert subcubic.per_class_cut(g, color, succ).side == \
            subcubic.per_class_cut(g3, color3, succ3).side[:g.n]


def _largest_graph_built(monkeypatch, g):
    """The most vertices of any graph built while the 8/11 bound runs on a
    fresh copy of ``g``, and the report."""
    built = [0]
    init = cb.WeightedGraph.__init__

    def counting(self, n, edges):
        built.append(n)
        init(self, n, edges)

    fresh = cb.WeightedGraph(g.n, g.edges)  # a fresh memo
    with monkeypatch.context() as patch:
        patch.setattr(cb.WeightedGraph, "__init__", counting)
        rep = cb.eight_elevenths_bound(fresh)
    return max(built), rep


def test_drop_class_winner_builds_no_padding(monkeypatch):
    rng = random.Random(8)
    graphs = [cb.cycle(5), generators.path(30), cb.petersen(), cb.WeightedGraph(3, []),
              disjoint_union([cb.cycle(5), generators.path(3), cb.gadget_k33_subdivided()])]
    graphs += [random_tf_subcubic_graph(n, rng, n % 2 == 0) for n in range(5, 60, 6)]
    for g in graphs:
        largest, rep = _largest_graph_built(monkeypatch, g)
        assert rep.details["winner"] == "drop_class"
        assert largest <= g.n


def test_rare_winners_build_no_padding(monkeypatch):
    for g, winner in ((LAYERED_WINNER, "layered_components"), (MUTUAL_WINNER, "mutual_matching")):
        largest, rep = _largest_graph_built(monkeypatch, g)
        assert rep.details["winner"] == winner
        assert largest <= g.n
        assert rep.details["gadgets"] == sum(3 - g.degree(v) for v in range(g.n))


@settings(max_examples=150, deadline=None)
@given(tf_subcubic_unions())
@example(LAYERED_WINNER)
@example(MUTUAL_WINNER)
@example(HOST_DEEPER)
@example(cb.cycle(5))
def test_rare_candidates_on_g_match_the_padded_pipeline(g):
    # every component, whichever candidate wins: the layered cut on G is the
    # padded one restricted, and the mutual-matching cut on G meets its value
    for sub, _ in _component_split(g):
        coloring = color_components(sub)
        succ = _successors(sub, coloring, [3 - sub.degree(v) for v in range(sub.n)])
        cls = subcubic.classify_edges(sub, succ)
        ext, _, candidates = _padded_candidates(sub)
        assert subcubic.component_layer_cut(sub, succ, cls) == \
            ext.restrict(candidates["layered_components"][1]())
        w0, w1, w2 = map(_exact_weights(sub).value, cls.sums(sub))
        value = Fraction(3, 5) * (w0 + w1) + w2
        assert candidates["mutual_matching"][0] == value
        assert meets(subcubic.mutual_matching_cut(sub, cls), value)
        assert cb.matching_vizing_bound(sub, cls.edge_ids(2)).details["color_count"] <= 5


def test_two_thirds_fixtures():
    r = cb.two_thirds_bound(cb.cycle(5))
    assert r.bound_exact == Fraction(10, 3)
    assert r.cut.weight == 4.0
    r = cb.two_thirds_bound(cb.petersen())
    assert r.bound_value == pytest.approx(10.0)
    assert r.cut.weight >= 10.0
    r = cb.two_thirds_bound(cb.cycle(6))
    assert r.cut.weight == 6.0


def test_component_layer_cut_odd_nine_cycle():
    # synthetic successor digraph: a directed 9-cycle (all class-1 edges);
    # the stitch must keep every cycle edge except the cheapest
    g = cb.WeightedGraph(9, [(i, (i + 1) % 9, float(i + 1)) for i in range(9)])
    succ = cb.SuccessorDigraph(tuple((i + 1) % 9 for i in range(9)))
    cut = cb.component_layer_cut(g, succ, cb.classify_edges(g, succ))
    assert cut.weight >= 7.0 / 8.0 * 45.0
    assert cut.weight == 44.0  # drops only the weight-1 edge


def test_component_layer_cut_nine_cycle_with_tail():
    # hanging subtree off one cycle vertex
    edges = [(i, (i + 1) % 9, 2.0) for i in range(9)] + [(0, 9, 5.0)]
    g = cb.WeightedGraph(10, edges)
    succ = cb.SuccessorDigraph(tuple((i + 1) % 9 for i in range(9)) + (0,))
    cut = cb.component_layer_cut(g, succ, cb.classify_edges(g, succ))
    assert cut.weight >= 7.0 / 8.0 * 23.0
    assert cut.crosses(g, g.edge_id(0, 9))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 30), st.integers(0, 10 ** 6))
def test_peel_greedy_matches_scan(n, extra, seed):
    g = (random_connected_graph(n, extra, random.Random(seed)) if n
         else cb.WeightedGraph(0, []))
    _assert_peel_matches_scan(g)


def test_peel_greedy_matches_scan_on_subcubic_corpus():
    for seed in range(12):
        _assert_peel_matches_scan(cb.random_triangle_free_subcubic(30, seed=seed))
    _assert_peel_matches_scan(cb.petersen())  # cubic: both give up


def _assert_peel_matches_scan(g):
    try:
        want = peel_colors_by_scan(g)
    except AssertionError:
        with pytest.raises(AssertionError):
            _peel_greedy(g)
        return
    assert _peel_greedy(g) == want


def _nine_cycle(extra_edges=(), tails=()):
    """A directed 9-cycle 0 -> 1 -> ... -> 8 -> 0 as a successor digraph, with
    vertex 9 + i hanging off cycle vertex tails[i] and ``extra_edges`` added."""
    edges = [(i, (i + 1) % 9, 1.0) for i in range(9)]
    edges += [(9 + i, c, 1.0) for i, c in enumerate(tails)] + list(extra_edges)
    succ = tuple((i + 1) % 9 for i in range(9)) + tuple(tails)
    return cb.WeightedGraph(9 + len(tails), edges), cb.SuccessorDigraph(succ)


@pytest.mark.parametrize("g, succ, message", [
    (*_nine_cycle([(0, 4, 1.0)]), "two trees hanging off one successor cycle"),
    (*_nine_cycle([(9, 10, 1.0)], tails=(0, 3)), "two trees hanging off one successor cycle"),
    # the in-tree 3 -> 2 -> 1 -> 0 closed by the edge 0-3
    (cb.cycle(4), cb.SuccessorDigraph((None, 0, 1, 2)), "cycle of length 4 through"),
    # a tree through the mutual edge 0-1 (2 -> 1, 3 -> 2, 4 -> 0) closed by 3-4
    (cb.cycle(5), cb.SuccessorDigraph((1, 0, 1, 2, 0)), "cycle of length 5 through"),
])
def test_component_layer_cut_claim_checks(g, succ, message):
    with pytest.raises(cb.ClaimViolationError, match=message):
        cb.component_layer_cut(g, succ, cb.classify_edges(g, succ))


def test_component_layer_cut_levels_through_the_mutual_edge():
    # the tree of the mutual edge 0-1 closes a 6-cycle through 3-4 and keeps
    # the mutual edge: every edge crosses
    g = cb.cycle(6)
    succ = cb.SuccessorDigraph((1, 0, 1, 2, 5, 0))
    cut = cb.component_layer_cut(g, succ, cb.classify_edges(g, succ))
    assert cut.weight == 6.0


def test_component_layer_cut_rejects_bad_cycle_length():
    g = cb.cycle(5)  # directed 5-cycle is not divisible by 3
    succ = cb.SuccessorDigraph(tuple((i + 1) % 5 for i in range(5)))
    with pytest.raises(cb.ClaimViolationError):
        cb.component_layer_cut(g, succ, cb.classify_edges(g, succ))


# -- tree percolation --------------------------------------------------------


def test_percolation_p1_keeps_tree():
    g = cb.petersen()
    t = max_spanning_tree(g)
    rng = random.Random(0)
    cut = percolation_raw(g, t, 1.0, rng)
    for e in t.edge_ids:
        assert cut.crosses(g, e)
    assert cut.weight >= t.weight


def test_percolation_p0_bound_is_half():
    g = cb.petersen()
    t = max_spanning_tree(g)
    assert percolation_expectation(g.total_weight, t.weight, 0.0, 5) == \
        pytest.approx(g.total_weight / 2)


def test_percolation_c5_pinned_value():
    g = cb.cycle(5)
    t = max_spanning_tree(g)
    value = percolation_expectation(g.total_weight, t.weight, 0.85, 5)
    assert value == pytest.approx(0.925 * 4 + 0.238996875, abs=1e-9)
    r = cb.tree_percolation_bound(g, t, 0.85)
    assert r.bound_value == value and r.bound_exact == Fraction(value)
    assert r.mode == "deterministic" and certified(r)
    assert r.details["r"] == 5
    # C5's one non-tree edge closes the shortest odd cycle: the expectation is the bound
    assert r.details["expectation"] == pytest.approx(value)
    assert r.cut.weight == 4.0


def test_percolation_rejects():
    with pytest.raises(ValueError):
        cb.tree_percolation_bound(cb.cycle(5), p=1.5)
    with pytest.raises(ValueError):
        cb.tree_percolation_bound(cb.complete(5))  # degree 4


def test_percolation_sample_deterministic_per_seed():
    g = cb.petersen()
    t = max_spanning_tree(g)
    c1 = tree_percolation_sample(g, t, 0.85, random.Random(42))
    c2 = tree_percolation_sample(g, t, 0.85, random.Random(42))
    assert c1 == c2


def test_percolation_keeps_every_tree_edge_on_bipartite_graphs():
    # every non-tree edge closes an even cycle, so keeping a tree edge never loses
    cube = cb.WeightedGraph(8, [(u, u ^ b, float(1 + u % 3)) for u in range(8)
                                for b in (1, 2, 4) if u < u ^ b])
    for g in (cb.cycle(8), cube):
        r = cb.tree_percolation_bound(g)
        assert r.details["raw_weight"] == r.cut.weight == g.total_weight


@pytest.mark.parametrize("g", [cb.petersen(), cb.cycle(9), cb.gadget_k33_subdivided(),
                               random_tf_subcubic_graph(40, random.Random(2), False)],
                         ids=repr)
def test_percolation_depends_on_the_tree_edges_only(g):
    t = max_spanning_tree(g)
    rerooted = reroot_at_edge(g, t, [max(t.edge_ids)])  # two roots
    fresh = cb.WeightedGraph(g.n, g.edges)
    assert cb.tree_percolation_bound(g, rerooted) == cb.tree_percolation_bound(fresh, t)
    d = dfs_tree(g, g.n - 1)
    rep = cb.tree_percolation_bound(g, d)
    assert rep.mode == "deterministic" and certified(rep)
    assert rep.details["tree_weight"] == d.weight


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10 ** 6),
       st.sampled_from([0.85, 0.95]) | st.floats(0.0, 1.0))
@example(n=13, seed=297, p=0.85)  # a dropped edge must retire the paths through it
def test_percolation_decides_each_tree_edge_by_its_conditional_expectation(n, seed, p):
    g = random_tf_subcubic_graph(n, random.Random(seed), True)
    t = max_spanning_tree(g)
    calls = []

    def recording(h, edge_ids):
        calls.append(list(edge_ids))
        return _two_color(h, calls[-1])

    with mock.patch.object(subcubic, "_two_color", recording):  # the process itself
        subcubic._percolation_cut(g, t, p, subcubic._tree_paths(g, t, [True]))
    (kept,) = calls
    paths = tree_paths(g, t)
    state = dict.fromkeys(t.edge_ids)
    start = percolation_conditional_expectation(g, p, paths, state)
    for e in sorted(t.edge_ids):
        gain = (percolation_conditional_expectation(g, p, paths, {**state, e: True})
                - percolation_conditional_expectation(g, p, paths, {**state, e: False}))
        assert (gain >= 0) == (e in kept) or abs(gain) < 1e-9, (e, float(gain))
        state[e] = e in kept
    assert percolation_conditional_expectation(g, p, paths, state) >= start - Fraction(1, 10 ** 9)


# -- combination bound --------------------------------------------------------


def test_combined_tree_recombination_constants():
    r = cb.combined_tree_bound(cb.petersen())
    assert round(r.details["mixed_tree_coefficient"] + 0.5, 4) == 0.8193
    assert round(r.details["mixed_tree_coefficient"], 4) == 0.3193


def test_combined_tree_petersen():
    g = cb.petersen()
    t = max_spanning_tree(g)
    r = cb.combined_tree_bound(g, t)
    assert r.bound_value == pytest.approx(7.5 + 0.3193 * 9.0)
    assert r.mode == "deterministic" and certified(r)
    assert r.cut.weight <= 12.0
    assert r.cut == max(cb.eight_elevenths_bound(g).cut, cb.tree_percolation_bound(g, t).cut,
                        key=lambda c: c.weight)


def test_combined_tree_bipartite():
    g = cb.cycle(8)
    r = cb.combined_tree_bound(g)
    assert r.cut.weight == 8.0


# -- two-stage redistribution -------------------------------------------------


def test_shearer_fixture_coefficients():
    r = cb.shearer_bound(cb.cycle(5), trials=64)
    assert r.bound_value == pytest.approx(0.625 * 5)
    r = cb.shearer_bound(cb.petersen(), trials=64)
    assert r.bound_value == pytest.approx(cb.shearer_coefficient(3) * 15.0)
    assert r.cut.weight <= 12.0


def test_shearer_empirical_mean():
    g = cb.petersen()
    r = subcubic._shearer_sample(g, 1500, 2)
    se = r.details["raw_std"] / r.details["trials"] ** 0.5
    assert r.details["raw_mean"] >= r.bound_value - 3 * se


def test_shearer_rejects_triangles():
    with pytest.raises(cb.TriangleFoundError):
        cb.shearer_bound(cb.complete(4))


def test_monte_carlo_determinism():
    g = complete_bipartite(17, 17)
    r1 = cb.shearer_bound(g, trials=40, seed=5)
    r2 = cb.shearer_bound(g, trials=40, seed=5)
    assert r1.cut == r2.cut and r1.details == r2.details


# -- the sampling kernel against the process ----------------------------------


def _small_graphs():
    """Graphs on at most four vertices: a single edge, paths, a star, C4, K4
    minus an edge (Delta = 3 with triangles), isolated vertices, float weights."""
    yield cb.WeightedGraph(2, [(0, 1, 1.0)])
    yield cb.WeightedGraph(3, [(0, 1, 2.0), (1, 2, 5.0)])
    yield cb.WeightedGraph(4, [(0, 1, 0.1), (1, 2, 0.7), (2, 3, 0.3)])
    yield cb.WeightedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 4.0)])
    yield cb.WeightedGraph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0), (0, 3, 1.0)])
    yield cb.WeightedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.6), (1, 2, 0.2),
                               (2, 3, 7.0)])
    yield cb.WeightedGraph(4, [(1, 2, 0.1)])


@pytest.mark.parametrize("g", list(_small_graphs()), ids=repr)
def test_shearer_kernel_mean_is_the_exact_expectation(g):
    """Over all 2^(3n) coin patterns, the kernel's mean cut weight is the
    process's expectation, computed from its definition."""
    n = g.n
    patterns = (np.arange(2 ** (3 * n))[:, None] >> np.arange(3 * n)) & 1
    sides = subcubic._shearer_sides(g, *np.split(patterns, 3, axis=1))
    weights = [Fraction(w) for _, _, w in g.edges]
    total = sum(sum(w for (u, v, _), w in zip(g.edges, weights) if s[u] != s[v])
                for s in sides.tolist())
    assert Fraction(total) / 2 ** (3 * n) == shearer_expectation(g)


def _shapes_union(integer_weights, extra=()):
    """path(3), C5, C6, Petersen and the subdivided K3,3 (then ``extra``)
    as one disconnected graph with varied weights."""
    rng = random.Random(17)
    path3 = cb.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    shapes = [path3, cb.cycle(5), cb.cycle(6), cb.petersen(), cb.gadget_k33_subdivided(),
              *extra]
    edges, base = [], 0
    for h in shapes:
        for u, v, _ in h.edges:
            w = float(rng.randint(1, 9)) if integer_weights else rng.uniform(0.5, 9.5)
            edges.append((base + u, base + v, w))
        base += h.n
    g = cb.WeightedGraph(base, edges)
    assert g.integer_weights == integer_weights and len(g.components()) == len(shapes)
    return g


def _coin_corpus():
    for seed in range(8):
        rng = random.Random(seed)
        yield random_tf_subcubic_graph(rng.randint(1, 40), rng, seed % 2 == 0)
    yield cb.petersen()
    yield cb.cycle(301)
    rng = random.Random(4)  # K4,5: Delta = 5, float weights
    yield cb.WeightedGraph(9, [(u, v, rng.random()) for u in range(4) for v in range(4, 9)])
    yield _shapes_union(True)  # disconnected
    yield _shapes_union(False)
    yield cb.WeightedGraph(6, [(1, 4, 2.0)])


@pytest.mark.parametrize("g", list(_coin_corpus()), ids=repr)
def test_shearer_kernel_follows_the_process_vertex_by_vertex(g):
    rng = np.random.default_rng(g.n)
    first, tie, redraw = rng.integers(0, 2, size=(3, 37, g.n), dtype=np.uint8)
    sides = subcubic._shearer_sides(g, first, tie, redraw)
    assert sides.tolist() == shearer_sides_by_loop(g, first, tie, redraw)


def _recording_kernel(monkeypatch):
    """Every block of sides ``_shearer_sample`` draws, each checked against the
    vertex-by-vertex reference."""
    blocks = []
    kernel = subcubic._shearer_sides

    def recording(g, first, tie, redraw):
        sides = kernel(g, first, tie, redraw)
        assert sides.tolist() == shearer_sides_by_loop(g, first, tie, redraw)
        blocks.append(sides)
        return sides

    monkeypatch.setattr(subcubic, "_shearer_sides", recording)
    return blocks


def _assert_best_of_samples(g, rep, samples):
    """The report's cut is the local optimum reached from the heaviest sample
    (the first on ties) and its statistics are those of the samples; float
    rankings may swap samples whose weights differ in the last bits."""
    raw = [cb.Cut.from_side(g, s) for s in samples]
    weights = [c.weight for c in raw]
    assert len(raw) == rep.details["trials"]
    if g.integer_weights:
        assert rep.cut == cb.local_search_improve(g, raw[weights.index(max(weights))])
        assert rep.details["raw_mean"] == statistics.fmean(weights)
        assert rep.details["raw_std"] == (statistics.stdev(weights) if len(raw) > 1 else 0.0)
    else:
        near = [c for c in raw if c.weight >= max(weights) * (1 - 1e-12)]
        assert rep.cut in [cb.local_search_improve(g, c) for c in near]
        assert rep.details["raw_mean"] == pytest.approx(statistics.fmean(weights), rel=1e-12)
        assert rep.details["raw_std"] == pytest.approx(
            statistics.stdev(weights) if len(raw) > 1 else 0.0, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("g", list(_coin_corpus()), ids=repr)
def test_shearer_bound_keeps_the_best_kernel_sample(monkeypatch, g):
    blocks = _recording_kernel(monkeypatch)
    rep = subcubic._shearer_sample(g, 29, 7)
    if g.m:
        _assert_best_of_samples(g, rep, [s for block in blocks for s in block.tolist()])


def _recording_bits(monkeypatch):
    """The trial count of every ``_bits`` draw ``_shearer_sample`` makes."""
    draws = []
    bits = subcubic._bits

    def recording(rng, b, n):
        draws.append(b)
        return bits(rng, b, n)

    monkeypatch.setattr(subcubic, "_bits", recording)
    return draws


def _sparse_host(n, integer_weights):
    """A 300-vertex triangle-free subcubic graph among n vertices: with n
    far above 2m, all three blocks of the test below share one batch."""
    h = random_tf_subcubic_graph(300, random.Random(5), integer_weights)
    return cb.WeightedGraph(n, h.edges)


@pytest.mark.parametrize("g", [random_tf_subcubic_graph(2000, random.Random(5), True),
                               random_tf_subcubic_graph(2000, random.Random(5), False),
                               _sparse_host(4000, True)],
                         ids=["tf2000_int", "tf2000_float", "sparse4000"])
def test_shearer_bound_over_several_blocks(monkeypatch, g):
    rows = _BLOCK_CELLS // max(g.n, g.m)
    trials = 2 * rows + 1  # three blocks, the last one partial
    draws = _recording_bits(monkeypatch)
    blocks = _recording_kernel(monkeypatch)
    rep = subcubic._shearer_sample(g, trials, 11)
    assert draws == [rows] * 6 + [1] * 3  # first sides, tie bits, redraws per block
    samples = [s for block in blocks for s in block.tolist()]
    # trial i keeps the coins of its block, whatever batches the kernel ran
    rng = random.Random(11)
    replay = []
    for b in (rows, rows, 1):
        replay += shearer_sides_by_loop(g, *(subcubic._bits(rng, b, g.n) for _ in range(3)))
    assert samples == replay
    _assert_best_of_samples(g, rep, samples)


def test_shearer_ranks_trials_on_exact_weights(monkeypatch):
    # float64 sums cannot tell 2^53 + 1 from 2^53; only the exact ranking
    # puts the trial that cuts both edges first
    g = cb.WeightedGraph(3, [(0, 1, 2.0 ** 53), (1, 2, 1.0)])
    blocks = _recording_kernel(monkeypatch)
    started = []
    search = subcubic.local_search_improve

    def recording(h, cut):
        started.append(cut)
        return search(h, cut)

    monkeypatch.setattr(subcubic, "local_search_improve", recording)
    rep = subcubic._shearer_sample(g, 8, 0)
    samples = [s for block in blocks for s in block.tolist()]
    exact = [sum(q for (u, v, _), q in zip(g.edges, (2 ** 53, 1)) if s[u] != s[v])
             for s in samples]
    floats = [sum(w for u, v, w in g.edges if s[u] != s[v]) for s in samples]
    assert floats.index(max(floats)) != exact.index(max(exact))
    assert started == [cb.Cut.from_side(g, samples[exact.index(max(exact))])]
    assert rep.details["raw_mean"] == statistics.fmean(float(q) for q in exact)


def _star(n):
    return cb.WeightedGraph(n, [(0, v, float(v % 7)) for v in range(1, n)])


@pytest.mark.parametrize("g", [random_tf_subcubic_graph(2000, random.Random(5), True),
                               _star(2049), cb.cycle(40000), _shapes_union(True),
                               cb.WeightedGraph(9000, [(2, 8999, 1.0)])],
                         ids=["tf2000", "star2049", "cycle40000", "shapes", "isolated"])
def test_shearer_batches_stay_under_the_cell_cap(monkeypatch, g):
    """A batch of blocks spans at most _BATCH_CELLS (trial, vertex) or (trial,
    incidence) cells, unless it is one block, and the kernel allocates a few
    machine words per cell: a star's n * max_degree padding would not fit."""
    rows = max(1, _BLOCK_CELLS // max(g.n, g.m))
    width = max(g.n, 2 * g.m)
    batches, peaks = [], []
    kernel = subcubic._shearer_sides

    def measured(h, first, tie, redraw):
        tracemalloc.start()
        try:
            sides = kernel(h, first, tie, redraw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        batches.append(len(first))
        return sides

    monkeypatch.setattr(subcubic, "_shearer_sides", measured)
    _incidence_arrays(g)  # memoized before the first batch is measured
    subcubic._shearer_sample(g, 64, 1)
    assert sum(batches) == 64
    assert all(b <= rows or b * width <= _BATCH_CELLS for b in batches)
    assert max(peaks) <= 32 * max(_BATCH_CELLS, rows * width)
    if rows < 64 and 2 * rows * width <= _BATCH_CELLS:
        assert max(batches) > rows  # blocks do share a batch


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_bounds_reject_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials"):
        cb.shearer_bound(cb.petersen(), trials=trials)


def test_shearer_seeds_one_stream_per_call(monkeypatch):
    g = random_tf_subcubic_graph(200, random.Random(3), True)
    assert _BLOCK_CELLS // max(g.n, g.m) < 256  # several blocks
    seeded = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(subcubic, "random", SimpleNamespace(Random=CountingRandom))
    subcubic._shearer_sample(g, 256, 5)
    assert seeded == [5]


# -- per-component lifting ----------------------------------------------------


@pytest.mark.parametrize("extra", [(), (cb.cycle(41),)], ids=["shapes", "with_c41"])
@pytest.mark.parametrize("integer_weights", [True, False])
def test_per_component_percolation_stitches_certified_component_cuts(integer_weights,
                                                                     extra):
    g = _shapes_union(integer_weights, extra)
    for name, fn in (("tree_percolation", cb.tree_percolation_bound),
                     ("combined_tree", cb.combined_tree_bound)):
        rep = fn(g)  # one process on the spanning forest
        assert rep.mode == "deterministic" and certified(rep)
        side = [0] * g.n
        exact = Fraction(0)
        for sub, orig_v in _component_split(g):
            part = fn(sub)
            assert certified(part)
            exact += part.bound_exact
            for i, s in enumerate(part.cut.side):
                side[orig_v[i]] = s
        assert rep.cut == cb.Cut.from_side(g, side)
        assert rep.bound_exact == exact


def test_local_search_runs_once_on_the_whole_forest(monkeypatch):
    g = _shapes_union(True, (cb.cycle(41),))
    searched = []

    def counting(h, cut):
        searched.append(h.n)
        return cb.local_search_improve(h, cut)

    monkeypatch.setattr(subcubic, "local_search_improve", counting)
    cb.tree_percolation_bound(g)
    assert searched == [g.n]


TREE_ROWS = [("poljak_turzik", cb.poljak_turzik), ("dfs_tree", cb.dfs_bound),
             ("girth_layers", cb.girth_bound), ("triangle_free_tree", cb.triangle_free_tree_bound),
             ("edge_rooted_tree", cb.edge_rooted_tree_bound),
             ("tree_percolation", cb.tree_percolation_bound),
             ("combined_tree", cb.combined_tree_bound)]
SKIPPING_PIECES = {"triangle": cb.complete(3, 2.0), "k4": cb.complete(4, 1.5),
                   "star": cb.WeightedGraph(5, [(0, v, float(v)) for v in range(1, 5)])}


@st.composite
def interleaved_unions(draw):
    """``tf_subcubic_unions`` plus pieces every skip reason comes from (a
    triangle, a K4, a degree-4 star), vertex ids shuffled so that the
    components interleave."""
    extra = draw(st.lists(st.sampled_from(sorted(SKIPPING_PIECES)), max_size=2))
    g = disjoint_union([draw(tf_subcubic_unions())] + [SKIPPING_PIECES[k] for k in extra])
    perm = draw(st.permutations(range(g.n)))
    return cb.WeightedGraph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def _outcome(run):
    """The report, or the type and message of the precondition that skips it."""
    try:
        return run()
    except cb.PreconditionError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(interleaved_unions())
def test_tree_rows_on_a_forest_equal_their_lift_per_component(g):
    # cut, value, details and skip message, including which component's wins;
    # each side gets a fresh copy of g, so no memo is shared
    for name, row in TREE_ROWS:
        direct = _outcome(lambda: row(cb.WeightedGraph(g.n, g.edges)))
        lifted = _outcome(lambda: cb.per_component(cb.WeightedGraph(g.n, g.edges), row, name))
        if name == "edge_rooted_tree" and g.m and lifted == (
                cb.BoundPreconditionError, "edge-rooted bound needs at least one edge"):
            # an edgeless component adds 0 (its vertex on side 0) instead of skipping
            side, values = [0] * g.n, []
            for sub, orig_v in _component_split(g):
                part = row(sub) if sub.m else None
                values.append(part.bound_exact if part else Fraction(0))
                for v, s in zip(orig_v, part.cut.side if part else ()):
                    side[v] = s
            lifted = cb.BoundReport(name, float(sum(values)), cb.Cut.from_side(g, side),
                                    "deterministic", sum(values),
                                    {"components": len(values),
                                     "component_bounds": [float(x) for x in values]})
        assert direct == lifted, name


def _light_bipartition_k33():
    """K3,3 with edge 0-3 subdivided by vertex 6, whose maximum spanning tree's
    bipartition weighs 30, below its percolation value 30.13996875 (a
    component of perfbench's ``disjoint_union(3)``)."""
    edges = [(0, 4, 7), (0, 5, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2), (2, 3, 5), (2, 4, 5),
             (2, 5, 1), (0, 6, 6), (3, 6, 8)]
    return cb.WeightedGraph(7, [(u, v, float(w)) for u, v, w in edges])


@st.composite
def percolation_inputs(draw):
    """An interleaved union, a random tf subcubic graph or nothing, weighted
    by integers or by floats; most draws add a scaled copy of
    ``_light_bipartition_k33``, which misses its value at p = 0.85 and 0.95
    (random graphs almost never do), and shuffle the vertex ids."""
    g = draw(interleaved_unions() | st.just(cb.WeightedGraph(0, [])) | st.builds(
        random_tf_subcubic_graph, st.integers(1, 40),
        st.integers(0, 10 ** 6).map(random.Random), st.booleans()))
    scale = draw(st.sampled_from([None, 1.0, 3.0, 0.7]))
    if scale is None:
        return g
    light = cb.WeightedGraph(7, [(u, v, w * scale) for u, v, w in _light_bipartition_k33().edges])
    g = disjoint_union([g, light])
    perm = draw(st.permutations(range(g.n)))
    return cb.WeightedGraph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def _component_sides(g, side):
    return [tuple(side[v] for v in comp) for comp in g.components()]


@settings(max_examples=150, deadline=None)
@given(percolation_inputs(), st.sampled_from([0.85, 0.95, 0.0, 0.5, 1.0]))
# Petersen's bipartition meets its value, yet the process would drop tree edges
@example(g=disjoint_union([cb.petersen(), _light_bipartition_k33()]), p=0.85)
def test_percolation_runs_only_where_the_bipartition_misses(g, p):
    # in each component the raw cut is T's bipartition where that cut meets the
    # value, and elsewhere the process's cut as it stood before the check
    if g.n == 0 or g.max_degree() > 3:
        return
    raws = []

    def recording(h, cut):
        raws.append(cut)
        return cb.local_search_improve(h, cut)

    fresh = cb.WeightedGraph(g.n, g.edges)
    t = max_spanning_tree(fresh)
    try:
        values, ref_raw, ref = reference_tree_percolation(fresh, t, p)
    except cb.ClaimViolationError as exc:
        # at p = 1 the value is float(w(T)), which can round above the exact
        # weight of a tree; the row must then fail the same way
        with pytest.raises(cb.ClaimViolationError) as caught:
            cb.tree_percolation_bound(g, None, p)
        assert str(caught.value) == str(exc)
        return
    with mock.patch.object(subcubic, "local_search_improve", recording):
        rep = cb.tree_percolation_bound(g, None, p)
    (raw,) = raws
    assert rep.bound_exact == ref.bound_exact and rep.bound_value == ref.bound_value
    bip = [0] * g.n
    for block in two_color_blocks(g, t.edge_ids):
        for v, c in block.items():
            bip[v] = c
    short = []
    for comp, value, mine, tree, old, old_cut in zip(
            g.components(), values, _component_sides(g, raw.side), _component_sides(g, bip),
            _component_sides(g, ref_raw.side), _component_sides(g, ref.cut.side)):
        inside = set(comp)
        share = sum((Fraction(w) for u, v, w in g.edges if u in inside and bip[u] != bip[v]),
                    Fraction(0))
        short.append(share < value)
        assert mine == (old if short[-1] else tree)
        if short[-1]:
            assert tuple(rep.cut.side[v] for v in comp) == old_cut
    if len(values) == 1:
        certificate = "percolation" if short[0] else "tree_bipartition"
        assert rep.details == {**ref.details, "raw_weight": raw.weight,
                               "certificate": certificate}
    else:
        assert rep.details == ref.details


def test_a_light_bipartition_falls_back_to_the_process():
    g = _light_bipartition_k33()
    rep = cb.tree_percolation_bound(g)
    assert rep.bound_exact == Fraction(30.13996875) and rep.details["tree_weight"] == 30.0
    assert rep.details["certificate"] == "percolation"
    assert (rep.details["raw_weight"], rep.cut.weight) == (32.0, 33.0)
    _, _, ref = reference_tree_percolation(g, max_spanning_tree(g), 0.85)
    assert rep.cut == ref.cut
    assert cb.tree_percolation_bound(cb.cycle(5)).details["certificate"] == "tree_bipartition"


def test_explicit_trees_and_parameters_need_a_connected_graph():
    g = disjoint_union([cb.cycle(5), cb.cycle(6)])
    t = cb.max_spanning_tree(g)  # a forest
    for call in (lambda: cb.girth_bound(g, k=4), lambda: cb.triangle_free_tree_bound(g, t),
                 lambda: cb.edge_rooted_tree_bound(g, tree=t),
                 lambda: cb.edge_rooted_tree_bound(g, marked_eid=0),
                 lambda: cb.edge_rooted_tree_bound(g, k=1),
                 lambda: cb.tree_percolation_bound(g, t), lambda: cb.combined_tree_bound(g, t)):
        with pytest.raises(cb.DisconnectedGraphError):
            call()
    for r in range(g.n):
        with pytest.raises(cb.DisconnectedGraphError, match="^graph is not connected$"):
            dfs_tree(g, r)


def test_an_isolated_vertex_adds_zero_to_the_edge_rooted_bound():
    alone = cb.edge_rooted_tree_bound(cb.petersen())
    rep = cb.edge_rooted_tree_bound(cb.WeightedGraph(12, cb.petersen().edges))
    assert rep.bound_exact == alone.bound_exact and certified(rep)
    assert rep.cut.side == alone.cut.side + (0, 0)
    assert rep.details == {"components": 3, "component_bounds": [alone.bound_value, 0.0, 0.0]}
    with pytest.raises(cb.BoundPreconditionError, match="needs at least one edge"):
        cb.edge_rooted_tree_bound(cb.WeightedGraph(3, []))


@pytest.mark.parametrize("row, module, builder", [
    (cb.dfs_bound, "bounds", "derandomized_cut"),
    (cb.tree_percolation_bound, "subcubic", "local_search_improve")])
def test_a_component_below_its_own_value_fails_though_the_sum_holds(monkeypatch, row, module,
                                                                     builder):
    # C5 all on one side weighs 0; the heavy path crosses in full, and its
    # surplus over its own value covers the C5's value
    g = cb.WeightedGraph(8, list(cb.cycle(5).edges) + [(5, 6, 100.0), (6, 7, 100.0)])
    lopsided = cb.Cut.from_side(g, [0] * 5 + [0, 1, 0])
    values = [row(sub).bound_exact for sub, _ in _component_split(g)]
    assert values[0] > 0 and sum(values) <= lopsided.exact_weight
    monkeypatch.setattr(getattr(cb, module), builder, lambda h, _: lopsided)
    with pytest.raises(cb.ClaimViolationError, match="cut weight 0.0 below certified"):
        row(g)


# -- rows certified by the cut of the row that dominates them -----------------


@settings(max_examples=120, deadline=None)
@given(tf_subcubic_unions(), st.booleans())
@example(double_stars(), False)
def test_dominated_rows_borrow_the_cut_of_the_row_that_dominates_them(g, explicit):
    # each reference runs on a fresh copy of g, so no memo is shared
    ex, delta = _exact_weights(g), g.max_degree()
    if g.m:
        viz = cb.vizing_classes_bound(g)
        fresh = cb.WeightedGraph(g.n, g.edges)
        mv = cb.matching_vizing_bound(fresh, cb.best_matching(fresh))
        light = (delta + 1) * ex.weight(cb.best_matching(g)) < ex.total
        assert viz.details["matching"] == ("heaviest_class" if light else "best_matching")
        assert light or viz.cut == mv.cut
        assert viz.bound_exact == cb.vizing_classes_coefficient(delta) * ex.total
        assert cb.Cut.from_side(g, viz.cut.side).exact_weight >= viz.bound_exact
    tree = cb.min_spanning_tree(g) if explicit and g.n and g.is_connected() else None
    tf = cb.triangle_free_tree_bound(g, tree)
    if g.m:
        fresh = cb.WeightedGraph(g.n, g.edges)
        assert tf.cut == cb.edge_rooted_tree_bound(fresh, tree).cut
    t = tree or max_spanning_tree(g)
    assert tf.bound_exact == ex.total / 2 + ex.weight(t.edge_ids) / 4
    assert cb.Cut.from_side(g, tf.cut.side).exact_weight >= tf.bound_exact


def test_vizing_classes_falls_back_to_the_heaviest_class_of_g():
    g = double_stars()
    ex = _exact_weights(g)
    assert g.m >= 25 and 4 * ex.weight(cb.best_matching(g)) < ex.total
    rep = cb.vizing_classes_bound(g)
    assert rep.details["matching"] == "heaviest_class" and rep.details["class_count"] == 4
    heaviest = max(cb.vizing_edge_coloring(g).classes(), key=ex.weight)
    assert rep.cut == cb.matching_vizing_bound(g, heaviest).cut
    assert rep.bound_exact == Fraction(7, 10) * ex.total <= rep.cut.exact_weight


@settings(max_examples=120, deadline=None)
@given(tf_subcubic_unions())
@example(double_stars())
def test_shearer_borrows_the_vizing_classes_cut(g):
    # the reference runs on a fresh copy of g, so no memo is shared
    rep = cb.shearer_bound(g, trials=1)
    fresh = cb.WeightedGraph(g.n, g.edges)
    assert rep.mode == "deterministic"
    assert rep.cut == cb.local_search_improve(fresh, cb.vizing_classes_bound(fresh).cut)
    s = 0.5 + 1.0 / (4.0 * math.sqrt(2.0 * max(g.max_degree(), 1)))
    assert rep.details == {"delta": g.max_degree(), "coefficient": s,
                           "certificate": "vizing_classes"}
    assert rep.bound_exact == Fraction(s * g.total_weight)
    side = rep.cut.side
    crossing = sum((Fraction(w) for u, v, w in g.edges if side[u] != side[v]), Fraction(0))
    assert crossing >= rep.bound_exact


def _covers(d):
    """Vizing's coefficient is at least Shearer's, on integers."""
    return 32 * d * (3 * d - 1) ** 2 >= (4 * d * d + 2 * d - 2) ** 2


def test_the_integer_test_matches_the_float_coefficients():
    for d in range(1, 41):
        assert _covers(d) == (float(cb.vizing_classes_coefficient(d)) >= cb.shearer_coefficient(d))
        assert _covers(d) == (d <= 16)
        rep = cb.shearer_bound(_star(d + 1), trials=1)
        assert rep.mode == ("deterministic" if _covers(d) else "monte_carlo"), d


def test_k16_16_is_certified_and_k17_17_is_sampled():
    assert 32 * 16 * 47 ** 2 == 1_131_008 >= 1_110_916 == 1054 ** 2
    assert 32 * 17 * 50 ** 2 == 1_360_000 < 1_411_344 == 1188 ** 2
    k16 = cb.shearer_bound(complete_bipartite(16, 16), trials=4)
    assert k16.mode == "deterministic" and certified(k16)
    assert k16.details["certificate"] == "vizing_classes"
    for seed in range(4):
        k17 = cb.shearer_bound(complete_bipartite(17, 17), trials=4, seed=seed)
        assert k17.mode == "monte_carlo" and k17.bound_exact is None
        assert k17 == subcubic._shearer_sample(complete_bipartite(17, 17), 4, seed)


# -- shearer next to percolation ---------------------------------------------


def test_shearer_is_independent_of_a_prior_percolation_run():
    g = random_tf_subcubic_graph(15, random.Random(12), True)
    assert g.is_connected()
    perc = cb.tree_percolation_bound(g)
    after = subcubic._shearer_sample(g, 100, 5)
    # shearer first, on a fresh graph so nothing is memoized
    h = cb.WeightedGraph(g.n, g.edges)
    assert subcubic._shearer_sample(h, 100, 5) == after
    assert cb.tree_percolation_bound(h) == perc
