"""The engine's steps agree with the bounds built from them: the 2/3
placement is ``place_blocks`` with one rigid block, the greedy matching is
the plain heaviest-first loop, the parity layers are the k = 2 layer family,
every selection keeps the first best candidate, and each bound builds,
checks and derandomizes one certificate per component."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds import bounds, coloring, cuts, subcubic
from cutbounds.bounds import _best_dfs_tree, greedy_matching
from cutbounds.cuts import place_blocks
from cutbounds.spanning import layer_edge_sets, reroot_at_edge
from cutbounds.subcubic import color_components
from helpers import (certified, double_stars, greedy_matching_by_loop, labelling_of,
                     layer_sets_by_definition, lightest_layer_by_full_scan, parity_layer_split,
                     place_blocks_by_dicts, random_connected_graph, random_tf_subcubic_graph)


def _assert_two_thirds_is_rigid_pair_placement(g):
    # classes i and j as one rigid block carry all of class k's weight, so the
    # block goes first with orientation 0, then each k-vertex takes its side
    rep = cb.two_thirds_bound(g)
    i, j = rep.details["kept_pair"]
    block = {v: int(c == j) for v, c in enumerate(color_components(g).class_of)
             if c in (i, j)}
    placed = place_blocks(g, labelling_of(g.n, [block]))
    assert placed == place_blocks_by_dicts(g, [block])
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 10 ** 6), st.booleans())
def test_parity_layers_are_the_k2_layer_family(n, extra, seed, integer):
    rng = random.Random(seed)
    g = random_connected_graph(n, extra, rng, integer)
    h = random_tf_subcubic_graph(n, rng, integer)
    for host, t in ((g, cb.dfs_tree(g, rng.randrange(n))), (h, cb.max_spanning_tree(h))):
        odd, even = split = parity_layer_split(host, t)
        assert layer_sets_by_definition(host, t, 2) == split
        # set 0 drops the even layer, set 1 the odd one
        weight = [sum(host.edges[e][2] for e in ids) for ids in split]
        j = 0 if weight[1] <= weight[0] else 1
        assert layer_edge_sets(host, t, 2) == (j, split[j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(0, 12), st.integers(0, 10 ** 6), st.booleans())
def test_lightest_layer_matches_a_full_scan(n, extra, seed, integer):
    # on a tree every k is legal and every layer set is a certificate; on a
    # graph the bounds pick k, their tree and their marked edge themselves
    rng = random.Random(seed)
    tree = random_connected_graph(n, 0, rng, integer)
    t = cb.max_spanning_tree(tree) if rng.random() < 0.5 else cb.dfs_tree(tree, rng.randrange(n))
    marked = None
    if n > 1 and rng.random() < 0.5:
        marked = rng.choice(sorted(t.edge_ids))
        t = reroot_at_edge(tree, t, [marked])
    k = rng.randint(1, n + 1)
    j, ids = layer_edge_sets(tree, t, k)
    assert (j, ids) == lightest_layer_by_full_scan(tree, t, k)
    cut = cb.derandomized_cut(tree, cb.verify_induced_bipartite(tree, ids))
    if integer:
        w_t = Fraction(t.weight)
        value = Fraction(tree.total_weight) / 2 + Fraction(k - 1, 2 * k) * w_t
        if marked is not None:
            value += Fraction(tree.edges[marked][2]) / (2 * k)
        assert Fraction(cut.weight) >= value

    g = random_connected_graph(n, extra, rng, integer)
    for bound in (cb.girth_bound, cb.edge_rooted_tree_bound):
        try:
            rep = bound(g)
        except cb.PreconditionError:
            continue
        k = rep.details["k"]
        if bound is cb.girth_bound:
            t = _best_dfs_tree(g)
        else:
            t = reroot_at_edge(g, cb.max_spanning_tree(g),
                               [g.edge_id(*rep.details["marked_edge"])])
        assert rep.details["best_layer"] == lightest_layer_by_full_scan(g, t, k)[0]
        if integer:
            assert Fraction(rep.cut.weight) >= rep.bound_exact


def _counted(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper that appends the call's
    arguments to ``log`` and calls the original."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _three_components():
    # Petersen, an 8-cycle and a path: triangle-free, subcubic, girth >= 4
    edges = [(u, v, float((u * 7 + v) % 5 + 1)) for u, v, _ in cb.petersen().edges]
    edges += [(10 + i, 10 + (i + 1) % 8, float(i % 3 + 1)) for i in range(8)]
    edges += [(18 + i, 19 + i, float(i + 2)) for i in range(5)]
    return cb.WeightedGraph(24, edges)


def test_each_layer_bound_derandomizes_one_certificate_on_a_forest(monkeypatch):
    # every component picks its own layer set, and the sets of all
    # components form one certificate
    checked, cut = [], []
    _counted(monkeypatch, bounds, "verify_induced_bipartite", checked)
    _counted(monkeypatch, bounds, "derandomized_cut", cut)
    for bound in (cb.poljak_turzik, cb.dfs_bound, cb.girth_bound,
                  cb.triangle_free_tree_bound, cb.edge_rooted_tree_bound):
        checked.clear()
        cut.clear()
        rep = bound(_three_components())
        assert rep.details["components"] == 3
        assert (len(checked), len(cut)) == (1, 1), bound.__name__


def test_poljak_turzik_and_dfs_tree_share_one_parity_cut(monkeypatch):
    # both rows certify the parity layers of the same best DFS forest, so on
    # one graph the pair checks and derandomizes once
    checked, cut = [], []
    _counted(monkeypatch, bounds, "verify_induced_bipartite", checked)
    _counted(monkeypatch, bounds, "derandomized_cut", cut)
    g = _three_components()
    pt = cb.poljak_turzik(g)
    dfs = cb.dfs_bound(g)
    assert (len(checked), len(cut)) == (1, 1)
    assert pt.cut == dfs.cut and certified(pt) and certified(dfs)
    fresh = _three_components()
    assert cb.dfs_bound(fresh) == dfs == cb.per_component(_three_components(), cb.dfs_bound)
    assert cb.poljak_turzik(fresh) == pt


def test_matching_vizing_derandomizes_one_certificate_per_component(monkeypatch):
    cut = []
    _counted(monkeypatch, coloring, "derandomized_cut", cut)
    rep = cb.per_component(_three_components(),
                           lambda h: cb.matching_vizing_bound(h, cb.best_matching(h)))
    assert rep.details["components"] == 3 and len(cut) == 3


def test_vizing_classes_colors_g_only_when_the_best_matching_is_light(monkeypatch):
    # Petersen's perfect matching weighs w/3 >= w/4: only its contraction is
    # coloured; the double stars' greedy matching weighs < w/4, so G is
    # coloured first and then the contraction of its heaviest class
    colorings = []
    _counted(monkeypatch, coloring, "vizing_edge_coloring", colorings)
    for g, on_g in ((cb.petersen(), 0), (double_stars(), 1)):
        colorings.clear()
        assert certified(cb.vizing_classes_bound(g))
        assert [h is g for (h,) in colorings] == [True] * on_g + [False]
        # the report is memoized: shearer borrows its cut and colours nothing
        colorings.clear()
        assert cb.shearer_bound(g).mode == "deterministic" and colorings == []


def test_eight_elevenths_builds_only_the_winning_candidate(monkeypatch):
    # every place_blocks call records the candidate builders it runs inside
    building, placed = [], []

    def inside(name, real):
        def wrapper(*args):
            building.append(name)
            try:
                return real(*args)
            finally:
                building.pop()
        return wrapper

    def placing(real):
        def wrapper(g, blocks):
            placed.append(tuple(building))
            return real(g, blocks)
        return wrapper

    builder = {"drop_class": "per_class_cut", "layered_components": "component_layer_cut",
               "mutual_matching": "mutual_matching_cut"}
    for name in builder.values():
        monkeypatch.setattr(subcubic, name, inside(name, getattr(subcubic, name)))
    for module in (subcubic, cuts):
        monkeypatch.setattr(module, "place_blocks", placing(module.place_blocks))
    winners = set()
    graphs = [cb.cycle(5), cb.petersen(), cb.gadget_k33_subdivided(2.0)]
    graphs += [random_tf_subcubic_graph(n, random.Random(n), True) for n in range(4, 40, 3)]
    for g in graphs:
        placed.clear()
        rep = cb.eight_elevenths_bound(g)
        winner = rep.details["winner"]
        winners.add(winner)
        assert placed and set(placed) == {(builder[winner],)}
        assert [n for n in builder if "cut_weight" in rep.details[n]] == [winner]
    assert len(winners) > 1


def test_long_odd_cycle_layer_bounds_check_one_set(monkeypatch):
    checked = []
    _counted(monkeypatch, bounds, "verify_induced_bipartite", checked)
    g = cb.cycle(1001)
    for bound in (cb.girth_bound, cb.edge_rooted_tree_bound):
        checked.clear()
        rep = bound(g)
        assert rep.details["k"] >= 500 and certified(rep)
        assert len(checked) == 1


def test_best_dfs_tree_sweep_ties_go_to_the_lowest_root():
    # every DFS tree of a uniform C6 weighs 5
    t = _best_dfs_tree(cb.cycle(6))
    assert t.roots[0] == 0 and t.weight == 5.0


def test_best_dfs_tree_sweeps_up_to_64_vertices():
    # on a cycle whose edge (0, n-1) weighs 100, the DFS from 0 leaves that
    # edge out and every other root keeps it; root 1 is the lowest of those
    for n, root in ((64, 1), (65, 0)):
        g = cb.WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 100.0)])
        t = _best_dfs_tree(g)
        assert t.roots[0] == root
        assert t.weight == (n - 1 if root == 0 else n - 2 + 100)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 40), st.integers(0, 10 ** 6), st.booleans())
def test_greedy_matching_matches_the_loop(n, extra, seed, integer):
    g = random_connected_graph(n, extra, random.Random(seed), integer)
    assert greedy_matching(g) == greedy_matching_by_loop(g)
