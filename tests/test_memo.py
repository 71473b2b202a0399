"""Per-graph memoization: cached results equal fresh ones and stay private."""

import io
import random

import cutbounds as cb
from cutbounds import bounds, generators, spanning
from cutbounds.bounds import BoundReport, _copy_details
from cutbounds.cli import _bound_suite, main
from cutbounds.graph import _component_split
from cutbounds.oracle import conjecture_report
from helpers import disjoint_union, random_tf_subcubic_graph


def _two_pieces():
    # Petersen on 0..9 and a 6-cycle on 10..15: triangle-free, subcubic
    pet = cb.petersen(2.0)
    edges = list(pet.edges) + [(10 + i, 10 + (i + 1) % 6, float(i + 1)) for i in range(6)]
    return cb.WeightedGraph(16, edges)


def test_memoized_reports_repeat():
    g = cb.petersen_c3(3.0, 1.0)
    assert cb.eight_elevenths_bound(g) == cb.eight_elevenths_bound(g)
    assert cb.tree_percolation_bound(g) == cb.tree_percolation_bound(g)
    assert cb.max_spanning_tree(g) is cb.max_spanning_tree(g)
    assert cb.stats(g) is cb.stats(g)


def test_percolation_memo_keys_on_every_input():
    g = cb.petersen()
    base = cb.tree_percolation_bound(g)
    fresh = cb.petersen()
    tree = cb.dfs_tree(g, 3)  # not the default tree's edge set
    assert tree.edge_ids != cb.max_spanning_tree(g).edge_ids
    for kwargs in ({"p": 0.5}, {"tree": tree}, {"p": 0.5, "tree": tree}):
        assert cb.tree_percolation_bound(g, **kwargs) == cb.tree_percolation_bound(fresh, **kwargs)
    assert cb.tree_percolation_bound(g) == base


def test_returned_details_are_private_copies():
    g = cb.petersen()
    first = cb.eight_elevenths_bound(g)
    first.details["winner"] = "tampered"
    first.details["drop_class"]["cut_weight"] = -1.0
    first.details["class_weights"].append(99.0)
    assert cb.eight_elevenths_bound(g) == cb.eight_elevenths_bound(cb.petersen())
    perc = cb.tree_percolation_bound(g)
    perc.details["r"] = 0
    assert cb.tree_percolation_bound(g).details["r"] == 5


def test_equal_graphs_do_not_share_a_memo():
    g1, g2 = cb.petersen(), cb.petersen()
    assert g1 == g2
    cb.eight_elevenths_bound(g1)
    assert g1._memo and not g2._memo
    assert cb.stats(g1) is not cb.stats(g2)


def test_combined_tree_after_suite_equals_fresh():
    for make in (cb.petersen, _two_pieces):
        g = make()
        suite = _bound_suite(g, seed=0, trials=16)
        results = {name: run() for name, run in suite}
        fresh = dict(_bound_suite(make(), seed=0, trials=16))
        assert results["combined_tree"] == fresh["combined_tree"]()
        assert results["tree_percolation"] == fresh["tree_percolation"]()


def test_per_component_independent_of_cached_split():
    g = _two_pieces()
    cold = cb.per_component(g, cb.dfs_bound, "dfs_tree")
    warm_graph = _two_pieces()
    split = _component_split(warm_graph)
    assert [orig_v for _, orig_v in split] == [tuple(range(10)), tuple(range(10, 16))]
    for sub, _ in split:
        cb.stats(sub)
    assert cb.per_component(warm_graph, cb.dfs_bound, "dfs_tree") == cold
    assert cb.per_component(g, cb.dfs_bound, "dfs_tree") == cold
    assert cold.details["components"] == 2


def test_connected_graph_is_its_own_piece():
    g = cb.petersen()
    assert _component_split(g) == ((g, tuple(range(10))),)
    assert _component_split(g)[0][0] is g


def test_one_bounds_run_builds_each_max_spanning_tree_once(monkeypatch, tmp_path):
    built = []
    kruskal = spanning._kruskal

    def counting(g, maximize):
        if maximize:
            built.append(g.n)
        return kruskal(g, maximize)

    monkeypatch.setattr(spanning, "_kruskal", counting)
    path = tmp_path / "two_pieces.graph"
    path.write_text(cb.save_graph(_two_pieces()))
    assert main(["bounds", "--input", str(path)], out=io.StringIO()) == 0
    assert built == [16]  # one spanning forest: the Petersen graph and the 6-cycle


def test_one_graph_finds_its_best_matching_once(monkeypatch):
    searched = []
    exact = bounds.exact_matching_small

    def counting(g):
        searched.append(g.n)
        return exact(g)

    monkeypatch.setattr(bounds, "exact_matching_small", counting)
    g = cb.petersen()
    for _, run in _bound_suite(g, seed=0, trials=16):
        run()
    conjecture_report(g)
    assert searched == [10]  # matching, matching_vizing and the lab share it


def test_one_bounds_run_sweeps_the_dfs_roots_once(monkeypatch, tmp_path):
    ranked = []
    dfs = bounds._dfs

    def ranking(g, root, seen):
        ranked.append((g.n, root))
        return dfs(g, root, seen)

    monkeypatch.setattr(bounds, "_dfs", ranking)
    path = tmp_path / "two_pieces.graph"
    path.write_text(cb.save_graph(_two_pieces()))
    assert main(["bounds", "--input", str(path)], out=io.StringIO()) == 0
    # poljak_turzik, dfs_tree and girth_layers share one sweep of the whole
    # graph, which searches from every root of each component once and keeps
    # the winners' trees without searching again
    assert ranked == [(16, r) for r in range(16)]


def _plain(x) -> bool:
    """Whether ``x`` is built of dicts, lists and immutable scalars alone."""
    if isinstance(x, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in x.items())
    if isinstance(x, list):
        return all(map(_plain, x))
    return x is None or isinstance(x, (str, int, float, bool))


def _shares_a_container(a, b) -> bool:
    if isinstance(a, (dict, list)):
        return a is b or any(_shares_a_container(x, y) for x, y in (
            zip(a.values(), b.values()) if isinstance(a, dict) else zip(a, b)))
    return False


def test_report_details_hold_only_plain_values():
    # what _copy_details copies by hand: a deep copy needs no more than this
    shapes = [generators.path(3), cb.cycle(5), cb.cycle(6), cb.petersen(),
              cb.gadget_k33_subdivided()]
    rng = random.Random(4)
    union = disjoint_union(
        [cb.WeightedGraph(s.n, [(u, v, float(rng.randint(1, 9))) for u, v, _ in s.edges])
         for s in shapes * 4])
    for g in (union, random_tf_subcubic_graph(60, random.Random(1), False),
              cb.random_triangle_free_subcubic(30, seed=2, weight_dist="int")):
        reports = [run() for _, run in _bound_suite(g, seed=0, trials=16)]
        reports += [v for h in [g] + [sub for sub, _ in _component_split(g)]
                    for v in h._memo.values() if isinstance(v, BoundReport)]
        assert len(reports) > 13
        for rep in reports:
            assert _plain(rep.details), (rep.name, rep.details)
            copy = _copy_details(rep.details)
            assert copy == rep.details and not _shares_a_container(copy, rep.details)


def test_connectivity_is_found_once(monkeypatch):
    searched = []
    components = cb.WeightedGraph.components

    def counting(self):
        searched.append(self.n)
        return components(self)

    monkeypatch.setattr(cb.WeightedGraph, "components", counting)
    g = cb.petersen()
    for _, run in _bound_suite(g, seed=0, trials=16):
        run()
    assert g.is_connected() and searched == [10]
    split = cb.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not split.is_connected() and not split.is_connected()
    assert searched == [10, 4]
