import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from helpers import (certified, edge_coloring_feasible, petersen_spoke_ids,
                     random_tf_subcubic_graph, vizing_by_dicts)


def test_vizing_c5_needs_three():
    g = cb.cycle(5)
    col = cb.vizing_edge_coloring(g)
    col.validate(g)
    assert col.color_count == 3


def test_vizing_c6_within_bound():
    g = cb.cycle(6)
    col = cb.vizing_edge_coloring(g)
    col.validate(g)
    assert col.color_count <= 3


def test_vizing_petersen_four_colors():
    g = cb.petersen()
    col = cb.vizing_edge_coloring(g)
    col.validate(g)
    # independent oracle: no proper 3-edge-coloring exists
    assert not edge_coloring_feasible(g, 3)
    assert col.color_count == 4


def test_vizing_corpus_proper():
    rng = random.Random(0)
    for i in range(1000):
        n = rng.randint(2, 9)
        edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        g = cb.WeightedGraph(n, edges)
        col = cb.vizing_edge_coloring(g)
        col.validate(g)  # proper and <= max degree + 1 colors


def _capped_degree_pieces(rng, pieces, cap):
    """Disjoint random graphs of maximum degree at most ``cap``, edges in a
    random order, some vertices isolated."""
    edges, base = [], 0
    for _ in range(pieces):
        n = rng.randint(2, 14)
        deg, seen = [0] * n, set()
        for _ in range(rng.randint(0, 3 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            if deg[u] < cap and deg[v] < cap and (u, v) not in seen:
                seen.add((u, v))
                deg[u] += 1
                deg[v] += 1
                edges.append((base + v, base + u, 1.0) if rng.random() < 0.5
                             else (base + u, base + v, 1.0))
        base += n + rng.randint(0, 2)
    return cb.WeightedGraph(base, edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_vizing_colors_exactly_as_the_dict_construction(pieces, cap, seed):
    g = _capped_degree_pieces(random.Random(seed), pieces, cap)
    assert cb.vizing_edge_coloring(g) == vizing_by_dicts(g)


@pytest.mark.parametrize("n", [30, 200, 1000])
def test_vizing_colors_contractions_exactly_as_the_dict_construction(n):
    for seed in range(3):
        g = random_tf_subcubic_graph(n, random.Random(seed), seed % 2 == 0)
        con = cb.contract_matching(g, cb.best_matching(g)).base
        for h in (g, con):
            assert cb.vizing_edge_coloring(h) == vizing_by_dicts(h)


def test_contract_spokes_to_k5():
    pc3 = cb.petersen_c3(10, 1)
    con = cb.contract_matching(pc3, petersen_spoke_ids(pc3))
    assert con.base.n == 5 and con.base.m == 10
    assert all(w == 1.0 for _, _, w in con.base.edges)
    assert con.base.total_weight == pc3.total_weight - 50.0


def test_contract_single_edge():
    g = cb.WeightedGraph(2, [(0, 1, 3.0)])
    con = cb.contract_matching(g, [0])
    assert con.base.n == 1 and con.base.m == 0


def test_contract_c6_one_edge():
    g = cb.cycle(6)
    con = cb.contract_matching(g, [0])
    assert con.base.n == 5
    assert con.base.total_weight == 5.0


def test_contract_validation():
    with pytest.raises(cb.TriangleFoundError):
        cb.contract_matching(cb.complete(4), [0])
    with pytest.raises(cb.NotAMatchingError):
        cb.contract_matching(cb.cycle(6), [0, 1])


def test_contract_invariants_corpus():
    rng = random.Random(1)
    for seed in range(40):
        g = cb.random_triangle_free_subcubic(rng.randint(4, 14), seed=seed,
                                             weight_dist="int")
        m_ids = cb.best_matching(g)
        con = cb.contract_matching(g, m_ids)
        wm = sum(g.edges[e][2] for e in m_ids)
        assert abs(con.base.total_weight - (g.total_weight - wm)) < 1e-9
        delta = max(g.max_degree(), 1)
        assert con.base.max_degree() <= 2 * delta - 2 or con.base.m == 0
        # lifted classes stay matchings and certify
        if con.base.m:
            col = cb.vizing_edge_coloring(con.base)
            for cls in col.classes():
                lifted = con.lift_matching(cls)
                cb.cuts.check_matching(g, lifted)
                cb.verify_induced_bipartite(g, set(lifted) | set(m_ids))


def test_matching_vizing_empty_matching():
    g = cb.cycle(6)
    r = cb.matching_vizing_bound(g, [])
    c = r.details["color_count"]
    assert r.bound_value == pytest.approx(3.0 + 6.0 / (2 * c))
    assert r.cut.weight >= r.bound_value


def test_matching_vizing_c5_two_edges():
    g = cb.cycle(5)
    r = cb.matching_vizing_bound(g, [0, 2])
    assert r.bound_value >= 0.6 * 3 + 2  # at least the worst-case form
    assert r.cut.weight == 4.0


def test_coefficients_table():
    # 4 d.p. table values
    table = {1: (0.6768, 1.0000), 2: (0.6250, 0.7778), 3: (0.6021, 0.7000),
             4: (0.5884, 0.6571), 16: (0.5442, 0.5446), 17: (0.5429, 0.5421)}
    for d, (s, t) in table.items():
        assert round(cb.shearer_coefficient(d), 4) == s
        assert round(float(cb.vizing_classes_coefficient(d)), 4) == t
    assert cb.vizing_classes_coefficient(2) == Fraction(7, 9)
    assert cb.vizing_classes_coefficient(1) == Fraction(1)


def test_coefficient_crossover_at_16():
    for d in range(1, 65):
        wins = float(cb.vizing_classes_coefficient(d)) > cb.shearer_coefficient(d)
        assert wins == (d <= 16)


def test_vizing_classes_bound_subcubic():
    g = cb.petersen()
    r = cb.vizing_classes_bound(g)
    assert r.bound_value == pytest.approx(0.7 * 15.0)
    assert r.cut.weight >= r.bound_value
    with pytest.raises(cb.TriangleFoundError):
        cb.vizing_classes_bound(cb.complete(4))


def test_vizing_classes_bound_certified_corpus():
    rng = random.Random(3)
    for seed in range(25):
        g = cb.random_triangle_free_subcubic(rng.randint(4, 12), seed=seed,
                                             weight_dist="int")
        r = cb.vizing_classes_bound(g)
        assert certified(r)


def test_vizing_bipartite_matching_graph():
    # a bare matching has max degree 1; the coefficient is 1
    g = cb.WeightedGraph(4, [(0, 1, 2.0), (2, 3, 5.0)])
    r = cb.vizing_classes_bound(g)
    assert r.bound_value == 7.0 and r.cut.weight == 7.0
