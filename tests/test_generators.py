import pytest

import cutbounds as cb
from cutbounds.generators import build
from helpers import has_triangle_scan, petersen_spoke_ids, random_triangle_free_subcubic_by_scan


def test_star_counterexample_k7():
    g = cb.star_counterexample(1, 6)
    assert g.n == 7 and g.m == 21
    assert g.total_weight == 21.0
    assert all(w == 1.0 for _, _, w in g.edges)


def test_star_counterexample_weights():
    g = cb.star_counterexample(5, 4)
    hub = [w for u, v, w in g.edges if 0 in (u, v)]
    rest = [w for u, v, w in g.edges if 0 not in (u, v)]
    assert hub == [5.0] * 4 and rest == [1.0] * 6


def test_star_params_predicate():
    # eps = 0.3: needs W > 1/1.2 and l > W^2/(4*0.3*W - 1)
    assert cb.star_counterexample_params_ok(1, 6, 0.3)
    assert not cb.star_counterexample_params_ok(1, 5, 0.3)
    assert not cb.star_counterexample_params_ok(0.5, 100, 0.3)


def test_petersen_c3_fixture():
    g = cb.petersen_c3(10, 1)
    assert g.total_weight == 60.0
    spokes = petersen_spoke_ids(g)
    assert sum(g.edges[e][2] for e in spokes) == 50.0
    assert all(g.degree(v) == 3 for v in range(10))
    assert cb.stats(g).girth == 5


def test_gadget():
    g = cb.gadget_k33_subdivided()
    assert g.n == 7 and g.m == 10
    degs = sorted(g.degree(v) for v in range(7))
    assert degs == [2, 3, 3, 3, 3, 3, 3]
    assert cb.stats(g).girth == 4  # bipartite before subdivision; no triangles


def test_random_tfs_deterministic_and_valid():
    for seed in range(12):
        g1 = cb.random_triangle_free_subcubic(14, seed=seed, weight_dist="int")
        g2 = cb.random_triangle_free_subcubic(14, seed=seed, weight_dist="int")
        assert g1 == g2
        assert g1.max_degree() <= 3
        assert not has_triangle_scan(g1)
        assert g1.integer_weights
    g3 = cb.random_triangle_free_subcubic(14, seed=0, weight_dist="uniform")
    assert not g3.integer_weights


def test_random_tfs_saturated():
    # no addable pair may remain: every non-adjacent low-degree pair closes
    # a triangle or duplicates
    g = cb.random_triangle_free_subcubic(10, seed=3)
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.degree(u) < 3 and g.degree(v) < 3 and v not in nbrs[u]:
                assert nbrs[u] & nbrs[v], (u, v)


@pytest.mark.parametrize("n, seed, dist", [(1, 0, "unit"), (2, 5, "int"), (7, 1, "uniform"),
                                           (23, 4, "int"), (64, 9, "uniform"),
                                           (121, 2, "unit"), (160, 13, "int")])
def test_random_tfs_equals_the_rescanning_reference(n, seed, dist):
    got = cb.random_triangle_free_subcubic(n, seed, dist)
    assert got.edges == random_triangle_free_subcubic_by_scan(n, seed, dist).edges


def test_random_tfs_at_the_generate_limit():
    # n = 1448 is the largest size --generate admits
    g = build("random_triangle_free_subcubic", ["1448", "0"])
    assert g.n == 1448 and g.max_degree() <= 3 and cb.triangle_free(g)


def test_param_validation():
    with pytest.raises(ValueError):
        cb.cycle(2)
    with pytest.raises(ValueError):
        cb.star_counterexample(1, 0)
    with pytest.raises(ValueError):
        cb.random_triangle_free_subcubic(5, weight_dist="nope")


def test_cli_builder():
    g = build("cycle", ["7", "2.5"])
    assert g.n == 7 and g.edges[0][2] == 2.5
    g = build("petersen_c3", [])
    assert g.total_weight == 60.0
    with pytest.raises(ValueError):
        build("nope", [])
    with pytest.raises(ValueError):
        build("star_counterexample", ["1"])  # missing required param
    with pytest.raises(ValueError):
        build("cycle", ["x"])


def test_generated_graphs_revalidate():
    for g in (cb.cycle(6), cb.complete(5), cb.petersen(), cb.petersen_c3(3, 2),
              cb.star_counterexample(2, 4), cb.gadget_k33_subdivided(),
              cb.random_triangle_free_subcubic(9, 1)):
        s = cb.stats(g)
        assert s.total_weight == g.total_weight
        assert s.triangle_free == (s.girth is None or s.girth >= 4)
