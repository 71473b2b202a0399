"""The exact oracles against the per-edge-pass and per-mask-BFS references
in ``helpers``: same exact value, same value type, same witness."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds import oracle
from helpers import max_cut_by_edge_passes, max_induced_bipartite_by_mask_bfs


@st.composite
def weighted_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["int", "float", "coarse", "equal", "big", "empty"]))
    if kind == "empty":
        return cb.WeightedGraph(n, [])
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    if kind == "equal":
        same = draw(st.sampled_from([1.0, 0.1, 0.5, 2.5, 7.0]))
        weight = st.just(same)
    elif kind == "int":
        weight = st.integers(0, 9).map(float)
    elif kind == "coarse":
        weight = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.9])
    elif kind == "big":
        weight = st.integers(2 ** 44, 2 ** 47).map(float)
    else:
        weight = st.floats(0.0, 10.0)
    edges = [(u, v, draw(weight)) for (u, v), keep in zip(pairs, present) if keep]
    return cb.WeightedGraph(n, edges)


def assert_max_cut_matches_reference(g):
    res = cb.exact_max_cut(g)
    value, side = max_cut_by_edge_passes(g)
    assert type(res.value) is type(value)
    assert res.value == value
    assert res.witness.bitstring() == cb.Cut.from_side(g, side).bitstring()


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(12))
def test_exact_max_cut_matches_edge_pass_reference(g):
    assert_max_cut_matches_reference(g)


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(10))
def test_max_induced_bipartite_matches_mask_bfs_reference(g):
    res = cb.max_induced_bipartite(g)
    value, witness = max_induced_bipartite_by_mask_bfs(g)
    assert type(res.value) is type(value)
    assert res.value == value
    assert res.witness == witness


def test_exact_max_cut_value_is_the_exact_optimum():
    # 0.1 + 0.2 > 0.3 in float64: float sums in edge order rank the masks
    # 19, 23, 83 and 87 first, at 1.7000000000000002, yet over rationals
    # the masks 73 and 77 weigh 2^-55 more.  Their exact weight rounds to 1.7.
    g = cb.WeightedGraph(8, [(0, 4, 0.2), (0, 5, 0.3), (0, 7, 0.3), (1, 3, 0.2),
                             (1, 5, 0.3), (1, 6, 0.2), (3, 4, 0.3), (4, 5, 0.1),
                             (5, 6, 0.2)])
    res = cb.exact_max_cut(g)
    assert res.witness.exact_weight == Fraction(30624477466119373, 2 ** 54)
    assert res.value == 1.7 and res.witness.bitstring() == "10010010"  # mask 73
    assert_max_cut_matches_reference(g)


def test_exact_max_cut_across_many_blocks(monkeypatch):
    # n = 11 puts 5 vertices in the low half: one 32-mask row per block,
    # so the 1024 masks span 32 blocks and ties cross block borders.
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 8)
    rng = random.Random(7)
    graphs = [cb.cycle(11), cb.complete(11),
              cb.WeightedGraph(11, [(u, (u + 1) % 11, 0.1) for u in range(11)]),
              cb.WeightedGraph(11, [(u, v, float(rng.randint(0, 4)))
                                    for u in range(11) for v in range(u + 1, 11)
                                    if rng.random() < 0.4]),
              cb.WeightedGraph(11, [(u, v, rng.random())
                                    for u in range(11) for v in range(u + 1, 11)
                                    if rng.random() < 0.4])]
    for g in graphs:
        assert_max_cut_matches_reference(g)


def test_exact_max_cut_n20_float_weights():
    rng = random.Random(20)
    g = cb.WeightedGraph(20, [(u, v, round(rng.uniform(0.5, 9.5), 6))
                              for u in range(20) for v in range(u + 1, 20)
                              if rng.random() < 0.2])
    assert not g.integer_weights
    assert_max_cut_matches_reference(g)
