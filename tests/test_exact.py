"""One exact arithmetic: float weights are dyadic rationals, and every cut
weight, bound value and comparison a guarantee rests on is exact for them.

Each weight below is ``Fraction(w)`` of its float, summed independently of
the library's own exact view."""

import io
from fractions import Fraction
from itertools import combinations

import pytest

import cutbounds as cb
from cutbounds import bounds
from cutbounds.cli import _bound_suite, _run_bound, main
from cutbounds.cuts import NotBipartiteError, NotInducedError, place_blocks
from helpers import certified, labelling_of, place_blocks_by_dicts


def _exact(g, edge_ids):
    return sum((Fraction(g.edges[e][2]) for e in edge_ids), Fraction(0))


def _crossing(g, side):
    return _exact(g, [e for e, (u, v, _) in enumerate(g.edges) if side[u] != side[v]])


def test_matching_cut_meets_its_bound_exactly():
    # Float sums put this cut 2^-61 below (w + w(M)) / 2 while a slack of
    # 1e-9 w passed it as certified.
    g = cb.WeightedGraph(8, [(0, 1, 1.0), (0, 2, 1 + 2 ** -52), (0, 3, 0.5), (0, 5, 0.5),
                             (0, 7, 1.0), (1, 7, 0.5 + 2 ** -53), (2, 5, 2 ** -60),
                             (3, 5, 1 + 2 ** -52), (3, 7, 0.5), (5, 7, 0.5)])
    rep = cb.matching_bound(g)
    need = (_exact(g, range(g.m)) + _exact(g, cb.best_matching(g))) / 2
    assert rep.bound_exact == need
    assert _crossing(g, rep.cut.side) >= need
    assert rep.cut.exact_weight == _crossing(g, rep.cut.side)
    assert certified(rep)


def test_exact_matching_small_finds_the_exact_maximum():
    # On float sums the matching {2-3} (0.7) ties {0-3, 2-4} (0.1 + 0.6),
    # which weighs 2^-55 more.
    g = cb.WeightedGraph(5, [(0, 2, 0.1), (0, 3, 0.1), (1, 2, 0.3), (2, 3, 0.7),
                             (2, 4, 0.6), (3, 4, 0.2)])
    matchings = [ids for k in range(3) for ids in combinations(range(g.m), k)
                 if len({x for e in ids for x in g.edges[e][:2]}) == 2 * k]
    heaviest = max(_exact(g, ids) for ids in matchings)
    found = bounds.exact_matching_small(g)
    assert found == (1, 4) and _exact(g, found) == heaviest
    assert cb.matching_bound(g).bound_exact == (_exact(g, range(g.m)) + heaviest) / 2


def test_swap_pass_compares_exact_weights():
    # On float sums edge 1 (0.30000000000000004) ties edges 0 and 2 (0.1 + 0.2),
    # but it weighs 2^-55 more.
    g = cb.WeightedGraph(4, [(0, 1, 0.1), (1, 2, 0.30000000000000004), (2, 3, 0.2)])
    assert _exact(g, [1]) > _exact(g, [0, 2])
    assert bounds._swap_pass(g, [0, 2]) == (1,)


def test_place_blocks_takes_the_exactly_heavier_side():
    # Vertex 5 sees 1 + 3 * 2^-53 on side 0 (vertices 1 to 4) and 1 + 2^-52
    # on side 1 (vertex 6); in float the three 2^-53 vanish into 1.
    tiny = 2.0 ** -53
    g = cb.WeightedGraph(12, [(1, 5, 1.0), (2, 5, tiny), (3, 5, tiny), (4, 5, tiny),
                              (5, 6, 1 + 2 ** -52), (1, 7, 10.0), (2, 8, 10.0),
                              (3, 9, 10.0), (4, 10, 10.0), (6, 11, 10.0)])
    blocks = [{1: 0, 2: 0, 3: 0, 4: 0, 6: 1}]
    cut = place_blocks(g, labelling_of(g.n, blocks))
    assert cut == place_blocks_by_dicts(g, blocks)
    assert [cut.side[v] for v in (1, 2, 3, 4, 6)] == [0, 0, 0, 0, 1]
    assert cut.side[5] == 1
    other = list(cut.side)
    other[5] = 0
    assert _crossing(g, cut.side) - _crossing(g, other) == Fraction(tiny)


def _extreme_graph():
    """The Petersen graph with weights 1e-300, 1 and 1e300 in turn."""
    pet = cb.petersen()
    weights = (1e-300, 1.0, 1e300)
    return cb.WeightedGraph(pet.n, [(u, v, weights[e % 3])
                                    for e, (u, v, _) in enumerate(pet.edges)])


@pytest.mark.parametrize("g", [_extreme_graph(),
                               cb.WeightedGraph(4, [(0, 1, 1e-300), (1, 2, 1e300),
                                                    (2, 3, 5e-324), (0, 3, 1.5)])],
                         ids=["petersen", "c4"])
def test_extreme_weights_certify_every_deterministic_bound_exactly(g):
    reports = []
    for name, runner in _bound_suite(g, 0, 8):
        rep = _run_bound(name, runner)
        if not isinstance(rep, str) and rep.mode == bounds.DETERMINISTIC:
            reports.append(rep)
    assert len(reports) >= 8
    for rep in reports:
        assert type(rep.bound_exact) is Fraction, rep.name
        assert rep.cut.exact_weight == _crossing(g, rep.cut.side), rep.name
        assert rep.cut.exact_weight >= rep.bound_exact, rep.name
        assert rep.bound_value == float(rep.bound_exact), rep.name
    assert cb.exact_max_cut(g).witness.exact_weight >= max(r.cut.exact_weight
                                                           for r in reports)


def test_cut_and_total_weights_are_rounded_once():
    # 1 + 2^-53 + 2^-106 rounds up to 1 + 2^-52; summing in order, or with
    # Python 3.12's compensated sum, gives 1.0.
    g = cb.WeightedGraph(4, [(0, 1, 1.0), (0, 2, 2.0 ** -53), (0, 3, 2.0 ** -106)])
    exact = Fraction(1) + Fraction(1, 2 ** 53) + Fraction(1, 2 ** 106)
    cut = cb.Cut.from_side(g, [0, 1, 1, 1])
    assert cut.exact_weight == exact
    assert cut.weight == float(exact) == 1 + 2.0 ** -52
    assert g.total_weight == float(exact)
    assert cb.dfs_tree(g).weight == float(exact)


@pytest.mark.parametrize("seed", range(6))
def test_cut_weight_is_the_exact_crossing_weight_rounded_once(seed):
    g = cb.random_triangle_free_subcubic(40, seed=seed, weight_dist="uniform")
    assert not g.integer_weights
    for name, runner in _bound_suite(g, 0, 8):
        rep = _run_bound(name, runner)
        if not isinstance(rep, str):
            assert rep.cut.weight == float(_crossing(g, rep.cut.side)), name


def test_induced_bipartite_oracle_finds_the_exact_optimum():
    # Float sums in its subset DP picked a family 2^-55 below the optimum.
    g = cb.WeightedGraph(5, [(0, 1, 0.1), (0, 4, 0.1), (1, 2, 0.2), (1, 3, 0.3),
                             (1, 4, 0.3), (2, 3, 0.7), (2, 4, 0.6), (3, 4, 0.2)])
    best = Fraction(0)
    for mask in range(1 << g.m):
        ids = [e for e in range(g.m) if mask >> e & 1]
        try:
            cb.verify_induced_bipartite(g, ids)
        except (NotInducedError, NotBipartiteError):
            continue
        best = max(best, _exact(g, ids))
    res = cb.max_induced_bipartite(g)
    cb.verify_induced_bipartite(g, res.witness)
    assert _exact(g, res.witness) == best
    assert res.value == float(best)


def test_verify_cross_checks_float_weights_exactly(monkeypatch):
    # C5 of weight 0.1: the max cut weighs 4 * Fraction(0.1); a bound 2^-80
    # above it rounds to the same float, and a slack would pass it.
    over = 4 * Fraction(0.1) + Fraction(1, 2 ** 80)

    def just_above(g):
        return bounds._report("two_thirds", over, cb.Cut((0,) * g.n, over), {})

    monkeypatch.setattr(cb.subcubic, "two_thirds_bound", just_above)
    out = io.StringIO()
    assert main(["verify", "--generate", "cycle", "5", "0.1"], out=out) == 1
    text = out.getvalue()
    assert "two_thirds: bound 0.4 exceeds max cut 0.4" in text
    assert "two_thirds: cut 0.4 exceeds max cut 0.4" in text
