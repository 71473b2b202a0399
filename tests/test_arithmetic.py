"""Each deterministic bound is computed once, from the exact weights of its
graph: every ``bound_exact`` is a ``Fraction`` and ``bound_value`` is it
rounded once, whatever the weights."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import cutbounds as cb
from cutbounds import bounds
from cutbounds.cli import _bound_suite, _run_bound
from cutbounds.generators import path
from helpers import certified, random_tf_subcubic_graph, reference_exact_bounds


def _with_weights(g, weight_of):
    return cb.WeightedGraph(g.n, [(u, v, weight_of(eid, w))
                                  for eid, (u, v, w) in enumerate(g.edges)])


def _integer_corpus():
    rng = random.Random(11)
    union = cb.WeightedGraph(12, [(0, 1, 2.0), (1, 2, 3.0), (3, 4, 1.0), (4, 5, 1.0),
                                  (5, 6, 1.0), (6, 7, 4.0), (7, 3, 2.0), (9, 10, 5.0)])
    star = cb.WeightedGraph(5, [(0, v, float(v)) for v in range(1, 5)])
    return [cb.cycle(5), cb.cycle(8, 3.0), path(6, 2.0), cb.complete(4), star,
            cb.petersen(), cb.petersen_c3(10, 1), cb.gadget_k33_subdivided(3.0),
            union, cb.WeightedGraph(3, []),
            random_tf_subcubic_graph(30, rng, integer_weights=True),
            random_tf_subcubic_graph(61, rng, integer_weights=True)]


def _float_corpus():
    return [_with_weights(g, lambda eid, w: w * 1.1 + 0.01 * eid + 0.003)
            for g in _integer_corpus() if g.m]


def _deterministic_reports(g):
    for name, runner in _bound_suite(g, seed=0, trials=8):
        rep = _run_bound(name, runner)
        if not isinstance(rep, str) and rep.mode == bounds.DETERMINISTIC:
            yield rep


@pytest.mark.parametrize("g", _integer_corpus() + _float_corpus(), ids=repr)
def test_every_deterministic_value_is_exact(g):
    reports = list(_deterministic_reports(g))
    assert reports
    for rep in reports:
        assert type(rep.bound_exact) is Fraction, rep.name
        assert rep.bound_value == float(rep.bound_exact), rep.name
        assert certified(rep), rep.name


def test_meets_compares_fractions_exactly():
    g = cb.cycle(5)
    cut = cb.Cut.from_side(g, [0, 1, 0, 1, 1])
    assert bounds.meets(cut, Fraction(4))
    assert not bounds.meets(cut, Fraction(4) + Fraction(1, 10 ** 12))
    h = cb.cycle(5, 0.1)  # four edges of 0.1 weigh exactly 4 * Fraction(0.1)
    cut = cb.Cut.from_side(h, cut.side)
    assert cut.exact_weight == 4 * Fraction(0.1) and cut.weight == float(4 * Fraction(0.1))
    assert bounds.meets(cut, 4 * Fraction(0.1))
    assert not bounds.meets(cut, Fraction(cut.weight) + Fraction(1, 2 ** 80))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 16), st.integers(0, 10 ** 6),
       st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                min_size=24, max_size=24))
def test_float_values_match_the_exact_formulas(n, seed, draws):
    base = random_tf_subcubic_graph(n, random.Random(seed), integer_weights=True)
    g = _with_weights(base, lambda eid, w: draws[eid % len(draws)])
    assume(not g.integer_weights)
    checked = set()
    for rep in _deterministic_reports(g):
        want = reference_exact_bounds(g, rep.name, rep.details)
        assert rep.bound_exact == want.pop(rep.name), rep.name
        for candidate, value in want.items():
            assert rep.details[candidate]["certified"] == float(value), candidate
        checked.add(rep.name)
    assert len(checked) == 13
