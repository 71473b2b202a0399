"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is pinned here, exact in integer mode.
"""

import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb
from cutbounds import subcubic
from cutbounds.bounds import meets
from cutbounds.cli import main as cli_main
from cutbounds.cuts import local_search_improve
from cutbounds.generators import path
from cutbounds.graph import triangle_free
from cutbounds.spanning import max_spanning_tree, shortest_fundamental_odd_cycle
from cutbounds.subcubic import (COMBINATION_WEIGHT_A, COMBINATION_WEIGHT_B, PERCOLATION_P,
                                percolation_expectation)
from helpers import (certified, eight_elevenths_candidate_cuts,
                     percolation_conditional_expectation, percolation_raw, petersen_spoke_ids,
                     random_certificate_edges, random_connected_graph, random_tf_subcubic_graph,
                     shearer_sample, tree_paths)


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} [{label}]: {'pass' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_acceptance_01_tight_cycles():
    ok = True
    for n, k in ((5, 4), (7, 6)):
        g = cb.cycle(n)
        rep = cb.girth_bound(g)
        mac = cb.exact_max_cut(g).value
        ok &= rep.details["k"] == k
        ok &= rep.bound_exact == Fraction(k)
        ok &= mac == k
        ok &= rep.cut.weight == float(k)
    _verdict(1, "tight cycle family C5/C7", ok)


def test_acceptance_02_odd_girth_default():
    g = cb.cycle(5)
    rep = cb.girth_bound(g)  # odd girth 5 defaults to k = 4
    mac = cb.exact_max_cut(g).value
    ok = rep.bound_exact == Fraction(4) and mac == 4 and rep.details["k"] == 4
    _verdict(2, "odd-girth corollary on C5", ok)


def test_acceptance_03_matching_tight_on_cliques():
    ok = True
    for n in (4, 6, 8):
        g = cb.complete(n)
        rep = cb.matching_bound(g)
        mac = cb.exact_max_cut(g).value
        ok &= rep.bound_exact == Fraction(n * n, 4)
        ok &= mac == n * n // 4
        ok &= rep.cut.weight == float(n * n // 4)
    _verdict(3, "matching bound tight on K4/K6/K8", ok)


def test_acceptance_04_weighted_petersen_fixture():
    g = cb.petersen_c3(10, 1)
    mac = cb.exact_max_cut(g).value
    rep = cb.matching_vizing_bound(g, petersen_spoke_ids(g))
    lab = cb.conjecture_report(g)
    ok = (mac == 56 and rep.bound_exact == Fraction(56)
          and rep.cut.weight == 56.0
          and abs(lab.matching_ratio - 0.6) < 1e-12)
    _verdict(4, "weighted Petersen matching fixture", ok)


def test_acceptance_05_star_counterexample():
    eps, hub_w, leaves = 0.3, 1, 6
    ok = cb.star_counterexample_params_ok(hub_w, leaves, eps)
    g = cb.star_counterexample(hub_w, leaves)
    mac = cb.exact_max_cut(g).value
    star_tree_weight = float(hub_w * leaves)
    threshold = g.total_weight / 2 + eps * star_tree_weight
    ok &= mac == 12 and threshold == 12.3 and mac < threshold
    _verdict(5, "arbitrary-tree counterexample instance", ok)


def test_acceptance_06_eight_elevenths_corpus():
    rng = random.Random(20260810)
    ok = True
    for i in range(500):
        n = rng.randint(4, 20)
        g = cb.random_triangle_free_subcubic(n, seed=rng.randrange(10 ** 9),
                                             weight_dist="int")
        rep = cb.eight_elevenths_bound(g)  # claim checks run inside, exact
        ok &= rep.cut.exact_weight >= rep.bound_exact
        ok &= rep.cut.exact_weight <= cb.exact_max_cut(g).witness.exact_weight
        # the report builds only the winner; build and check all three
        _, candidates = eight_elevenths_candidate_cuts(g)
        for claim in ("drop_class", "layered_components", "mutual_matching"):
            cut, value = candidates[claim]
            ok &= meets(cut, value)
        if not ok:
            break
    _verdict(6, "8/11 pipeline on 500 random instances", ok)


def test_acceptance_07_coefficient_algebra():
    table = {1: (0.6768, 1.0000), 2: (0.6250, 0.7778), 3: (0.6021, 0.7000),
             4: (0.5884, 0.6571), 16: (0.5442, 0.5446), 17: (0.5429, 0.5421)}
    ok = all(round(cb.shearer_coefficient(d), 4) == s
             and round(float(cb.vizing_classes_coefficient(d)), 4) == t
             for d, (s, t) in table.items())
    ok &= all((float(cb.vizing_classes_coefficient(d)) > cb.shearer_coefficient(d))
              == (d <= 16) for d in range(1, 65))
    mixed = (COMBINATION_WEIGHT_A * (1.85 / 2.0)
             + COMBINATION_WEIGHT_B * 8.0 / 11.0)
    ok &= round(mixed, 4) == 0.8193 and round(mixed - 0.5, 4) == 0.3193
    ok &= abs((1 - 0.85 ** 4) / 2 - 0.23899687) < 1e-8
    ok &= cb.vizing_classes_coefficient(3) == Fraction(7, 10)
    _verdict(7, "coefficient table and recombination", ok)


def test_acceptance_08_dfs_dominates_pt():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        g = random_connected_graph(rng.randint(2, 12), rng.randint(0, 10), rng)
        ok &= cb.dfs_bound(g).bound_exact >= cb.poljak_turzik(g).bound_exact
        if not ok:
            break
    _verdict(8, "DFS bound dominates Poljak-Turzik on 1000 instances", ok)


def test_acceptance_09_derandomizer_exact():
    rng = random.Random(9)
    ok = True
    for _ in range(10000):
        g = random_connected_graph(rng.randint(2, 9), rng.randint(0, 7), rng,
                                   integer_weights=True)
        cert = cb.verify_induced_bipartite(g, random_certificate_edges(g, rng))
        cut = cb.derandomized_cut(g, cert)
        need = (Fraction(int(g.total_weight)) + Fraction(int(cert.weight(g)))) / 2
        ok &= Fraction(cut.weight) >= need  # zero tolerance
        if not ok:
            break
    _verdict(9, "derandomizer exact on 10000 certificate pairs", ok)


def _fixed_subcubic_instances():
    out = [cb.petersen(), cb.petersen_c3(10, 1), cb.cycle(5), cb.cycle(6),
           cb.cycle(7), cb.cycle(8), cb.gadget_k33_subdivided()]
    seed = 0
    while len(out) < 20:
        g = cb.random_triangle_free_subcubic(10 + seed % 8, seed=seed,
                                             weight_dist="int")
        if g.is_connected() and g.total_weight > 0:
            out.append(g)
        seed += 1
    return out[:20]


def test_acceptance_10_monte_carlo_expectations():
    samples = 10000
    ok = True
    for g in _fixed_subcubic_instances():
        t = max_spanning_tree(g)
        [r] = shortest_fundamental_odd_cycle(g, t)
        bound = percolation_expectation(g.total_weight, t.weight, 0.85, r)
        rng = random.Random(10)
        weights = [percolation_raw(g, t, 0.85, rng).weight for _ in range(samples)]
        mean = sum(weights) / samples
        var = sum((w - mean) ** 2 for w in weights) / (samples - 1)
        ok &= mean >= bound - 3 * (var ** 0.5 / samples ** 0.5)

        coeff = cb.shearer_coefficient(g.max_degree())
        rng = random.Random(11)
        weights = [shearer_sample(g, rng).weight for _ in range(samples)]
        mean = sum(weights) / samples
        var = sum((w - mean) ** 2 for w in weights) / (samples - 1)
        ok &= mean >= coeff * g.total_weight - 3 * (var ** 0.5 / samples ** 0.5)
        if not ok:
            break
    _verdict(10, "Monte Carlo expectation checks on 20 fixed instances", ok)


def _no_random(*args):
    raise AssertionError("a deterministic bound built a random.Random")


def _assert_percolation_certificate(g):
    """The derandomized percolation cut, before local search, weighs at least
    the process's exact expectation; both reports it feeds are certified and
    no random generator is built."""
    raw = []

    def recording(h, cut):
        raw.append(cut)
        return local_search_improve(h, cut)

    with mock.patch.object(subcubic, "random", SimpleNamespace(Random=_no_random)), \
            mock.patch.object(subcubic, "local_search_improve", recording):
        reports = [cb.tree_percolation_bound(g)]
        if triangle_free(g):
            reports.append(cb.combined_tree_bound(g))
    t = max_spanning_tree(g)
    exact = percolation_conditional_expectation(g, PERCOLATION_P, tree_paths(g, t),
                                                dict.fromkeys(t.edge_ids))
    (cut,) = raw
    assert cut.exact_weight == cut.recompute_weight(g)
    assert cut.weight == reports[0].details["raw_weight"]
    assert meets(cut, exact)
    assert reports[0].details["expectation"] == pytest.approx(float(exact))
    for rep in reports:
        assert rep.mode == "deterministic" and certified(rep), rep.name


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10 ** 6), st.booleans())
def test_percolation_cut_meets_its_exact_expectation(n, seed, integer_weights):
    _assert_percolation_certificate(
        random_tf_subcubic_graph(n, random.Random(seed), integer_weights))


@pytest.mark.parametrize("g", [cb.cycle(5), cb.petersen(), cb.complete(4), path(9, 2.0),
                               cb.petersen_c3(10, 1)], ids=repr)
def test_percolation_cut_meets_its_exact_expectation_on_fixtures(g):
    _assert_percolation_certificate(g)


def test_acceptance_11_five_cycle_covers():
    pet = cb.petersen()
    res = cb.five_cycle_cover(pet)
    ok = res.value is not None and cb.is_exact_five_cycle_cover(pet, res.witness)
    known = [pet.edge_id(0, 5), pet.edge_id(7, 8), pet.edge_id(2, 3)]
    ok &= cb.is_exact_five_cycle_cover(pet, known)
    rng = random.Random(11)
    missing = []
    for i in range(100):
        g = cb.random_triangle_free_subcubic(rng.randint(5, 20), seed=1000 + i)
        found = cb.five_cycle_cover(g)
        if found.value is None:
            missing.append(cb.save_graph(g))
    for text in missing:
        # a failure here is a structural find, reported rather than asserted
        print("POTENTIAL COUNTEREXAMPLE (no exact five-cycle cover):")
        print(text)
    print(f"ACCEPTANCE 11 note: exact covers found on "
          f"{100 - len(missing)}/100 random instances")
    _verdict(11, "five-cycle cover search", ok)


def test_acceptance_12_global_soundness_sweep():
    code = cli_main(["verify", "--random", "200", "--max-n", "14", "--seed", "0"],
                    out=open("/dev/null", "w"))
    _verdict(12, "global soundness sweep over 200 instances", code == 0)
