"""Exact threshold calculators and witness constructions."""

import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from hyperspectra.bounds import (
    bounds_report,
    build_dense_witness,
    build_two_cycle_witness,
    dense_witness_size,
    failure_alpha_near_max,
    in_exceptional_set,
    law_fails_density,
    law_holds_density,
    law_window_near_max,
    limit_base_size,
    limit_base_size_closed_form,
    limit_point_alpha,
    limit_point_family_alpha,
    poisson_rate_from_counts,
    root_symmetry_counts,
    split_witness_lengths,
    unextendable_poisson_rate,
)
from hyperspectra.errors import CapExceeded, HypothesisViolated
from hyperspectra.extensions import RootedPair
from hyperspectra.hypergraph import (Hypergraph, automorphism_count, density,
                                     is_strictly_balanced)

import oracles


class TestLawHolds:
    def test_values(self):
        assert law_holds_density(3, 4) == 2
        assert law_holds_density(3, 5) == Fraction(39, 8)

    def test_below_binomial(self):
        for s in (3, 4, 5):
            for k in range(s + 1, 13):
                assert law_holds_density(s, k) < comb(k - 1, s - 1)

    def test_near_binomial_gap(self):
        # sits within one unit above the uncorrected main term
        for s in (3, 4, 5):
            for k in range(s + 1, 13):
                main = comb(k - 1, s - 1) - 1 - Fraction(s - 1, k - 1)
                assert main < law_holds_density(s, k) < main + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            law_holds_density(2, 5)
        with pytest.raises(ValueError):
            law_holds_density(3, 3)


class TestDenseWitness:
    def test_threshold_below_law_holds(self):
        for s in (3, 4, 5):
            for k in range(s + 2, 13):
                assert law_fails_density(s, k) < law_holds_density(s, k)

    def test_sizes_match_closed_form(self):
        for s in (3, 4):
            for k in range(s + 2, 8):
                w = build_dense_witness(s, k, cap=20000)
                assert (w.v, w.e) == dense_witness_size(s, k)

    def test_known_sizes(self):
        assert dense_witness_size(3, 5) == (111, 468)
        assert dense_witness_size(3, 7) == (10130, 137700)
        assert dense_witness_size(4, 6) == (604, 4980)
        assert dense_witness_size(4, 7) == (18005, 332100)

    def test_default_cap(self):
        with pytest.raises(CapExceeded):
            build_dense_witness(3, 7)
        assert build_dense_witness(3, 7, cap=11000).v == 10130

    def test_density_beats_threshold(self):
        for s, k in ((3, 5), (3, 6), (4, 6)):
            w = build_dense_witness(s, k)
            assert density(w) >= law_fails_density(s, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            law_fails_density(3, 4)


class TestExceptionalSet:
    def test_window(self):
        assert law_window_near_max(3, 5) == (Fraction(15, 8), Fraction(2))

    def test_member(self):
        for s, k in ((3, 5), (3, 7), (4, 8)):
            pow2 = 2 ** (k - s + 1)
            assert in_exceptional_set(s - 1 - Fraction(1, pow2 + 1), s, k)

    def test_fractional_member(self):
        # excess 3/2 reduced, numerator within the bound
        assert in_exceptional_set(Fraction(36, 19), 3, 5)

    def test_non_member_forced_large_numerator(self):
        for s, k in ((3, 5), (3, 7), (4, 8)):
            pow2 = 2 ** (k - s + 1)
            assert not in_exceptional_set(s - 1 - Fraction(1, 2 * pow2 + 1), s, k)
        assert not in_exceptional_set(Fraction(48, 25), 3, 5)  # excess 9/2

    def test_boundaries_excluded(self):
        lo, hi = law_window_near_max(3, 5)
        assert not in_exceptional_set(lo, 3, 5)
        assert not in_exceptional_set(hi, 3, 5)
        assert not in_exceptional_set(Fraction(1, 2), 3, 5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            in_exceptional_set(1.875, 3, 5)


class TestTwoCycleWitness:
    def test_reference_instance(self):
        assert failure_alpha_near_max(3, 7, 1) == 2 - Fraction(1, 33)
        assert split_witness_lengths(3, 7, 1) == (5, 1, 4)
        w = build_two_cycle_witness(3, 5, 1, 4)
        assert (w.v, w.e) == (33, 17)
        assert density(w) == Fraction(17, 33)
        assert 1 / density(w) == 2 - Fraction(1, 17)
        assert is_strictly_balanced(w)

    def test_sweep_shape_and_balance(self):
        combos = [(3, 7), (3, 8), (4, 8), (5, 9)]
        checked = 0
        for s, k in combos:
            hi = 2 ** (k - s - 2) + 2 ** (k - s - 3) + 1
            for a in range(1, hi + 1):
                if 2 ** (k - s) + a > 40:
                    continue
                a1, a2, a3 = split_witness_lengths(s, k, a)
                assert 2 * a1 + 2 * a2 + 1 + a3 == 2 ** (k - s) + a
                w = build_two_cycle_witness(s, a1, a2, a3)
                assert w.e == 2 ** (k - s) + a
                assert w.v == w.e * (s - 1) - 1
                assert is_strictly_balanced(w)
                checked += 1
        assert checked >= 20

    def test_alpha_lands_in_exceptional_set(self):
        for s, k in ((3, 7), (3, 8), (4, 8)):
            for a in (1, 2, 5):
                alpha = failure_alpha_near_max(s, k, a)
                lo, hi = law_window_near_max(s, k)
                assert lo < alpha < hi
                assert in_exceptional_set(alpha, s, k)

    def test_split_is_lexicographically_least(self):
        s, k, a = 3, 8, 3
        best = split_witness_lengths(s, k, a)
        total = 2 ** (k - s) + a
        valid = [
            (a1, a2, total - 2 * a1 - 2 * a2 - 1)
            for a1 in range(2, 2 ** (k - s) + 1)
            for a2 in range(1, min(2 ** (k - s - 4), a1 - 1) + 1)
            if 1 <= total - 2 * a1 - 2 * a2 - 1 <= 2 ** (k - s - 2)
        ]
        assert best == min(valid)

    def test_domain(self):
        with pytest.raises(ValueError):
            failure_alpha_near_max(3, 6, 1)  # k too small
        with pytest.raises(ValueError):
            failure_alpha_near_max(3, 7, 8)  # a above its cap
        with pytest.raises(ValueError):
            build_two_cycle_witness(3, 1, 1, 1)  # even cycle too short


class TestLimitPoints:
    def test_sigma_at_m_two(self):
        point = limit_point_alpha(2, 12, 1)
        assert point.m == 2
        assert point.sigma == 24
        assert point.alpha == Fraction(1, comb(1, 1)) * (1 + Fraction(2, 24))

    def test_gap_shrinks_fast(self):
        s, k = 2, 13
        base = Fraction(1, comb(k - 11, s - 1))
        gaps = [limit_point_alpha(s, k, j).alpha - base for j in (1, 2, 4)]
        assert all(g > 0 for g in gaps)
        assert gaps[1] < gaps[0] / 2
        assert gaps[2] < gaps[1] / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_point_alpha(3, 12, 1)  # needs k >= 13 once s = 3
        with pytest.raises(ValueError):
            limit_point_alpha(2, 12, 0)

    def test_base_size_examples(self):
        assert limit_base_size(2, 5) == 2
        assert limit_base_size_closed_form(5) == 2
        assert limit_base_size(3, 5) == 2

    def test_base_size_closed_form_agrees(self):
        for k in range(5, 41):
            assert limit_base_size(2, k) == limit_base_size_closed_form(k)

    def test_family_alpha_monotone(self):
        for s, k in ((2, 5), (3, 5), (3, 7)):
            l = limit_base_size(s, k)
            limit = Fraction(1, comb(l, s - 1))
            values = [limit_point_family_alpha(s, k, m) for m in (1, 10, 100)]
            assert values[0] > values[1] > values[2] > limit

    def test_family_domain(self):
        with pytest.raises(ValueError):
            limit_point_family_alpha(3, 5, 0)
        with pytest.raises(ValueError):
            limit_base_size(2, 4)


UNEXT_PAIR = RootedPair(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), 3, [(0, 1, 2)])


class TestPoissonRate:
    def test_plugin_value(self):
        assert poisson_rate_from_counts(1, 1, 1) == pytest.approx(math.exp(-1))

    def test_disjoint_edge_pair(self):
        assert root_symmetry_counts(UNEXT_PAIR) == (6, 6, 6)
        rate = unextendable_poisson_rate(UNEXT_PAIR)
        assert rate == pytest.approx(math.exp(-1 / 6) / 6, rel=1e-12)

    def test_density_mismatch_rejected(self):
        pendant = RootedPair(
            Hypergraph(2, 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
            3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(HypothesisViolated) as info:
            unextendable_poisson_rate(pendant)
        assert "density" in str(info.value)

    def test_unbalanced_root_structure_rejected(self):
        pair = RootedPair(
            Hypergraph(3, 9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
            6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(HypothesisViolated) as info:
            unextendable_poisson_rate(pair)
        assert "balanced" in str(info.value)

    def test_edgeless_root_structure_rejected(self):
        pair = RootedPair(Hypergraph(3, 4, [(0, 1, 3)]), 2, [])
        with pytest.raises(HypothesisViolated):
            unextendable_poisson_rate(pair)

    def test_symmetry_counts_match_brute_force(self):
        rng = random.Random(71)
        kinds = Counter()
        for i in range(400):
            s = 2 + i % 2
            g = oracles.random_hypergraph(rng, s, rng.randint(1, 7),
                                          rng.choice([0.2, 0.5, 0.8]))
            r = rng.choice([0, g.n, rng.randint(0, g.n)])
            inside = [e for e in g.edges if e[-1] < r]
            h_edges = [e for e in inside if rng.random() < 0.6]
            pair = RootedPair(g, r, h_edges)
            aut_h, a1, a2 = root_symmetry_counts(pair)
            assert (aut_h, a1, a2) == oracles.brute_root_symmetry_counts(pair)
            # the extendable restrictions form a subgroup of the root structure's
            assert aut_h % a1 == 0
            kinds.update({(s, "r=0"): r == 0, (s, "r=n"): r == g.n,
                          (s, "strict subset"): len(h_edges) < len(inside)})
        assert len(kinds) == 6 and min(kinds.values()) >= 25


class TestAutomorphismCount:
    def test_matches_bruteforce(self):
        rng = random.Random(73)
        dense = isolated = 0
        for i in range(80):
            s = 2 + i % 2
            g = oracles.random_hypergraph(rng, s, rng.randint(0, 7),
                                          rng.choice([0.15, 0.4, 0.8]))
            aut = len(oracles.brute_automorphisms(g))
            assert automorphism_count(g) == aut
            assert root_symmetry_counts(RootedPair(g, 0)) == (1, 1, aut)
            # dense ones are searched through their complement
            dense += g.e > comb(g.n, s) // 2
            isolated += any(g.degree(x) == 0 for x in range(g.n))
        assert dense >= 15 and isolated >= 15


class TestReportDispatch:
    def test_law_holds_report(self):
        rep = bounds_report(6, s=3, k=4)
        assert rep.meaning == "law-holds-below"
        assert rep.values == {"threshold": Fraction(2)}

    def test_witness_reports(self):
        rep7 = bounds_report(7, s=3, k=5)
        assert rep7.values["v"] == 111 and rep7.values["e"] == 468
        assert rep7.witness is not None
        rep9 = bounds_report(9, s=3, k=7, a=1)
        assert rep9.values["rho"] == Fraction(17, 33)
        assert rep9.values["alpha"] == failure_alpha_near_max(3, 7, 1)

    def test_interval_and_limits(self):
        rep8 = bounds_report(8, s=3, k=5)
        assert rep8.values == {"lower": Fraction(15, 8), "upper": Fraction(2)}
        rep10 = bounds_report(10, s=2, k=12, j=1)
        assert rep10.values["sigma"] == 24
        rep11 = bounds_report(11, s=2, k=5, m=1)
        assert rep11.values["l"] == rep11.values["l_closed_form"] == 2
        assert rep11.values["alpha"] == Fraction(3, 4)

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            bounds_report(9, s=3, k=7)
        with pytest.raises(ValueError):
            bounds_report(10, s=2, k=12)
        with pytest.raises(ValueError):
            bounds_report(5, s=3, k=5)
