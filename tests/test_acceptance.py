"""Release gate: one test per acceptance criterion, at the stated tolerances.

Each test prints a single summary line past pytest's capture so the verdict
and the measured numbers show up in a plain ``pytest`` run.  The Monte Carlo
gates 1 and 3 also check each estimate against the exact finite-n law from
``oracles`` (within 4 binomial standard errors), and assert the paper's
asymptotic bounds only at sizes where that law delivers them; the printed
lines carry the exact values next to the estimates.  See README for details.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import oracles

from hyperspectra.bounds import (build_dense_witness, build_two_cycle_witness,
                                 law_fails_density, law_holds_density,
                                 limit_base_size, limit_base_size_closed_form,
                                 split_witness_lengths)
from hyperspectra.cyclic import random_family_member
from hyperspectra.experiments import (ExperimentConfig, PropertySpec,
                                      copy_count_distribution,
                                      estimate_probability)
from hyperspectra.game import (extension_strategy, solve,
                               verify_strategy)
from hyperspectra.hypergraph import (Hypergraph, automorphism_count,
                                     count_copies, count_embeddings, density,
                                     is_strictly_balanced, max_density)
from hyperspectra.logic import (build_C, build_D, evaluate,
                                has_full_extension_property, quantifier_depth)
from hyperspectra.sampling import p_from_alpha

LOOSE_PATH = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
TRIANGLE = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
FOUR_CYCLE = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _binomial_se(q: float, trials: int) -> float:
    return math.sqrt(q * (1 - q) / trials)


def _emit(capsys, idx: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {idx}/8] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)


def test_1_threshold_sides(capsys):
    """Appearance probability of the loose 2-edge path on both threshold sides.

    Every estimate must lie within 4 binomial standard errors of the exact
    law.  At n=40 that law is 0.862621 above the threshold, so the stated
    >= 0.98 is asserted at n=100, where it is 0.996027.
    """
    t0 = time.perf_counter()
    est, exact = {}, {}
    for n in (40, 100):
        for alpha in (Fraction(3), Fraction(2)):
            cfg = ExperimentConfig(s=3, n_list=(n,),
                                   prop=PropertySpec(kind="pattern", pattern=LOOSE_PATH),
                                   trials=500, seed=42, alpha=alpha)
            est[n, alpha] = estimate_probability(cfg).estimate
            exact[n, alpha] = oracles.loose_path_probability(n, p_from_alpha(n, alpha))
    elapsed = time.perf_counter() - t0
    near = {key: abs(est[key] - exact[key]) <= 4 * _binomial_se(exact[key], 500)
            for key in est}
    below = max(est[40, Fraction(3)], est[100, Fraction(3)])
    above = est[100, Fraction(2)]
    ok = all(near.values()) and below <= 0.02 and above >= 0.98 and elapsed < 120
    shown = ", ".join(f"n={n} P(alpha={alpha})={est[n, alpha]:.3f} "
                      f"(exact {exact[n, alpha]:.6f})" for n, alpha in est)
    _emit(capsys, 1, ok,
          f"loose-path appearance: {shown}; all within 4 SE "
          f"{'ok' if all(near.values()) else 'missed'}, "
          f"<=0.02 below, >=0.98 above at n=100, {elapsed:.1f}s")
    for key in est:
        assert near[key], (key, est[key], exact[key])
    assert below <= 0.02
    assert above >= 0.98
    assert elapsed < 120


def test_2_poisson_copy_counts(capsys):
    """Triangle counts at p=1/n: Poisson(1/6) fit plus cross-pattern independence.

    Each pattern's mean copy count must also lie within 4 standard errors
    of its exact finite-n mean, the SE taken from the exact variance
    (`oracles.copy_count_moments`), not from the sample.
    """
    t0 = time.perf_counter()
    rep = copy_count_distribution([TRIANGLE, FOUR_CYCLE], n=150, trials=2000,
                                  seed=7, p=1 / 150)
    elapsed = time.perf_counter() - t0
    mean, tv = rep.means[0], rep.tv_distances[0]
    corr = rep.correlations[0][2]
    exact = [oracles.copy_count_moments(g, 150, Fraction(1, 150))
             for g in (TRIANGLE, FOUR_CYCLE)]
    z = [(m - float(mu)) / math.sqrt(var / 2000) for m, (mu, var) in zip(rep.means, exact)]
    ok = (0.14 <= mean <= 0.19 and tv < 0.05 and abs(corr) < 0.1 and elapsed < 300
          and all(abs(zi) <= 4 for zi in z))
    _emit(capsys, 2, ok,
          f"triangle copies at n=150: mean={mean:.3f} in [0.14,0.19], "
          f"TV={tv:.3f}<0.05, |corr|={abs(corr):.3f}<0.1, {elapsed:.1f}s; "
          f"exact means {float(exact[0][0]):.6f} and {float(exact[1][0]):.6f}, "
          f"z={z[0]:+.2f} and {z[1]:+.2f}")
    assert rep.rates[0] == 1 / 6
    assert 0.14 <= mean <= 0.19
    assert tv < 0.05
    assert abs(corr) < 0.1
    assert elapsed < 300
    for zi in z:
        assert abs(zi) <= 4


def test_3_non_limit_window(capsys):
    """Containment probability of a small two-cycle witness pinned at its own
    density exponent: should stay inside (0,1) and flat across n.

    The [0.05, 0.95] window is the paper's statement about the limit
    1 - exp(-1/aut).  At finite n the probability lies between the
    second-moment floor L_n and the expected copy count mu_n (0.037 at
    n=60, below the window), so each estimate is checked against
    [L_n, mu_n] within 4 binomial standard errors, and the window's upper
    edge, a theorem at every n here since mu_n < 1/4, is asserted directly.
    """
    w = build_two_cycle_witness(3, 2, 1, 1)
    assert w.e <= 12 and is_strictly_balanced(w)
    alpha = Fraction(w.n, w.e)
    assert alpha == Fraction(15, 8)
    aut = automorphism_count(w, cap=w.n)
    assert aut == 4
    limit = 1 - math.exp(-1 / aut)
    overlaps = oracles.overlap_embeddings(w)
    estimates, bounds = {}, {}
    for n in (60, 90, 120):
        cfg = ExperimentConfig(s=3, n_list=(n,),
                               prop=PropertySpec(kind="pattern", pattern=w),
                               trials=2000, seed=0, alpha=alpha)
        estimates[n] = estimate_probability(cfg).estimate
        bounds[n] = oracles.moment_bounds(w, n, overlaps)
    spread = max(estimates.values()) - min(estimates.values())
    bracketed = all(low - 4 * _binomial_se(low, 2000) <= estimates[n]
                    <= mu + 4 * _binomial_se(mu, 2000)
                    for n, (low, mu) in bounds.items())
    in_window = 0.05 <= limit <= 0.95 and all(q <= 0.95 for q in estimates.values())
    shown = " ".join(f"n={n}:{estimates[n]:.3f} in [L={low:.4f},mu={mu:.4f}]"
                     for n, (low, mu) in bounds.items())
    _emit(capsys, 3, bracketed and in_window and spread < 0.15,
          f"witness containment at alpha=15/8: {shown} "
          f"{'ok' if bracketed else 'missed'} (4 SE), spread={spread:.3f}<0.15, "
          f"limit 1-e^(-1/{aut})={limit:.4f} in window [0.05,0.95] "
          f"{'ok' if in_window else 'missed'}")
    assert spread < 0.15
    for n, (low, mu) in bounds.items():
        assert low - 4 * _binomial_se(low, 2000) <= estimates[n], n
        assert estimates[n] <= mu + 4 * _binomial_se(mu, 2000), n
        assert estimates[n] <= 0.95
    assert 0.05 <= limit <= 0.95


def test_4_exact_identities(capsys):
    t0 = time.perf_counter()
    assert law_holds_density(3, 4) == 2

    dense = build_dense_witness(3, 5)
    assert (dense.n, dense.e) == (111, 468)
    assert density(dense) >= law_fails_density(3, 5)

    lengths = split_witness_lengths(3, 7, 1)
    witness = build_two_cycle_witness(3, *lengths)
    assert is_strictly_balanced(witness)
    assert density(witness) == Fraction(17, 33)
    assert 1 / density(witness) == 2 - Fraction(1, 17)

    assert limit_base_size(2, 5) == 2 == limit_base_size_closed_form(5)
    elapsed = time.perf_counter() - t0
    _emit(capsys, 4, elapsed < 10,
          f"exact identities: holds(3,4)=2, dense(3,5)=(111,468), "
          f"two-cycle(3,7,1) density=17/33 strictly balanced, l(2,5)=2, "
          f"{elapsed:.2f}s")
    assert elapsed < 10


def test_5_oracle_equivalence(capsys):
    bad_density = 0
    rng = random.Random(501)
    for _ in range(200):
        s = rng.choice((2, 3))
        n = rng.randint(s, 12)
        g = oracles.random_hypergraph(rng, s, n, rng.uniform(0.1, 0.6))
        if max_density(g)[0] != oracles.brute_max_density(g):
            bad_density += 1

    bad_eval = 0
    rng = random.Random(502)
    for _ in range(500):
        s = rng.choice((2, 3))
        g = oracles.random_hypergraph(rng, s, rng.randint(1, 5), 0.5)
        while True:
            f = oracles.close_formula(oracles.random_formula(rng, s, rng.randint(0, 2)))
            if quantifier_depth(f) <= 3:
                break
        if evaluate(g, f) != oracles.evaluate_naive(g, f):
            bad_eval += 1

    bad_embed = 0
    rng = random.Random(503)
    for _ in range(100):
        s = rng.choice((2, 3))
        hn = rng.randint(s, 7)
        host = oracles.random_hypergraph(rng, s, hn, 0.5)
        pattern = oracles.random_hypergraph(rng, s, rng.randint(s, min(hn, 5)), 0.6)
        brute = oracles.brute_embedding_count(host, pattern)
        if count_embeddings(host, pattern) != brute:
            bad_embed += 1
        if count_copies(host, pattern) * automorphism_count(pattern) != brute:
            bad_embed += 1

    bad_solve = 0
    rng = random.Random(504)
    for _ in range(100):
        s = rng.choice((2, 3))
        g1 = oracles.random_hypergraph(rng, s, rng.randint(1, 5), 0.5)
        g2 = oracles.random_hypergraph(rng, s, rng.randint(1, 5), 0.5)
        k = rng.randint(0, 3)
        if solve(g1, g2, k) != oracles.solve_unmemoized(g1, g2, k):
            bad_solve += 1

    ok = bad_density == bad_eval == bad_embed == bad_solve == 0
    _emit(capsys, 5, ok,
          f"oracle equivalence: {bad_density}/200 density, {bad_eval}/500 eval, "
          f"{bad_embed}/100 embedding, {bad_solve}/100 game discrepancies")
    assert bad_density == 0
    assert bad_eval == 0
    assert bad_embed == 0
    assert bad_solve == 0


def test_6_strategy_verification(capsys):
    """Greedy extension strategy beats exhaustive Spoiler wherever it is sound.

    Soundness needs the level-(k-1) extension property on both boards; with
    s=3 only k=3 qualifies (levels below s-1 are rejected), so the corpus is
    random boards on 6..8 vertices filtered by the level-2 property.
    """
    rng = random.Random(600)
    boards: list[Hypergraph] = []
    attempts = 0
    while len(boards) < 10 and attempts < 400:
        attempts += 1
        n = rng.randint(6, 8)
        g = oracles.random_hypergraph(rng, 3, n, 0.5)
        if g.e == math.comb(n, 3):
            continue
        if has_full_extension_property(g, 2):
            boards.append(g)
    pairs = list(itertools.combinations(boards, 2))
    losses = sum(1 for g1, g2 in pairs
                 if not verify_strategy(g1, g2, 3, extension_strategy(3)))
    ok = len(pairs) >= 20 and losses == 0
    _emit(capsys, 6, ok,
          f"extension strategy: {len(pairs)} qualifying pairs "
          f"({len(boards)} boards from {attempts} samples), {losses} losses")
    assert len(pairs) >= 20
    assert losses == 0


def test_7_family_density_form(capsys):
    """Every generated cyclic-extension family member has reciprocal max
    density 2 exactly or 2 - 1/(m + a/b) with reduced numerator a <= m."""
    rng = random.Random(700)
    members = 0
    violations = 0
    for m in (2, 3, 4):
        for _ in range(34):
            g = random_family_member(3, m, rng, max_vertices=20)
            members += 1
            assert g.n <= 20 and g.e > 0
            recip = 1 / max_density(g)[0]
            if recip == 2:
                continue
            tail = 1 / (2 - recip) - m
            if not (0 <= tail and tail.numerator <= m):
                violations += 1
    ok = members >= 100 and violations == 0
    _emit(capsys, 7, ok,
          f"density form: {members} family members (m in 2..4), "
          f"{violations} violations")
    assert members >= 100
    assert violations == 0


def test_8_depth_formulas(capsys):
    checked = 0
    for s in (2, 3, 4, 5):
        for i in range(1, 65):
            ceil_log = (i - 1).bit_length()  # == ceil(log2 i) for i >= 1
            assert quantifier_depth(build_D(i, s)) == ceil_log + s - 2
            assert quantifier_depth(build_C(i, s)) == ceil_log + s
            checked += 1
    _emit(capsys, 8, True,
          f"quantifier depth closed forms exact on {checked} (i, s) cells")
    assert checked == 256
