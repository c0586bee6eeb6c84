"""Sampler: p computation, edge statistics, coupling, determinism."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hyperspectra import sampling
from hyperspectra.errors import BudgetExceeded
from hyperspectra.hypergraph import Hypergraph
from hyperspectra.sampling import ModelParams, p_from_alpha, sample, sample_coupled

import oracles


def test_p_from_alpha_exact_cases():
    assert p_from_alpha(100, Fraction(1)) == pytest.approx(0.01, rel=1e-15)
    assert p_from_alpha(100, Fraction(1, 2)) == pytest.approx(0.1, rel=1e-15)


def test_p_from_alpha_fractional():
    got = p_from_alpha(40, Fraction(5, 2))
    assert got == pytest.approx(9.882117688026186e-05, rel=1e-12)


def test_p_from_alpha_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        p_from_alpha(0, Fraction(1))


def test_params_validate_p_range():
    with pytest.raises(ValueError):
        ModelParams(s=3, n=10, p=1.5, seed=0)
    with pytest.raises(ValueError):
        ModelParams(s=3, n=10, p=-0.1, seed=0)


def test_effective_p_prefers_alpha():
    params = ModelParams(s=3, n=100, alpha=Fraction(1), seed=0)
    assert params.effective_p == pytest.approx(0.01, rel=1e-15)


def test_sample_shape_and_determinism():
    params = ModelParams(s=3, n=12, p=0.3, seed=99)
    g1 = sample(params)
    g2 = sample(params)
    assert g1 == g2
    assert g1.s == 3 and g1.n == 12
    g3 = sample(ModelParams(s=3, n=12, p=0.3, seed=100))
    assert g1 != g3  # overwhelmingly likely, frozen by the fixed seeds


def test_trial_index_streams_differ():
    base = dict(s=3, n=12, p=0.3, seed=5)
    gs = {sample(ModelParams(**base, trial_index=i)).edges for i in range(8)}
    assert len(gs) >= 7


def test_degenerate_p():
    n, s = 7, 3
    empty = sample(ModelParams(s=s, n=n, p=0.0, seed=1))
    assert empty.e == 0
    full = sample(ModelParams(s=s, n=n, p=1.0, seed=1))
    assert full.e == math.comb(n, s)


def test_mean_edge_count():
    # E[e] = C(30,3) * 0.1 = 406, per-trial variance C(30,3)*p*(1-p)
    trials, n, p = 2000, 30, 0.1
    m = math.comb(n, 3)
    total = 0
    for i in range(trials):
        total += sample(ModelParams(s=3, n=n, p=p, seed=1234, trial_index=i)).e
    mean = total / trials
    se = math.sqrt(m * p * (1 - p) / trials)
    assert abs(mean - m * p) <= 3 * se


def test_edge_budget_enforced():
    with pytest.raises(BudgetExceeded):
        sample(ModelParams(s=3, n=40, p=1.0, seed=0), budget=100)


def test_coupled_nested():
    p_list = [0.05, 0.2, 0.5, 0.9]
    for trial in range(30):
        gs = sample_coupled(
            ModelParams(s=3, n=15, p=0.5, seed=21, trial_index=trial), p_list)
        assert len(gs) == len(p_list)
        for lo, hi in zip(gs, gs[1:]):
            assert set(lo.edges) <= set(hi.edges)
        # each draw is exactly sample() at its own p, edge for edge
        for p, g in zip(p_list, gs):
            assert g == sample(ModelParams(s=3, n=15, p=p, seed=21, trial_index=trial))


def test_coupled_zero_probability_skips_budget():
    # C(400, 3) exceeds the edge budget, but nothing is drawn at p = 0
    params = ModelParams(s=3, n=400, p=0.0, seed=4)
    assert sample_coupled(params, [0.0, 0.0]) == [Hypergraph(3, 400, [])] * 2
    assert sample_coupled(params, []) == []
    with pytest.raises(BudgetExceeded):
        sample_coupled(params, [0.0, 1e-9])


def test_coupled_order_free():
    # one uniform stream is thresholded per probability, so the input
    # order is irrelevant and nesting holds pairwise by value
    params = ModelParams(s=3, n=10, p=0.5, seed=0)
    hi, lo = sample_coupled(params, [0.9, 0.1])
    assert set(lo.edges) <= set(hi.edges)
    with pytest.raises(ValueError):
        sample_coupled(params, [0.5, 1.2])


def test_pairwise_edge_correlation_small():
    # distinct s-sets should be sampled independently
    n, p, trials = 8, 0.4, 1500
    e1, e2 = (0, 1, 2), (3, 4, 5)
    x = y = xy = 0
    for i in range(trials):
        g = sample(ModelParams(s=3, n=n, p=p, seed=77, trial_index=i))
        es = g.edge_set
        a, b = e1 in es, e2 in es
        x += a
        y += b
        xy += a and b
    px, py, pxy = x / trials, y / trials, xy / trials
    cov = pxy - px * py
    denom = math.sqrt(px * (1 - px) * py * (1 - py))
    assert abs(cov / denom) < 0.1


def test_sampled_frequency_matches_p():
    # per-edge inclusion is Bernoulli(p): check one fixed set's frequency
    p, trials = 0.25, 2000
    hits = 0
    for i in range(trials):
        g = sample(ModelParams(s=3, n=6, p=p, seed=3, trial_index=i))
        hits += (1, 2, 4) in g.edge_set
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 4 * se


# --- the word-threshold sampler against the float pipeline it replaces ------

def _random_params(rng, s):
    n = rng.randint(s, {2: 40, 3: 18, 4: 12}[s])
    trial = rng.choice([rng.randrange(100), rng.getrandbits(64)])
    return ModelParams(s, n, p=0.5, seed=rng.getrandbits(64), trial_index=trial)


def _probabilities(rng, n):
    return [0.0, 1.0, 2.0**-53, 1 - 2.0**-53, 1 / n, rng.random(), rng.random() ** 6]


def test_sample_matches_float_threshold():
    rng = random.Random(2024)
    for case in range(315):
        params = _random_params(rng, (2, 3, 4)[case % 3])
        p = _probabilities(rng, params.n)[case % 7]
        assert sample(replace(params, p=p)) == oracles.float_threshold_sample(params, [p])[0], \
            (params, p)


def test_coupled_matches_float_threshold():
    rng = random.Random(2025)
    for case in range(300):
        params = _random_params(rng, (2, 3, 4)[case % 3])
        ps = rng.sample(_probabilities(rng, params.n), rng.randint(1, 7))
        assert sample_coupled(params, ps) == oracles.float_threshold_sample(params, ps), \
            (params, ps)


def test_threshold_at_drawn_uniforms():
    # p equal to an edge's own uniform drops that edge; the next float up keeps it
    rng = random.Random(2026)
    for case in range(60):
        params = _random_params(rng, (2, 3, 4)[case % 3])
        total = math.comb(params.n, params.s)
        key = np.array([params.seed, params.trial_index], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(total)
        r = rng.randrange(total)
        ps = [float(u[r]), float(np.nextafter(u[r], 0.0)), float(np.nextafter(u[r], 1.0))]
        want = oracles.float_threshold_sample(params, ps)
        assert sample_coupled(params, ps) == want
        assert [sample(replace(params, p=p)) for p in ps] == want
        edge = sorted(itertools.combinations(range(params.n), params.s),
                      key=lambda e: e[::-1])[r]
        assert [edge in g.edge_set for g in want] == [False, False, True]


@pytest.mark.parametrize("s,n", [(2, 400), (3, 80), (4, 40), (3, 120)])
def test_draws_spanning_several_blocks(s, n):
    assert math.comb(n, s) > sampling._BLOCK
    params = ModelParams(s, n, p=0.5, seed=11, trial_index=3)
    ps = [1 / n, 5 / n, 0.3, 1e-4]
    want = oracles.float_threshold_sample(params, ps)
    assert sample_coupled(params, ps) == want
    assert [sample(replace(params, p=p)) for p in ps] == want


def test_word_threshold_matches_float_uniform():
    # numpy's float64 uniform from a word w is (w >> 11) * 2^-53
    rng = random.Random(2027)
    ps = [0.0, 1.0, 2.0**-53, 2.0**-60, 1 - 2.0**-53, 0.5, 1 / 3, 5e-324]
    ps += [rng.random() ** rng.randint(1, 8) for _ in range(200)]
    for p in ps:
        c = math.ceil(p * 2.0**53) << 11
        near = [c + d for d in range(-2049, 2050) if 0 <= c + d < 2**64]
        words = np.array(near + [rng.getrandbits(64) for _ in range(64)], dtype=np.uint64)
        floats = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(sampling._below(words, p), floats < p), p


def test_unranking_columns_beyond_int64():
    # C(n, s) = C(140, 3) fits the budget, but the columns C(m, k) for k
    # near 70 exceed 2^63; each kept edge must have its colex rank
    s, n, p = 137, 140, 0.002
    params = ModelParams(s, n, p=p, seed=5, trial_index=1)
    key = np.array([params.seed, params.trial_index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(math.comb(n, s))
    ranks = sorted(sum(math.comb(x, i + 1) for i, x in enumerate(e))
                   for e in sample(params).edges)
    assert ranks == np.flatnonzero(u < p).tolist()


def test_unranking_columns_cached_read_only():
    cols = sampling._columns(30, 3)
    assert sampling._columns(30, 3) is cols
    for k, col in enumerate(cols):
        assert col.tolist() == [math.comb(m, k) for m in range(30)]
        with pytest.raises(ValueError):
            col[0] = 7


def _digest(draws) -> str:
    return hashlib.sha256(json.dumps(draws, separators=(",", ":")).encode()).hexdigest()


def test_golden_window_cell():
    # gate 3's cell: the witness at alpha = 15/8, s = 3, n = 120, seed 0
    p = p_from_alpha(120, Fraction(15, 8))
    cell = [sample(ModelParams(3, 120, p=p, seed=0, trial_index=t)).edges for t in range(20)]
    assert _digest(cell) == "8d9f34c87457e5cedaad9bacbb58d206c6dc7ae773e7c2d6a548ffbcaef9b0ea"


def test_golden_sweep_draws():
    # the coupled draws of `hyperspectra sweep --s 3 --n 80 --seed 42` over five exponents
    ps = [p_from_alpha(80, Fraction(a)) for a in ("2", "9/4", "5/2", "11/4", "3")]
    draws = [[g.edges for g in sample_coupled(
        ModelParams(3, 80, p=max(ps), seed=42, trial_index=t), ps)] for t in range(25)]
    assert _digest(draws) == "1a3bd02cc4df003d718ae57440e2d0ff139bb25f2e180275f0bd0072bdeacd4b"


def test_draw_memory_bounded():
    # C(300, 3) = 4,455,100 potential edges; their 3-column int64 table alone is 107 MB
    tracemalloc.start()
    try:
        sample(ModelParams(3, 300, alpha=Fraction(15, 8)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
