"""Sampler: p computation, edge statistics, coupling, determinism."""

import functools
import hashlib
import itertools
import json
import math
import os
import platform
import random
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hyperspectra import sampling
from hyperspectra.errors import BudgetExceeded
from hyperspectra.hypergraph import Hypergraph, from_json
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


def test_params_validate_seed_and_trial_range():
    for bad in (dict(seed=-1), dict(seed=2**64), dict(trial_index=-1), dict(trial_index=2**64)):
        with pytest.raises(ValueError):
            ModelParams(s=2, n=10, p=0.5, **bad)
    # the largest of each still keys a Philox stream
    top = ModelParams(s=2, n=10, p=0.5, seed=2**64 - 1, trial_index=2**64 - 1)
    assert sample(top) == oracles.float_threshold_sample(top, [0.5])[0]


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


@pytest.mark.parametrize("s,n", [(2, 150), (3, 40), (4, 20), (2, 400), (3, 80), (4, 40)])
def test_sampled_hosts_canonical(s, n):
    # hosts are handed over without re-validation: each must be exactly
    # what the validating constructor makes of its edges
    params = ModelParams(s, n, p=0.5, seed=17, trial_index=5)
    nothing = 2.0**-60  # keeps a word only if it is below 2^11
    draws = {"coupled": sample_coupled(params, [0.0, 1 / n, 0.3, 1.0]),
             "top keeps none": sample_coupled(params, [0.0, nothing]),
             "one": [sample(replace(params, p=1 / n))]}
    assert [g.e for g in draws["coupled"]][::3] == [0, math.comb(n, s)]
    assert [g.e for g in draws["top keeps none"]] == [0, 0]
    for g in itertools.chain(*draws.values()):
        assert g == Hypergraph(g.s, g.n, g.edges)
        assert type(g.edges) is tuple and all(type(e) is tuple for e in g.edges)
        assert all(a < b for a, b in zip(g.edges, g.edges[1:]))
        assert all(type(x) is int for e in g.edges for x in e)
        assert from_json(g.to_json()) == g


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


def _default_glibc_heap() -> bool:
    """Linux with glibc's malloc at its default thresholds: no preloaded
    allocator and no MALLOC_* or GLIBC_TUNABLES setting."""
    return (platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"
            and "LD_PRELOAD" not in os.environ and "GLIBC_TUNABLES" not in os.environ
            and not any(k.startswith("MALLOC_") for k in os.environ))


@pytest.mark.skipif(not _default_glibc_heap(),
                    reason="the minor-fault count read here is that of glibc's "
                           "default heap on Linux")
def test_draws_do_not_page_fault():
    # a draw at n=120 reads 280,840 words in five blocks; with two blocks
    # alive at once each draw took 224 minor faults, none once each block
    # is freed before the next is read (resource exists only on Unix)
    import resource

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    params = ModelParams(3, 120, alpha=Fraction(15, 8), seed=0)
    ps = [params.effective_p / 4, params.effective_p / 2, params.effective_p]
    sample(params)
    before = faults()
    for t in range(50):
        sample(replace(params, trial_index=t))
    for t in range(20):
        sample_coupled(replace(params, trial_index=t), ps)
    assert (faults() - before) / 70 <= 8


# Multi-block draws read their blocks on two threads: the caller and one
# helper claim blocks in order.  The stubs below stand in for the helper
# pool and decide when, or whether, the helper's read runs.

SHARED_READS = [(3, 80), (3, 120), (2, 400)]


@functools.lru_cache(maxsize=None)
def _shared_read_case(s, n):
    params = ModelParams(s, n, p=0.5, seed=13, trial_index=2)
    ps = [1 / n, 4 / n, 1e-4]
    return params, ps, oracles.float_threshold_sample(params, ps)


class _StubHelper:
    """A helper pool whose `submit(fn)` returns `start(fn)`."""

    def __init__(self, start):
        self.start, self.submitted = start, 0

    def submit(self, fn):
        self.submitted += 1
        return self.start(fn)


class _NeverRun(Future):
    """A task that never runs; waiting for it would hang, so it fails instead."""

    def result(self, timeout=None):
        raise AssertionError("the caller waited for a helper task that never ran")


def _run_inline(fn):
    task = Future()
    fn()
    task.set_result(None)
    return task


@pytest.mark.parametrize("s,n", SHARED_READS)
def test_helper_that_never_runs(monkeypatch, s, n):
    # the caller claims every block itself and does not wait
    params, ps, want = _shared_read_case(s, n)
    stub = _StubHelper(lambda fn: _NeverRun())
    monkeypatch.setattr(sampling, "_helper", lambda: stub)
    assert sample_coupled(params, ps) == want
    assert stub.submitted == 1


@pytest.mark.parametrize("s,n", SHARED_READS)
def test_helper_claims_every_block(monkeypatch, s, n):
    # the helper's read runs at submit, before the caller claims any block
    params, ps, want = _shared_read_case(s, n)
    monkeypatch.setattr(sampling, "_helper", lambda: _StubHelper(_run_inline))
    assert sample_coupled(params, ps) == want


def _stop_in_first_block(monkeypatch, fails):
    """A helper start whose read claims the first block and stops inside
    it: its task then holds the error if `fails`, else never finishes."""
    def start(fn):
        task = Future() if fails else _NeverRun()
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_below", lambda words, p: 1 / 0)
            try:
                fn()
            except ZeroDivisionError as exc:
                if fails:
                    task.set_exception(exc)
        return task
    return start


@pytest.mark.parametrize("s,n", SHARED_READS)
def test_stalled_helper_block_read_again(monkeypatch, s, n):
    # the caller reads the other blocks, then the helper's unfinished one
    # itself, without waiting for the helper
    params, ps, want = _shared_read_case(s, n)
    stub = _StubHelper(_stop_in_first_block(monkeypatch, fails=False))
    monkeypatch.setattr(sampling, "_helper", lambda: stub)
    assert sample_coupled(params, ps) == want


@pytest.mark.parametrize("s,n", SHARED_READS)
def test_helper_error_reraised(monkeypatch, s, n):
    params, ps, _ = _shared_read_case(s, n)
    stub = _StubHelper(_stop_in_first_block(monkeypatch, fails=True))
    monkeypatch.setattr(sampling, "_helper", lambda: stub)
    with pytest.raises(ZeroDivisionError):
        sample_coupled(params, ps)


def test_one_cpu_starts_no_helper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a helper was started on one CPU")

    monkeypatch.setattr(sampling, "_cpus", lambda: 1)
    monkeypatch.setattr(sampling, "_HELPER", (None, None))
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", refuse)
    for s, n in SHARED_READS:
        params, ps, want = _shared_read_case(s, n)
        assert sample_coupled(params, ps) == want
    assert sampling._HELPER == (os.getpid(), None)


def test_helper_made_once_per_process(monkeypatch):
    # on more than one CPU the first multi-block draw makes the helper, and
    # later draws share it; a single-block draw does not ask for one
    monkeypatch.setattr(sampling, "_cpus", lambda: 2)
    monkeypatch.setattr(sampling, "_HELPER", (None, None))
    sample(ModelParams(3, 20, p=0.5))
    assert sampling._HELPER == (None, None)
    threads = threading.active_count()
    try:
        for s, n in SHARED_READS:
            params, ps, want = _shared_read_case(s, n)
            assert sample_coupled(params, ps) == want
        pid, helper = sampling._HELPER
        assert pid == os.getpid() and helper is not None
        assert threading.active_count() == threads + 1
    finally:
        sampling._stop_helper()
    assert threading.active_count() == threads


def test_concurrent_draws_share_one_helper(monkeypatch):
    # more drawing threads than CPUs, all submitting to the one helper,
    # with blocks of 256 words and a switch interval short enough to
    # interleave the claims: a claim taken twice reads a block twice and
    # leaves another unread, and a stream shared by two threads, or not
    # reset per block, reads a block from the wrong place in the stream.
    # The last block of C(150, 2) = 11,175 words ends partway through a
    # 4-word counter step.
    monkeypatch.setattr(sampling, "_BLOCK", 256)
    monkeypatch.setattr(sampling, "_cpus", lambda: 2)
    monkeypatch.setattr(sampling, "_HELPER", (None, None))
    cases = [_shared_read_case(s, n) for s, n in SHARED_READS + [(2, 150)]]
    matches, streams = {}, {}

    def draw(k):
        mine = matches[k] = []
        for _ in range(2):
            for params, ps, want in cases[k:] + cases[:k]:
                mine.append(sample_coupled(params, ps) == want)
                # a thread makes its stream with its first block: while the
                # helper has read every block of its draws, it has none
                stream = getattr(sampling._LOCAL, "stream", None)
                if stream is not None:
                    streams.setdefault(k, set()).add(stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        sampling._stop_helper()
    assert matches == {k: [True] * (2 * len(cases)) for k in range(4)}
    # a thread that read a block kept one stream across its draws, and no
    # two threads shared one
    assert all(len(mine) == 1 for mine in streams.values())
    assert len(set().union(*streams.values())) == len(streams)


# Each thread reads every draw on one Philox, reset at each block's start.

def test_reused_stream_carries_no_state(monkeypatch):
    # A (multi-block), then B (one block of 11,175 words, which stops 3
    # words into a counter step), then A and B again, all on this thread's
    # stream
    monkeypatch.setattr(sampling, "_helper", lambda: None)
    a, b = _shared_read_case(3, 80), _shared_read_case(2, 150)
    assert math.comb(150, 2) % 4 == 3
    for params, ps, want in (a, b, a, b):
        assert sample_coupled(params, ps) == want
    stream = sampling._LOCAL.stream
    sample_coupled(*a[:2])
    assert sampling._LOCAL.stream is stream


class _Interrupted:
    """Stands in for a thread's Philox: its first `random_raw` reads part
    of what was asked for from the real stream, then raises."""

    def __init__(self, stream):
        self.stream, self.armed = stream, True

    @property
    def state(self):
        return self.stream.state

    @state.setter
    def state(self, value):
        self.stream.state = value

    def random_raw(self, size):
        if self.armed:
            self.armed = False
            self.stream.random_raw(size // 2 | 1)  # odd: stops inside a step
            raise RuntimeError("stream stopped")
        return self.stream.random_raw(size)


@pytest.mark.parametrize("s,n", [(2, 150), (3, 80)])
def test_stream_stopped_midway_then_reset(monkeypatch, s, n):
    monkeypatch.setattr(sampling, "_helper", lambda: None)
    params, ps, want = _shared_read_case(s, n)
    sample_coupled(params, ps)  # so that this thread has its stream
    stopped = _Interrupted(sampling._LOCAL.stream)
    monkeypatch.setattr(sampling._LOCAL, "stream", stopped)
    with pytest.raises(RuntimeError):
        sample_coupled(params, ps)
    assert stopped.stream.state["buffer_pos"] != 4  # left partway through a step
    assert sample_coupled(params, ps) == want
    other, other_ps, other_want = _shared_read_case(3, 120)
    assert sample_coupled(other, other_ps) == other_want
