"""Monte Carlo harness: estimates, sweeps, count distributions, persistence."""

import json
import math
import multiprocessing
import random
import threading
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from hyperspectra import experiments
from hyperspectra.errors import (BudgetExceeded, CapExceeded, HypothesisViolated,
                                 ParseError)
from hyperspectra.experiments import (
    CSV_FIELDS,
    ExperimentConfig,
    PropertySpec,
    TrialRecord,
    copy_count_distribution,
    count_unextendable_copies,
    estimate_probability,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    sweep_alpha,
    tv_distance_to_poisson,
    unextendable_copy_count,
    wilson_interval,
)
from hyperspectra.extensions import RootedPair
from hyperspectra.hypergraph import Hypergraph, contains_copy, count_copies
from hyperspectra.sampling import ModelParams, sample, sample_coupled

import oracles

LOOSE_PATH = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
TRIANGLE = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
FOUR_CYCLE = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
UNEXT_PAIR = RootedPair(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), 3, [(0, 1, 2)])
TRIVIAL_PAIR = RootedPair(Hypergraph(3, 3, [(0, 1, 2)]), 3, [(0, 1, 2)])


def pattern_cfg(pattern, n, trials, seed, *, alpha=None, p=None, **kw):
    return ExperimentConfig(pattern.s, (n,), PropertySpec("pattern", pattern=pattern),
                            trials, seed, alpha=alpha, p=p, **kw)


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of every worker pool the harness opens."""
    from hyperspectra import experiments
    opened = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    return opened


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=2e-4)
        assert hi == pytest.approx(0.7634, abs=2e-4)

    def test_contains_proportion(self):
        for trials in (1, 7, 40):
            for succ in range(trials + 1):
                lo, hi = wilson_interval(succ, trials)
                assert 0.0 <= lo <= succ / trials <= hi <= 1.0

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == 1.0


class TestTvDistance:
    def test_against_direct_sum(self):
        hist = {0: 50, 1: 30, 2: 20}
        lam = 0.5
        emp = {j: c / 100 for j, c in hist.items()}
        direct = 0.0
        for j in range(60):  # Pois(1/2) mass beyond is far under 1e-12
            pj = math.exp(-lam) * lam ** j / math.factorial(j)
            direct += abs(emp.get(j, 0.0) - pj)
        assert tv_distance_to_poisson(hist, lam) == pytest.approx(direct / 2,
                                                                  abs=1e-12)

    def test_point_mass_at_zero_rate(self):
        assert tv_distance_to_poisson({0: 500}, 0.0) == pytest.approx(0.0)

    def test_empty_histogram(self):
        with pytest.raises(ValueError):
            tv_distance_to_poisson({}, 1.0)


class TestConfig:
    def test_validation(self):
        prop = PropertySpec("builtin", builtin="contains-edge")
        with pytest.raises(ValueError):
            ExperimentConfig(3, (), prop, 10, p=0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(3, (20,), prop, 0, p=0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(3, (20,), prop, 10, alpha=Fraction(2), p=0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(3, (20,), prop, 10)
        with pytest.raises(ValueError):
            ExperimentConfig(3, (20,), prop, 10, p=0.1, jobs=0)

    def test_property_spec_validation(self):
        with pytest.raises(ValueError):
            PropertySpec("surprise")
        with pytest.raises(ValueError):
            PropertySpec("pattern")
        with pytest.raises(ValueError):
            PropertySpec("builtin", builtin="counts-triangles")
        with pytest.raises(ParseError):
            ExperimentConfig(3, (20,), PropertySpec("formula", formula_text="(("),
                             10, p=0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(3, (20,), PropertySpec("pattern", pattern=TRIANGLE),
                             10, p=0.1)

    def test_digest_tracks_content(self):
        prop = PropertySpec("builtin", builtin="contains-edge")
        a = ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1)
        b = ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1)
        c = ExperimentConfig(3, (20,), prop, 10, seed=2, p=0.1)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 64

    def test_budget_enters_the_digest_only_when_set(self):
        prop = PropertySpec("builtin", builtin="contains-edge")
        plain = ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1)
        assert "budget" not in plain.describe()
        assert ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1,
                                budget=None).digest() == plain.digest()
        capped = ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1, budget=5000)
        assert capped.describe() == {**plain.describe(), "budget": 5000}
        assert capped.digest() != plain.digest()
        # the budget reaches the sampler: C(20, 3) = 1140 potential edges
        assert estimate_probability(capped).budget_exceeded == 0
        tight = ExperimentConfig(3, (20,), prop, 10, seed=1, p=0.1, budget=1000)
        assert estimate_probability(tight).budget_exceeded == 10


# a loose triangle: three distinct edges joining x-y, y-z and z-x
LOOSE_TRIANGLE = (
    "(exists x (exists y (exists a (and (N x y a) (exists z (exists b (and (N y z b)"
    " (not (= b x)) (exists c (and (N z x c) (not (= a z)) (not (= c y)))))))))))")


def triangle_cfg(trials, **kw):
    return ExperimentConfig(3, (12,), PropertySpec("formula", formula_text=LOOSE_TRIANGLE),
                            trials, seed=3, p=0.02, **kw)


class TestFormulaProperty:
    def test_outcomes_pinned(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        rep = estimate_probability(triangle_cfg(40, out_path=str(path)))
        _, records = load_jsonl(path)
        outcomes = "".join("1" if r.outcome else "0" for r in records)
        assert outcomes == "1010000010000111000100011010000110011001"
        assert (rep.trials, rep.successes, rep.budget_exceeded) == (40, 15, 0)

    def test_compiled_once_per_run(self, monkeypatch):
        from hyperspectra import experiments
        calls = []
        real = experiments.compile_formula

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(experiments, "compile_formula", counting)
        counts = []
        for trials in (5, 50):
            calls.clear()
            estimate_probability(triangle_cfg(trials))
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1

    @pytest.mark.parametrize("text, names", [
        ("(exists x (or (= x x) (N x y z)))", "y, z"),
        ("(or (= y y) (exists x (= x x)))", "y"),
    ])
    def test_open_formula_rejected(self, text, names):
        prop = PropertySpec("formula", formula_text=text)
        with pytest.raises(ValueError, match=f"^formula has free variables: {names}$"):
            prop.resolve(3)
        with pytest.raises(ValueError, match="free variables"):
            ExperimentConfig(3, (10,), prop, 3, alpha=Fraction(1))


class TestEstimate:
    def test_empty_extremes(self):
        prop = PropertySpec("builtin", builtin="contains-edge")
        rep = estimate_probability(ExperimentConfig(3, (15,), prop, 200, p=0.0))
        assert rep.estimate == 0.0
        assert rep.ci_lo == 0.0 and rep.ci_hi < 5 / 200
        rep = estimate_probability(ExperimentConfig(3, (15,), prop, 50, p=1.0))
        assert rep.estimate == 1.0

    def test_threshold_sides(self):
        # expected copy count of the two-edge path scales like n^{5-2a}
        dilute = estimate_probability(
            pattern_cfg(LOOSE_PATH, 40, 100, 42, alpha=Fraction(3)))
        assert dilute.estimate <= 0.05
        rich = estimate_probability(
            pattern_cfg(LOOSE_PATH, 40, 100, 42, alpha=Fraction(8, 5)))
        assert rich.estimate >= 0.95

    def test_one_cell_only(self):
        prop = PropertySpec("builtin", builtin="contains-edge")
        with pytest.raises(ValueError):
            estimate_probability(ExperimentConfig(3, (10, 20), prop, 5, p=0.5))

    def test_reports_wilson(self):
        rep = estimate_probability(
            pattern_cfg(LOOSE_PATH, 30, 80, 3, alpha=Fraction(5, 2)))
        lo, hi = wilson_interval(rep.successes, rep.trials)
        assert (rep.ci_lo, rep.ci_hi) == (lo, hi)
        assert 0.0 <= rep.ci_lo <= rep.estimate <= rep.ci_hi <= 1.0


class TestSweep:
    GRID = [Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(11, 4),
            Fraction(3)]

    def test_single_alpha_matches_estimate(self):
        cfg = pattern_cfg(LOOSE_PATH, 30, 50, 9, alpha=Fraction(5, 2))
        assert sweep_alpha(cfg) == [estimate_probability(cfg)]

    def test_monotone_under_coupling(self):
        cfg = ExperimentConfig(3, (30, 60),
                               PropertySpec("pattern", pattern=LOOSE_PATH),
                               60, seed=5, alpha=Fraction(2))
        reports = sweep_alpha(cfg, self.GRID)
        assert len(reports) == len(self.GRID) * 2
        for n in (30, 60):
            cell = [r.estimate for r in reports if r.n == n]
            assert cell == sorted(cell, reverse=True)

    def test_rejects_bad_grid(self):
        cfg = pattern_cfg(LOOSE_PATH, 20, 5, 0, alpha=Fraction(2))
        with pytest.raises(ValueError):
            sweep_alpha(cfg, [Fraction(2), Fraction(0)])

    def test_rejects_config_with_p(self, tmp_path):
        # the grid sets every p, so a digest naming the config's p would lie
        out = tmp_path / "sweep.csv"
        cfg = pattern_cfg(LOOSE_PATH, 20, 5, 0, p=0.05, out_path=str(out))
        for grid in (None, [Fraction(2), Fraction(3)]):
            with pytest.raises(ValueError, match="alpha, not p"):
                sweep_alpha(cfg, grid)
        assert not out.exists()

    def test_csv_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = ExperimentConfig(3, (20, 25),
                               PropertySpec("pattern", pattern=LOOSE_PATH),
                               20, seed=5, alpha=Fraction(2), out_path=str(out))
        reports = sweep_alpha(cfg, [Fraction(2), Fraction(5, 2), Fraction(3)])
        digest, rows = load_csv(out)
        assert digest == cfg.digest()
        assert len(rows) == len(reports) == 6
        assert list(rows[0]) == CSV_FIELDS
        assert rows[0]["alpha"] == "2"

    def test_one_pool_per_sweep(self, pools):
        cfg = ExperimentConfig(3, (12, 16), PropertySpec("pattern", pattern=LOOSE_PATH),
                               6, seed=5, alpha=Fraction(2), jobs=2)
        grid = [Fraction(2), Fraction(5, 2), Fraction(3)]
        reports = sweep_alpha(cfg, grid)
        assert pools == [{"max_workers": 2}]
        serial = ExperimentConfig(3, (12, 16), PropertySpec("pattern", pattern=LOOSE_PATH),
                                  6, seed=5, alpha=Fraction(2))
        assert reports == sweep_alpha(serial, grid)


ORACLE_PROPERTIES = [PropertySpec("pattern", pattern=LOOSE_PATH),
                     PropertySpec("builtin", builtin="contains-edge"),
                     PropertySpec("formula", formula_text=LOOSE_TRIANGLE)]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("prop", ORACLE_PROPERTIES, ids=lambda prop: prop.kind)
class TestIndependentCells:
    """Every cell equals the estimate from one fresh `sample` per cell and
    trial: thresholding one draw per trial changes no result."""

    def test_sweep(self, prop, jobs):
        cfg = ExperimentConfig(3, (9, 14), prop, 16, seed=6, alpha=Fraction(2), jobs=jobs)
        grid = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        reports = sweep_alpha(cfg, grid)
        assert reports == oracles.independent_cells(cfg, grid)
        assert any(0 < r.successes < r.trials for r in reports)

    def test_estimate(self, prop, jobs):
        reports = []
        for cfg in (ExperimentConfig(3, (14,), prop, 16, seed=6, alpha=Fraction(3, 2), jobs=jobs),
                    ExperimentConfig(3, (9,), prop, 16, seed=6, p=0.02, jobs=jobs)):
            reports.append(estimate_probability(cfg))
            assert reports[-1:] == oracles.independent_cells(cfg)
        assert any(0 < r.successes < r.trials for r in reports)


class TestBudget:
    """C(400, 3) = 10,586,800 potential edges exceed the sampler's default
    budget of 10^7; C(20, 3) = 1,140 do not."""

    EDGE = PropertySpec("builtin", builtin="contains-edge")

    def test_estimate_counts_every_trial_over_budget(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        rep = estimate_probability(ExperimentConfig(3, (400,), self.EDGE, 5, seed=1,
                                                    alpha=Fraction(2), out_path=str(path)))
        assert (rep.trials, rep.successes, rep.budget_exceeded) == (0, 0, 5)
        assert (rep.estimate, rep.ci_lo, rep.ci_hi) == (0.0, 0.0, 1.0)
        _, records = load_jsonl(path)
        assert [(r.trial_index, r.outcome, r.budget_exceeded) for r in records] == \
            [(t, False, True) for t in range(5)]

    def test_sweep_hits_only_the_large_n(self):
        cfg = ExperimentConfig(3, (400, 20), self.EDGE, 4, seed=1, alpha=Fraction(2))
        reports = sweep_alpha(cfg, [Fraction(2), Fraction(3)])
        assert [(r.n, r.trials, r.budget_exceeded) for r in reports] == \
            [(400, 0, 4), (400, 0, 4), (20, 4, 0), (20, 4, 0)]

    def test_zero_probability_draws_nothing(self):
        rep = estimate_probability(ExperimentConfig(3, (400,), self.EDGE, 5, seed=1, p=0.0))
        assert (rep.trials, rep.successes, rep.budget_exceeded) == (5, 0, 0)

    def test_checker_over_budget(self, monkeypatch):
        # a containment check that runs out on hosts of 3 or more edges:
        # only the dense cells lose trials, and only the trials it ran out on
        from hyperspectra import experiments

        def capped(host, pattern):
            if host.e >= 3:
                raise BudgetExceeded("check over budget")
            return contains_copy(host, pattern)

        cfg = pattern_cfg(LOOSE_PATH, 14, 20, 6, alpha=Fraction(2))
        grid = [Fraction(3, 2), Fraction(2), Fraction(3)]
        want = oracles.independent_cells(cfg, grid)
        monkeypatch.setattr(experiments, "contains_copy", capped)
        reports = sweep_alpha(cfg, grid)
        hosts = [[sample(ModelParams(3, 14, p=r.p, seed=6, trial_index=t)).e
                  for t in range(20)] for r in want]
        assert [r.budget_exceeded for r in reports] == \
            [sum(e >= 3 for e in row) for row in hosts]
        assert reports[0].budget_exceeded > 0 and reports[-1].budget_exceeded == 0
        assert reports[-1] == want[-1]


class TestCopyCounts:
    def test_triangle_poisson_fit(self):
        rep = copy_count_distribution(TRIANGLE, 100, 600, seed=7)
        assert rep.p == pytest.approx(1 / 100)
        assert sum(rep.histograms[0].values()) == 600
        assert rep.rates[0] == pytest.approx(1 / 6)
        assert abs(rep.means[0] - 1 / 6) < 0.07  # 4 sigma at 600 trials
        assert rep.tv_distances[0] < 0.08

    def test_point_mass_without_edges(self):
        rep = copy_count_distribution(TRIANGLE, 60, 40, seed=1, p=0.0)
        assert rep.histograms[0] == {0: 40}

    def test_disjoint_patterns_uncorrelated(self):
        rep = copy_count_distribution([TRIANGLE, FOUR_CYCLE], 100, 600, seed=7)
        ((i, j, r),) = rep.correlations
        assert (i, j) == (0, 1)
        assert abs(r) < 0.15

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_peels_each_host_once(self, monkeypatch, jobs):
        from hyperspectra import hypergraph
        peel = hypergraph._peel
        peels = []

        def counted_peel(*args):
            peels.append(args)
            return peel(*args)

        monkeypatch.setattr(hypergraph, "_peel", counted_peel)
        rep = copy_count_distribution([TRIANGLE, FOUR_CYCLE], 40, 12, seed=3, p=0.1,
                                      jobs=jobs)
        # K3 and C4 share their minimal edge profile (2, 2): one peel per
        # host (the automorphism counts peel small graphs of their own).
        # Worker processes record their peels in their own memory.
        assert sum(1 for _, profiles in peels if profiles == ((2, 2),)) == \
            (12 if jobs == 1 else 0)
        hosts = [sample(ModelParams(2, 40, p=0.1, seed=3, trial_index=t)) for t in range(12)]
        for pattern, hist in zip((TRIANGLE, FOUR_CYCLE), rep.histograms):
            counts = [count_copies(host, pattern) for host in hosts]
            assert hist == {c: counts.count(c) for c in set(counts)}
        assert max(rep.histograms[1]) > 0  # some host holds a 4-cycle

    def test_rejects_unbalanced_pattern(self):
        pendant = Hypergraph(2, 4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        with pytest.raises(HypothesisViolated):
            copy_count_distribution(pendant, 50, 5, seed=0)

    def test_rejects_density_mismatch(self):
        edge = Hypergraph(2, 2, [(0, 1)])
        with pytest.raises(HypothesisViolated):
            copy_count_distribution([TRIANGLE, edge], 50, 5, seed=0)

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            copy_count_distribution([], 50, 5, seed=0)
        with pytest.raises(ValueError):
            copy_count_distribution(
                [TRIANGLE, Hypergraph(3, 4, [(0, 1, 2)])], 50, 5, seed=0)


class TestUnextendable:
    def test_exact_hosts(self):
        one = Hypergraph(3, 6, [(0, 1, 2)])
        assert count_unextendable_copies(one, UNEXT_PAIR) == 1
        disjoint = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert count_unextendable_copies(disjoint, UNEXT_PAIR) == 0
        sharing = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert count_unextendable_copies(sharing, UNEXT_PAIR) == 2
        triple = Hypergraph(3, 9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        assert count_unextendable_copies(triple, UNEXT_PAIR) == 0

    def test_matches_bruteforce(self):
        # root structures with and without edges, pairs whose added part
        # touches the roots or not, s = 2 and s = 3
        pairs = [UNEXT_PAIR,
                 RootedPair(Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]), 3, [(0, 1, 2)]),
                 RootedPair(Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)]), 2),
                 RootedPair(Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 2, [(0, 1)]),
                 RootedPair(Hypergraph(2, 4, [(0, 2), (1, 2), (2, 3)]), 2)]
        rng = random.Random(29)
        unextendable = extendable = 0
        for i in range(50):
            pair = pairs[i % len(pairs)]
            n = rng.randint(pair.g.n, 8)
            host = oracles.random_hypergraph(rng, pair.g.s, n, rng.uniform(0.05, 0.3))
            if i % 2:
                # plant a whole copy, so that some root copies extend
                image = rng.sample(range(n), pair.g.n)
                planted = [tuple(image[x] for x in e) for e in pair.g.edges]
                host = Hypergraph(host.s, n, host.edges + tuple(planted))
            want = oracles.brute_unextendable_copies(host, pair)
            assert count_unextendable_copies(host, pair) == want
            copies = count_copies(host, Hypergraph(host.s, pair.roots, pair.h_edges))
            unextendable += want > 0
            extendable += want < copies
        assert unextendable >= 10 and extendable >= 10

    def test_mixed_hosts_match_bruteforce(self):
        # hosts where some copies of the root edge extend and others do
        # not, so every copy runs its own extension check
        rng = random.Random(31)
        mixed = 0
        for _ in range(40):
            n = rng.randint(7, 9)
            host = oracles.random_hypergraph(rng, 3, n, rng.uniform(0.05, 0.15))
            want = oracles.brute_unextendable_copies(host, UNEXT_PAIR)
            assert count_unextendable_copies(host, UNEXT_PAIR) == want
            mixed += 0 < want < host.e
        assert mixed >= 10

    def test_cap(self):
        host = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert count_unextendable_copies(host, UNEXT_PAIR, cap=3) == 0
        with pytest.raises(CapExceeded, match="extension cap is 2"):
            count_unextendable_copies(host, UNEXT_PAIR, cap=2)

    def test_zero_probability(self):
        rep = unextendable_copy_count(UNEXT_PAIR, 40, 30, seed=2, p=0.0)
        assert rep.histogram == {0: 30}
        assert rep.mean == 0.0

    def test_trivial_pair_counts_nothing(self):
        rep = unextendable_copy_count(TRIVIAL_PAIR, 50, 25, seed=3)
        assert rep.histogram == {0: 25}
        assert rep.rate == 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_histogram_matches_bruteforce(self, jobs):
        rep = unextendable_copy_count(UNEXT_PAIR, 9, 16, seed=4, p=0.06, jobs=jobs)
        hosts = [sample(ModelParams(3, 9, p=0.06, seed=4, trial_index=t)) for t in range(16)]
        counts = [oracles.brute_unextendable_copies(host, UNEXT_PAIR) for host in hosts]
        assert rep.histogram == {c: counts.count(c) for c in set(counts)}
        assert rep.mean == sum(counts) / 16
        assert len(rep.histogram) > 1  # the hosts differ, so the counts are compared

    def test_poisson_rate_tracks_mean(self):
        rep = unextendable_copy_count(UNEXT_PAIR, 60, 300, seed=11)
        assert rep.p == pytest.approx(60 ** -3.0)
        assert rep.rate == pytest.approx(math.exp(-1 / 6) / 6, rel=1e-12)
        assert 0.05 <= rep.mean <= 0.23  # rate 0.141, 4 sigma at 300 trials
        assert sum(rep.histogram.values()) == 300

    def test_hypothesis_failure_propagates(self):
        pendant = RootedPair(
            Hypergraph(2, 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
            3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(HypothesisViolated):
            unextendable_copy_count(pendant, 40, 5, seed=0)


COUNT_STUDIES = {
    "copies": lambda jobs: copy_count_distribution([TRIANGLE, FOUR_CYCLE], 40, 12,
                                                   seed=3, p=0.1, jobs=jobs),
    "unextendable": lambda jobs: unextendable_copy_count(UNEXT_PAIR, 9, 12, seed=4,
                                                         p=0.06, jobs=jobs),
}


class TestCountStudies:
    """What the two count studies share: sizes, worker pools, the budget."""

    @pytest.mark.parametrize("study", COUNT_STUDIES.values(), ids=COUNT_STUDIES)
    def test_one_pool_per_study(self, pools, study):
        assert study(2) == study(1)
        assert pools == [{"max_workers": 2}]

    @pytest.mark.parametrize("call, message", [
        (lambda: copy_count_distribution(TRIANGLE, 30, 0, seed=1), "trials"),
        (lambda: copy_count_distribution(TRIANGLE, 30, -3, seed=1), "trials"),
        (lambda: copy_count_distribution(TRIANGLE, 30, 5, seed=1, jobs=0), "jobs"),
        (lambda: unextendable_copy_count(UNEXT_PAIR, 30, 0, seed=1), "trials"),
        (lambda: unextendable_copy_count(UNEXT_PAIR, 30, 5, seed=1, jobs=0), "jobs"),
        (lambda: unextendable_copy_count(TRIVIAL_PAIR, 50, 0, seed=3), "trials"),
        (lambda: unextendable_copy_count(TRIVIAL_PAIR, 50, -3, seed=3), "trials"),
    ], ids=["copies-zero", "copies-negative", "copies-jobs", "unext-zero", "unext-jobs",
            "trivial-zero", "trivial-negative"])
    def test_rejects_bad_sizes(self, call, message):
        with pytest.raises(ValueError, match=f"^{message} must be at least 1$"):
            call()

    # C(400, 3) = 10,586,800 potential edges exceed the sampler's default
    # budget of 10^7, so every trial runs over it
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_over_budget_raises(self, jobs):
        edge = Hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(BudgetExceeded, match="^5 of 5 trials ran over the budget$"):
            copy_count_distribution(edge, 400, 5, seed=1, jobs=jobs)
        with pytest.raises(BudgetExceeded, match="^4 of 4 trials ran over the budget$"):
            unextendable_copy_count(UNEXT_PAIR, 400, 4, seed=1, jobs=jobs)


class TestPersistence:
    RECORDS = [
        TrialRecord(20, 0.5, 0, True, 0.01, False, Fraction(3, 2)),
        TrialRecord(20, 0.5, 1, False, 0.02, True, Fraction(3, 2)),
        TrialRecord(20, 0.5, 2, 7, 0.00, False, None),
    ]

    def cfg(self, **kw):
        return ExperimentConfig(3, (20,),
                                PropertySpec("builtin", builtin="contains-edge"),
                                3, seed=4, p=0.5, **kw)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        save_jsonl(path, self.cfg(), self.RECORDS)
        header, back = load_jsonl(path)
        assert back == self.RECORDS
        assert header["schema"] == "hyperspectra.trials.v1"
        assert header["digest"] == self.cfg().digest()

    def test_jsonl_header_written_once(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        save_jsonl(path, self.cfg(), self.RECORDS[:1], append=True)
        save_jsonl(path, self.cfg(), self.RECORDS[1:], append=True)
        _, back = load_jsonl(path)
        assert back == self.RECORDS
        assert len(path.read_text().splitlines()) == 1 + len(self.RECORDS)

    def test_jsonl_refuses_append_under_other_digest(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        save_jsonl(path, self.cfg(), self.RECORDS[:1])
        before = path.read_text()
        other = ExperimentConfig(3, (20,),
                                 PropertySpec("builtin", builtin="contains-edge"),
                                 3, seed=5, p=0.5)
        assert other.digest() != self.cfg().digest()
        with pytest.raises(ValueError, match="digest"):
            save_jsonl(path, other, self.RECORDS[1:], append=True)
        assert path.read_text() == before
        # overwriting is still allowed
        save_jsonl(path, other, self.RECORDS[1:])
        header, back = load_jsonl(path)
        assert header["digest"] == other.digest() and back == self.RECORDS[1:]

    def test_jsonl_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "elsewhere.v9"}) + "\n")
        with pytest.raises(ValueError):
            load_jsonl(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(OSError, match="nowhere.jsonl"):
            load_jsonl(tmp_path / "nowhere.jsonl")

    def test_csv_header_schema(self, tmp_path):
        path = tmp_path / "summary.csv"
        cfg = pattern_cfg(LOOSE_PATH, 20, 10, 0, alpha=Fraction(2))
        save_csv(path, cfg.digest(), [estimate_probability(cfg)])
        lines = path.read_text().splitlines()
        assert lines[0] == f"# digest: {cfg.digest()}"
        assert lines[1] == "n,alpha,p,trials,successes,estimate,ci_lo,ci_hi,budget_exceeded"

    def test_csv_refuses_missing_digest_or_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        cfg = pattern_cfg(LOOSE_PATH, 20, 10, 0, alpha=Fraction(2))
        reports = [estimate_probability(cfg)] * 2
        save_csv(path, cfg.digest(), reports)
        digest, rows = load_csv(path)
        assert digest == cfg.digest() and len(rows) == 2
        lines = path.read_text().splitlines(keepends=True)
        # without the digest line the field names would be read as the digest
        path.write_text("".join(lines[1:]))
        with pytest.raises(ValueError, match="summary.csv.*digest"):
            load_csv(path)
        path.write_text(lines[0] + "".join(lines[2:]))
        with pytest.raises(ValueError, match="summary.csv.*header"):
            load_csv(path)

    def test_jsonl_header_not_json_names_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("digest: abc\n")
        with pytest.raises(ValueError, match="bad.jsonl.*not JSON"):
            load_jsonl(path)

    # one line of a record file malformed in each way load_jsonl must name
    HEADER = json.dumps({"schema": "hyperspectra.trials.v1", "digest": "x"})
    RECORD = json.dumps({"n": 20, "p": 0.5, "trial_index": 0, "outcome": True})

    def test_jsonl_header_not_object_names_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1]\n" + self.RECORD + "\n")
        with pytest.raises(ValueError, match="bad.jsonl: header line is not a JSON object"):
            load_jsonl(path)

    def test_jsonl_record_not_json_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        # a blank line still counts toward the line number
        path.write_text(f"{self.HEADER}\n{self.RECORD}\n\n{{oops\n")
        with pytest.raises(ValueError, match="bad.jsonl: line 4 is not JSON"):
            load_jsonl(path)

    def test_jsonl_record_not_object_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{self.HEADER}\n[1]\n")
        with pytest.raises(ValueError, match="bad.jsonl: line 2 is not a JSON object"):
            load_jsonl(path)

    def test_jsonl_record_missing_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = json.loads(self.RECORD)
        del record["p"]
        path.write_text(f"{self.HEADER}\n{self.RECORD}\n{json.dumps(record)}\n")
        with pytest.raises(ValueError, match="bad.jsonl: line 3 lacks field 'p'"):
            load_jsonl(path)

    @pytest.mark.parametrize("header, problem", [("digest: abc", "is not JSON"),
                                                 ("[1]", "is not a JSON object")])
    def test_jsonl_append_to_malformed_header_names_path(self, tmp_path, header, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl: header line {problem}"):
            save_jsonl(path, self.cfg(), self.RECORDS, append=True)
        assert path.read_text() == header + "\n"

    def test_append_refused_before_any_draw(self, tmp_path, monkeypatch):
        path = tmp_path / "trials.jsonl"
        estimate_probability(pattern_cfg(LOOSE_PATH, 25, 5, 8, alpha=Fraction(5, 2),
                                         out_path=str(path)))
        before = path.read_text()
        draws = []
        monkeypatch.setattr(experiments, "sample_coupled",
                            lambda *args: draws.append(args) or sample_coupled(*args))
        other = pattern_cfg(LOOSE_PATH, 25, 6, 8, alpha=Fraction(5, 2), out_path=str(path))
        with pytest.raises(ValueError, match="trials.jsonl: holds records of digest"):
            estimate_probability(other)
        assert not draws and path.read_text() == before
        # the same config still appends, and an empty file takes any config
        estimate_probability(pattern_cfg(LOOSE_PATH, 25, 5, 8, alpha=Fraction(5, 2),
                                         out_path=str(path)))
        assert len(draws) == 5
        path.write_text("")
        estimate_probability(other)
        assert len(draws) == 11 and len(load_jsonl(path)[1]) == 6

    def test_rerun_appends_identical_outcomes(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        cfg = pattern_cfg(LOOSE_PATH, 25, 30, 8, alpha=Fraction(5, 2),
                          out_path=str(path))
        first = estimate_probability(cfg)
        second = estimate_probability(cfg)
        assert first == second
        _, records = load_jsonl(path)
        assert len(records) == 60
        assert records[:30] == records[30:]


def _threads_after_multi_block_draw(trial: int) -> int:
    sample(ModelParams(3, 80, p=0.01, seed=1, trial_index=trial))
    return threading.active_count()


class TestSamplerHelper:
    """Multi-block draws read their blocks on the caller and one helper
    thread, except in the worker processes of a pool."""

    def test_workers_start_no_helper(self, tmp_path):
        # a multi-block draw (C(80, 3) = 82,160 words) first, so that this
        # process has a helper running, where it has more than one CPU
        sample(ModelParams(3, 80, p=0.01, seed=1))
        records = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            estimate_probability(pattern_cfg(LOOSE_PATH, 80, 40, 9, alpha=Fraction(9, 4),
                                             jobs=jobs, out_path=str(path)))
            records.append(load_jsonl(path)[1])
        assert records[0] == records[1]
        assert 0 < sum(r.outcome for r in records[0]) < 40
        with experiments._pool(2) as pool:
            # no helper thread left for the fork to copy
            assert threading.active_count() == 1
            assert list(pool.map(_threads_after_multi_block_draw, range(4))) == [1] * 4

    def test_spawned_workers_start_no_helper(self):
        # the workers of a pool made outside the harness, started afresh
        # rather than forked, decide for themselves
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            assert pool.submit(_threads_after_multi_block_draw, 0).result() == 1


class TestDeterminism:
    def test_jobs_do_not_change_output(self):
        serial = estimate_probability(
            pattern_cfg(LOOSE_PATH, 30, 60, 12, alpha=Fraction(5, 2)))
        parallel = estimate_probability(
            pattern_cfg(LOOSE_PATH, 30, 60, 12, alpha=Fraction(5, 2), jobs=3))
        assert (serial.successes, serial.estimate) == \
            (parallel.successes, parallel.estimate)

    def test_seed_changes_stream(self):
        a = estimate_probability(
            pattern_cfg(LOOSE_PATH, 30, 60, 12, alpha=Fraction(5, 2)))
        b = estimate_probability(
            pattern_cfg(LOOSE_PATH, 30, 60, 13, alpha=Fraction(5, 2)))
        assert a.digest != b.digest
