"""Monte Carlo harness: probability estimates, exponent sweeps, copy-count
distributions, and unextendable-copy counts, with seeded reproducibility.

All four studies run their trials through one runner, `_run_chunk`; a
trial is a pure function of (config, trial index), so worker processes
change no result.  Estimates carry Wilson 95% intervals; count laws are
compared with their Poisson limits by total-variation distance.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Optional, Union

from .bounds import unextendable_poisson_rate
from .errors import BudgetExceeded, HypothesisViolated
from .extensions import RootedPair, _strict_search
from . import hypergraph
from .hypergraph import (Hypergraph, _copies, _embedding_search, automorphism_count,
                         contains_copy, density, is_strictly_balanced)
from .logic import compile_formula, parse, require_closed
from .sampling import ModelParams, _stop_helper, p_from_alpha, sample_coupled

_WILSON_Z = 1.959963984540054  # two-sided 95%

BUILTIN_PROPERTIES = ("contains-edge",)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95%."""
    if trials <= 0:
        return (0.0, 1.0)
    z2 = _WILSON_Z ** 2
    phat = successes / trials
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(
        phat * (1 - phat) / trials + z2 / (4 * trials ** 2)) / denom
    # the boundary endpoints are analytically exact; keep them float-noise free
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def poisson_pmf(lam: float, j: int) -> float:
    out = math.exp(-lam)
    for i in range(1, j + 1):
        out *= lam / i
    return out


def tv_distance_to_poisson(histogram: dict[int, int], lam: float) -> float:
    """Exact TV distance between the empirical law and Pois(lam).

    Sums |empirical - poisson| over the observed support and adds the
    Poisson mass beyond it, halving the total.
    """
    trials = sum(histogram.values())
    if trials == 0:
        raise ValueError("histogram is empty")
    top = max(histogram)
    total = 0.0
    tail = 1.0
    for j in range(top + 1):
        pj = poisson_pmf(lam, j)
        tail -= pj
        total += abs(histogram.get(j, 0) / trials - pj)
    return 0.5 * (total + max(tail, 0.0))


@dataclass(frozen=True)
class PropertySpec:
    """What to test on each sample: a pattern, a sentence, or a builtin."""

    kind: str
    pattern: Optional[Hypergraph] = None
    formula_text: Optional[str] = None
    builtin: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("pattern", "formula", "builtin"):
            raise ValueError(f"unknown property kind {self.kind!r}")
        if self.kind == "pattern" and self.pattern is None:
            raise ValueError("pattern property needs a hypergraph")
        if self.kind == "formula" and not self.formula_text:
            raise ValueError("formula property needs source text")
        if self.kind == "builtin" and self.builtin not in BUILTIN_PROPERTIES:
            raise ValueError(f"builtin must be one of {BUILTIN_PROPERTIES}")

    def resolve(self, s: int):
        """The checker, a predicate on hosts; parse/validation errors surface here."""
        if self.kind == "pattern":
            if self.pattern.s != s:
                raise ValueError("pattern uniformity differs from the model")
            pat = self.pattern
            return lambda g: contains_copy(g, pat)
        if self.kind == "builtin":
            return lambda g: g.e > 0
        return compile_formula(require_closed(parse(self.formula_text, s)), s)

    def describe(self) -> dict:
        if self.kind == "pattern":
            return {"kind": "pattern", "pattern": self.pattern.to_json_dict()}
        if self.kind == "builtin":
            return {"kind": "builtin", "builtin": self.builtin}
        return {"kind": "formula", "formula": self.formula_text}


def _check_sizes(trials: int, jobs: int):
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    s: int
    n_list: tuple[int, ...]
    prop: PropertySpec
    trials: int
    seed: int = 0
    alpha: Optional[Fraction] = None
    p: Optional[float] = None
    out_path: Optional[str] = None
    jobs: int = 1
    budget: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(self.n_list))
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        _check_sizes(self.trials, self.jobs)
        if (self.alpha is None) == (self.p is None):
            raise ValueError("give exactly one of alpha and p")
        self.prop.resolve(self.s)

    def describe(self) -> dict:
        """What the results depend on: everything but `out_path` and `jobs`,
        and the sampler's `budget` only when one is set."""
        doc = {"s": self.s, "n_list": list(self.n_list),
               "alpha": None if self.alpha is None else str(Fraction(self.alpha)),
               "p": self.p, "trials": self.trials, "seed": self.seed,
               "property": self.prop.describe()}
        if self.budget is not None:
            doc["budget"] = self.budget
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    trial_index: int
    outcome: Union[bool, int]
    elapsed: float = field(compare=False, default=0.0)
    budget_exceeded: bool = False
    alpha: Optional[Fraction] = None


@dataclass(frozen=True)
class EstimateReport:
    n: int
    alpha: Optional[Fraction]
    p: float
    trials: int
    successes: int
    estimate: float
    ci_lo: float
    ci_hi: float
    budget_exceeded: int
    digest: str


def _run_chunk(make_value, s: int, seed: int, n: int, ps, budget, indices) -> list[tuple]:
    """One row per trial: (seconds, value at each of ps).

    A trial draws once at max(ps) and applies `make_value()`, built here
    since compiled formulas do not pickle, to that draw thresholded at
    every p; the draw at p keeps exactly the edges `sample` keeps at p.
    A value is None when the draw ran over the sampler's `budget` (its
    default when None) or the value ran over its own budget."""
    value = make_value()
    rows = []
    for t in indices:
        start = time.perf_counter()
        try:
            gs = sample_coupled(ModelParams(s, n, p=max(ps), seed=seed, trial_index=t), ps,
                                budget)
        except BudgetExceeded:
            rows.append((time.perf_counter() - start, [None] * len(ps)))
            continue
        values = []
        for g in gs:
            try:
                values.append(value(g))
            except BudgetExceeded:
                values.append(None)
        rows.append((time.perf_counter() - start, values))
    return rows


def _pool(jobs: int):
    """The worker pool a run shares across its cells: none for one job.
    The workers start no sampler helper thread (see `sampling._helper`);
    this process's helper is shut down first, so that no thread of it
    runs when the workers are forked."""
    if jobs == 1:
        return nullcontext()
    _stop_helper()
    return ProcessPoolExecutor(max_workers=jobs)


def _run_trials(pool, jobs: int, trials: int, *args) -> list[tuple]:
    """`_run_chunk(*args, indices)` over every trial, in trial order: the
    whole range in-process without a pool, else one chunk per worker."""
    if pool is None:
        return _run_chunk(*args, range(trials))
    size = -(-trials // jobs)
    parts = pool.map(partial(_run_chunk, *args),
                     [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)])
    return [row for part in parts for row in part]


def _report(cfg: ExperimentConfig, n: int, alpha, p: float, outcomes) -> EstimateReport:
    done = [o for o in outcomes if o is not None]
    successes = sum(done)
    lo, hi = wilson_interval(successes, len(done))
    return EstimateReport(n, alpha, p, len(done), successes,
                          successes / len(done) if done else 0.0, lo, hi,
                          len(outcomes) - len(done), cfg.digest())


def estimate_probability(cfg: ExperimentConfig) -> EstimateReport:
    """Empirical probability that one (n, p) cell has the property."""
    if len(cfg.n_list) != 1:
        raise ValueError("estimate_probability wants exactly one n; use sweep_alpha")
    n = cfg.n_list[0]
    p = p_from_alpha(n, cfg.alpha) if cfg.p is None else cfg.p
    if cfg.out_path:
        _check_appendable(cfg.out_path, cfg)  # before the first draw, not after the last
    with _pool(cfg.jobs) as pool:
        rows = _run_trials(pool, cfg.jobs, cfg.trials, partial(cfg.prop.resolve, cfg.s),
                           cfg.s, cfg.seed, n, [p], cfg.budget)
    outcomes = [o for _, (o,) in rows]
    if cfg.out_path:
        records = [TrialRecord(n, p, t, bool(o), seconds, o is None, cfg.alpha)
                   for t, (seconds, (o,)) in enumerate(rows)]
        save_jsonl(cfg.out_path, cfg, records, append=True)
    return _report(cfg, n, cfg.alpha, p, outcomes)


def sweep_alpha(cfg: ExperimentConfig, alphas=None) -> list[EstimateReport]:
    """One estimate per (n, alpha) grid cell, coupling trials across alpha.

    Each trial draws once and thresholds that draw at every exponent, so
    containment indicators are non-increasing in alpha within a trial.
    Each cell counts what `estimate_probability` counts at its alpha.  A
    config that sets p is refused: its digest would name a p no cell used.
    """
    if cfg.p is not None:
        raise ValueError("sweep needs a config with alpha, not p")
    alphas = [Fraction(a) for a in ([cfg.alpha] if alphas is None else alphas)]
    for a in alphas:
        if a <= 0:
            raise ValueError(f"grid exponent {a} must be positive")
    reports = []
    with _pool(cfg.jobs) as pool:
        for n in cfg.n_list:
            ps = [p_from_alpha(n, a) for a in alphas]
            rows = _run_trials(pool, cfg.jobs, cfg.trials, partial(cfg.prop.resolve, cfg.s),
                               cfg.s, cfg.seed, n, ps, cfg.budget)
            reports += [_report(cfg, n, a, p, [outcomes[i] for _, outcomes in rows])
                        for i, (a, p) in enumerate(zip(alphas, ps))]
    if cfg.out_path:
        save_csv(cfg.out_path, cfg.digest(), reports)
    return reports


# ---------------------------------------------------------------------------
# Copy-count distributions against their Poisson limits.

@dataclass(frozen=True)
class CopyCountReport:
    n: int
    p: float
    trials: int
    histograms: tuple[dict, ...]
    means: tuple[float, ...]
    rates: tuple[float, ...]
    tv_distances: tuple[float, ...]
    correlations: tuple[tuple[int, int, float], ...]


def _pearson(xs: list[int], ys: list[int]) -> float:
    m = len(xs)
    mx = sum(xs) / m
    my = sum(ys) / m
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return float("nan")
    return cov / math.sqrt(vx * vy)


def _counts(make_count, s: int, n: int, p: float, trials: int, seed: int, jobs: int,
            budget: Optional[int]) -> list:
    """The count `make_count()` gives each trial's draw at p, in trial order.
    The sampler's C(n, s) check, the only budget met, fails all trials alike."""
    with _pool(jobs) as pool:
        rows = _run_trials(pool, jobs, trials, make_count, s, seed, n, [p], budget)
    counts = [c for _, (c,) in rows]
    if None in counts:
        raise BudgetExceeded(f"{counts.count(None)} of {trials} trials ran over the budget")
    return counts


def _fit(counts, lam: float) -> tuple[dict, float, float]:
    """The histogram and mean of counts, and their TV distance to Pois(lam)."""
    hist = dict(Counter(counts))
    return hist, sum(counts) / len(counts), tv_distance_to_poisson(hist, lam)


def _copy_counter(patterns, auts):
    """Per-host copy counts of every pattern; patterns with the same minimal
    profiles share the host's one peel (`Hypergraph.peel_memo`)."""
    def count(host):
        # count_embeddings is looked up on the module, where span tracers wrap it
        return [_copies(hypergraph.count_embeddings(host, g), a)
                for g, a in zip(patterns, auts)]
    return count


def copy_count_distribution(patterns, n: int, trials: int, seed: int,
                            p: Optional[float] = None, jobs: int = 1,
                            budget: Optional[int] = None) -> CopyCountReport:
    """Per-trial copy counts of one or more strictly balanced patterns.

    Defaults p to the pattern's own threshold n^{-v/e}.  Reports the
    empirical histogram, mean, limiting Poisson rate 1/aut, and the TV
    distance to that Poisson law; with several patterns (which must share
    one density) also the pairwise count correlations.  Any `jobs` gives
    the same report; a trial over the sampler's `budget` (its default when
    None) raises BudgetExceeded.
    """
    _check_sizes(trials, jobs)
    if isinstance(patterns, Hypergraph):
        patterns = [patterns]
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    for g in patterns:
        if g.s != patterns[0].s:
            raise ValueError("patterns must share one uniformity")
        if not is_strictly_balanced(g):
            raise HypothesisViolated("pattern is not strictly balanced")
    rho = density(patterns[0])
    for g in patterns[1:]:
        if density(g) != rho:
            raise HypothesisViolated(
                f"patterns must share one density: {density(g)} != {rho}")
    if p is None:
        p = p_from_alpha(n, 1 / rho)
    auts = [automorphism_count(g) for g in patterns]
    counts = list(zip(*_counts(partial(_copy_counter, patterns, auts),
                               patterns[0].s, n, p, trials, seed, jobs, budget)))
    rates = [1.0 / aut for aut in auts]
    histograms, means, tvs = zip(*map(_fit, counts, rates))
    correlations = tuple(
        (i, j, _pearson(counts[i], counts[j]))
        for i in range(len(patterns)) for j in range(i + 1, len(patterns)))
    return CopyCountReport(n, p, trials, histograms, means, tuple(rates), tvs, correlations)


# ---------------------------------------------------------------------------
# Copies of the root structure that no full copy extends.

def count_unextendable_copies(host: Hypergraph, pair: RootedPair,
                              cap: Optional[int] = None) -> int:
    """Copies of the pair's root structure inside no strict extension.

    A copy counts as extendable when at least one of its embeddings
    admits a strict extension of the pair over the embedded root tuple.
    """
    h = pair.root_structure
    status: dict = {}
    for phi in _embedding_search(host, h, "collect"):
        key = (frozenset(phi),
               frozenset(tuple(sorted(phi[v] for v in e)) for e in h.edges))
        if status.get(key):
            continue
        status[key] = bool(_strict_search(host, phi[:pair.roots], pair, "exists", cap))
    return sum(1 for ok in status.values() if not ok)


@dataclass(frozen=True)
class UnextendableReport:
    n: int
    p: float
    trials: int
    histogram: dict
    mean: float
    rate: float
    tv_distance: float


def _unextendable_counter(pair: RootedPair):
    return lambda host: count_unextendable_copies(host, pair)


def unextendable_copy_count(pair: RootedPair, n: int, trials: int, seed: int,
                            p: Optional[float] = None, jobs: int = 1,
                            budget: Optional[int] = None) -> UnextendableReport:
    """Distribution of unextendable root-structure copies in G^s(n, p).

    Validates the limiting-rate hypotheses exactly (strict balance of the
    root structure and of the pair, density equality) and compares the
    counts against the resulting Poisson law; `jobs` and budget as in
    `copy_count_distribution`.

    The trivial pair (whole structure rooted, nothing added) is a
    definitional boundary: every copy contains itself, so the count is 0
    without sampling and the comparison law is the point mass at 0.
    """
    _check_sizes(trials, jobs)
    trivial = pair.v_diff == 0 and not pair.pattern.edges
    rate = 0.0 if trivial else unextendable_poisson_rate(pair)
    if p is None:
        h = pair.root_structure
        if h.e == 0:  # only the trivial pair gets here: the rate needs root edges
            raise ValueError("p required when the root structure has no edges")
        p = p_from_alpha(n, Fraction(h.v, h.e))
    if trivial:
        return UnextendableReport(n, p, trials, {0: trials}, 0.0, 0.0, 0.0)
    counts = _counts(partial(_unextendable_counter, pair),
                     pair.g.s, n, p, trials, seed, jobs, budget)
    hist, mean, tv = _fit(counts, rate)
    return UnextendableReport(n, p, trials, hist, mean, rate, tv)


# ---------------------------------------------------------------------------
# Persistence: JSONL for raw records, CSV for summaries.

JSONL_SCHEMA = "hyperspectra.trials.v1"
# a summary row is its report without the digest, which heads the file
CSV_FIELDS = [f.name for f in fields(EstimateReport) if f.name != "digest"]
_RECORD_FIELDS = fields(TrialRecord)


def _record_to_dict(r: TrialRecord) -> dict:
    doc = {f.name: getattr(r, f.name) for f in _RECORD_FIELDS}
    return {**doc, "alpha": None if r.alpha is None else str(Fraction(r.alpha))}


def _record_from_dict(doc: dict) -> TrialRecord:
    """The record a line holds; KeyError names a missing field without default."""
    kwargs = {f.name: doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
              for f in _RECORD_FIELDS}
    if kwargs["alpha"] is not None:
        kwargs["alpha"] = Fraction(kwargs["alpha"])
    return TrialRecord(**kwargs)


def save_jsonl(path, cfg: ExperimentConfig, records, append: bool = False):
    """Write a header line (schema, config, digest) then one record per line.

    Appending to a non-empty file needs its header's digest to match cfg's;
    otherwise ValueError, so records of different configs never mix.
    """
    if append:
        _check_appendable(path, cfg)
    try:
        with open(path, "a" if append else "w") as fh:
            if not fh.tell():
                header = {"schema": JSONL_SCHEMA, "digest": cfg.digest(),
                          "config": cfg.describe()}
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for r in records:
                fh.write(json.dumps(_record_to_dict(r), sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _check_appendable(path, cfg: ExperimentConfig):
    """ValueError unless the file at path is missing, empty, or headed by
    cfg's digest, so that cfg's records may be appended to it."""
    try:
        with open(path) as fh:
            first = fh.readline()
    except FileNotFoundError:
        return
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if first:
        found = _json_object(path, first, "header line").get("digest")
        if found != cfg.digest():
            raise ValueError(f"{path}: holds records of digest {found}, "
                             f"not {cfg.digest()}; refusing to append")


def _json_object(path, line: str, where: str) -> dict:
    """One line of a record file, which must hold a JSON object."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {where} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    return doc


def load_jsonl(path) -> tuple[dict, list[TrialRecord]]:
    """The header and records of a file `save_jsonl` wrote; ValueError
    naming the path, and the line of a bad record, on malformed input."""
    try:
        with open(path) as fh:
            lines = [(k, line) for k, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path}: empty record file")
    header = _json_object(path, lines[0][1], "header line")
    if header.get("schema") != JSONL_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {header.get('schema')!r}")
    records = []
    for k, line in lines[1:]:
        doc = _json_object(path, line, f"line {k}")
        try:
            records.append(_record_from_dict(doc))
        except KeyError as exc:
            raise ValueError(f"{path}: line {k} lacks field {exc}") from exc
    return header, records


def csv_text(digest: str, reports) -> str:
    """The sweep summary: a digest comment line, then one row per cell."""
    buf = io.StringIO()
    buf.write(f"# digest: {digest}\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for r in reports:
        row = {name: getattr(r, name) for name in CSV_FIELDS}
        row["alpha"] = "" if r.alpha is None else str(Fraction(r.alpha))
        writer.writerow({k: f"{v:.12g}" if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue()


def write_text(path, text: str):
    """Write text to path unchanged (no newline translation)."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def save_csv(path, digest: str, reports):
    write_text(path, csv_text(digest, reports))


def load_csv(path) -> tuple[str, list[dict]]:
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not first.startswith("# digest: "):
        raise ValueError(f"{path}: line 1 lacks the '# digest: ' prefix")
    if reader.fieldnames != CSV_FIELDS:
        raise ValueError(f"{path}: header {reader.fieldnames} is not {CSV_FIELDS}")
    return first.removeprefix("# digest: "), rows
