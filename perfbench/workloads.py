"""The four workloads: what each one runs, and how its answers are checked.

A run repeats *passes*: one call of the public entry point a user would
make (``estimate_probability``, ``cli.main``, ``copy_count_distribution``)
or, for ``exact``, one calculator call.  Passes cycle through ``chunks``.
For the Monte Carlo workloads chunk c is an input set drawn from
``pass_seed(seed, c)`` (chunk 0 uses the seed itself): many chunks average
the cost over many inputs, and repeating each one lets the run take the
median of its repeats.  For ``exact`` chunk c is the c-th calculator
call, so a cycle is one pass over the calculator list.  ``numpy_share``
is the share of a pass's time spent in array code, which weighs the two
reference jobs of ``calibrate.py`` when a pass's time is scaled.

Interface used by ``run.py``: ``prepare(c)`` builds chunk c's inputs
(untimed), ``call()`` is the timed pass, ``result(raw)`` turns its return
value into (failed operations, per-operation seconds or None, output) and
fails the whole pass when a cheap consistency check breaks, ``summary``
picks what is pinned for the default seed, and ``verify`` recomputes the
pass's answers independently.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import reference

N_WINDOW, N_SWEEP, N_POISSON = 120, 80, 150
SWEEP_ALPHAS = "2,9/4,5/2,11/4,3"


def pass_seed(seed: int, chunk: int) -> int:
    return seed + 1_000_003 * chunk


class Window:
    """Gate 3 as scripts/window_scan.py runs it: the 15-vertex two-cycle
    witness at its own exponent 15/8, n=120, records written as JSONL."""

    default_seed = 0
    ops, chunks = 20, 60  # trials per pass, distinct input sets
    numpy_share = 0.4  # of pass time, in the sampler's array code

    def __init__(self, mods, seed: int, workdir):
        self.m, self.seed = mods, seed
        self.pattern = mods.bounds.build_two_cycle_witness(3, 2, 1, 1)
        self.alpha = Fraction(self.pattern.n, self.pattern.e)
        self.prop = mods.experiments.PropertySpec(kind="pattern", pattern=self.pattern)
        self.path = workdir / "window.jsonl"

    def _config(self, seed: int, trials: int, out_path=None):
        return self.m.experiments.ExperimentConfig(
            s=3, n_list=(N_WINDOW,), prop=self.prop, trials=trials, seed=seed,
            alpha=self.alpha, out_path=out_path)

    def warmup(self):
        self.m.experiments.estimate_probability(self._config(self.seed, 1))

    def prepare(self, chunk: int):
        self.cfg = self._config(pass_seed(self.seed, chunk), self.ops, str(self.path))
        self.path.unlink(missing_ok=True)

    def call(self):
        return self.m.experiments.estimate_probability(self.cfg)

    def result(self, rep):
        header, records = self.m.experiments.load_jsonl(self.path)
        readback = (header.get("digest") == self.cfg.digest() == rep.digest
                    and [r.trial_index for r in records] == list(range(self.ops))
                    and all(r.n == N_WINDOW and r.alpha == self.alpha for r in records)
                    and sum(bool(r.outcome) for r in records) == rep.successes
                    and sum(r.budget_exceeded for r in records) == rep.budget_exceeded
                    and rep.trials + rep.budget_exceeded == self.ops)
        output = {"seed": self.cfg.seed, "hits": rep.successes,
                  "outcomes": "".join("1" if r.outcome else "0" for r in records),
                  "config_digest": rep.digest, "readback_ok": readback,
                  "p": repr(records[0].p) if records else None}
        failed = rep.budget_exceeded if readback else self.ops
        return failed, [r.elapsed for r in records], output

    @staticmethod
    def summary(output):
        return {"hits": output["hits"], "outcomes": output["outcomes"],
                "config_digest": output["config_digest"]}

    def verify(self, output):
        problems = [] if output["readback_ok"] else ["JSONL read-back differs from the report"]
        sm = self.m.sampling
        for t, bit in enumerate(output["outcomes"]):
            host = sm.sample(sm.ModelParams(3, N_WINDOW, p=float(output["p"]),
                                            seed=output["seed"], trial_index=t))
            if reference.contains(host.edges, self.pattern.edges) != (bit == "1"):
                problems.append(f"trial {t}: containment disagrees with the reference")
        return problems


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.partition("\n")[2])))


class Sweep:
    """`hyperspectra sweep` in-process: the loose 2-edge path over five
    exponents at n=80, one coupled draw per trial, CSV on stdout and --out."""

    default_seed = 42
    ops, chunks = 25, 8  # trials per pass, each checked at all five exponents
    numpy_share = 0.7

    def __init__(self, mods, seed: int, workdir):
        self.m, self.seed = mods, seed
        self.pattern = mods.hypergraph.Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        pattern_path = workdir / "loose_path.json"
        pattern_path.write_text(self.pattern.to_json())
        self.out_path = workdir / "sweep.csv"
        self.base = ["sweep", "--s", "3", "--n", str(N_SWEEP), "--alphas", SWEEP_ALPHAS,
                     "--pattern", str(pattern_path), "--format", "csv"]

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.m.cli.main(argv)
        return rc, buf.getvalue()

    def warmup(self):
        self._main(self.base + ["--trials", "1", "--seed", str(self.seed)])

    def prepare(self, chunk: int):
        self.pass_seed = pass_seed(self.seed, chunk)
        self.argv = self.base + ["--trials", str(self.ops), "--seed", str(self.pass_seed),
                                 "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)

    def call(self):
        return self._main(self.argv)

    def result(self, raw):
        rc, text = raw
        written = self.out_path.read_bytes().decode() if self.out_path.exists() else None
        rows = _csv_rows(text)
        output = {"seed": self.pass_seed, "rc": rc, "csv": text, "file_matches": written == text}
        successes = [int(r["successes"]) for r in rows]
        ok = (rc == 0 and written == text and len(rows) == 5
              and all(int(r["trials"]) + int(r["budget_exceeded"]) == self.ops for r in rows)
              and successes == sorted(successes, reverse=True))
        failed = max(int(r["budget_exceeded"]) for r in rows) if ok else self.ops
        return failed, None, output

    @staticmethod
    def summary(output):
        return {"csv": output["csv"]}

    def verify(self, output):
        if output["rc"] != 0:
            return [f"sweep exited {output['rc']}"]
        problems = [] if output["file_matches"] else ["--out file differs from stdout"]
        got = [int(r["successes"]) for r in _csv_rows(output["csv"])]
        sm = self.m.sampling
        ps = [sm.p_from_alpha(N_SWEEP, Fraction(a)) for a in SWEEP_ALPHAS.split(",")]
        want = [0] * len(ps)
        for t in range(self.ops):
            hosts = sm.sample_coupled(sm.ModelParams(3, N_SWEEP, p=max(ps), seed=output["seed"],
                                                     trial_index=t), ps)
            for i, g in enumerate(hosts):
                want[i] += reference.has_loose_two_path(g.edges)
        if want != got:
            problems.append(f"cell successes {got}, reference {want}")
        return problems


class Poisson:
    """Gate 2: triangle and 4-cycle copy counts in G(150, 1/150)."""

    default_seed = 7
    ops, chunks = 25, 24  # trials per pass, distinct input sets
    numpy_share = 0.05

    def __init__(self, mods, seed: int, workdir):
        self.m, self.seed = mods, seed
        hg = mods.hypergraph
        self.patterns = [hg.Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]),
                         hg.Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])]

    def _run(self, seed: int, trials: int):
        return self.m.experiments.copy_count_distribution(
            self.patterns, n=N_POISSON, trials=trials, seed=seed, p=1 / N_POISSON)

    def warmup(self):
        self._run(self.seed, 1)

    def prepare(self, chunk: int):
        self.pass_seed = pass_seed(self.seed, chunk)

    def call(self):
        return self._run(self.pass_seed, self.ops)

    def result(self, rep):
        output = {"seed": self.pass_seed,
                  "histograms": [[[c, v] for c, v in sorted(h.items())] for h in rep.histograms],
                  "means": [repr(x) for x in rep.means],
                  "tv": [repr(x) for x in rep.tv_distances],
                  "correlations": [repr(c) for c in rep.correlations]}
        ok = all(sum(h.values()) == self.ops and mean == sum(c * v for c, v in h.items()) / self.ops
                 for h, mean in zip(rep.histograms, rep.means))
        return 0 if ok else self.ops, None, output

    @staticmethod
    def summary(output):
        return {"histograms": output["histograms"], "means": output["means"]}

    def verify(self, output):
        sm = self.m.sampling
        want = [{}, {}]
        for t in range(self.ops):
            host = sm.sample(sm.ModelParams(2, N_POISSON, p=1 / N_POISSON, seed=output["seed"],
                                            trial_index=t))
            for i, c in enumerate(reference.triangles_and_four_cycles(host.n, host.edges)):
                want[i][c] = want[i].get(c, 0) + 1
        got = [dict(h) for h in output["histograms"]]
        return [] if got == want else [f"histograms {got}, reference {want}"]


UNEXT_EDGES = 72            # host of count_unextendable_copies: G^3(60, m)
EVAL_N, EVAL_EDGES = 20, 6  # host of the 5-cycle formula: G^3(20, m)
BOARD_N, BOARD_EDGES = 8, 14
# The game boards and the 5-cycle host do not depend on --seed.  Solving
# time differs up to 2x from one random board to the next, and the
# duplicator game is the pass's median call; the 5-cycle evaluation
# differs by +-20% from host to host and is one of the slowest calls.
# Drawn from the seed, they moved trial_p50_ms and trial_p90_ms by 10-30%.
FIXED_SEED = 700


def _random_hypergraph(mods, rng: random.Random, s: int, n: int, m: int):
    """m distinct edges chosen uniformly: a fixed edge count keeps the cost
    of each calculator call nearly the same from seed to seed."""
    return mods.hypergraph.Hypergraph(
        s, n, rng.sample(list(itertools.combinations(range(n), s)), m))


class Exact:
    """The exact calculators, one call per pass; nothing is sampled while timed.

    A cycle over all chunks is one pass over the calculator list; inputs
    that depend on randomness are drawn once, from the seed, at set-up.
    """

    default_seed = 700
    ops = 1  # calculator calls per pass
    numpy_share = 0.0

    def __init__(self, mods, seed: int, workdir):
        self.m, self.seed = mods, seed
        hg, ex = mods.hypergraph, mods.extensions
        self.window_pair = ex.RootedPair(mods.bounds.build_two_cycle_witness(3, 2, 1, 1), 1)
        self.unext_pair = ex.RootedPair(hg.Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
                                        3, [(0, 1, 2)])
        self.cycle_formula = mods.logic.build_C(2, 3)
        rng = random.Random(seed)
        self.host60 = _random_hypergraph(mods, rng, 3, 60, UNEXT_EDGES)
        rng = random.Random(FIXED_SEED)
        self.host20 = _random_hypergraph(mods, rng, 3, EVAL_N, EVAL_EDGES)
        while True:
            board = _random_hypergraph(mods, rng, 3, BOARD_N, BOARD_EDGES)
            if all(board.degree(x) for x in range(BOARD_N)):
                break
        perm = list(range(BOARD_N))
        rng.shuffle(perm)
        gone = rng.randrange(BOARD_N)
        self.board = board
        # an isomorphic copy: Duplicator wins any number of rounds
        self.twin = hg.Hypergraph(3, BOARD_N, [[perm[x] for x in e] for e in board.edges])
        # an isolated vertex is a depth-3 difference: Spoiler wins in 4 rounds
        self.holed = hg.Hypergraph(3, BOARD_N, [e for e in board.edges if gone not in e])
        self.tasks = self._tasks()
        self.chunks = len(self.tasks)

    def _tasks(self):
        """(label, call, check) triples, in pass order; each check
        accepts the answers that are right for every seed."""
        m = self.m
        hg, bd, ex = m.hypergraph, m.bounds, m.extensions
        ctx = {}

        def dense():
            ctx["dense"] = bd.build_dense_witness(3, 5)
            return f"{ctx['dense'].n},{ctx['dense'].e}"

        def two_cycle():
            w = bd.build_two_cycle_witness(3, *bd.split_witness_lengths(3, 7, 1))
            return f"{hg.is_strictly_balanced(w)},{hg.density(w)}"

        def on_cycles():
            return "".join("1" if m.logic.evaluate(self.host20, self.cycle_formula, {"x1": x})
                           else "0" for x in range(EVAL_N))

        def family():
            # gate 7: every member has 1/rho = 2 or 2 - 1/(m + a/b) with a <= m
            rng = random.Random(self.seed)
            violations, dens = 0, []
            for mm in (2, 3, 4):
                for _ in range(34):
                    g = m.cyclic.random_family_member(3, mm, rng, max_vertices=20)
                    rho = hg.max_density(g)[0]
                    dens.append(str(rho))
                    recip = 1 / rho
                    if recip != 2:
                        tail = 1 / (2 - recip) - mm
                        violations += not (tail >= 0 and tail.numerator <= mm)
            digest = hashlib.sha256(json.dumps(dens).encode()).hexdigest()[:16]
            return f"violations={violations} members={len(dens)} densities={digest}"

        return [
            ("dense_witness", dense, "111,468".__eq__),
            ("dense_balanced", lambda: str(hg.is_strictly_balanced(ctx["dense"])), "True".__eq__),
            ("dense_max_density", lambda: str(hg.max_density(ctx["dense"])[0]), "156/37".__eq__),
            ("law_bounds", lambda: (f"{bd.law_holds_density(3, 4)},{bd.limit_base_size(2, 5)},"
                                    f"{hg.density(ctx['dense']) >= bd.law_fails_density(3, 5)}"),
             "2,2,True".__eq__),
            ("two_cycle_371", two_cycle, "True,17/33".__eq__),
            ("classify_pair", lambda: ex.classify_pair(self.window_pair, Fraction(15, 8)).kind,
             "rigid".__eq__),
            ("pair_max_density", lambda: str(ex.pair_max_density(self.window_pair)), "4/7".__eq__),
            ("unextendable", lambda: str(m.experiments.count_unextendable_copies(
                self.host60, self.unext_pair)),
             lambda a: 0 <= int(a) <= self.host60.e),
            ("on_5_cycle", on_cycles, "00101001000011000110".__eq__),
            ("game_duplicator", lambda: m.game.solve(self.board, self.twin, 4),
             "duplicator".__eq__),
            ("game_spoiler", lambda: m.game.solve(self.board, self.holed, 4), "spoiler".__eq__),
            ("family", family, lambda a: a.startswith("violations=0 members=102 ")),
        ]

    def warmup(self):
        pass

    def prepare(self, chunk: int):
        self.task = self.tasks[chunk]

    def call(self):
        return self.task[1]()

    def result(self, answer):
        label, _, check = self.task
        wrong = check is not None and not check(answer)
        return int(wrong), None, {"task": label, "answer": answer, "wrong": wrong}

    @staticmethod
    def summary(output):
        return {output["task"]: output["answer"]}

    def verify(self, output):
        return [f"unexpected answer {output['answer']!r}"] if output["wrong"] else []


WORKLOADS = {"window": Window, "sweep": Sweep, "poisson": Poisson, "exact": Exact}
