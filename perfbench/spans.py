"""Span tracing around the package's public functions, from outside the package.

The tracer swaps module attributes for timing wrappers and puts the
originals back on exit.  Only attributes looked up at call time are
seen: ``experiments.sample`` is wrapped where ``experiments`` calls it,
``FlowNetwork.max_flow`` on the class.  Nothing is patched unless a
``Tracer`` is entered, so untraced runs execute the package untouched.
"""
from __future__ import annotations

import json
import time


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent, trial)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.trial = -1
        self.counters: dict[str, float] = {}
        self._undo: list = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a span-recording wrapper; skip if absent."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


def _observe_sample(tracer: Tracer, args, result) -> None:
    # a host is drawn first in each trial: later spans belong to its trial
    tracer.trial = args[0].trial_index
    tracer.count("sampling.hosts")
    tracer.count("sampling.kept_edges", result.e)


def _observe_coupled(tracer: Tracer, args, result) -> None:
    tracer.trial = args[0].trial_index
    tracer.count("sampling.hosts")
    tracer.count("sampling.kept_edges", max((g.e for g in result), default=0))


def _observe_contains(tracer: Tracer, args, result) -> None:
    tracer.count("hypergraph.contains_copy.hits", bool(result))
    tracer.count("hypergraph.contains_copy.host_edges", args[0].e)


def install(tracer: Tracer, mods) -> None:
    """Wrap every boundary the workloads cross, by the layer that owns it."""
    xp, hg, cli = mods.experiments, mods.hypergraph, mods.cli
    # Monte Carlo harness entry points and the layers it calls into
    for attr in ("estimate_probability", "copy_count_distribution",
                 "count_unextendable_copies", "save_jsonl", "save_csv"):
        tracer.wrap(xp, attr, f"experiments.{attr}")
    tracer.wrap(xp, "sample", "sampling.sample", _observe_sample)
    tracer.wrap(xp, "sample_coupled", "sampling.sample_coupled", _observe_coupled)
    tracer.wrap(xp, "contains_copy", "hypergraph.contains_copy", _observe_contains)
    tracer.wrap(xp, "count_copies", "hypergraph.count_copies")
    tracer.wrap(xp, "automorphism_count", "hypergraph.automorphism_count")
    tracer.wrap(xp, "is_strictly_balanced", "hypergraph.is_strictly_balanced")
    tracer.wrap(xp, "strict_extensions", "extensions.strict_extensions")
    tracer.wrap(hg, "count_embeddings", "hypergraph.count_embeddings")
    tracer.wrap(hg, "automorphism_count", "hypergraph.automorphism_count")
    tracer.wrap(mods.maxflow.FlowNetwork, "max_flow", "maxflow.max_flow")
    # the command line: main and the harness call it makes
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "sweep_alpha", "experiments.sweep_alpha")
    # calculators the exact pass calls directly, and their inner calls
    for attr in ("is_strictly_balanced", "max_density", "density"):
        tracer.wrap(hg, attr, f"hypergraph.{attr}")
    for attr in ("classify_pair", "pair_max_density"):
        tracer.wrap(mods.extensions, attr, f"extensions.{attr}")
    tracer.wrap(mods.logic, "evaluate", "logic.evaluate")
    tracer.wrap(mods.game, "solve", "game.solve")
    tracer.wrap(mods.cyclic, "random_family_member", "cyclic.random_family_member")
    tracer.wrap(mods.cyclic, "max_density", "hypergraph.max_density")
    for attr in ("build_dense_witness", "build_two_cycle_witness",
                 "split_witness_lengths", "law_holds_density",
                 "law_fails_density", "limit_base_size"):
        tracer.wrap(mods.bounds, attr, f"bounds.{attr}")
