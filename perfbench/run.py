#!/usr/bin/env python3
"""Benchmark of the hyperspectra package: four workloads, one process each.

    python3 perfbench/run.py --workload window --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each run imports the package from ``src/`` of the checkout it sits in,
builds the workload's inputs and warms up, then cycles through the
workload's passes for about ``--seconds`` and checks every answer.
Every time is scaled to a reference speed of the machine, measured next
to it with the fixed jobs of ``calibrate.py``.
``--trace 0`` reports the end-to-end metrics, timing 6 more set-ups in
fresh interpreters along the way; ``--trace 1`` spends half the time
untraced and half with span wrappers installed, and reports per-layer
metrics.  The last stdout line is one JSON object; the full record, with
provenance, goes to ``perfbench/out/``.  NOTES.md defines every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("sampling", "hypergraph", "maxflow", "logic", "extensions", "game",
           "cyclic", "bounds", "experiments", "cli")
SETUP_REPS = 7
SETUP_NUMPY_SHARE = 0.0  # imports and input construction are interpreter work

sys.path[:0] = [str(SRC), str(BENCH)]
import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "trial_p50_ms": "ms",
              "trial_p90_ms": "ms", "calc_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "fraction"}
PER_LAYER = {
    "sampling.sample.s": "s/cycle", "sampling.sample.calls": "1/cycle",
    "sampling.sample_coupled.s": "s/cycle", "sampling.sample_coupled.calls": "1/cycle",
    "sampling.share": "fraction", "sampling.edges_kept_mean": "edges",
    "sampling.us_per_kept_edge": "us/edge",
    "hypergraph.contains_copy.s": "s/cycle", "hypergraph.contains_copy.calls": "1/cycle",
    "hypergraph.contains_copy.hit_ratio": "fraction",
    "hypergraph.contains_copy.share": "fraction", "hypergraph.host_edges_mean": "edges",
    "hypergraph.count_embeddings.s": "s/cycle", "hypergraph.count_embeddings.calls": "1/cycle",
    "hypergraph.count_embeddings.share": "fraction",
    "hypergraph.automorphism_count.s": "s/cycle",
    "hypergraph.automorphism_count.calls": "1/cycle",
    "hypergraph.is_strictly_balanced.s": "s/cycle", "hypergraph.max_density.s": "s/cycle",
    "maxflow.max_flow.s": "s/cycle", "maxflow.max_flow.calls": "1/cycle",
    "extensions.classify_pair.s": "s/cycle", "extensions.pair_max_density.s": "s/cycle",
    "extensions.strict_extensions.s": "s/cycle", "extensions.strict_extensions.calls": "1/cycle",
    "experiments.count_unextendable_copies.s": "s/cycle",
    "logic.evaluate.s": "s/cycle", "logic.evaluate.calls": "1/cycle",
    "game.solve.s": "s/cycle", "cyclic.random_family_member.s": "s/cycle", "bounds.s": "s/cycle",
    "experiments.self_s": "s/cycle", "experiments.save_jsonl.s": "s/cycle",
    "cli.self_s": "s/cycle", "trace.overhead_frac": "fraction",
}


def load_package():
    """Import the package's modules from this checkout's src/."""
    mods = types.SimpleNamespace(**{
        name: importlib.import_module(f"hyperspectra.{name}") for name in MODULES})
    for mod in vars(mods).values():
        if SRC not in Path(mod.__file__).resolve().parents:
            raise RuntimeError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return mods


def set_up(name: str, seed: int):
    """Import the package, build the workload's inputs and warm it up.

    Returns the set-up's wall time, the reference jobs' times around it
    (three runs before, three after), the modules and the workload.  numpy
    is imported before timing, with the reference job: it is a dependency,
    not part of the program.
    """
    calibrate.job_seconds()  # a fresh interpreter runs it slower the first time
    jobs = [calibrate.job_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    mods = load_package()
    wl = WORKLOADS[name](mods, seed, OUT)
    wl.warmup()
    wall = time.perf_counter() - t0
    jobs += [calibrate.job_seconds() for _ in range(3)]
    return wall, jobs, mods, wl


def set_up_elsewhere(name: str, seed: int) -> tuple[float, list]:
    """Set-up time in a fresh interpreter, as a user's script pays it,
    and the reference jobs' times around it."""
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(run.set_up(sys.argv[2], int(sys.argv[3]))[:2]))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), name, str(seed)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    wall, jobs = json.loads(proc.stdout)
    return wall, jobs


def _read_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperspectra").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _read_commit(), "source_sha256": digest.hexdigest(),
            "seed": seed, "loadavg_start": _loadavg()}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def reference_jobs(seconds: float) -> list:
    """The reference jobs' times, about one run per 0.1 s of the pass
    they stand next to, and 1 to 4 runs."""
    return [calibrate.job_seconds() for _ in range(min(4, max(1, round(seconds / 0.1))))]


def one_pass(wl, chunk: int, jobs_before: list, verify: bool) -> dict:
    """Time one pass, then, untimed, run the reference jobs after it and,
    if `verify`, recompute its answers independently."""
    wl.prepare(chunk)
    t0 = time.perf_counter()
    try:
        raw = wl.call()
        wall = time.perf_counter() - t0
        failed, latencies, output = wl.result(raw)
    except Exception as exc:  # keep measuring; the pass counts as failed
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        failed, latencies, output = wl.ops, None, {"error": f"{type(exc).__name__}: {exc}"}
    jobs = [jobs_before, reference_jobs(wall)]
    problems = []
    if "error" in output:
        problems.append(output["error"])
    elif verify:
        try:
            problems = wl.verify(output)
        except Exception as exc:  # the recomputation calls the package too
            problems = [f"checking raised {type(exc).__name__}: {exc}"]
    return {"chunk": chunk, "wall": wall, "jobs": jobs, "ops": wl.ops, "failed": failed,
            "latencies": latencies, "output": output, "digest": _sha(output),
            "problems": problems}


def run_passes(wl, passes: list, deadline: float, min_passes: int = 0,
               whole_cycles: bool = False) -> None:
    """Append passes to `passes`, chunk after chunk in turn, until about
    `deadline`, and at least until `passes` holds `min_passes`.

    Each chunk's first pass is also verified, so a run's first cycle
    takes longer.  A pass starts only if one as long as the last ends
    before the deadline; with `whole_cycles` the check is made once per
    cycle, against the last cycle's length.
    """
    jobs, last = None, 0.0
    while True:
        chunk = len(passes) % wl.chunks
        now = time.perf_counter()
        if len(passes) >= min_passes and (not whole_cycles or chunk == 0) and now + last > deadline:
            return
        if chunk == 0:
            cycle_start = now
        if jobs is None:
            jobs = reference_jobs(last)
        verify = len(passes) < wl.chunks
        passes.append(one_pass(wl, chunk, jobs, verify))
        # a verification stands between this pass and the next one
        jobs = None if verify else passes[-1]["jobs"][1]
        if not whole_cycles:
            last = time.perf_counter() - now
        elif chunk == wl.chunks - 1:
            last = time.perf_counter() - cycle_start


def scaled_times(passes, numpy_share: float) -> tuple[list[float], list[float]]:
    """Median scaled time of each chunk over its repeats, and of each
    operation inside it.

    On a shared machine the same work can take up to 1.8 times as long
    for seconds or minutes at a time; scaling each pass by the reference
    jobs' times next to it takes that drift out (see calibrate.py), and
    the median over repeats takes out what is left of short bursts.
    """
    by_chunk: dict[int, list[dict]] = {}
    for p in passes:
        by_chunk.setdefault(p["chunk"], []).append(p)
    chunk_times, op_times = [], []
    for reps in by_chunk.values():
        factors = [calibrate.slowdown(p["jobs"][0] + p["jobs"][1], numpy_share) for p in reps]
        mid = statistics.median(p["wall"] / f for p, f in zip(reps, factors))
        chunk_times.append(mid)
        lists = [[x / f for x in p["latencies"]] for p, f in zip(reps, factors) if p["latencies"]]
        if lists and len({len(x) for x in lists}) == 1:
            op_times += [statistics.median(column) for column in zip(*lists)]
        else:
            op_times.append(mid / reps[0]["ops"])
    return chunk_times, op_times


def layer_metrics(tracer, passes, untraced, chunks: int, numpy_share: float) -> dict:
    """Per-layer figures of the traced passes, per cycle over all chunks.

    Times are divided by the median slowdown of the traced passes, as the
    end-to-end times are (see scaled_times); shares and counts are not.
    """
    totals, counters = tracer.totals(), tracer.counters
    wall = sum(p["wall"] for p in passes)
    slow = statistics.median(calibrate.slowdown(p["jobs"][0] + p["jobs"][1], numpy_share)
                             for p in passes)
    cycles = len(passes) / chunks
    per = cycles * slow  # seconds per cycle, at the reference speed

    def tot(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    sampling_s = tot("sampling.sample") + tot("sampling.sample_coupled")
    kept = counters.get("sampling.kept_edges", 0)
    contains_calls = tot("hypergraph.contains_copy", "calls")
    out = {}
    for name in ("sampling.sample", "sampling.sample_coupled", "hypergraph.contains_copy",
                 "hypergraph.count_embeddings", "hypergraph.automorphism_count",
                 "maxflow.max_flow", "extensions.strict_extensions", "logic.evaluate"):
        out[f"{name}.s"] = tot(name) / per
        out[f"{name}.calls"] = tot(name, "calls") / cycles
    for name in ("hypergraph.is_strictly_balanced", "hypergraph.max_density",
                 "extensions.classify_pair", "extensions.pair_max_density",
                 "experiments.count_unextendable_copies", "game.solve",
                 "cyclic.random_family_member", "experiments.save_jsonl"):
        out[f"{name}.s"] = tot(name) / per
    out["sampling.share"] = sampling_s / wall
    out["sampling.edges_kept_mean"] = kept / max(counters.get("sampling.hosts", 0), 1)
    out["sampling.us_per_kept_edge"] = sampling_s * 1e6 / slow / kept if kept else 0.0
    out["hypergraph.contains_copy.hit_ratio"] = (
        counters.get("hypergraph.contains_copy.hits", 0) / max(contains_calls, 1))
    out["hypergraph.contains_copy.share"] = tot("hypergraph.contains_copy") / wall
    out["hypergraph.host_edges_mean"] = (
        counters.get("hypergraph.contains_copy.host_edges", 0) / max(contains_calls, 1))
    out["hypergraph.count_embeddings.share"] = tot("hypergraph.count_embeddings") / wall
    out["bounds.s"] = sum(row["s"] for name, row in totals.items()
                          if name.startswith("bounds.")) / per
    out["experiments.self_s"] = sum(row["self_s"] for name, row in totals.items()
                                    if name.startswith("experiments.")) / per
    out["cli.self_s"] = tot("cli.main", "self_s") / per
    out["trace.overhead_frac"] = (sum(scaled_times(passes, numpy_share)[0])
                                  / sum(scaled_times(untraced, numpy_share)[0]) - 1)
    return {name: out[name] for name in PER_LAYER}


def check(name, wl, seed, passes, pins) -> tuple[list[str], str]:
    """Problems found in the run's answers, and a digest of all of them.

    Every repeat of a chunk must give the same answers, every chunk must
    have matched the independent recomputation (made on its first pass),
    and on the default seed every chunk must match the pinned values.
    """
    problems, firsts = [], {}
    for p in passes:
        first = firsts.setdefault(p["chunk"], p)
        if p["digest"] != first["digest"]:
            problems.append(f"chunk {p['chunk']} gave different answers when repeated")
        problems += [f"chunk {p['chunk']}: {msg}" for msg in p["problems"]]
    summaries = [p["output"] if "error" in p["output"] else wl.summary(p["output"])
                 for _, p in sorted(firsts.items())]
    pin = pins.get(name)
    # compared as JSON, the form pins.json keeps them in
    if (pin is not None and seed == pin["seed"]
            and json.loads(json.dumps(summaries)) != pin["summaries"]):
        problems.append("answers differ from the values pinned for the default seed")
    return problems, _sha(summaries)


def run(name: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    prov = provenance(seed)
    OUT.mkdir(exist_ok=True)
    first_wall, first_jobs, mods, wl = set_up(name, seed)
    start = time.perf_counter()
    passes: list[dict] = []
    if trace:
        # whole cycles in each half, so that per-cycle figures count every chunk
        run_passes(wl, passes, start + seconds / 2, wl.chunks, whole_cycles=True)
        untraced = passes[:]
        with spans.Tracer() as tracer:
            spans.install(tracer, mods)
            run_passes(wl, passes, start + seconds, len(passes) + wl.chunks, whole_cycles=True)
        measured = passes[len(untraced):]
    else:
        # the other set-ups run in fresh processes between stretches of passes,
        # so that they meet the machine at as many moments as the passes do
        setups = [(first_wall, first_jobs)]
        for rep in range(1, SETUP_REPS + 1):
            run_passes(wl, passes, start + seconds * rep / SETUP_REPS,
                       wl.chunks if rep == SETUP_REPS else 0)
            if rep < SETUP_REPS:
                setups.append(set_up_elsewhere(name, seed))

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems, digest = check(name, wl, seed, passes, pins)
    if problems:
        failed = attempted
    if trace:
        metrics = layer_metrics(tracer, measured, untraced, wl.chunks, wl.numpy_share)
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
        units = PER_LAYER
    else:
        chunk_times, latencies = scaled_times(passes, wl.numpy_share)
        cuts = statistics.quantiles(latencies, n=10, method="inclusive") \
            if len(latencies) > 1 else latencies * 9
        metrics = {
            "setup_s": statistics.median(wall / calibrate.slowdown(jobs, SETUP_NUMPY_SHARE)
                                         for wall, jobs in setups),
            "trials_per_s": wl.ops * len(chunk_times) / sum(chunk_times),
            "trial_p50_ms": statistics.median(latencies) * 1e3,
            "trial_p90_ms": cuts[8] * 1e3,
            "calc_s": sum(chunk_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END
    prov["loadavg_end"] = _loadavg()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": prov, "setups_wall_and_reference_s": None if trace else setups, "passes": len(passes),
        "reference_s": [calibrate.REFERENCE_PYTHON_S, calibrate.REFERENCE_NUMPY_S],
        "numpy_share": wl.numpy_share,
        "passes_chunk_wall_jobs_latencies": [[p["chunk"], p["wall"], p["jobs"], p["latencies"]]
                                             for p in passes],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "output_sha256": digest,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record: dict) -> None:
    name = record["workload"]
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"# PROBLEM {name}: {problem}")
    print(f"# {name} seed={record['seed']} passes={record['passes']} "
          f"output_sha256={record['output_sha256']}")
    print(f"{name} fail_frac = {record['fail_frac']!r} "
          f"({record['failed']} of {record['attempted']} operations)")
    for key, m in record["metrics"].items():
        print(f"{name} {key} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not record["problems"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def run_all(seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; defaults to the workload's gate seed")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hyperspectra" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {SRC / 'hyperspectra'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        if args.seed is not None:
            ap.error("--workload all runs every workload at its default seed")
        return run_all(args.seconds, args.trace)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    pins = json.loads((BENCH / "pins.json").read_text())
    report(run(args.workload, seed, args.seconds, bool(args.trace), pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
