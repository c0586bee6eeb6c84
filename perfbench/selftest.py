#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for one cycle on its default seed, untraced and
traced, and checks that every metric BENCHMARK.json names comes out with
its unit and that nothing fails.  Then corrupts each workload's pinned
answers and checks that every operation of the run counts as failed, and
checks that the benchmark refuses to run without the package's sources.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

from run import BENCH, END_TO_END, OUT, PER_LAYER, ROOT, run
from workloads import WORKLOADS

SMOKE_SECONDS = 0.01  # every run still makes one whole cycle


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    errors = []
    pins = json.loads((BENCH / "pins.json").read_text())
    for kind, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if _declared(kind) != ours:
            errors.append(f"BENCHMARK.json {kind} differs from run.py")
    for name, cls in WORKLOADS.items():
        for trace, want in ((False, END_TO_END), (True, PER_LAYER)):
            rec = run(name, cls.default_seed, SMOKE_SECONDS, trace, pins)
            got = {k: m["unit"] for k, m in rec["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={trace}: metrics {sorted(got)}")
            if rec["problems"] or rec["failed"]:
                errors.append(f"{name} trace={trace}: {rec['failed']} failed, {rec['problems']}")
        bad = copy.deepcopy(pins)
        summary = bad[name]["summaries"][-1]
        summary[sorted(summary)[0]] = "corrupted"
        rec = run(name, cls.default_seed, SMOKE_SECONDS, False, bad)
        if rec["fail_frac"] != 1 or rec["metrics"]["ok_frac"]["value"] != 0:
            errors.append(f"{name}: a corrupted pin gave fail_frac {rec['fail_frac']}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "window",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without src/ the benchmark exited {proc.returncode}: {proc.stdout!r}")

    for line in errors:
        print(f"FAIL {line}")
    print("selftest", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
