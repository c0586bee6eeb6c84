#!/usr/bin/env python3
"""Write pins.json: each workload's answers on its default seed.

    python3 perfbench/pin.py

Run once per benchmark definition, on a commit whose answers the
independent reference checks accept; the benchmark then fails every
operation of a default-seed run whose answers differ from these.
"""
from __future__ import annotations

import json
import sys

from run import BENCH, OUT, load_package
from workloads import WORKLOADS


def main() -> int:
    OUT.mkdir(exist_ok=True)
    pins = {}
    for name, cls in WORKLOADS.items():
        wl = cls(load_package(), cls.default_seed, OUT)
        summaries = []
        for chunk in range(wl.chunks):
            wl.prepare(chunk)
            failed, _, output = wl.result(wl.call())
            problems = wl.verify(output)
            if failed or problems:
                print(f"{name} chunk {chunk}: not pinned: {failed} failed, {problems}",
                      file=sys.stderr)
                return 1
            summaries.append(wl.summary(output))
        pins[name] = {"seed": cls.default_seed, "summaries": summaries}
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
