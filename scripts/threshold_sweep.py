#!/usr/bin/env python3
"""Estimate a pattern's appearance probability across its threshold.

The exponent grid is centered at 1/rho_max(pattern), where the appearance
probability of the pattern jumps between 1 and 0; sampling is coupled
across the grid, so each trial contributes a monotone indicator row.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys
from fractions import Fraction

from hyperspectra.experiments import (ExperimentConfig, PropertySpec,
                                      sweep_alpha)
from hyperspectra.hypergraph import Hypergraph, from_json, max_density

LOOSE_PATH = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pattern", type=pathlib.Path,
                    help="pattern hypergraph JSON file "
                         "(default: 3-uniform loose 2-edge path)")
    ap.add_argument("--n", type=int, nargs="+", default=[20, 40, 80])
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=9,
                    help="grid size; odd keeps the threshold itself on the grid")
    ap.add_argument("--margin", type=Fraction, default=Fraction(1),
                    help="half-width of the exponent grid, e.g. 3/4")
    ap.add_argument("--out", type=pathlib.Path, help="also write the grid as CSV")
    args = ap.parse_args(argv)

    pattern = from_json(args.pattern.read_text()) if args.pattern else LOOSE_PATH
    threshold = 1 / max_density(pattern)[0]
    lo = threshold - args.margin
    if lo <= 0:
        lo = threshold / 2  # exponents must stay positive
    step = (threshold + args.margin - lo) / (args.points - 1)
    grid = [lo + i * step for i in range(args.points)]

    cfg = ExperimentConfig(s=pattern.s, n_list=tuple(args.n),
                           prop=PropertySpec(kind="pattern", pattern=pattern),
                           trials=args.trials, seed=args.seed, alpha=threshold,
                           out_path=str(args.out) if args.out else None)
    reports = sweep_alpha(cfg, alphas=grid)

    print(f"# pattern: v={pattern.n} e={pattern.e}, threshold exponent {threshold}")
    print("n alpha estimate ci_lo ci_hi")
    for r in reports:
        print(f"{r.n} {r.alpha} {r.estimate:.4f} {r.ci_lo:.4f} {r.ci_hi:.4f}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (say `| head`): stop quietly, and send the
        # rest of stdout to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
