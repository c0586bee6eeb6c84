#!/usr/bin/env python3
"""Watch a two-cycle witness hold its containment probability away from 0/1.

A strictly balanced witness sampled at its own density exponent alpha = v/e
keeps an expected copy count of 1/aut at every n, so the containment
probability converges to 1 - exp(-1/aut) instead of a zero-one limit.
Convergence is slow; this scans n to watch the plateau form.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from hyperspectra.bounds import build_two_cycle_witness
from hyperspectra.experiments import (ExperimentConfig, PropertySpec,
                                      estimate_probability)
from hyperspectra.hypergraph import automorphism_count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=int, default=3)
    ap.add_argument("--even-half", type=int, default=2)
    ap.add_argument("--odd-half", type=int, default=1)
    ap.add_argument("--path-edges", type=int, default=1)
    ap.add_argument("--n", type=int, nargs="+", default=[40, 60, 90, 135])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="append per-trial records as JSONL, one file "
                    "per n (OUT with -n<n> before its suffix)")
    args = ap.parse_args(argv)

    w = build_two_cycle_witness(args.s, args.even_half, args.odd_half,
                                args.path_edges)
    alpha = Fraction(w.n, w.e)
    aut = automorphism_count(w, cap=w.n)
    print(f"# witness: v={w.n} e={w.e}, alpha={alpha}, "
          f"limit 1-exp(-1/{aut}) = {1 - math.exp(-1 / aut):.4f}")
    print("n estimate ci_lo ci_hi")
    for n in args.n:
        # each n is its own config, and a JSONL file holds one config's records
        out_path = None
        if args.out:
            out = Path(args.out)
            out_path = str(out.with_name(f"{out.stem}-n{n}{out.suffix}"))
        cfg = ExperimentConfig(s=args.s, n_list=(n,),
                               prop=PropertySpec(kind="pattern", pattern=w),
                               trials=args.trials, seed=args.seed, alpha=alpha,
                               out_path=out_path)
        try:
            r = estimate_probability(cfg)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{n} {r.estimate:.4f} {r.ci_lo:.4f} {r.ci_hi:.4f}")
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
