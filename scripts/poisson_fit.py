#!/usr/bin/env python3
"""Compare copy counts of a strictly balanced pattern against Poisson.

At p = n^{-1/rho} the number of copies tends to Pois(1/aut).  For each n
this prints the empirical histogram next to the limit law and the
total-variation gap, which should shrink as n grows.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys

from hyperspectra.experiments import copy_count_distribution, poisson_pmf
from hyperspectra.hypergraph import Hypergraph, automorphism_count, from_json

TRIANGLE = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pattern", type=pathlib.Path,
                    help="pattern hypergraph JSON file (default: triangle)")
    ap.add_argument("--n", type=int, nargs="+", default=[40, 80, 160])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    pattern = from_json(args.pattern.read_text()) if args.pattern else TRIANGLE
    rate = 1 / automorphism_count(pattern)
    print(f"# pattern: v={pattern.n} e={pattern.e}, limit law Pois({rate:g})")

    for n in args.n:
        rep = copy_count_distribution(pattern, n, args.trials, args.seed)
        hist = rep.histograms[0]
        print(f"\nn={n} p={rep.p:.3g} mean={rep.means[0]:.4f} "
              f"tv={rep.tv_distances[0]:.4f}")
        print("copies observed poisson")
        for j in range(max(hist) + 1):
            print(f"{j:6d} {hist.get(j, 0) / args.trials:8.4f} "
                  f"{poisson_pmf(rate, j):7.4f}")
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
