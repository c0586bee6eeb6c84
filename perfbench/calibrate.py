"""Fixed reference jobs that measure how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts: the
same work can take 1.8 times as long for seconds or minutes at a time,
and the process's CPU time drifts with it, so the cause is not time
stolen from the process but a slower CPU.  The two jobs here never
change and call nothing of the package.  ``python_job`` is interpreter
work (backtracking over tuples, sets and dicts, Fraction arithmetic);
``numpy_job`` is array work like the sampler's.  The interpreter and
array code do not slow by the same factor, so a workload weighs them by
its share of time in array code, ``w``:

    slowdown = (1 - w) * python time / REFERENCE_PYTHON_S
               + w * numpy time / REFERENCE_NUMPY_S
    scaled time = measured time / slowdown

is the time the measured call would have taken on the VM when it ran
fast.  A change to the package moves the measured time and not the
jobs, so it shows in full in the scaled time.
"""
from __future__ import annotations

import itertools
import random
import statistics
import time
from fractions import Fraction

import numpy as np

# the two reference jobs' times on a 2-vCPU Intel Xeon VM at 2.1 GHz in a calm stretch
REFERENCE_PYTHON_S = 0.0055
REFERENCE_NUMPY_S = 0.0030

_rng = random.Random(20240601)
_VERTICES = 28
_EDGES = [tuple(sorted(_rng.sample(range(_VERTICES), 3))) for _ in range(16)]
_PATTERN = [(0, 1, 2), (2, 3, 4), (4, 5, 0)]


def _embeddings(edges, pattern):
    """Count injective maps of `pattern` into `edges` by backtracking."""
    edge_set = set(edges)
    by_vertex: dict[int, list[tuple]] = {}
    for e in edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    found = 0

    def extend(i, phi):
        nonlocal found
        if i == len(pattern):
            found += 1
            return
        pe = pattern[i]
        anchors = [phi[x] for x in pe if x in phi]
        candidates = by_vertex.get(anchors[0], ()) if anchors else edges
        for he in candidates:
            for image in itertools.permutations(he):
                new = dict(phi)
                ok = True
                for x, y in zip(pe, image):
                    if new.get(x, y) != y or (x not in new and y in new.values()):
                        ok = False
                        break
                    new[x] = y
                if ok and tuple(sorted(new[x] for x in pe)) in edge_set:
                    extend(i + 1, new)

    extend(0, {})
    return found


def python_job() -> int:
    """Interpreter-bound reference work: backtracking and Fraction arithmetic."""
    total = _embeddings(_EDGES, _PATTERN)
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k % 7 + 1, k + 3)
    return total + acc.numerator % 97


# small, so that the reference work adds little to the run's peak memory
_TABLE = np.arange(3 * 50_000, dtype=np.int64).reshape(-1, 3)


def numpy_job() -> int:
    """Array-bound reference work, as the sampler does it: Philox streams
    of uniforms thresholded into row selections of a fixed index table."""
    kept = 0
    for stream in range(6):
        gen = np.random.Generator(np.random.Philox(key=np.array([7, stream], dtype=np.uint64)))
        kept += len(_TABLE[gen.random(len(_TABLE)) < 0.002].tolist())
    return kept


def job_seconds() -> tuple[float, float]:
    """Time of the interpreter-bound and of the array-bound reference work."""
    t0 = time.perf_counter()
    python_job()
    t1 = time.perf_counter()
    numpy_job()
    return t1 - t0, time.perf_counter() - t1


def slowdown(jobs, numpy_share: float) -> float:
    """How many times slower than the reference machine this one ran
    during `jobs`, a list of `job_seconds()` results, for work that spends
    `numpy_share` of its time in array code and the rest in the interpreter.
    The median over the jobs, so that one burst does not count."""
    return statistics.median((1 - numpy_share) * py / REFERENCE_PYTHON_S
                             + numpy_share * arr / REFERENCE_NUMPY_S for py, arr in jobs)
