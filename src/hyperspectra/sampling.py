"""Seeded sampling of random s-uniform hypergraphs.

Each potential edge gets one 64-bit word from a counter-based Philox
stream keyed by (seed, trial_index); word r belongs to the edge of colex
rank r.  The edge is kept iff w < ceil(p * 2^53) * 2^11, exactly when
numpy's float64 uniform (w >> 11) * 2^-53 is below p.  Words are compared
in fixed blocks, one block alive per thread, and only the kept ranks are
unranked into vertex sets, so no edge table is built; only the unranking's
binomial columns, s + 1 arrays of n entries, are kept per (n, s).
Thresholding the same words at several probabilities yields nested
(monotone-coupled) samples for free.  The kept rows are sorted
lexicographically once; each host is a mask of them, so it is already in
the constructor's canonical form and is handed over by
`Hypergraph._from_canonical` without a re-sort or re-check.

Each thread reads on one Philox of its own, reset through `.state` (key,
counter, buffer position) to the first word of each block it reads.  A
new Philox per draw costs several times as much as the reset, since
numpy seeds a SeedSequence from OS entropy even when a key replaces it;
the reset sets every field, so nothing read before, in this draw or an
earlier one, carries over.

A draw of more than one block reads its blocks on two threads, the caller
and one helper per process, which claim them in order: Philox is
counter-based, so a thread can reset its stream to any block, and the
draw does not depend on which thread read which block.  The caller never
waits for the helper; it reads again any block the helper has not stored
when none is left to claim.  No helper runs where the process may use one
CPU only, or in one that `multiprocessing` started, such as a pool worker.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import check_budget, DEFAULT_EDGE_BUDGET
from .hypergraph import Hypergraph


def p_from_alpha(n: int, alpha: Fraction | float) -> float:
    """n^{-alpha} via exp(-alpha ln n); relative error well under 1e-12."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a = float(alpha)
    if a <= 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    return math.exp(-a * math.log(n))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one G^s(n, p) draw; p may be given as alpha with p = n^{-alpha}."""

    s: int
    n: int
    p: float | None = None
    alpha: Fraction | None = None
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        if self.s < 2:
            raise ValueError(f"uniformity must be at least 2, got {self.s}")
        if self.n < self.s:
            raise ValueError(f"need n >= s, got n={self.n}, s={self.s}")
        if (self.p is None) == (self.alpha is None):
            raise ValueError("give exactly one of p and alpha")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {self.p}")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")
        if self.trial_index >= 2**64:
            raise ValueError("trial_index must fit in 64 bits")

    @property
    def effective_p(self) -> float:
        if self.p is not None:
            return self.p
        return p_from_alpha(self.n, self.alpha)


_BLOCK = 1 << 16  # stream words read and thresholded at a time


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """Mask of the words whose float64 uniform (w >> 11) * 2^-53 is below p."""
    if p == 1.0:
        return np.ones(len(words), dtype=bool)
    return words < np.uint64(math.ceil(p * 2.0**53) << 11)


@lru_cache(maxsize=32)
def _columns(n: int, s: int) -> tuple[np.ndarray, ...]:
    """Column k (k = 0..s) holds C(m, k) = sum_{j<m} C(j, k-1) for m < n,
    capped at C(n, s) (which no rank reaches) to fit in int64.  The
    arrays are read-only: every draw on (n, s) shares them."""
    cap = comb(n, s)
    cols = [np.ones(n, dtype=np.int64)]
    for _ in range(s):
        cols.append(np.minimum(np.concatenate(([0], np.cumsum(cols[-1][:-1]))), cap))
    for col in cols:
        col.flags.writeable = False
    return tuple(cols)


def _unrank(ranks: np.ndarray, n: int, s: int) -> np.ndarray:
    """Row i = the s-subset x_1 < ... < x_s of range(n) of colex rank ranks[i].

    The rank is sum_k C(x_k, k), so x_k is the largest m with C(m, k) at most
    what remains of it, found by binary search in `_columns(n, s)[k]`.
    """
    cols = _columns(n, s)
    rest = ranks.astype(np.int64)
    out = np.empty((len(ranks), s), dtype=np.int64)
    for k in range(s, 0, -1):
        out[:, k - 1] = x = np.searchsorted(cols[k], rest, side="right") - 1
        rest -= cols[k][x]
    return out


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


_HELPER: tuple = (None, None)  # (pid, its helper pool or None)


def _helper() -> ThreadPoolExecutor | None:
    """This process's one-thread helper pool, made on first use; None where
    the process may run on one CPU only, or where `multiprocessing` started
    it.  Keyed by pid, so a forked child decides for itself."""
    global _HELPER
    pid = os.getpid()
    if _HELPER[0] != pid:
        wanted = _cpus() > 1 and multiprocessing.parent_process() is None
        _HELPER = (pid, ThreadPoolExecutor(1) if wanted else None)
    return _HELPER[1]


def _stop_helper() -> None:
    """Shut this process's helper down, so that a fork copies no running
    thread; the next multi-block draw makes a new one."""
    global _HELPER
    pid, pool = _HELPER
    if pid == os.getpid() and pool is not None:
        pool.shutdown()
    _HELPER = (None, None)


_LOCAL = threading.local()  # .stream: this thread's Philox, made on first use


def _stream(key: list[int], step: int) -> np.random.Philox:
    """This thread's Philox, reset to counter step `step` (4 words each) of
    the stream keyed by `key`: it then reads what `Philox(key=key,
    counter=step)` would.  The reset sets the whole state, buffer position
    included, so nothing read before carries over."""
    stream = getattr(_LOCAL, "stream", None)
    if stream is None:
        stream = _LOCAL.stream = np.random.Philox(0)
    stream.state = {"bit_generator": "Philox", "state": {"counter": [step, 0, 0, 0], "key": key},
                    "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return stream


class _Blocks:
    """The blocks of one draw's stream.  Threads claim them in order under
    a lock and store each block's kept ranks and words by block index."""

    def __init__(self, key: list[int], total: int, top: float):
        self.key, self.total, self.top = key, total, top
        self.kept = [None] * -(-total // _BLOCK)
        self._next = 0
        self._lock = threading.Lock()

    def _claim(self) -> int:
        with self._lock:
            i, self._next = self._next, self._next + 1
        return i

    def read(self) -> None:
        """Read and threshold blocks until none is left to claim."""
        while (i := self._claim()) < len(self.kept):
            self.read_block(i)

    def read_block(self, i: int) -> None:
        """Read and threshold block i on this thread's stream, reset to the
        block's first word.  The block is freed on return, before the next
        is read: with two alive, the heap grows by about 1 MB that is handed
        back after the draw and page-faulted in again on the next one."""
        start = i * _BLOCK
        block = _stream(self.key, start // 4).random_raw(min(_BLOCK, self.total - start))
        keep = np.flatnonzero(_below(block, self.top))
        self.kept[i] = (keep + start, block[keep])


def _read_stream(params: ModelParams, total: int, top: float) -> list[tuple]:
    """The kept (ranks, words) of each block of the draw's stream, in block
    order.  With more than one block, a helper thread claims blocks too.
    The caller never waits for it: a block the helper claimed and has not
    stored by the time no block is left to claim, the caller reads again,
    so a helper that is slow or off CPU costs at most one block.  An error
    the helper has raised by then is re-raised."""
    blocks = _Blocks([params.seed, params.trial_index], total, top)
    helper = _helper() if len(blocks.kept) > 1 else None
    task = helper.submit(blocks.read) if helper is not None else None
    blocks.read()
    for i, kept in enumerate(blocks.kept):
        if kept is None:
            blocks.read_block(i)
    if task is not None and task.done() and task.exception() is not None:
        raise task.exception()
    return blocks.kept


def sample(params: ModelParams, budget: int | None = None) -> Hypergraph:
    """One draw of G^s(n, p): keep each potential edge independently."""
    return sample_coupled(params, [params.effective_p], budget)[0]


def sample_coupled(params: ModelParams, ps, budget: int | None = None) -> list[Hypergraph]:
    """Samples at several probabilities from one word stream.

    The stream is thresholded once, at the largest probability, and the
    kept words are filtered for each smaller one.  The draws are
    monotone-coupled: whenever ps[i] <= ps[j], the i-th edge set is a
    subset of the j-th.  All probabilities 0 (or none given) read no
    stream and skip the budget check.
    """
    ps = list(ps)
    for q in ps:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {q}")
    top = max(ps, default=0.0)
    if top == 0.0:
        return [Hypergraph._from_canonical(params.s, params.n, ()) for _ in ps]
    total = comb(params.n, params.s)
    check_budget(total, DEFAULT_EDGE_BUDGET, budget, "potential edges")
    ranks, words = zip(*_read_stream(params, total, top))
    edges = _unrank(np.concatenate(ranks), params.n, params.s)
    # lexicographic order, first column first; a mask keeps it, so every
    # host below is already sorted, and the top one keeps every row
    order = np.lexsort(edges.T[::-1])
    edges, words = edges[order], np.concatenate(words)[order]
    return [Hypergraph._from_canonical(params.s, params.n, tuple(map(
                tuple, (edges if q == top else edges[_below(words, q)]).tolist())))
            for q in ps]
