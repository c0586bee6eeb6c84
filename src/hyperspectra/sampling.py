"""Seeded sampling of random s-uniform hypergraphs.

Each potential edge gets one 64-bit word from a counter-based Philox
stream keyed by (seed, trial_index); word r belongs to the edge of colex
rank r.  The edge is kept iff w < ceil(p * 2^53) * 2^11, exactly when
numpy's float64 uniform (w >> 11) * 2^-53 is below p.  Words are compared
in fixed blocks, one block alive at a time, and only the kept ranks are
unranked into vertex sets, so no edge table is built; only the unranking's
binomial columns, s + 1 arrays of n entries, are kept per (n, s).
Thresholding the same words at several probabilities yields nested
(monotone-coupled) samples for free.
"""
from __future__ import annotations

import math
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
        return [Hypergraph(params.s, params.n, []) for _ in ps]
    total = comb(params.n, params.s)
    check_budget(total, DEFAULT_EDGE_BUDGET, budget, "potential edges")
    stream = np.random.Philox(key=np.array([params.seed, params.trial_index], dtype=np.uint64))
    ranks, words = [], []
    for start in range(0, total, _BLOCK):
        block = stream.random_raw(min(_BLOCK, total - start))
        keep = np.flatnonzero(_below(block, top))
        ranks.append(keep + start)
        words.append(block[keep])
        # free the block before reading the next: with two alive, the heap
        # grows by about 1 MB that is handed back after the draw and
        # page-faulted in again on the next one
        del block
    edges = _unrank(np.concatenate(ranks), params.n, params.s)
    words = np.concatenate(words)
    # the draw at the top probability keeps every word kept so far
    return [Hypergraph(params.s, params.n,
                       (edges if q == top else edges[_below(words, q)]).tolist())
            for q in ps]
