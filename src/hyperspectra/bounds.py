"""Exact calculators for the zero-one law thresholds and witnesses.

Every value is computed in exact rational arithmetic.  The calculators
come in pairs: a density bound beyond which the law provably holds, and
a constructed witness hypergraph showing the law failing near that
bound.  The near-maximum window (exponents just below s - 1) has its
own interval plus an exceptional-set membership test, a witness family
made of two loose cycles joined by a loose path, and two calculators
for small limit points of the spectrum.

The only float in the module is the Poisson rate for unextendable
copies; everything else stays in ``Fraction``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

from .errors import (CapExceeded, HypothesisViolated, NoSplit,
                     DEFAULT_ENUM_CAP, check_cap)
from .extensions import RootedPair, is_strictly_balanced_pair, pair_density
from .hypergraph import (Hypergraph, _embedding_search, _sparser, density,
                         is_strictly_balanced)


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _exact(alpha) -> Fraction:
    if isinstance(alpha, (Fraction, int)):
        return Fraction(alpha)
    raise TypeError(f"alpha must be an exact rational, got {type(alpha).__name__}")


# ---------------------------------------------------------------------------
# Density bounds flanking the breakpoint where depth-k laws stop holding.

def law_holds_density(s: int, k: int) -> Fraction:
    """Density 1/α above which every depth-k property has a 0/1 limit."""
    _require(s >= 3, "s must be at least 3")
    _require(k >= s + 1, "k must be at least s + 1")
    c = comb(k - 1, s - 1)
    slope = Fraction(s - 1, k - 1)
    return c - 1 - slope + 2 * (1 + slope) / (c + 2)


def law_fails_density(s: int, k: int) -> Fraction:
    """Density bound exceeded by the dense witness construction."""
    _require(s >= 3, "s must be at least 3")
    _require(k >= s + 2, "k must be at least s + 2")
    c = comb(k - 1, s - 1)
    return c - 1 - Fraction(s - 1, k - 1) - Fraction(2, c)


def dense_witness_size(s: int, k: int) -> tuple[int, int]:
    """Closed-form (v, e) of the dense witness, cheap to check before building."""
    _require(s >= 3, "s must be at least 3")
    _require(k >= s + 2, "k must be at least s + 2")
    groups = comb(comb(k - 2, s - 1), 2)
    c = comb(k - 1, s - 1)
    v = (k - 2) + groups * c + groups * c * (c - 1)
    e = groups * c * (comb(k - 2, s - 1) - 2) + groups * c * (c - 1) ** 2
    return v, e


def build_dense_witness(s: int, k: int, cap: Optional[int] = None) -> Hypergraph:
    """Strictly balanced hypergraph whose density beats law_fails_density.

    Layout: a core of k - 2 vertices; one hub vertex per (pair of
    (s-1)-subsets of the core, (s-1)-subset of core+hub slots); one leaf
    per hub and per second subset choice.  Hubs see every core subset
    except their defining pair; leaves see every slot subset except
    their own defining one.  Vertex ids: core first, then hubs, then
    leaves, each block in lexicographic order of its defining indices.
    """
    v_expected, _ = dense_witness_size(s, k)
    limit = 10 ** 4 if cap is None else cap
    if v_expected > limit:
        raise CapExceeded(f"witness needs {v_expected} vertices, cap {limit}")

    core = list(range(k - 2))
    core_subsets = list(combinations(core, s - 1))
    # slot k - 2 stands for the hub vertex of the current group
    slot_subsets = list(combinations(range(k - 1), s - 1))
    bridge_subsets = list(combinations(core, s - 2))
    groups = [(a, b) for a, b in combinations(core_subsets, 2)]

    next_id = k - 2
    hub = {}
    for ab in groups:
        for c_sel in slot_subsets:
            hub[ab + (c_sel,)] = next_id
            next_id += 1
    leaf = {}
    for ab in groups:
        for c_sel in slot_subsets:
            for c_other in slot_subsets:
                if c_other != c_sel:
                    leaf[ab + (c_sel, c_other)] = next_id
                    next_id += 1

    edges = []
    for a, b in groups:
        for c_sel in slot_subsets:
            h = hub[(a, b, c_sel)]
            for sub in core_subsets:
                if sub != a and sub != b:
                    edges.append(sub + (h,))
            for c_other in slot_subsets:
                if c_other == c_sel:
                    continue
                x = leaf[(a, b, c_sel, c_other)]
                for sub in core_subsets:
                    if sub != c_other:
                        edges.append(sub + (x,))
                for sub in bridge_subsets:
                    if sub + (k - 2,) != c_other:
                        edges.append(sub + (h, x))
    return Hypergraph(s, next_id, edges)


# ---------------------------------------------------------------------------
# The window just below s - 1 and its exceptional exponents.

def law_window_near_max(s: int, k: int) -> tuple[Fraction, Fraction]:
    """Open interval of exponents where the law holds off the exceptional set."""
    _require(s >= 2, "s must be at least 2")
    _require(k >= s, "k must be at least s")
    return (s - 1 - Fraction(1, 2 ** (k - s + 1)), Fraction(s - 1))


def in_exceptional_set(alpha, s: int, k: int) -> bool:
    """Exact membership in the excluded exponent set for the window.

    Members have the shape s - 1 - 1/(2^{k-s+1} + a/b) with natural a, b
    and a bounded by 2^{k-s+1}; equivalently the reduced numerator of
    1/(s-1-α) - 2^{k-s+1} is positive and within the bound.
    """
    alpha = _exact(alpha)
    _require(s >= 2, "s must be at least 2")
    _require(k >= s, "k must be at least s")
    if alpha >= s - 1:
        return False
    excess = 1 / (s - 1 - alpha) - 2 ** (k - s + 1)
    if excess <= 0:
        return False
    return excess.numerator <= 2 ** (k - s + 1)


def failure_alpha_near_max(s: int, k: int, a: int) -> Fraction:
    """Exponent inside the window where the law provably fails."""
    _check_near_max_domain(s, k, a)
    return s - 1 - Fraction(1, 2 ** (k - s + 1) + a)


def _check_near_max_domain(s: int, k: int, a: int):
    _require(s >= 3, "s must be at least 3")
    _require(k >= s + 4, "k must be at least s + 4")
    hi = 2 ** (k - s - 2) + 2 ** (k - s - 3) + 1
    _require(1 <= a <= hi, f"a must lie in 1..{hi}")


def split_witness_lengths(s: int, k: int, a: int) -> tuple[int, int, int]:
    """Lexicographically least (even_half, odd_half, path_edges) split.

    The three lengths must satisfy 2·even_half + 2·odd_half + 1 +
    path_edges = 2^{k-s} + a together with the per-part caps; NoSplit
    when the constraint system is infeasible.
    """
    _check_near_max_domain(s, k, a)
    total = 2 ** (k - s) + a
    for a1 in range(2, 2 ** (k - s) + 1):
        for a2 in range(1, min(2 ** (k - s - 4), a1 - 1) + 1):
            a3 = total - 2 * a1 - 2 * a2 - 1
            if 1 <= a3 <= 2 ** (k - s - 2):
                return a1, a2, a3
    raise NoSplit(f"no admissible split of {total} for (s, k, a) = ({s}, {k}, {a})")


def build_two_cycle_witness(s: int, even_half: int, odd_half: int,
                            path_edges: int) -> Hypergraph:
    """Two loose cycles (lengths 2·even_half and 2·odd_half + 1) joined
    by a loose path of path_edges edges between their base vertices.

    Vertex blocks, in order: the even cycle (2·even_half·(s-1) vertices,
    base first), the odd cycle ((2·odd_half+1)·(s-1) vertices, base
    first), then the path interior (path_edges·(s-1) - 1 vertices).
    Total: e·(s-1) - 1 vertices for e = 2·even_half + 2·odd_half + 1 +
    path_edges edges.
    """
    _require(s >= 3, "s must be at least 3")
    _require(even_half >= 2, "even cycle needs half-length at least 2")
    _require(odd_half >= 1, "odd cycle needs half-length at least 1")
    _require(path_edges >= 1, "path needs at least one edge")
    w = s - 1

    def loose_cycle(offset: int, length: int) -> list[tuple[int, ...]]:
        es = []
        for i in range(1, length):
            es.append(tuple(offset + j for j in range((i - 1) * w, i * w + 1)))
        closing = tuple(offset + j for j in range((length - 1) * w, length * w))
        es.append(closing + (offset,))
        return es

    x0 = 0
    y0 = 2 * even_half * w
    z0 = y0 + (2 * odd_half + 1) * w
    n = z0 + path_edges * w - 1
    edges = loose_cycle(x0, 2 * even_half) + loose_cycle(y0, 2 * odd_half + 1)
    if path_edges == 1:
        edges.append((x0,) + tuple(range(z0, z0 + s - 2)) + (y0,))
    else:
        edges.append((x0,) + tuple(range(z0, z0 + w)))
        for i in range(1, path_edges - 1):
            edges.append(tuple(z0 + j for j in range(i * w - 1, (i + 1) * w)))
        edges.append(tuple(z0 + j for j in range((path_edges - 1) * w - 1,
                                                 path_edges * w - 1)) + (y0,))
    return Hypergraph(s, n, edges)


# ---------------------------------------------------------------------------
# Small limit points of the spectrum.

class LimitPoint(NamedTuple):
    alpha: Fraction
    sigma: Fraction
    m: int


def limit_point_alpha(s: int, k: int, j: int) -> LimitPoint:
    """Member of a sequence of spectrum points converging to 1/C(k-11, s-1)."""
    _require(s >= 2, "s must be at least 2")
    _require(k >= max(s + 10, 12), "k must be at least max(s + 10, 12)")
    _require(j >= 1, "j must be at least 1")
    m = j * (k - 10)
    sigma = Fraction(4 * (m ** (m + 1) - m), m - 1)
    base = comb(k - 11, s - 1)
    alpha = Fraction(1, base) + Fraction(k - 10, base) / sigma
    return LimitPoint(alpha, sigma, m)


def limit_base_size(s: int, k: int) -> int:
    """Largest l with C(l, s-1)·(l+2) within the depth-k edge budget C(k, s)."""
    _require((s == 2 and k >= 5) or (s >= 3 and k >= s + 2),
             "need s = 2, k >= 5 or s >= 3, k >= s + 2")
    budget = comb(k, s)
    l = 1
    while comb(l + 1, s - 1) * (l + 3) <= budget:
        l += 1
    return l


def limit_base_size_closed_form(k: int) -> int:
    """Graph-case (s = 2) closed form for limit_base_size.

    l(l+2) <= C(k,2) is (l+1)^2 <= C(k,2) + 1, hence the +1 under the
    root; shifting it to -1 undercounts exactly when C(k,2) or
    C(k,2) + 1 is a perfect square (k = 6, 9, ...).
    """
    _require(k >= 5, "k must be at least 5")
    return math.isqrt(k * (k - 1) // 2 + 1) - 1


def limit_point_family_alpha(s: int, k: int, m: int) -> Fraction:
    """Spectrum point indexed by m, converging to 1/C(l, s-1) as m grows."""
    _require(m >= 1, "m must be at least 1")
    l = limit_base_size(s, k)
    t = k - l - 2
    _require(l - t + m > 0, f"m must exceed {t - l} for the base size l = {l}")
    return Fraction(l + m, (l - t + m) * comb(l, s - 1))


# ---------------------------------------------------------------------------
# Poisson rate for copies that extend to no larger copy.

def root_symmetry_counts(pair: RootedPair,
                         cap: Optional[int] = None) -> tuple[int, int, int]:
    """(aut of the root structure, how many of those extend to the whole,
    aut of the whole fixing every root), by searches over `rest`, the
    whole without its edges inside the roots: a self-map tau of the root
    structure extends iff it keeps those edges and `rest` embeds in the
    whole with the roots sent by tau."""
    g, r = pair.g, pair.roots
    check_cap(g.n, DEFAULT_ENUM_CAP, cap, "map enumeration")
    inside = [e for e in g.edges if e[-1] < r]
    rest = Hypergraph(g.s, g.n, [e for e in g.edges if e[-1] >= r])
    h = _sparser(pair.root_structure)
    taus = _embedding_search(h, h, "collect")
    a1 = sum(1 for tau in taus
             if all(g.has_edge(tau[x] for x in e) for e in inside)
             and _embedding_search(g, rest, "exists", roots=tau))
    a2 = _embedding_search(rest, rest, "count", roots=tuple(range(r)))
    return len(taus), a1, a2


def poisson_rate_from_counts(aut_h: int, a1: int, a2: int) -> float:
    return (1.0 / aut_h) * math.exp(-aut_h / (a1 * a2))


def unextendable_poisson_rate(pair: RootedPair, cap: Optional[int] = None) -> float:
    """Limit rate of root-structure copies contained in no whole-structure copy.

    Hypotheses checked exactly: the root structure is strictly
    balanced, the pair is strictly balanced, and the two densities
    agree.  HypothesisViolated names whichever check fails.
    """
    h = pair.root_structure
    if h.e == 0:
        raise HypothesisViolated("root structure has no edges")
    rho_h = density(h)
    rho_pair = pair_density(pair)
    if rho_h != rho_pair:
        raise HypothesisViolated(
            f"density equality fails: {rho_h} for the root structure, "
            f"{rho_pair} for the pair")
    if not is_strictly_balanced(h):
        raise HypothesisViolated("root structure is not strictly balanced")
    if not is_strictly_balanced_pair(pair):
        raise HypothesisViolated("pair is not strictly balanced")
    aut_h, a1, a2 = root_symmetry_counts(pair, cap=cap)
    return poisson_rate_from_counts(aut_h, a1, a2)


# ---------------------------------------------------------------------------
# Report plumbing for the CLI.

@dataclass(frozen=True)
class BoundReport:
    theorem: int
    parameters: dict
    values: dict
    meaning: str
    witness: Optional[Hypergraph] = field(default=None, compare=False)


def bounds_report(theorem: int, *, s: int, k: int, a: Optional[int] = None,
                  j: Optional[int] = None, m: Optional[int] = None,
                  cap: Optional[int] = None) -> BoundReport:
    """Dispatch a calculator by its published id (6 through 11)."""
    params = {"s": s, "k": k}
    if theorem == 6:
        return BoundReport(6, params, {"threshold": law_holds_density(s, k)},
                           "law-holds-below")
    if theorem == 7:
        witness = build_dense_witness(s, k, cap=cap)
        return BoundReport(7, params, {
            "threshold": law_fails_density(s, k),
            "v": witness.v, "e": witness.e, "rho": density(witness),
        }, "law-fails-at", witness)
    if theorem == 8:
        lo, hi = law_window_near_max(s, k)
        return BoundReport(8, params, {"lower": lo, "upper": hi}, "interval")
    if theorem == 9:
        if a is None:
            raise ValueError("calculator 9 requires parameter a")
        params["a"] = a
        a1, a2, a3 = split_witness_lengths(s, k, a)
        witness = build_two_cycle_witness(s, a1, a2, a3)
        return BoundReport(9, params, {
            "alpha": failure_alpha_near_max(s, k, a),
            "a1": a1, "a2": a2, "a3": a3,
            "v": witness.v, "e": witness.e, "rho": density(witness),
        }, "law-fails-at", witness)
    if theorem == 10:
        if j is None:
            raise ValueError("calculator 10 requires parameter j")
        params["j"] = j
        point = limit_point_alpha(s, k, j)
        return BoundReport(10, params, {
            "alpha": point.alpha, "sigma": point.sigma, "m": point.m,
        }, "limit-point")
    if theorem == 11:
        values = {"l": limit_base_size(s, k)}
        if s == 2:
            values["l_closed_form"] = limit_base_size_closed_form(k)
        if m is not None:
            params["m"] = m
            values["alpha"] = limit_point_family_alpha(s, k, m)
        return BoundReport(11, params, values, "limit-point")
    raise ValueError("theorem id must be one of 6, 7, 8, 9, 10, 11")
