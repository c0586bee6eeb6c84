"""Rooted-pair calculus: densities, f_alpha classification and strict
extensions.

A RootedPair is a hypergraph G whose first `roots` vertices form the base
part H.  H's edge set is stored explicitly because the extension
machinery quantifies only over E(G) minus E(H); edges of G inside the
root set need not belong to H.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (DegeneratePair, FormatError, check_cap, DEFAULT_EXTENSION_CAP,
                     DEFAULT_PAIR_CAP)
from .hypergraph import Edge, Hypergraph, _embedding_search, from_json_dict


@dataclass(frozen=True)
class RootedPair:
    """Pair (G, H): vertices 0..roots-1 of g are H, with explicit H-edges."""

    g: Hypergraph
    roots: int
    h_edges: tuple[Edge, ...] = ()

    def __init__(self, g: Hypergraph, roots: int, h_edges=()):
        if not 0 <= roots <= g.n:
            raise ValueError(f"roots must lie in 0..{g.n}, got {roots}")
        canon = set()
        for e in h_edges:
            t = tuple(sorted(e))
            if t not in g.edge_set:
                raise ValueError(f"H-edge {t} is not an edge of G")
            if t[-1] >= roots:
                raise ValueError(f"H-edge {t} leaves the root set 0..{roots - 1}")
            canon.add(t)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "h_edges", tuple(sorted(canon)))

    @property
    def v_diff(self) -> int:
        return self.g.n - self.roots

    @property
    def e_diff(self) -> int:
        return self.g.e - len(self.h_edges)

    @property
    def added_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.roots, self.g.n))

    @cached_property
    def root_structure(self) -> Hypergraph:
        """H as a hypergraph on the roots."""
        return Hypergraph(self.g.s, self.roots, self.h_edges)

    @cached_property
    def pattern(self) -> Hypergraph:
        """G without the H-edges, on all of G's vertices: what an extension places."""
        h = set(self.h_edges)
        return Hypergraph(self.g.s, self.g.n, [e for e in self.g.edges if e not in h])

    def to_json_dict(self) -> dict:
        return {"g": self.g.to_json_dict(), "roots": self.roots,
                "h_edges": [list(e) for e in self.h_edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def pair_from_json_dict(doc: object) -> RootedPair:
    if not isinstance(doc, dict):
        raise FormatError("top level: expected an object")
    for key in ("g", "roots", "h_edges"):
        if key not in doc:
            raise FormatError(f"top level: missing key {key!r}")
    try:
        g = from_json_dict(doc["g"])
    except FormatError as exc:
        raise FormatError(f"g.{exc}") from exc
    roots = doc["roots"]
    if not isinstance(roots, int) or isinstance(roots, bool) or not 0 <= roots <= g.n:
        raise FormatError(f"roots: expected an integer in 0..{g.n}")
    raw = doc["h_edges"]
    if not isinstance(raw, list):
        raise FormatError("h_edges: expected a list")
    h_edges = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in item):
            raise FormatError(f"h_edges[{i}]: expected a list of integers")
        t = tuple(item)
        if tuple(sorted(set(t))) != t:
            raise FormatError(f"h_edges[{i}]: vertices must be strictly ascending")
        if t not in g.edge_set:
            raise FormatError(f"h_edges[{i}]: {list(t)} is not an edge of g")
        if t[-1] >= roots:
            raise FormatError(f"h_edges[{i}]: edge leaves the root set 0..{roots - 1}")
        h_edges.append(t)
    return RootedPair(g, roots, h_edges)


def pair_from_json(text: str) -> RootedPair:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return pair_from_json_dict(doc)


def pair_density(pair: RootedPair) -> Fraction:
    """rho(G, H) = added edges over added vertices, exact."""
    if pair.v_diff == 0:
        raise DegeneratePair("pair adds no vertices, rho(G, H) undefined")
    return Fraction(pair.e_diff, pair.v_diff)


def _intermediate_table(pair: RootedPair, cap: int | None):
    """Size and inside-edge count of every intermediate vertex set, as one
    array; returns it, its distinct (size, inside) pairs ascending, and e1.

    Entry m is W = roots plus each added vertex roots + j with bit j set
    in m: entry 0 is the root set, the last V(G).  It holds |W - roots| *
    e1 + (edges of G inside W), e1 = e(G) + 1.  An edge is the bitmask of
    its added vertices, inside W iff m covers it.  Only counts live in
    arrays; densities and f_alpha are Python integers, which cannot overflow.
    """
    check_cap(pair.v_diff, DEFAULT_PAIR_CAP, cap, "intermediate")
    e1 = pair.g.e + 1
    m = np.arange(1 << pair.v_diff, dtype=np.int64)
    masks = [sum(1 << (x - pair.roots) for x in e if x >= pair.roots) for e in pair.g.edges]
    table = np.full(1, masks.count(0), dtype=np.int64)
    for _ in range(pair.v_diff):
        table = np.concatenate((table, table + e1))
    for f in masks:
        if f:
            table += (m & f) == f
    return table, [divmod(x, e1) for x in np.flatnonzero(np.bincount(table)).tolist()], e1


def pair_max_density(pair: RootedPair, cap: int | None = None) -> Fraction:
    """Max of rho(K, H) over intermediates H < K <= G with added vertices."""
    if pair.v_diff == 0:
        raise DegeneratePair("pair adds no vertices, rho^max(G, H) undefined")
    most = dict(_intermediate_table(pair, cap)[1])  # size -> largest inside
    return max(Fraction(inside - len(pair.h_edges), k) for k, inside in most.items() if k)


def f_alpha(pair: RootedPair, alpha: Fraction) -> Fraction:
    """v(G, H) - alpha * e(G, H), exact."""
    return Fraction(pair.v_diff) - Fraction(alpha) * pair.e_diff


@dataclass(frozen=True)
class PairClass:
    """Classification at a fixed alpha with the deciding intermediate."""

    kind: str  # "safe" | "rigid" | "neutral" | "none"
    witness_vertices: tuple[int, ...]
    witness_value: Fraction


def classify_pair(pair: RootedPair, alpha: Fraction, cap: int | None = None) -> PairClass:
    """Safe, rigid, neutral, or none at this alpha, by exact arithmetic.

    Quantifiers run over induced intermediates only: for each vertex set
    the induced K extremizes both f_alpha(K, H) and f_alpha(G, K), so the
    sub-edge-set choices the definitions allow can never flip an answer.
    Values are integers d * f_alpha, alpha = c/d, one per distinct (size,
    inside) pair; only the reported witness value becomes a Fraction.
    Among tied sets a verdict that minimizes reports the smallest W, one
    that maximizes (rigid, none from f_alpha(G, K)) the largest.
    """
    alpha = Fraction(alpha)
    c, d = alpha.numerator, alpha.denominator
    k, e_h = pair.v_diff, len(pair.h_edges)
    base = tuple(range(pair.roots))
    table, pairs, e1 = _intermediate_table(pair, cap)
    f_kh = {z * e1 + i: d * z - c * (i - e_h) for z, i in pairs}

    def least(lo: int, hi: int, pick) -> tuple[int, tuple[int, ...]]:
        """Least d * f_alpha(K_W, H) over lo <= |W - roots| < hi, and the W
        that pick takes among the sets that reach it."""
        part = {x: v for x, v in f_kh.items() if lo <= x // e1 < hi}
        low = min(part.values())
        ties = np.flatnonzero(np.isin(table, [x for x, v in part.items() if v == low]))
        return low, pick(base + tuple(pair.roots + j for j in range(k) if m >> j & 1)
                         for m in ties.tolist())

    # f_alpha(K, H) runs over H < K <= G: W = roots only when it holds a
    # non-H edge.  f_alpha(G, K) = f_alpha(G, H) - f_alpha(K, H) runs over
    # H <= K < G: |W - roots| < k, or H alone when the pair adds no vertices.
    lo = int(table[0] == e_h)
    if lo <= k and (worst := least(lo, k + 1, min))[0] > 0:
        return PairClass("safe", worst[1], Fraction(worst[0], d))
    f_gh = d * k - c * pair.e_diff
    low, low_w = least(0, k, max) if k else (0, base)
    if f_gh - low < 0:
        return PairClass("rigid", low_w, Fraction(f_gh - low, d))
    whole = f_kh[int(table[-1])] if lo <= k else None
    bad = least(lo, k, min) if lo < k else None
    if whole == 0 and (bad is None or bad[0] > 0):
        return PairClass("neutral", tuple(range(pair.g.n)), Fraction(0))
    # report the inequality that broke the best remaining candidate
    if whole is not None and whole > 0:
        return PairClass("none", bad[1], Fraction(bad[0], d))
    return PairClass("none", low_w, Fraction(f_gh - low, d))


def is_strictly_balanced_pair(pair: RootedPair, cap: int | None = None) -> bool:
    """rho(K, H) < rho(G, H) for every proper intermediate K."""
    rho = pair_density(pair)
    e_h = len(pair.h_edges)
    # rho(K, H) < rho, cross-multiplied, for 0 < |K - roots| < v(G, H)
    return all((inside - e_h) * rho.denominator < rho.numerator * k
               for k, inside in _intermediate_table(pair, cap)[1]
               if 0 < k < pair.v_diff)


def strict_extensions(host: Hypergraph, root_tuple, pair: RootedPair,
                      cap: int | None = None, forbidden=frozenset()) -> list[tuple[int, ...]]:
    """All strict placements of the pair's added part over the given roots.

    A placement maps added vertex (roots + i) to result[i], injectively,
    avoiding roots and `forbidden`.  Strictness is two-sided: every
    pattern edge lands on a host edge, and every host edge inside the
    combined vertex set that touches an added image is such a landing.
    Pattern edges wholly inside the root set can never satisfy the
    second direction, so those pairs admit no extensions at all.
    """
    placements = _strict_search(host, root_tuple, pair, "collect", cap, forbidden)
    return sorted(t[pair.roots:] for t in placements)


def _strict_search(host: Hypergraph, root_tuple, pair: RootedPair, mode: str,
                   cap: int | None = None, forbidden=frozenset()):
    """The matcher behind `strict_extensions`, in `mode` "collect" (full
    image tuples, roots first) or "exists" (0 or 1), after its argument
    and cap checks and its trivial cases."""
    if host.s != pair.g.s:
        raise ValueError("host and pair must share the same uniformity")
    root_tuple = tuple(root_tuple)
    if len(root_tuple) != pair.roots:
        raise ValueError(f"expected {pair.roots} roots, got {len(root_tuple)}")
    if len(set(root_tuple)) != len(root_tuple):
        raise ValueError("root vertices must be distinct")
    for x in root_tuple:
        if not 0 <= x < host.n:
            raise ValueError(f"root {x} outside the host")
    for x in forbidden:
        if not 0 <= x < host.n:
            raise ValueError(f"forbidden vertex {x} outside the host")
    check_cap(pair.v_diff, DEFAULT_EXTENSION_CAP, cap, "extension")

    if any(e[-1] < pair.roots for e in pair.pattern.edges):
        found = []
    elif pair.v_diff == 0:
        found = [root_tuple]
    else:
        return _embedding_search(host, pair.pattern, mode, strict=True,
                                 roots=root_tuple, forbidden=forbidden)
    return found if mode == "collect" else len(found)
