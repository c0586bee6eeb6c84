"""Cyclic extensions and the family they generate.

An extension step attaches, to an existing sub-hypergraph, either a path
of fresh edges closed back onto itself (one anchor), a path between two
anchors, or a single edge through several anchors; the enlarged
hypergraph must stay sparser than m/(m(s-1) - 1) everywhere.  Members of
the family are exactly the hypergraphs reachable from a single vertex by
such steps plus edge-only augmentations under the same density bound.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInFamily, NoWitness, check_cap, DEFAULT_DECOMP_CAP
from .hypergraph import Edge, Hypergraph, max_density, max_density_below

State = tuple[frozenset[int], frozenset[Edge]]


def density_bound(s: int, m: int) -> Fraction:
    """Densities must stay strictly below m/(m(s-1) - 1)."""
    if s < 2 or m * (s - 1) < 2:
        raise ValueError(f"need s >= 2 and m(s-1) >= 2, got m={m}, s={s}")
    return Fraction(m, m * (s - 1) - 1)


@dataclass(frozen=True)
class ExtensionMove:
    """One attachment: the fresh vertices and edges of a single step."""

    case: int  # 1 = closed path from one anchor, 2 = path between two, 3 = one edge
    new_vertices: tuple[int, ...]
    new_edges: tuple[Edge, ...]


def _path_walks(avail_edges: set[Edge], anchors: frozenset[int], k: int):
    """Loose paths of k fresh edges leaving an anchor into fresh vertices.

    Yields (x1, ordered edges, path vertex set without x1, tip candidates).
    Consecutive edges share exactly one vertex; nothing else repeats.
    """
    for first in avail_edges:
        hits = [x for x in first if x in anchors]
        if len(hits) != 1:
            continue
        x1 = hits[0]
        rest = set(first) - {x1}

        def walk(chain: list[Edge], used: set[int], last_joint: int | None):
            if len(chain) == k:
                tips = tuple(sorted(set(chain[-1]) - anchors - {last_joint}
                                    if last_joint is not None
                                    else set(chain[-1]) - anchors))
                yield chain[:], used, x1, tips
                return
            for e in avail_edges:
                if e in chain:
                    continue
                picked = set(e)
                if picked & anchors:
                    continue
                shared = picked & used
                if len(shared) != 1 or not shared <= set(chain[-1]):
                    continue
                joint = next(iter(shared))
                if joint == last_joint:
                    continue
                yield from walk(chain + [e], used | (picked - shared), joint)

        yield from walk([first], rest, None)


def extension_moves(s: int, edges: set[Edge], state: State, m: int):
    """All single cyclic-extension steps available from `state`.

    `edges` is the ambient pool; fresh vertices are whatever the chosen
    edges introduce.  The density bound is not checked here.
    """
    anchors, have = state
    avail = {e for e in edges if e not in have}
    seen: set[tuple] = set()

    # single edge through >= 2 anchors, the rest fresh
    for e in avail:
        inside = sum(1 for x in e if x in anchors)
        if 2 <= inside <= s - 1:
            move = ExtensionMove(3, tuple(x for x in e if x not in anchors), (e,))
            key = (3, move.new_vertices, move.new_edges)
            if key not in seen:
                seen.add(key)
                yield move

    # closed or anchored paths of k fresh edges plus a closing edge
    for k in range(1, m):
        for chain, path_used, x1, tips in _path_walks(avail, anchors, k):
            chain_set = set(chain)
            for closing in avail:
                if closing in chain_set:
                    continue
                picked = set(closing)
                anchor_hits = picked & anchors
                fresh = picked - path_used - anchors
                for tip in tips:
                    if tip not in picked:
                        continue
                    reused = picked & (path_used - {tip})
                    # fresh tail vertices beyond the path: the z part
                    l = len(fresh)
                    if picked != {tip} | reused | fresh | anchor_hits:
                        continue
                    if not anchor_hits and len(reused) == s - 1 - l and l <= s - 2:
                        case = 1
                    elif (len(anchor_hits) == 1 and x1 not in anchor_hits
                          and len(reused) == s - 2 - l and l <= s - 2):
                        case = 2
                    else:
                        continue
                    new_vs = tuple(sorted(path_used | fresh))
                    new_es = tuple(sorted(chain + [closing]))
                    key = (case, new_vs, new_es)
                    if key not in seen:
                        seen.add(key)
                        yield ExtensionMove(case, new_vs, new_es)
                    break  # any admissible tip certifies this closing edge


def m_decomposition(g: Hypergraph, m: int,
                    cap: int | None = None) -> list[tuple[tuple[int, ...], tuple[Edge, ...]]]:
    """A build chain from a single vertex up to g, or NotInFamily.

    Each chain entry is the (vertices, edges) snapshot after one step;
    steps are single cyclic extensions or single-edge augmentations.  The
    density bound only needs checking once on g itself: sub-hypergraph
    densities never exceed the whole's maximum.
    """
    check_cap(g.n, DEFAULT_DECOMP_CAP, cap, "decomposition")
    if g.n == 0:
        raise NotInFamily("the empty hypergraph is not a family member")
    if g.n == 1 and g.e == 0:
        return []
    bound = density_bound(g.s, m)
    if not max_density_below(g, bound):
        raise NotInFamily(f"max density {max_density(g)[0]} is not below {bound}")

    all_edges = set(g.edges)
    target: State = (frozenset(range(g.n)), frozenset(g.edges))
    dead: set[State] = set()

    def search(state: State, trail: list[State]):
        if state == target:
            return trail
        if state in dead:
            return None
        anchors, have = state
        # single-edge augmentation inside current vertices
        for e in sorted(all_edges - have):
            if set(e) <= anchors:
                nxt = (anchors, have | {e})
                got = search(nxt, trail + [nxt])
                if got is not None:
                    return got
        for move in extension_moves(g.s, all_edges, state, m):
            nxt = (anchors | set(move.new_vertices), have | set(move.new_edges))
            got = search(nxt, trail + [nxt])
            if got is not None:
                return got
        dead.add(state)
        return None

    for start in range(g.n):
        first: State = (frozenset([start]), frozenset())
        found = search(first, [])
        if found is not None:
            return [(tuple(sorted(vs)), tuple(sorted(es))) for vs, es in found]
    raise NotInFamily(f"no decomposition chain reaches the target within m={m}")


def random_family_member(s: int, m: int, rng: random.Random,
                         max_vertices: int = 20, attempts: int = 40) -> Hypergraph:
    """Grow a random member by repeatedly applying admissible steps.

    Each step takes the lowest fresh ids, so the member grown so far always
    lives on 0..k-1 and needs no relabeling.  A step is refused by its
    counts, after its last draw and before its edges are built: every
    step edge holds a fresh vertex, so the candidate has e(member) plus
    the step's edges.  Always applies at least one step, so the result
    has edges.
    """
    bound = density_bound(s, m)
    a, b = bound.numerator, bound.denominator
    pool = max_vertices + m * s  # fresh ids a step may draw from
    k = 1
    es: set[Edge] = set()
    member = None

    def fits(new_vertices: int, new_edges: int) -> bool:
        n = k + new_vertices
        return n <= max_vertices and (len(es) + new_edges) * b < a * n

    tried = 0
    while tried < attempts and k < max_vertices:
        tried += 1
        case = rng.choice((1, 2, 3)) if member is not None else 1
        move = _propose(s, m, list(range(k)), list(range(k, pool)), case, rng, fits)
        if move is None:
            continue
        cand_es = es.union(move.new_edges)
        cand = Hypergraph(s, k + len(move.new_vertices), cand_es)
        if max_density_below(cand, bound):
            k, es, member = cand.n, cand_es, cand
    if member is None:
        raise NoWitness(f"no admissible growth step found in {tried} attempts")
    return member


def _propose(s: int, m: int, anchors: list[int], fresh: list[int],
             case: int, rng: random.Random, fits) -> ExtensionMove | None:
    """One random shape-valid candidate step, density unchecked, or None.

    `fits(new vertices, new edges)` is asked after the step's last draw
    and before any of its edges is built; a step it refuses is None.
    """
    if case == 3:
        if s < 3 or len(anchors) < 2:
            return None  # an edge through >= 2 anchors and a fresh vertex needs s >= 3
        l = rng.randint(2, min(s - 1, len(anchors)))
        roots = rng.sample(anchors, l)
        ys = fresh[: s - l]
        if len(ys) < s - l or not fits(s - l, 1):
            return None
        return ExtensionMove(3, tuple(ys), (tuple(sorted(roots + ys)),))
    k = rng.randint(1, m - 1) if m > 1 else None
    if k is None:
        return None
    need = k * (s - 1)
    if len(fresh) < need + s:
        return None
    ys = fresh[:need]
    x1 = rng.choice(anchors)
    ends = [ys[-1]]  # the path's tip, and in case 2 the second anchor
    if case == 2:
        others = [x for x in anchors if x != x1]
        if not others:
            return None
        ends.append(rng.choice(others))
    l = rng.randint(0, s - 2)
    us_need = s - len(ends) - l  # path vertices the closing edge reuses
    if us_need > need - 1:
        return None
    us = rng.sample(ys[:-1], us_need)
    if not fits(need + l, k + 1):
        return None
    chain, prev = [], x1
    for j in range(0, need, s - 1):
        chain.append(tuple(sorted([prev] + ys[j: j + s - 1])))
        prev = ys[j + s - 2]
    closing = tuple(sorted(ends + us + fresh[need: need + l]))
    if closing in chain:  # would dedupe into a pendant path
        return None
    return ExtensionMove(case, tuple(fresh[:need + l]), tuple(chain) + (closing,))
