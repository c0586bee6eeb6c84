"""Uniform hypergraphs with exact rational density machinery.

Vertices are dense 0-based ids.  Edges are s-element subsets stored as
sorted tuples; the edge list itself is sorted and deduplicated, so equal
hypergraphs compare and hash equal.  All densities are `fractions.Fraction`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial, perm
from operator import ge
from typing import NamedTuple

from .errors import FormatError, check_cap, DEFAULT_ENUM_CAP
from .maxflow import FlowNetwork

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """An s-uniform hypergraph on vertex set {0, ..., n-1}."""

    s: int
    n: int
    edges: tuple[Edge, ...]

    def __init__(self, s: int, n: int, edges=()):
        if s < 2:
            raise ValueError(f"uniformity must be at least 2, got {s}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != s or len(set(t)) != s:
                raise ValueError(f"edge {tuple(e)} is not a set of {s} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} has vertices outside 0..{n - 1}")
            canon.add(t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def v(self) -> int:
        return self.n

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[Edge, ...], ...]:
        """incident[x] = edges containing x."""
        by_vertex: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for x in e:
                by_vertex[x].append(e)
        return tuple(tuple(b) for b in by_vertex)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """neighbors[x] = vertices sharing an edge with x (x excluded)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            for x in e:
                adj[x].update(e)
        return tuple(frozenset(a - {x}) for x, a in enumerate(adj))

    @cached_property
    def link(self) -> dict[frozenset[int], tuple[int, ...]]:
        """link[R] = the vertices z with R + {z} an edge, for each (s-1)-set
        R inside an edge.  They come out ascending without a sort: the
        sorted edge list meets R + {z} in increasing z."""
        links: dict[frozenset[int], list[int]] = {}
        for e in self.edges:
            for z in e:
                links.setdefault(frozenset(e) - {z}, []).append(z)
        return {r: tuple(zs) for r, zs in links.items()}

    @cached_property
    def peel_memo(self) -> dict[tuple, list[Edge]]:
        """The edges `_peel` keeps for each minimal-profile set searched on
        this host without forbidden vertices; filled by `_embedding_search`."""
        return {}

    def degree(self, x: int) -> int:
        return len(self.incident[x])

    def has_edge(self, vertices) -> bool:
        t = tuple(sorted(vertices))
        return len(set(t)) == self.s and t in self.edge_set

    def induced(self, vertices) -> "Hypergraph":
        """Sub-hypergraph on the given vertices, relabeled to 0..|W|-1."""
        w = sorted(set(vertices))
        if not w:
            raise ValueError("induced subhypergraph needs a nonempty vertex set")
        if w[0] < 0 or w[-1] >= self.n:
            raise ValueError(f"vertices {w} not all inside 0..{self.n - 1}")
        pos = {x: i for i, x in enumerate(w)}
        keep = set(w)
        edges = [tuple(pos[x] for x in e) for e in self.edges if keep.issuperset(e)]
        return Hypergraph(self.s, len(w), edges)

    def edges_inside(self, vertices) -> int:
        keep = set(vertices)
        return sum(1 for e in self.edges if keep.issuperset(e))

    def to_json_dict(self) -> dict:
        return {"s": self.s, "n": self.n, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def from_json_dict(doc: object) -> Hypergraph:
    """Parse the interchange dict; violations get positional messages."""
    if not isinstance(doc, dict):
        raise FormatError("top level: expected an object")
    for key in ("s", "n", "edges"):
        if key not in doc:
            raise FormatError(f"top level: missing key {key!r}")
    s, n, edges = doc["s"], doc["n"], doc["edges"]
    if not isinstance(s, int) or isinstance(s, bool) or s < 2:
        raise FormatError("s: expected an integer >= 2")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError("n: expected a nonnegative integer")
    if not isinstance(edges, list):
        raise FormatError("edges: expected a list")
    seen: list[Edge] = []
    for i, raw in enumerate(edges):
        if not isinstance(raw, list):
            raise FormatError(f"edges[{i}]: expected a list")
        if len(raw) != s:
            raise FormatError(f"edges[{i}]: expected {s} vertices, got {len(raw)}")
        for j, x in enumerate(raw):
            if not isinstance(x, int) or isinstance(x, bool):
                raise FormatError(f"edges[{i}][{j}]: expected an integer")
            if not 0 <= x < n:
                raise FormatError(f"edges[{i}][{j}]: vertex {x} outside 0..{n - 1}")
        t = tuple(raw)
        if list(t) != sorted(set(t)):
            raise FormatError(f"edges[{i}]: vertices must be strictly ascending")
        if seen and t <= seen[-1]:
            msg = "duplicate edge" if t == seen[-1] or t in seen else "edges not sorted"
            raise FormatError(f"edges[{i}]: {msg}")
        seen.append(t)
    return Hypergraph(s, n, seen)


def from_json(text: str) -> Hypergraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)


def density(g: Hypergraph) -> Fraction:
    """e(G)/v(G), exact."""
    if g.n == 0:
        raise ValueError("density undefined on the empty vertex set")
    return Fraction(g.e, g.n)


def _density_flow(g: Hypergraph, q: Fraction) -> tuple[FlowNetwork, bool]:
    """Max-flow on the densest-subset network at q = a/b (Goldberg 1984).

    Node 0 is the source, 1 the sink, 2 + i edge i and 2 + e(G) + x
    vertex x: source -> edge with capacity b, edge -> its vertices
    unbounded, vertex -> sink with capacity a.  Cutting off vertex set W
    costs b * (e(G) - e(W)) + a * |W|, so the flow falls short of
    b * e(G) iff some nonempty W has e(W)/|W| > q.  Returns the network
    after the flow and whether it fell short.

    Each edge first sends its b units straight into its vertices' spare
    sink capacity, first come first served; Dinic augments the rest.
    Which maximum flow comes out does not matter: the residual graph of
    every maximum flow has the same closed sets, the minimum cuts
    (Picard & Queyranne 1980).
    """
    a, b = q.numerator, q.denominator
    net = FlowNetwork(2 + g.e + g.n)
    vnode = 2 + g.e
    inf = b * g.e + a * g.n + 1
    spare = [a] * g.n
    for i, e in enumerate(g.edges):
        left = b
        for x in e:
            give = min(left, spare[x])
            spare[x] -= give
            left -= give
            net.add_edge(2 + i, vnode + x, inf, give)
        net.add_edge(0, 2 + i, b, b - left)
    for x in range(g.n):
        net.add_edge(vnode + x, 1, a, a - spare[x])
    return net, net.max_flow(0, 1) < b * g.e


def max_density(g: Hypergraph) -> tuple[Fraction, tuple[int, ...]]:
    """Max of e(W)/|W| over nonempty W, with a maximizing witness.

    Exact: repeatedly takes a strictly denser subset from the source side
    of a minimum cut and re-measures it with integer arithmetic.
    """
    if g.n == 0:
        raise ValueError("max_density undefined on the empty vertex set")
    if g.e == 0:
        return Fraction(0), (0,)
    best = density(g)
    witness = tuple(range(g.n))
    while True:
        net, short = _density_flow(g, best)
        if not short:
            return best, witness
        side = net.reachable(0)
        w = tuple(x for x in range(g.n) if 2 + g.e + x in side)
        got = Fraction(g.edges_inside(w), len(w))
        assert got > best, "min-cut oracle returned a non-improving subset"
        best, witness = got, w


def is_strictly_balanced(g: Hypergraph) -> bool:
    """True iff every proper nonempty W has e(W)/|W| < e(G)/v(G).

    One max-flow at q = rho(G).  If it falls short, some W is denser.
    Otherwise W = {} and W = V are both minimum cuts, so every source and
    sink arc is saturated, and the minimum cuts are exactly the closed
    node sets of the residual graph (Picard & Queyranne 1980).  A proper
    nonempty closed set of edge and vertex nodes is a proper W with
    e(W)/|W| = rho(G); there is none iff those nodes are strongly connected.
    """
    if g.e == 0:
        raise ValueError("strict balance undefined without edges")
    net, short = _density_flow(g, density(g))
    if short:
        return False
    # s has no residual arc out and t none in, so paths through them
    # connect nothing extra among the middle nodes
    middle = range(2, 2 + g.e + g.n)
    return (net.reachable(2).issuperset(middle)
            and net.reachable(2, backward=True).issuperset(middle))


def max_density_below(g: Hypergraph, q: Fraction) -> bool:
    """True iff every nonempty W has e(W)/|W| < q; the same answer as
    max_density(g)[0] < q, from the counts e(g), v(g) when W = V(g)
    already reaches q, and from one max-flow at q otherwise.

    If the flow falls short, some W is denser than q.  Otherwise every
    source arc is saturated, and a nonempty W with e(W)/|W| = q is the
    vertex part of a minimum cut, that is of a closed residual set
    without the sink: there is one iff some vertex node cannot reach the
    sink in the residual graph.
    """
    if g.n == 0:
        raise ValueError("max_density undefined on the empty vertex set")
    if q <= 0:
        return False  # every W has e(W)/|W| >= 0
    if g.e * q.denominator >= q.numerator * g.n:
        return False  # W = V(g) already reaches q
    net, short = _density_flow(g, q)
    if short:
        return False
    return net.reachable(1, backward=True).issuperset(range(2 + g.e, 2 + g.e + g.n))


def _complement(g: Hypergraph) -> Hypergraph:
    full = combinations(range(g.n), g.s)
    return Hypergraph(g.s, g.n, [e for e in full if e not in g.edge_set])


def _sparser(g: Hypergraph) -> Hypergraph:
    """g or its complement, whichever has fewer edges: same automorphisms."""
    return _complement(g) if g.e > comb(g.n, g.s) // 2 else g


def automorphism_count(g: Hypergraph, cap: int | None = None) -> int:
    """Number of edge-preserving vertex permutations, by pruned search.

    Isolated vertices permute freely.  The core's automorphisms are its
    embeddings into itself: an injective edge-preserving self-map of a
    finite hypergraph is onto its vertices and its edges.
    """
    check_cap(g.n, DEFAULT_ENUM_CAP, cap, "automorphism search")
    core_verts = [x for x in range(g.n) if g.degree(x) > 0]
    if not core_verts:
        return factorial(g.n)
    core = _sparser(g.induced(core_verts))
    return factorial(g.n - len(core_verts)) * _embedding_search(core, core, "count")


class _SearchPlan(NamedTuple):
    """The pattern's half of an embedding search; see `_search_plan`."""

    degrees: tuple[int, ...]
    loose: tuple[int, ...]  # vertices in no edge and not roots, placed last
    profiles: tuple[tuple[int, ...], ...]  # minimal edge profiles, for peeling
    # per step: (placed vertices of the edge, new vertices, edges to check
    # as each new vertex lands, the edge's profile if it starts a component)
    steps: tuple[tuple, ...]


@lru_cache(maxsize=256)
def _search_plan(pattern: Hypergraph, roots: int = 0) -> _SearchPlan:
    """Edge order, checks and degree profiles, computed once per pattern.

    Vertices 0..roots-1 count as placed from the start.  An edge's
    profile is the sorted degrees of its vertices.  Each component starts
    at its most degree-constrained edge.  After that the edge with the
    most vertices already placed goes next; among those, the one whose
    new vertices lie fewest hops from the placed ones without it, so the
    shortest cycle through the placed part closes (and can fail) first
    (the connectivity order of RI, Bonnici et al. 2013).  An edge whose
    vertices all land before its turn is checked when its last vertex
    lands and gets no step of its own.
    """
    deg = tuple(pattern.degree(x) for x in range(pattern.n))
    profile = {e: tuple(sorted(deg[x] for x in e)) for e in pattern.edges}
    placed = set(range(roots))
    left = [e for e in pattern.edges if not placed.issuperset(e)]

    def tightness(e: Edge):
        return (sum(profile[e]), profile[e])

    def rank(e: Edge):
        closes = _hops(pattern, e, [x for x in e if x not in placed], placed)
        return (len(placed.intersection(e)), -closes, tightness(e))

    steps = []
    while left:
        touching = [e for e in left if not placed.isdisjoint(e)]
        if touching:
            pick = max(touching, key=rank)
        else:
            pick = max(left, key=tightness)
        known = tuple(x for x in pick if x in placed)
        new = tuple(sorted((x for x in pick if x not in placed), key=lambda x: -deg[x]))
        checks = []
        for x in new:
            placed.add(x)
            checks.append(tuple(e for e in pattern.incident[x]
                                if e != pick and placed.issuperset(e)))
        left = [e for e in left if not placed.issuperset(e)]
        steps.append((known, new, tuple(checks), None if known else profile[pick]))
    profiles = set(profile.values())
    minimal = tuple(sorted(p for p in profiles
                           if not any(q != p and all(map(ge, p, q)) for q in profiles)))
    return _SearchPlan(deg, tuple(x for x in range(pattern.n) if x not in placed),
                       minimal, tuple(steps))


def _hops(pattern: Hypergraph, skip: Edge, start, goal) -> int:
    """Fewest hops from `start` to a vertex of `goal` over the pattern's
    edges other than `skip`; pattern.n when there is no such path."""
    seen = set(start)
    frontier = list(start)
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for x in frontier:
            for e in pattern.incident[x]:
                if e == skip:
                    continue
                for y in e:
                    if y in goal:
                        return hops
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return pattern.n


def _peel(edges, profiles) -> list[Edge]:
    """Host edges that can still hold some pattern edge, to a fixed point.

    An edge survives while the sorted degrees of its vertices, counted
    among surviving edges, dominate some pattern edge profile position by
    position.  The image of every embedding survives, so no answer changes.
    """
    deg, inc = _incidence(edges)
    # the test only sees min(degree, top): higher degrees need no recheck
    top = max(max(p) for p in profiles)
    alive = set(edges)
    stack = list(edges)
    while stack:
        f = stack.pop()
        if f not in alive:
            continue
        have = sorted([deg[x] for x in f])
        for p in profiles:
            if all(map(ge, have, p)):
                break
        else:
            alive.remove(f)
            for x in f:
                deg[x] -= 1
                if deg[x] < top:
                    stack += inc[x]
    return [f for f in edges if f in alive]


def _incidence(edges) -> tuple[dict[int, int], dict[int, list[Edge]]]:
    """Degrees and incident edges of the vertices these edges touch."""
    deg: dict[int, int] = {}
    inc: dict[int, list[Edge]] = {}
    for f in edges:
        for x in f:
            if x in deg:
                deg[x] += 1
                inc[x].append(f)
            else:
                deg[x] = 1
                inc[x] = [f]
    return deg, inc


def _embedding_search(host: Hypergraph, pattern: Hypergraph, mode: str, *,
                      strict: bool = False, roots=(), forbidden=()):
    """The one backtracking search for injective edge-preserving maps
    pattern -> host.

    `mode` "exists" stops at the first map and returns 0 or 1, "count"
    returns how many maps there are, and "collect" returns them as image
    tuples indexed by pattern vertex.  Pattern vertex i < len(roots) is
    pre-mapped to roots[i]; the other images avoid the roots and
    `forbidden`.  Pattern edges inside the roots are not checked, and the
    caller must leave none there: their degrees would misguide peeling.
    With `strict`, every host edge through a newly landed image that lies
    inside the image must be the image of a pattern edge; with no roots
    that is the induced condition.

    The host is first peeled (`_peel`); candidates come from what
    survives, the strict rule reads every host edge.  Without `forbidden`
    the peeled edges are kept in `host.peel_memo`, so searches whose
    patterns have the same minimal profiles peel the host once.
    """
    if pattern.s != host.s:
        raise ValueError("pattern and host must share the same uniformity")
    plan = _search_plan(pattern, len(roots))
    stop = mode == "exists"
    out = [] if mode == "collect" else None

    def result(total: int):
        if out is not None:
            return out
        return min(total, 1) if stop else total

    if host.n < pattern.n:
        return result(0)
    image = [0] * pattern.n
    image[:len(roots)] = roots
    forbidden = set(forbidden).difference(roots)
    # host edges through a forbidden vertex can hold no image edge
    clear = [f for f in host.edges if forbidden.isdisjoint(f)] if forbidden else host.edges
    used = forbidden.union(roots)  # never landed on: images and forbidden

    def closed(w: int, expect: int) -> bool:
        """Strict rule at w.  The forward checks found `expect` distinct
        image edges through w; no other clear host edge through w may lie
        inside the image, so the counts must agree.  `used` also holds the
        forbidden vertices, and an edge through one of them is not clear."""
        return sum(1 for f in host.incident[w]
                   if used.issuperset(f) and forbidden.isdisjoint(f)) == expect

    loose = plan.loose
    one_by_one = strict or out is not None

    def finish(k: int) -> int:
        """Place the loose pattern vertices on free host vertices.  Unless
        the strict rule or collect mode looks at each placement, only
        their number matters."""
        if not one_by_one:
            return perm(host.n - len(used), len(loose))
        if k == len(loose):
            if out is not None:
                out.append(tuple(image))
            return 1
        total = 0
        for w in range(host.n):
            if w in used:
                continue
            used.add(w)
            if not strict or closed(w, 0):
                image[loose[k]] = w
                total += finish(k + 1)
            used.discard(w)
            if total and stop:
                break
        return total

    if not plan.steps:
        return result(finish(0))
    memo = {} if forbidden else host.peel_memo
    if plan.profiles not in memo:
        memo[plan.profiles] = _peel(clear, plan.profiles)
    edges = memo[plan.profiles]
    if len(edges) < pattern.e:
        return result(0)
    deg, inc = _incidence(edges)
    # a root image left without edges by peeling offers no candidates
    for w in roots:
        deg.setdefault(w, 0)
        inc.setdefault(w, [])
    # a component's first edge only goes where the host degrees allow it
    starts = {}
    for i, (_, _, _, prof) in enumerate(plan.steps):
        if prof is not None:
            starts[i] = [f for f in edges if all(map(ge, sorted([deg[x] for x in f]), prof))]
    steps, pat_deg, edge_set = plan.steps, plan.degrees, host.edge_set

    def place(i: int) -> int:
        if i == len(steps):
            return finish(0)
        known = steps[i][0]
        if known:
            imgs = [image[x] for x in known]
            anchor = min(imgs, key=deg.__getitem__)
            candidates = [f for f in inc[anchor] if all(w in f for w in imgs)]
        else:
            imgs = []
            candidates = starts[i]
        total = 0
        for f in candidates:
            total += assign(i, 0, [w for w in f if w not in imgs])
            if total and stop:
                return total
        return total

    def assign(i: int, j: int, slots: list[int]) -> int:
        new = steps[i][1]
        if j == len(new):
            return place(i + 1)
        x, checks = new[j], steps[i][2][j]
        total = 0
        for w in slots:
            if w in used or deg[w] < pat_deg[x]:
                continue
            image[x] = w
            # pattern edges through x whose vertices have all landed
            if not all(tuple(sorted(image[y] for y in e)) in edge_set for e in checks):
                continue
            used.add(w)
            # the step's own edge is complete once its last new vertex lands
            if not strict or closed(w, len(checks) + (j + 1 == len(new))):
                total += assign(i, j + 1, [u for u in slots if u != w])
            used.discard(w)
            if total and stop:
                return total
        return total

    return result(place(0))


def count_embeddings(host: Hypergraph, pattern: Hypergraph, cap: int | None = None,
                     induced: bool = False) -> int:
    """Injective edge-preserving maps pattern -> host (induced ones if asked)."""
    check_cap(pattern.n, DEFAULT_ENUM_CAP, cap, "pattern")
    return _embedding_search(host, pattern, "count", strict=induced)


def count_copies(host: Hypergraph, pattern: Hypergraph, cap: int | None = None,
                 induced: bool = False) -> int:
    """Distinct sub-hypergraphs of host isomorphic to pattern.

    Copies are not induced unless asked: extra host edges among the image
    vertices are allowed.
    """
    emb = count_embeddings(host, pattern, cap=cap, induced=induced)
    aut = automorphism_count(pattern, cap=cap)
    assert emb % aut == 0, "embedding count must be divisible by automorphisms"
    return emb // aut


def contains_copy(host: Hypergraph, pattern: Hypergraph) -> bool:
    """Early-exit containment check (the search peels and prefilters)."""
    if pattern.e == 0:
        return host.n >= pattern.n
    if pattern.e > host.e or pattern.n > host.n:
        return False
    return _embedding_search(host, pattern, "exists") > 0


def is_isomorphic(g1: Hypergraph, g2: Hypergraph, cap: int | None = None) -> bool:
    if g1.s != g2.s or g1.n != g2.n or g1.e != g2.e:
        return False
    if sorted(g1.degree(x) for x in range(g1.n)) != sorted(g2.degree(x) for x in range(g2.n)):
        return False
    check_cap(g1.n, DEFAULT_ENUM_CAP, cap, "isomorphism search")
    # injective edge-preserving map with equal edge counts is onto the edges
    return _embedding_search(g2, g1, "exists") > 0


def distance(g: Hypergraph, x: int, y: int) -> int | None:
    """Hop count where one hop is sharing an edge; None when unreachable."""
    for z in (x, y):
        if not 0 <= z < g.n:
            raise ValueError(f"vertex {z} outside 0..{g.n - 1}")
    if x == y:
        return 0
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    if w == y:
                        return dist[w]
                    nxt.append(w)
        frontier = nxt
    return None
