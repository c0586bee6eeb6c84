"""Uniform hypergraphs with exact rational density machinery.

Vertices are dense 0-based ids.  Edges are s-element subsets stored as
sorted tuples; the edge list itself is sorted and deduplicated, so equal
hypergraphs compare and hash equal.  All densities are `fractions.Fraction`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    """An s-uniform hypergraph on vertex set {0, ..., n-1}.

    The constructor is the only public one: it sorts, checks and
    deduplicates the edges it is given.  `_from_canonical` checks nothing
    and is the sampler's alone: its edges must already be what the
    constructor would store, a strictly increasing tuple of ascending
    tuples of `int` s-sets inside range(n).
    """

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

    @classmethod
    def _from_canonical(cls, s: int, n: int, edges: tuple[Edge, ...]) -> "Hypergraph":
        g = object.__new__(cls)
        object.__setattr__(g, "s", s)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

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
    def peel_memo(self) -> dict[tuple, _Peel]:
        """The edges `_peel` keeps for each minimal-profile set searched on
        this host without forbidden vertices, with their incidence and
        loose-cycle index; filled by `_embedding_search`."""
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
    net = FlowNetwork.densest_subset(g.edges, g.n, q.numerator, q.denominator)
    return net, net.max_flow(0, 1) < q.denominator * g.e


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
        if got <= best:
            raise AssertionError("min-cut oracle returned a non-improving subset")
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

    The loose vertices, in no edge, permute freely; the rest's group is
    the one `_symmetry` enumerates for the matcher.  Past `_GROUP_BOUND`
    one count search of g's embeddings into itself gives the number: an
    injective edge-preserving self-map of a finite hypergraph is onto its
    vertices and its edges.
    """
    check_cap(g.n, DEFAULT_ENUM_CAP, cap, "automorphism search")
    sym = _symmetry(g, 0)
    if sym:
        return sym.order * factorial(len(_search_plan(g).loose))
    h = _sparser(g)
    return _embedding_search(h, h, "count")


class _SearchPlan(NamedTuple):
    """The pattern's half of an embedding search; see `_search_plan`."""

    degrees: tuple[int, ...]
    loose: tuple[int, ...]  # vertices in no edge and not roots, placed last
    profiles: tuple[tuple[int, ...], ...]  # minimal edge profiles, for peeling
    # the distinct nonempty tuples of loose-cycle lengths (of
    # _CYCLE_LENGTHS) that pattern edges lie on; domain class k >= 1 is
    # classes[k - 1], class 0 is every host edge
    classes: tuple[tuple[int, ...], ...]
    # per step: (placed vertices of the edge, new vertices, (edge, class)
    # pairs to check as each new vertex lands, the edge's profile if it
    # starts a component, the edge's class)
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
    lands and gets no step of its own.  Each edge's domain class names the
    loose cycle lengths it lies on; the order does not depend on them.
    """
    deg = tuple(pattern.degree(x) for x in range(pattern.n))
    profile = {e: tuple(sorted(deg[x] for x in e)) for e in pattern.edges}
    lengths = {e: () for e in pattern.edges}
    paths = _loose_two_paths(pattern.edges, pattern.incident)
    for length in _CYCLE_LENGTHS:
        for e in _loose_cycle_edges(pattern.edges, paths, length):
            lengths[e] += (length,)
    classes = tuple(sorted(set(lengths.values()) - {()}))
    cls = {e: classes.index(ls) + 1 if ls else 0 for e, ls in lengths.items()}
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
            checks.append(tuple((e, cls[e]) for e in pattern.incident[x]
                                if e != pick and placed.issuperset(e)))
        left = [e for e in left if not placed.issuperset(e)]
        steps.append((known, new, tuple(checks), None if known else profile[pick], cls[pick]))
    profiles = set(profile.values())
    minimal = tuple(sorted(p for p in profiles
                           if not any(q != p and all(map(ge, p, q)) for q in profiles)))
    return _SearchPlan(deg, tuple(x for x in range(pattern.n) if x not in placed),
                       minimal, classes, tuple(steps))


# The largest automorphism group `_symmetry` enumerates; a pattern with a
# larger one is searched without conditions.
_GROUP_BOUND = 5040


class _Symmetry(NamedTuple):
    """Symmetry-breaking conditions of one search plan; see `_symmetry`."""

    order: int  # automorphisms of the non-loose part that fix every root
    over: tuple[int | None, ...]  # over[u]: the vertex whose image u's must exceed


@lru_cache(maxsize=256)
def _symmetry(pattern: Hypergraph, roots: int) -> _Symmetry | None:
    """Conditions under which the search meets one embedding per class of
    the automorphisms G of the pattern's non-loose part that fix vertices
    0..roots-1 (Grochow & Kellis 2007); None when |G| > _GROUP_BOUND.

    Walking the plan's placement order, each vertex v must land below
    every other vertex u of its orbit under the current G (u is placed
    later), and G shrinks to the stabilizer of v.  Each G-class of
    embeddings has one map meeting every condition, and G acts freely, so
    the embeddings number the conditioned ones times |G|.  Only the last
    such v is kept for u: an earlier one has v in its orbit too, so lands
    below v.
    """
    plan = _search_plan(pattern, roots)
    over: list[int | None] = [None] * pattern.n
    if not plan.steps:
        return _Symmetry(1, tuple(over))
    part = [x for x in range(pattern.n) if x not in plan.loose]
    core = pattern.induced(part)
    if not roots:
        core = _sparser(core)
    maps = _embedding_search(core, core, "collect", roots=tuple(range(roots)),
                             limit=_GROUP_BOUND + 1)
    if len(maps) > _GROUP_BOUND:
        return None
    group = [{part[i]: part[y] for i, y in enumerate(m)} for m in maps]
    for step in plan.steps:
        for v in step[1]:
            for u in {sigma[v] for sigma in group} - {v}:
                over[u] = v
            group = [sigma for sigma in group if sigma[v] == v]
    return _Symmetry(len(maps), tuple(over))


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


# The loose cycle lengths that get search domains; see `_loose_cycle_edges`.
_CYCLE_LENGTHS = (3, 4)


def _loose_two_paths(edges, inc) -> tuple[dict, dict, dict]:
    """The loose 2-paths x, f, b, g, y of the edges: f and g meet in b
    alone, and x in f and y in g are other vertices that lie in other
    edges.  `inc[x]` lists the edges through vertex x.  Returns each
    edge's vertex set, each edge's vertices that lie in other edges, and
    the 2-paths, under ends[x, y] with x < y as (f, g) with x in f."""
    sets = {e: frozenset(e) for e in edges}
    # a cycle enters and leaves each of its edges at vertices of other edges
    joints = {e: [x for x in e if len(inc[x]) > 1] for e in edges}
    ends: dict[tuple[int, int], list[tuple[Edge, Edge]]] = {}
    for f in edges:
        for b in joints[f]:
            for g in inc[b]:
                if g <= f or len(sets[f] & sets[g]) != 1:
                    continue  # each pair once, meeting in b alone
                for x in joints[f]:
                    for y in joints[g]:
                        if b not in (x, y):
                            key = (x, y) if x < y else (y, x)
                            ends.setdefault(key, []).append((f, g) if x < y else (g, f))
    return sets, joints, ends


def _loose_cycle_edges(edges, paths, length: int) -> set[Edge]:
    """The edges that lie on a loose cycle of `length` edges, 3 or 4.

    A loose cycle is `length` distinct edges where cyclically consecutive
    edges meet in exactly one vertex, these meeting vertices are
    distinct, and all other pairs of edges are disjoint; at s = 2 it is
    an ordinary cycle.  A 3-cycle is an edge e and a loose 2-path between
    two vertices x, y of e whose edges meet e in x alone and in y alone;
    a 4-cycle is two loose 2-paths between the same two vertices that
    meet only there.  Each edge, and each 2-path whose edges are not both
    marked yet, stops at its first cycle and marks every edge of it.
    `paths` is what `_loose_two_paths` returns for these edges.
    """
    sets, joints, ends = paths
    on: set[Edge] = set()
    if length == 3:
        for e in edges:
            if e in on:
                continue
            ve = sets[e]
            for f, g in (p for xy in combinations(joints[e], 2) for p in ends.get(xy, ())):
                if len(ve & sets[f]) == 1 and len(ve & sets[g]) == 1:
                    on.update((e, f, g))
                    break
        return on
    for pairs in ends.values():
        for f, g in pairs:
            if f in on and g in on:
                continue
            for f2, g2 in pairs:
                if (len(sets[f] & sets[f2]) == 1 and len(sets[g] & sets[g2]) == 1
                        and sets[f].isdisjoint(sets[g2]) and sets[g].isdisjoint(sets[f2])):
                    on.update((f, g, f2, g2))
                    break
    return on


@dataclass
class _Peel:
    """One host's peel for one set of minimal profiles (see `peel_memo`):
    the surviving edges, and their incidence, loose 2-paths and
    loose-cycle edges, each built when a search first needs it."""

    edges: list[Edge]
    deg_inc: tuple | None = None
    paths: tuple | None = None
    cycles: dict[int, set[Edge]] = field(default_factory=dict)

    def incidence(self) -> tuple[dict[int, int], dict[int, list[Edge]]]:
        """`_incidence` of the edges.  A search with roots adds degree 0
        and no edges for each root image outside them, which is true for
        every later search too."""
        if self.deg_inc is None:
            self.deg_inc = _incidence(self.edges)
        return self.deg_inc

    def cycle_edges(self, length: int) -> set[Edge]:
        """The edges on a loose cycle of `length` edges."""
        if length not in self.cycles:
            if self.paths is None:
                self.paths = _loose_two_paths(self.edges, self.incidence()[1])
            self.cycles[length] = _loose_cycle_edges(self.edges, self.paths, length)
        return self.cycles[length]


def _peel(edges, profiles) -> list[Edge]:
    """Host edges that can still hold some pattern edge, to a fixed point.

    An edge survives while the sorted degrees of its vertices, counted
    among surviving edges, dominate some pattern edge profile position by
    position.  The image of every embedding survives, so no answer changes.

    With `low` the least entry of any profile, a vertex of degree below
    `low` is in no surviving edge.  When `low` >= 2, a vertex pass (the
    cores queue of Batagelj & Zaversnik 2003) first drops each such
    vertex's edges once; a vertex is queued when its degree falls to
    low - 1, so at most once.  If every profile entry equals `low`, that
    core is the fixed point.  At `low` = 1 nothing is queued, so the pass
    is skipped.

    When `low` >= 2, a host with no Berge cycle (`_berge_acyclic`) keeps
    no edge, for any s, and the peel returns before it builds the
    incidence: the host's vertex-edge incidence graph is a forest, so it
    and each of its subsets have a vertex of degree 1.  At `low` = 1 a
    forest can keep edges, so the test is not made.
    """
    # the test only sees min(degree, top): higher degrees need no recheck
    top = max(max(p) for p in profiles)
    low = min(p[0] for p in profiles)
    if low >= 2 and _berge_acyclic(edges):
        return []
    deg, inc = _incidence(edges)
    alive = set(edges)
    if low >= 2:
        queue = [x for x, d in deg.items() if d < low]
        while queue:
            for f in inc[queue.pop()]:
                if f in alive:
                    alive.remove(f)
                    for y in f:
                        deg[y] -= 1
                        if deg[y] == low - 1:
                            queue.append(y)
        edges = [f for f in edges if f in alive]
        if top == low:
            return edges
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


def _berge_acyclic(edges) -> bool:
    """True iff no Berge cycle: no edge meets one union-find component of
    the edges before it twice (Tarjan 1975).  Stops at the first that does."""
    parent: dict[int, int] = {}
    for f in edges:
        it = iter(f)
        r = next(it)
        while r in parent:
            r = parent[r]
        for x in it:
            while x in parent:
                x = parent[x]
            if x == r:
                return False
            parent[x] = r
    return True


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
                      strict: bool = False, roots=(), forbidden=(), limit: int = 0):
    """The one backtracking search for injective edge-preserving maps
    pattern -> host.

    `mode` "exists" stops at the first map and returns 0 or 1, "count"
    returns how many maps there are, and "collect" returns them as image
    tuples indexed by pattern vertex; a nonzero `limit` stops collecting
    once that many maps are found.  "exists" and "count" visit one map per
    class of the automorphisms that `_symmetry` breaks, and "count"
    multiplies by their number; "collect" visits every map.

    Pattern vertex i < len(roots) is pre-mapped to roots[i]; the other
    images avoid the roots and `forbidden`.  Pattern edges inside the
    roots are not checked, and the caller must leave none there: their
    degrees would misguide peeling.
    With `strict`, every host edge through a newly landed image that lies
    inside the image must be the image of a pattern edge; with no roots
    that is the induced condition.

    The host is first peeled (`_peel`); candidates come from what
    survives, the strict rule reads every host edge.  A pattern edge on a
    loose 3- or 4-cycle only goes to a surviving host edge on a loose
    cycle of each of its lengths (`_loose_cycle_edges`): an injective map
    keeps |e & f| for every pair of edges, so it maps such a cycle onto
    one.  Without `forbidden` the peeled edges, their incidence and their
    cycle index are kept in `host.peel_memo`, so searches whose patterns
    have the same minimal profiles peel the host once, and index each
    length once.
    """
    if pattern.s != host.s:
        raise ValueError("pattern and host must share the same uniformity")
    plan = _search_plan(pattern, len(roots))
    stop = 1 if mode == "exists" else limit
    out = [] if mode == "collect" else None
    sym = None if out is not None else _symmetry(pattern, len(roots))
    order, over = sym if sym else (1, (None,) * pattern.n)

    def result(total: int):
        if out is not None:
            return out
        return min(total, 1) if mode == "exists" else total * order

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
            if out is None:
                return 1
            out.append(tuple(image))
            # a full collection stops every loop above, as one map stops "exists"
            return stop if len(out) == stop else 1
        total = 0
        for w in range(host.n):
            if w in used:
                continue
            used.add(w)
            if not strict or closed(w, 0):
                image[loose[k]] = w
                total += finish(k + 1)
            used.discard(w)
            if stop and total >= stop:
                break
        return total

    if not plan.steps:
        return result(finish(0))
    memo = {} if forbidden else host.peel_memo
    if plan.profiles not in memo:
        memo[plan.profiles] = _Peel(_peel(clear, plan.profiles))
    peel = memo[plan.profiles]
    edges = peel.edges
    if len(edges) < pattern.e:
        return result(0)
    # domains[k]: the host edges that pattern edges of domain class k can go to
    domains = [host.edge_set]
    for lengths in plan.classes:
        domains.append(set.intersection(*[peel.cycle_edges(length) for length in lengths]))
        if not domains[-1]:
            return result(0)
    deg, inc = peel.incidence()
    # a root image left without edges by peeling offers no candidates
    for w in roots:
        deg.setdefault(w, 0)
        inc.setdefault(w, [])
    # a component's first edge only goes where the host degrees allow it
    starts = {}
    for i, (_, _, _, prof, cls) in enumerate(plan.steps):
        if prof is not None:
            starts[i] = [f for f in edges if (not cls or f in domains[cls])
                         and all(map(ge, sorted([deg[x] for x in f]), prof))]
    steps, pat_deg = plan.steps, plan.degrees

    def place(i: int) -> int:
        if i == len(steps):
            return finish(0)
        known, cls = steps[i][0], steps[i][4]
        if known:
            imgs = [image[x] for x in known]
            anchor = min(imgs, key=deg.__getitem__)
            candidates = [f for f in inc[anchor] if all(w in f for w in imgs)]
            if cls:
                domain = domains[cls]
                candidates = [f for f in candidates if f in domain]
        else:
            imgs = []
            candidates = starts[i]
        total = 0
        for f in candidates:
            total += assign(i, 0, [w for w in f if w not in imgs])
            if stop and total >= stop:
                return total
        return total

    def assign(i: int, j: int, slots: list[int]) -> int:
        new = steps[i][1]
        if j == len(new):
            return place(i + 1)
        x, checks = new[j], steps[i][2][j]
        # symmetry breaking: x lands above the image of over[x]
        floor = -1 if over[x] is None else image[over[x]]
        total = 0
        for w in slots:
            if w in used or deg[w] < pat_deg[x] or w < floor:
                continue
            image[x] = w
            # pattern edges through x whose vertices have all landed
            if not all(tuple(sorted(image[y] for y in e)) in domains[c] for e, c in checks):
                continue
            used.add(w)
            # the step's own edge is complete once its last new vertex lands
            if not strict or closed(w, len(checks) + (j + 1 == len(new))):
                total += assign(i, j + 1, [u for u in slots if u != w])
            used.discard(w)
            if stop and total >= stop:
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
    return _copies(count_embeddings(host, pattern, cap=cap, induced=induced),
                   automorphism_count(pattern, cap=cap))


def _copies(embeddings: int, automorphisms: int) -> int:
    """Copies from embeddings: each copy is the image of `automorphisms` of them."""
    copies, rest = divmod(embeddings, automorphisms)
    if rest:
        raise AssertionError("embedding count must be divisible by automorphisms")
    return copies


def contains_copy(host: Hypergraph, pattern: Hypergraph) -> bool:
    """Early-exit containment check (the search peels and prefilters)."""
    # the search refuses a pattern of another uniformity
    if pattern.s == host.s and (pattern.e > host.e or pattern.n > host.n):
        return False
    return _embedding_search(host, pattern, "exists") > 0

