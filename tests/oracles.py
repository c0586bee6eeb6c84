"""Deliberately naive reference implementations used as test oracles.

Everything here favors obviousness over speed: exhaustive subset and
permutation scans, no pruning, and no memoization but the pair-set memo
that lets `solve_by_pairs` check four-round games.  Tests compare the real
code against these on small instances.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from hyperspectra.errors import (BudgetExceeded, DegeneratePair, DEFAULT_EVAL_BUDGET,
                                 DEFAULT_PAIR_CAP, check_budget, check_cap)
from hyperspectra.experiments import EstimateReport, wilson_interval
from hyperspectra.extensions import PairClass, RootedPair, pair_density
from hyperspectra.game import DUPLICATOR, SPOILER, extends_partial_iso
from hyperspectra.hypergraph import Hypergraph, contains_copy
from hyperspectra.logic import (And, EdgeAtom, Equal, Exists, Forall, Formula,
                                Implies, Not, Or, evaluate, parse)
from hyperspectra.maxflow import FlowNetwork
from hyperspectra.sampling import ModelParams, p_from_alpha, sample


def brute_max_density(g: Hypergraph) -> Fraction:
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            e = sum(1 for f in g.edges if inside.issuperset(f))
            best = max(best, Fraction(e, size))
    return best


def brute_is_strictly_balanced(g: Hypergraph) -> bool:
    """Every proper nonempty vertex set is strictly sparser than G."""
    rho = Fraction(g.e, g.n)
    for size in range(1, g.n):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            e = sum(1 for f in g.edges if inside.issuperset(f))
            if Fraction(e, size) >= rho:
                return False
    return True


def density_network(g: Hypergraph, q: Fraction) -> FlowNetwork:
    """The densest-subset network at q = a/b with its greedy preflow, one
    `add_edge` call per arc: the reference for `FlowNetwork.densest_subset`."""
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
    return net


def brute_min_cut(n: int, arcs, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum s-t cut of a network on at most 10 nodes, by trying every
    source side.  `arcs` holds (u, v, capacity).  Returns the cut value
    and the smallest minimum source side: the intersection of all of
    them, itself a minimum source side."""
    assert n <= 10, "2^(n-2) source sides"
    others = [x for x in range(n) if x not in (s, t)]
    best, smallest = None, None
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            side = frozenset((s,) + extra)
            cut = sum(c for u, v, c in arcs if u in side and v not in side)
            if best is None or cut < best:
                best, smallest = cut, side
            elif cut == best:
                smallest &= side
    return best, smallest


def brute_embedding_count(host: Hypergraph, pattern: Hypergraph) -> int:
    count = 0
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(tuple(sorted(perm[x] for x in e)) in host.edge_set
               for e in pattern.edges):
            count += 1
    return count


def brute_induced_embedding_count(host: Hypergraph, pattern: Hypergraph) -> int:
    """Injective maps whose image spans exactly the images of the pattern edges."""
    count = 0
    for perm in itertools.permutations(range(host.n), pattern.n):
        mapped = [tuple(sorted(perm[x] for x in e)) for e in pattern.edges]
        if not all(f in host.edge_set for f in mapped):
            continue
        image = set(perm)
        if {f for f in host.edges if image.issuperset(f)} == set(mapped):
            count += 1
    return count


def brute_automorphisms(g: Hypergraph) -> list[tuple[int, ...]]:
    out = []
    for perm in itertools.permutations(range(g.n)):
        if {tuple(sorted(perm[x] for x in e)) for e in g.edges} == set(g.edges):
            out.append(perm)
    return out


def brute_root_symmetry_counts(pair: RootedPair) -> tuple[int, int, int]:
    """`bounds.root_symmetry_counts` from every permutation: the root
    structure's automorphisms, the distinct root restrictions of the
    whole's automorphisms that keep the roots and the root structure, and
    the whole's automorphisms that fix every root."""
    g, r, h = pair.g, pair.roots, pair.root_structure
    auts = brute_automorphisms(g)
    extendable = {p[:r] for p in auts
                  if all(x < r for x in p[:r])
                  and all(h.has_edge(p[x] for x in e) for e in h.edges)}
    fixing = sum(1 for p in auts if p[:r] == tuple(range(r)))
    return len(brute_automorphisms(h)), len(extendable), fixing


def bfs_distance(g: Hypergraph, x: int, y: int):
    # one hop = sharing at least one edge
    if x == y:
        return 0
    seen = {x}
    frontier = [x]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for u in frontier:
            for e in g.edges:
                if u in e:
                    for w in e:
                        if w == y:
                            return hops
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
        frontier = nxt
    return None


def random_hypergraph(rng, s: int, n: int, p: float) -> Hypergraph:
    edges = [e for e in itertools.combinations(range(n), s) if rng.random() < p]
    return Hypergraph(s, n, edges)


def random_hyperforest(rng, s: int, n: int, m: int) -> list:
    """Up to m edges on range(n), with no Berge cycle: each edge takes its
    s vertices from s distinct components of the edges before it, and
    joins them.  Stops early when fewer than s components are left."""
    comp = list(range(n))
    edges = []
    for _ in range(m):
        labels = sorted(set(comp))
        if len(labels) < s:
            break
        joined = rng.sample(labels, s)
        edges.append(tuple(sorted(rng.choice([x for x in range(n) if comp[x] == label])
                                  for label in joined)))
        comp = [joined[0] if c in joined else c for c in comp]
    return edges


def naive_peel(edges, profiles) -> list:
    """The edges `hypergraph._peel` keeps, by whole rounds: recount every
    degree, drop each edge whose sorted degrees dominate no profile
    position by position, and repeat until a round drops nothing."""
    kept = list(edges)
    while True:
        deg = Counter(x for f in kept for x in f)
        survivors = [f for f in kept
                     if any(all(d >= q for d, q in zip(sorted(deg[x] for x in f), p))
                            for p in profiles)]
        if len(survivors) == len(kept):
            return kept
        kept = survivors


def has_berge_cycle(edges) -> bool:
    """True iff the bipartite vertex-edge incidence graph holds a cycle,
    that is, has more links than nodes minus components (each component
    found by a full flood fill)."""
    adj = {("edge", i): {("vertex", x) for x in f} for i, f in enumerate(edges)}
    for i, f in enumerate(edges):
        for x in f:
            adj.setdefault(("vertex", x), set()).add(("edge", i))
    links = sum(len(f) for f in edges)
    components = 0
    seen = set()
    for start in adj:
        if start in seen:
            continue
        components += 1
        todo = [start]
        seen.add(start)
        while todo:
            for other in adj[todo.pop()]:
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
    return links > len(adj) - components


def loose_cycle_edges(edges, length: int) -> set:
    """The edges on a loose cycle of `length` edges, from every ordered
    tuple of distinct edges: cyclically consecutive edges meet in exactly
    one vertex, those meeting vertices are all distinct, and every other
    pair of edges is disjoint."""
    meet = {(e, f): set(e) & set(f) for e in edges for f in edges}
    on = set()
    for cyc in itertools.permutations(edges, length):
        joints = []
        ok = True
        for i, j in itertools.combinations(range(length), 2):
            common = meet[cyc[i], cyc[j]]
            if j - i in (1, length - 1):
                ok = ok and len(common) == 1
                joints += common
            else:
                ok = ok and not common
        if ok and len(set(joints)) == length:
            on.update(cyc)
    return on


def copy_count_moments(pattern: Hypergraph, n: int, p):
    """Exact (mean, variance) of the number of copies of `pattern` (no
    isolated vertices) in G^s(n, p); exact in Fractions when p is one.

    The mean is N p^e with N = (n)_v / aut copies in the complete
    hypergraph.  The variance sums p^(2e-k) - p^(2e) over ordered pairs
    of copies sharing k >= 1 edges: fix the copy A on vertices 0..v-1 and
    list every copy B on v - j of A's vertices and j new ones, each such
    vertex set standing for C(n - v, j) of them.
    """
    v, e = pattern.n, pattern.e
    copies = math.perm(n, v) // len(brute_automorphisms(pattern))
    fixed = set(pattern.edges)
    per_copy = 0
    for j in range(v - pattern.s + 1):
        for kept in itertools.combinations(range(v), v - j):
            spots = kept + tuple(range(v, v + j))
            others = {frozenset(tuple(sorted(perm[x] for x in f)) for f in pattern.edges)
                      for perm in itertools.permutations(spots)}
            for other in others:
                k = len(fixed.intersection(other))
                if k:
                    per_copy += math.comb(n - v, j) * (p ** (2 * e - k) - p ** (2 * e))
    return copies * p ** e, copies * per_copy


def float_threshold_sample(params, ps) -> list[Hypergraph]:
    """G^s(n, p) at each p in ps by the plain float pipeline: one float64
    uniform per potential edge from the trial's Philox stream, paired with
    the edges in colex order, keeping the edges whose uniform is below p."""
    key = np.array([params.seed, params.trial_index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(math.comb(params.n, params.s))
    colex = sorted(combinations(range(params.n), params.s), key=lambda e: e[::-1])
    return [Hypergraph(params.s, params.n, [e for e, x in zip(colex, u) if x < p])
            for p in ps]


def independent_cells(cfg, alphas=None) -> list[EstimateReport]:
    """Monte Carlo estimates with one fresh `sample` per (cell, trial).

    Cells run n-major over `alphas`, or over the config's own alpha or p
    when no grid is given.  Each draw is checked directly (containment,
    any edge, or evaluating the sentence), and a draw or check that runs
    over its budget is counted apart from the completed trials.
    """
    prop = cfg.prop
    if prop.kind == "pattern":
        def check(g):
            return contains_copy(g, prop.pattern)
    elif prop.kind == "builtin":
        def check(g):
            return g.e > 0
    else:
        sentence = parse(prop.formula_text, cfg.s)

        def check(g):
            return evaluate(g, sentence)
    grid = [(cfg.alpha, cfg.p)] if alphas is None else [(Fraction(a), None) for a in alphas]
    reports = []
    for n in cfg.n_list:
        for alpha, p in grid:
            p = p_from_alpha(n, alpha) if p is None else p
            successes = done = 0
            for t in range(cfg.trials):
                try:
                    hit = check(sample(ModelParams(cfg.s, n, p=p, seed=cfg.seed,
                                                   trial_index=t)))
                except BudgetExceeded:
                    continue
                done += 1
                successes += bool(hit)
            lo, hi = wilson_interval(successes, done)
            reports.append(EstimateReport(n, alpha, p, done, successes,
                                          successes / done if done else 0.0,
                                          lo, hi, cfg.trials - done, cfg.digest()))
    return reports


def random_formula(rng, s: int, depth: int, pool=("x", "y", "z", "u", "v")):
    """Random AST with quantifier depth <= depth over the given name pool."""
    from hyperspectra.logic import (
        And, EdgeAtom, Equal, Exists, Forall, Implies, Not, Or)

    def atom():
        if rng.random() < 0.4:
            return Equal(rng.choice(pool), rng.choice(pool))
        return EdgeAtom(tuple(rng.choice(pool) for _ in range(s)))

    def build(budget):
        roll = rng.random()
        if budget == 0 or roll < 0.25:
            return atom()
        if roll < 0.40:
            return Not(build(budget))
        if roll < 0.55:
            return And(tuple(build(budget) for _ in range(rng.randint(1, 3))))
        if roll < 0.70:
            return Or(tuple(build(budget) for _ in range(rng.randint(1, 3))))
        if roll < 0.80:
            return Implies(build(budget), build(budget))
        var = rng.choice(pool)
        body = build(budget - 1)
        return Exists(var, body) if rng.random() < 0.5 else Forall(var, body)

    return build(depth)


def close_formula(f, pool=("x", "y", "z", "u", "v")):
    """Wrap free variables in existential quantifiers to get a sentence."""
    from hyperspectra.logic import Exists, free_vars

    for name in sorted(free_vars(f)):
        f = Exists(name, f)
    return f


def bfs_distance_avoiding(g: Hypergraph, avoid: int, x: int, y: int):
    """Distance using only edges that miss `avoid`; endpoints must differ from it."""
    if x == avoid or y == avoid:
        return None
    if x == y:
        return 0
    live = [e for e in g.edges if avoid not in e]
    seen = {x}
    frontier = [x]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for u in frontier:
            for e in live:
                if u in e:
                    for w in e:
                        if w == y:
                            return hops
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
        frontier = nxt
    return None


def on_odd_cycle(g: Hypergraph, a: int, i: int) -> bool:
    """Midpoint-split reading of "a lies on a cycle of length 2i + 1"."""
    for b in range(g.n):
        if bfs_distance(g, a, b) != i:
            continue
        for c in range(g.n):
            if c == a or c == b:
                continue
            if bfs_distance(g, a, c) != (i + 1) // 2:
                continue
            if bfs_distance(g, c, b) != (i + 2) // 2:
                continue
            detour = bfs_distance_avoiding(g, c, a, b)
            if detour is not None and detour <= i:
                return True
    return False


def structural_two_cycle_property(g: Hypergraph, a1: int, a2: int, a3: int) -> bool:
    """BFS checker for the mixed-midpoint sentence: some pair at distance a1
    has one split midpoint that reaches an odd (2·a2+1)-cycle in exactly a3
    steps and another that does not."""

    def reaches_cycle(v):
        return any(bfs_distance(g, v, r) == a3 and on_odd_cycle(g, r, a2)
                   for r in range(g.n))

    for x1 in range(g.n):
        for x2 in range(g.n):
            if bfs_distance(g, x1, x2) != a1:
                continue
            mids = [m for m in range(g.n)
                    if bfs_distance(g, x1, m) == a1 // 2
                    and bfs_distance(g, m, x2) == (a1 + 1) // 2]
            flags = [reaches_cycle(m) for m in mids]
            if any(flags) and not all(flags):
                return True
    return False


def brute_strict_extensions(host, roots, pair, forbidden=()):
    """Permutation-scan reference for strict extension placement."""
    roots = tuple(roots)
    pattern = pair.pattern.edges
    if any(e[-1] < pair.roots for e in pattern):
        return []
    if pair.v_diff == 0:
        return [()] if not pattern else []
    blocked = set(forbidden) | set(roots)
    added = pair.added_vertices
    pool = [w for w in range(host.n) if w not in blocked]
    out = []
    for placement in itertools.permutations(pool, len(added)):
        image = {i: r for i, r in enumerate(roots)}
        image.update(zip(added, placement))
        landed = {tuple(sorted(image[x] for x in e)) for e in pattern}
        if not landed <= host.edge_set:
            continue
        combined = sorted(image.values())
        root_images = set(roots)
        ok = True
        for f in itertools.combinations(combined, host.s):
            if set(f) <= root_images:
                continue
            if (f in host.edge_set) != (f in landed):
                ok = False
                break
        if ok:
            out.append(placement)
    return sorted(out)


def brute_unextendable_copies(host, pair) -> int:
    """Permutation-scan reference for `count_unextendable_copies`: copies
    of the root structure (image vertices and image H-edges) over none of
    whose embeddings the pair has a strict extension."""
    extendable: dict = {}
    for phi in itertools.permutations(range(host.n), pair.roots):
        landed = frozenset(tuple(sorted(phi[x] for x in e)) for e in pair.h_edges)
        if not landed <= host.edge_set:
            continue
        key = (frozenset(phi), landed)
        if not extendable.get(key):
            extendable[key] = bool(brute_strict_extensions(host, phi, pair))
    return sum(1 for ok in extendable.values() if not ok)


def _loose_path_free_components(k: int) -> dict[int, int]:
    """Connected 3-graphs on k labelled vertices in which any two edges share
    0 or 2 vertices, as {edge count: number of labellings}.

    Such a component is an isolated vertex, a "book" of j >= 1 edges through
    one common pair (C(j+2, 2) labellings for j >= 2, one for j = 1), or 3
    or 4 of the triples of a 4-set (4 labellings and 1).
    """
    if k == 1:
        return {0: 1}
    if k == 2:
        return {}
    if k == 3:
        return {1: 1}
    if k == 4:
        return {2: math.comb(4, 2), 3: 4, 4: 1}
    return {k - 2: math.comb(k, 2)}


def loose_path_free_counts(n: int) -> dict[int, int]:
    """N(n, m): labelled 3-graphs on n vertices with m edges and no loose
    2-path (no two edges sharing exactly one vertex), as {m: N(n, m)}.

    Exact integers, by rooting the component that holds the last vertex.
    """
    table = [{0: 1}]
    for size in range(1, n + 1):
        row: dict[int, int] = {}
        for k in range(1, size + 1):
            ways = math.comb(size - 1, k - 1)
            for e, c in _loose_path_free_components(k).items():
                for m, rest in table[size - k].items():
                    row[m + e] = row.get(m + e, 0) + ways * c * rest
        table.append(row)
    return table[n]


def loose_path_probability(n: int, p: float) -> float:
    """P(G^3(n, p) contains a loose 2-path), exactly up to float rounding:
    1 - sum_m N(n, m) p^m (1-p)^(C(n,3) - m), summed in log space (the
    big-integer sum takes tens of seconds at n = 100)."""
    total = math.comb(n, 3)
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = [math.log(c) + m * log_p + (total - m) * log_q
             for m, c in loose_path_free_counts(n).items()]
    top = max(terms)
    log_free = top + math.log(sum(math.exp(t - top) for t in terms))
    return -math.expm1(log_free)


def edge_subgraph(g: Hypergraph, edges) -> Hypergraph:
    """The sub-hypergraph spanned by the given edges, relabelled to 0..v-1."""
    label = {x: i for i, x in enumerate(sorted(set().union(*edges)))}
    return Hypergraph(g.s, len(label), [[label[x] for x in e] for e in edges])


def overlap_embeddings(w: Hypergraph) -> dict[tuple, int]:
    """emb(W[F], W) for every nonempty edge subset F of w, keyed by F.

    The entry for F = E(w) is the automorphism count of w (if w has no
    isolated vertices).
    """
    from hyperspectra.hypergraph import count_embeddings

    return {f: count_embeddings(w, edge_subgraph(w, f), cap=w.n)
            for r in range(1, w.e + 1)
            for f in itertools.combinations(w.edges, r)}


def moment_bounds(w: Hypergraph, n: int, overlaps: dict[tuple, int]):
    """(L_n, mu_n) with L_n <= P(G^s(n, n^(-v/e)) contains w) <= mu_n, for w
    without isolated vertices at its own exponent alpha = v/e.

    mu_n = (n)_v / (aut n^v) is the expected copy count (first moment).
    L_n = mu_n / (mu_n + S_n) is the second-moment floor E[X]^2 / E[X^2],
    using E[X^2] <= mu_n^2 + mu_n S_n with
    S_n = (1/aut) sum_{F != {}} emb(W[F], W) n^(alpha |F| - v(F)):
    the copies that share the edges F with a given copy number at most
    emb(W[F], W) n^(v - v(F)) / aut.  The term F = E(w) is 1; for a
    strictly balanced w every other term vanishes as n grows.
    """
    aut = overlaps[w.edges]
    alpha = Fraction(w.n, w.e)
    mu = math.perm(n, w.n) / (aut * n ** w.n)
    spread = sum(emb * n ** float(alpha * len(f) - len(set().union(*f)))
                 for f, emb in overlaps.items()) / aut
    return mu / (mu + spread), mu


# Rooted-pair calculus in Fraction arithmetic over every intermediate.

def _brute_intermediate_sets(pair: RootedPair, cap: int | None):
    """Vertex sets W of induced intermediates, roots <= W <= V(G).

    Yields (W sorted tuple, edge count of G inside W).  The W = roots
    entry is skipped when the induced root edges equal E(H) exactly
    (that K would be H itself, excluded everywhere).
    """
    check_cap(pair.v_diff, DEFAULT_PAIR_CAP, cap, "intermediate")
    base = tuple(range(pair.roots))
    added = pair.added_vertices
    for size in range(len(added) + 1):
        for extra in combinations(added, size):
            w = base + extra
            inside = pair.g.edges_inside(w)
            if size == 0 and inside == len(pair.h_edges):
                continue
            yield w, inside


def brute_pair_max_density(pair: RootedPair, cap: int | None = None) -> Fraction:
    """Max of rho(K, H) over intermediates H < K <= G with added vertices."""
    if pair.v_diff == 0:
        raise DegeneratePair("pair adds no vertices, rho^max(G, H) undefined")
    e_h = len(pair.h_edges)
    best = None
    for w, inside in _brute_intermediate_sets(pair, cap):
        if len(w) == pair.roots:
            continue
        rho = Fraction(inside - e_h, len(w) - pair.roots)
        if best is None or rho > best:
            best = rho
    assert best is not None
    return best


def brute_classify_pair(pair: RootedPair, alpha: Fraction, cap: int | None = None) -> PairClass:
    """Safe, rigid, neutral, or none at this alpha, by exact arithmetic.

    Quantifiers run over induced intermediates only: for each vertex set
    the induced K extremizes both f_alpha(K, H) and f_alpha(G, K), so the
    sub-edge-set choices the definitions allow can never flip an answer.
    """
    alpha = Fraction(alpha)
    v_g, e_g = pair.g.n, pair.g.e
    e_h = len(pair.h_edges)
    full = tuple(range(v_g))

    f_kh = {}   # W -> f_alpha(K_W, H), K ranging over H < K <= G
    f_gk = {}   # W -> f_alpha(G, K_W), K ranging over H <= K < G
    f_gk[tuple(range(pair.roots))] = (Fraction(pair.v_diff)
                                      - alpha * Fraction(pair.e_diff))
    for w, inside in _brute_intermediate_sets(pair, cap):
        f_kh[w] = Fraction(len(w) - pair.roots) - alpha * (inside - e_h)
        if w != full:
            f_gk[w] = Fraction(v_g - len(w)) - alpha * (e_g - inside)

    if f_kh and all(v > 0 for v in f_kh.values()):
        worst = min(f_kh, key=lambda w: (f_kh[w], w))
        return PairClass("safe", worst, f_kh[worst])
    if all(v < 0 for v in f_gk.values()):
        worst = max(f_gk, key=lambda w: (f_gk[w], w))
        return PairClass("rigid", worst, f_gk[worst])
    whole = f_kh.get(full)
    propers = {w: v for w, v in f_kh.items() if w != full}
    if whole == 0 and all(v > 0 for v in propers.values()):
        return PairClass("neutral", full, Fraction(0))
    # report the inequality that broke the best remaining candidate
    if whole is not None and whole > 0:
        bad = min(propers, key=lambda w: (propers[w], w))
        return PairClass("none", bad, propers[bad])
    bad = max(f_gk, key=lambda w: (f_gk[w], w))
    return PairClass("none", bad, f_gk[bad])


def brute_is_strictly_balanced_pair(pair: RootedPair, cap: int | None = None) -> bool:
    """rho(K, H) < rho(G, H) for every proper intermediate K."""
    rho = pair_density(pair)
    e_h = len(pair.h_edges)
    full_size = pair.g.n
    for w, inside in _brute_intermediate_sets(pair, cap):
        if len(w) in (pair.roots, full_size):
            continue
        if Fraction(inside - e_h, len(w) - pair.roots) >= rho:
            return False
    return True


def evaluate_naive(g: Hypergraph, f: Formula, assignment: dict[str, int] | None = None) -> bool:
    """Reference evaluator: no short circuits, fresh environment copies.

    Deliberately different mechanics from evaluate() so the two can serve
    as cross-checking oracles.  Exponential; tiny inputs only.
    """
    env = dict(assignment or {})

    def go(node: Formula, env: dict[str, int]) -> bool:
        if isinstance(node, Equal):
            return env[node.left] == env[node.right]
        if isinstance(node, EdgeAtom):
            values = [env[t] for t in node.terms]
            return len(set(values)) == g.s and g.has_edge(values)
        if isinstance(node, Not):
            return not go(node.body, env)
        if isinstance(node, And):
            results = [go(p, env) for p in node.parts]
            return sum(results) == len(results)
        if isinstance(node, Or):
            results = [go(p, env) for p in node.parts]
            return sum(results) > 0
        if isinstance(node, Implies):
            results = [go(node.left, env), go(node.right, env)]
            return (not results[0]) or results[1]
        if isinstance(node, Exists):
            results = [go(node.body, {**env, node.var: x}) for x in range(g.n)]
            return sum(results) > 0
        if isinstance(node, Forall):
            results = [go(node.body, {**env, node.var: x}) for x in range(g.n)]
            return sum(results) == len(results)
        raise TypeError(f"not a formula: {node!r}")

    return go(f, env)


def evaluate_visits(g: Hypergraph, f: Formula,
                    assignment: dict[str, int] | None = None) -> tuple[bool, int]:
    """(truth value, node visits) of a short-circuit evaluation of f.

    Visits count in pre-order and stop where and/or/implies/exists/forall
    short-circuit: the budget evaluate() charges.  Built on evaluate_naive's
    truth values, so it shares no code with the package.
    """
    def go(node: Formula, env: dict[str, int]) -> tuple[bool, int]:
        if isinstance(node, (Equal, EdgeAtom)):
            return evaluate_naive(g, node, env), 1
        if isinstance(node, Not):
            value, visits = go(node.body, env)
            return not value, 1 + visits
        if isinstance(node, Implies):
            left, visits = go(node.left, env)
            if not left:
                return True, 1 + visits
            right, more = go(node.right, env)
            return right, 1 + visits + more
        if isinstance(node, (Exists, Forall)):
            children = [(node.body, {**env, node.var: x}) for x in range(g.n)]
        else:
            children = [(part, env) for part in node.parts]
        stop = isinstance(node, (Or, Exists))
        total = 1
        for child, child_env in children:
            value, visits = go(child, child_env)
            total += visits
            if value == stop:
                return stop, total
        return not stop, total

    return go(f, dict(assignment or {}))


def _check_pairs(g1: Hypergraph, g2: Hypergraph, k: int, budget: Optional[int]):
    """The budget of a search over pairs of chosen tuples."""
    check_budget((g1.n + 1) ** k * (g2.n + 1) ** k, DEFAULT_EVAL_BUDGET, budget, "positions")


def solve_unmemoized(g1: Hypergraph, g2: Hypergraph, k: int,
                     budget: Optional[int] = None) -> str:
    """Reference solver on raw ordered tuples, no memo table."""
    if g1.s != g2.s:
        raise ValueError("boards must share the same uniformity")
    _check_pairs(g1, g2, k, budget)

    def rec(chosen1: tuple, chosen2: tuple, rounds_left: int) -> bool:
        if rounds_left == 0:
            return True
        pairs = tuple(zip(chosen1, chosen2))
        for side in (1, 2):
            ga, gb = (g1, g2) if side == 1 else (g2, g1)
            for x in range(ga.n):
                ok = False
                for y in range(gb.n):
                    a, b = (x, y) if side == 1 else (y, x)
                    if not extends_partial_iso(g1, g2, pairs, a, b):
                        continue
                    if rec(chosen1 + (a,), chosen2 + (b,), rounds_left - 1):
                        ok = True
                        break
                if not ok:
                    return False
        return True

    return DUPLICATOR if rec((), (), k) else SPOILER


def twelve_vertex_boards():
    """A 3-graph on 12 vertices with no isolated vertex, a relabelled
    copy, and the board with vertex 0's edges removed."""
    rng = random.Random(12)
    while True:
        edges = rng.sample(list(itertools.combinations(range(12), 3)), 24)
        if all(any(x in e for e in edges) for x in range(12)):
            break
    perm = rng.sample(range(12), 12)
    return (Hypergraph(3, 12, edges),
            Hypergraph(3, 12, [[perm[x] for x in e] for e in edges]),
            Hypergraph(3, 12, [e for e in edges if 0 not in e]))


def solve_by_pairs(g1: Hypergraph, g2: Hypergraph, k: int,
                   budget: Optional[int] = None) -> str:
    """Reference solver memoized on the *set* of chosen pairs: the win
    condition depends only on the correspondence, not on the order in
    which its pairs were chosen."""
    if g1.s != g2.s:
        raise ValueError("boards must share the same uniformity")
    _check_pairs(g1, g2, k, budget)
    # one list per Spoiler pick (x on board 1, then y on board 2): the
    # pairs Duplicator may answer with
    moves = [[(x, y) for y in range(g2.n)] for x in range(g1.n)]
    moves += [[(x, y) for x in range(g1.n)] for y in range(g2.n)]
    memo: dict = {}

    def wins(pairs: frozenset, rounds_left: int) -> bool:
        if rounds_left == 0:
            return True
        key = (rounds_left, pairs)
        if key not in memo:
            memo[key] = all(any(extends_partial_iso(g1, g2, pairs, a, b)
                                and wins(pairs | {(a, b)}, rounds_left - 1)
                                for a, b in replies)
                            for replies in moves)
        return memo[key]

    return DUPLICATOR if wins(frozenset(), k) else SPOILER
