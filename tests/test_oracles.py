"""Self-checks for the exact finite-n laws in ``oracles`` that the
acceptance gates 1 and 3 compare their Monte Carlo estimates against."""
import itertools
import math
from fractions import Fraction

import oracles

from hyperspectra.bounds import build_two_cycle_witness
from hyperspectra.hypergraph import (Hypergraph, automorphism_count,
                                     contains_copy)

LOOSE_PATH = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])


def _enumerated_free_counts(n):
    """Exhaustive scan of all 3-graphs on n vertices; also checks that "no two
    edges share exactly one vertex" is the program's own containment test."""
    triples = list(itertools.combinations(range(n), 3))
    counts = {}
    for mask in range(1 << len(triples)):
        edges = [t for i, t in enumerate(triples) if mask >> i & 1]
        free = all(len(set(a) & set(b)) != 1
                   for a, b in itertools.combinations(edges, 2))
        assert free != contains_copy(Hypergraph(3, n, edges), LOOSE_PATH)
        if free:
            counts[len(edges)] = counts.get(len(edges), 0) + 1
    return counts


def test_loose_path_free_counts_match_enumeration():
    for n in range(1, 6):
        assert oracles.loose_path_free_counts(n) == _enumerated_free_counts(n)
    # n = 6 enumerates 2^20 edge sets, too slow for the suite; these counts
    # were checked against that enumeration once.
    assert oracles.loose_path_free_counts(6) == {0: 1, 1: 20, 2: 100, 3: 120, 4: 30}


def test_loose_path_probability_matches_exact_sum():
    for n, p in ((5, Fraction(1, 3)), (12, Fraction(1, 10)), (20, Fraction(1, 50))):
        total = math.comb(n, 3)
        free = sum(c * p ** m * (1 - p) ** (total - m)
                   for m, c in oracles.loose_path_free_counts(n).items())
        assert math.isclose(oracles.loose_path_probability(n, float(p)),
                            float(1 - free), rel_tol=1e-9)


def test_moment_bounds_bracket_exact_law():
    # The loose 2-path is strictly balanced (density 2/5 > 1/3), so at its
    # own exponent 5/2 the moment bounds must bracket the exact law.
    overlaps = oracles.overlap_embeddings(LOOSE_PATH)
    assert overlaps[LOOSE_PATH.edges] == automorphism_count(LOOSE_PATH) == 8
    for n in (10, 40, 100):
        low, mu = oracles.moment_bounds(LOOSE_PATH, n, overlaps)
        exact = oracles.loose_path_probability(n, n ** -2.5)
        assert 0 < low <= exact <= mu


def test_witness_overlap_embeddings_match_brute():
    # Gate 3's witness: check the subsets small enough for the permutation
    # scan, i.e. the single edges and the pairs of edges sharing a vertex.
    w = build_two_cycle_witness(3, 2, 1, 1)
    overlaps = oracles.overlap_embeddings(w)
    assert len(overlaps) == 2 ** w.e - 1
    assert overlaps[w.edges] == automorphism_count(w, cap=w.n) == 4
    small = {f: oracles.edge_subgraph(w, f) for f in overlaps}
    small = {f: sub for f, sub in small.items() if sub.n <= 5}
    assert len(small) == 8 + 11
    brute = {sub: oracles.brute_embedding_count(w, sub)
             for sub in set(small.values())}
    for f, sub in small.items():
        assert overlaps[f] == brute[sub]


def _enumerated_copy_moments(pattern, n, p):
    """Mean and variance of the copy count of `pattern`, by scanning every
    s-graph on n vertices; sums of X and X^2 are grouped by edge count."""
    slots = list(itertools.combinations(range(n), pattern.s))
    bit = {f: 1 << i for i, f in enumerate(slots)}
    copies = {sum(bit[tuple(sorted(perm[x] for x in f))] for f in pattern.edges)
              for perm in itertools.permutations(range(n), pattern.n)}
    sums = {}
    for mask in range(1 << len(slots)):
        x = sum(1 for c in copies if mask & c == c)
        m = bin(mask).count("1")
        s1, s2 = sums.get(m, (0, 0))
        sums[m] = (s1 + x, s2 + x * x)
    weight = {m: p ** m * (1 - p) ** (len(slots) - m) for m in sums}
    mean = sum(weight[m] * s1 for m, (s1, _) in sums.items())
    return mean, sum(weight[m] * s2 for m, (_, s2) in sums.items()) - mean ** 2


def test_copy_count_moments_match_enumeration():
    triangle = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
    four_cycle = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cherry = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    cases = [(triangle, 5), (triangle, 6), (four_cycle, 5), (four_cycle, 6),
             (LOOSE_PATH, 5), (cherry, 5)]
    for pattern, n in cases:
        for p in (Fraction(1, 3), Fraction(3, 4)):
            assert oracles.copy_count_moments(pattern, n, p) == (
                _enumerated_copy_moments(pattern, n, p))
