"""Rooted pairs: densities, alpha classification, strict extensions, N^0."""

import itertools
import json
import random
import statistics
from fractions import Fraction

import pytest

from hyperspectra.errors import CapExceeded, DegeneratePair, FormatError
from hyperspectra.bounds import build_two_cycle_witness
from hyperspectra.extensions import (
    PairClass,
    RootedPair,
    classify_pair,
    f_alpha,
    is_strictly_balanced_pair,
    pair_density,
    pair_from_json,
    pair_max_density,
    strict_extensions,
)
from hyperspectra.extensions import _strict_search
from hyperspectra.hypergraph import Hypergraph, density

import oracles


def complete(s, n):
    return Hypergraph(s, n, list(itertools.combinations(range(n), s)))


# two roots, one added vertex closing a single edge
VERTEX_EDGE = RootedPair(Hypergraph(3, 3, [(0, 1, 2)]), 2)


class TestRootedPair:
    def test_h_edge_must_be_g_edge(self):
        with pytest.raises(ValueError):
            RootedPair(Hypergraph(3, 4, [(0, 1, 2)]), 3, [(0, 1, 3)])

    def test_h_edge_must_sit_in_roots(self):
        g = Hypergraph(3, 4, [(0, 1, 3)])
        with pytest.raises(ValueError):
            RootedPair(g, 3, [(0, 1, 3)])

    def test_roots_range(self):
        with pytest.raises(ValueError):
            RootedPair(Hypergraph(3, 2, []), 3)

    def test_counts(self):
        g = Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (2, 4, 5)])
        pair = RootedPair(g, 3, [(0, 1, 2)])
        assert pair.v_diff == 3
        assert pair.e_diff == 2
        assert pair.pattern.edges == ((2, 3, 4), (2, 4, 5))

    def test_json_round_trip(self):
        g = Hypergraph(3, 5, [(0, 1, 2), (1, 3, 4)])
        pair = RootedPair(g, 3, [(0, 1, 2)])
        assert pair_from_json(pair.to_json()) == pair

    def test_json_errors(self):
        with pytest.raises(FormatError, match="missing key"):
            pair_from_json(json.dumps({"g": {"s": 3, "n": 3, "edges": []}}))
        with pytest.raises(FormatError, match=r"h_edges\[0\]"):
            pair_from_json(json.dumps({
                "g": {"s": 3, "n": 3, "edges": [[0, 1, 2]]},
                "roots": 2, "h_edges": [[0, 1, 2]]}))


class TestPairDensities:
    def test_one_vertex_one_edge(self):
        assert pair_density(VERTEX_EDGE) == 1

    def test_closed_path_over_one_root(self):
        # k chain edges from the root plus a closing edge that reuses an
        # interior vertex: k(s-1) added vertices, k+1 edges
        k = 2
        g = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4), (0, 1, 4)])
        pair = RootedPair(g, 1)
        assert pair.v_diff == k * 2 and pair.e_diff == k + 1
        assert pair_density(pair) == Fraction(k + 1, 2 * k)

    def test_unextendable_hypothesis_pair(self):
        # base = one edge, whole = two disjoint edges: rho(H) = rho(G, H)
        g = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        pair = RootedPair(g, 3, [(0, 1, 2)])
        h = g.induced([0, 1, 2])
        assert pair_density(pair) == density(h) == Fraction(1, 3)
        assert is_strictly_balanced_pair(pair)

    def test_degenerate(self):
        pair = RootedPair(Hypergraph(3, 3, [(0, 1, 2)]), 3, [(0, 1, 2)])
        with pytest.raises(DegeneratePair):
            pair_density(pair)
        with pytest.raises(DegeneratePair):
            pair_max_density(pair)

    def test_max_density_dominates(self):
        rng = random.Random(8)
        for _ in range(30):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 8), rng.random())
            roots = rng.randint(0, g.n - 1)
            pair = RootedPair(g, roots,
                              [e for e in g.edges if e[-1] < roots])
            assert pair_max_density(pair) >= pair_density(pair)

    def test_cap(self):
        pair = RootedPair(Hypergraph(3, 18, []), 1)
        with pytest.raises(CapExceeded):
            pair_max_density(pair)


class TestFAlpha:
    def test_no_added_edges(self):
        pair = RootedPair(Hypergraph(3, 3, []), 1)
        for alpha in (Fraction(1, 7), Fraction(5), Fraction(99)):
            assert f_alpha(pair, alpha) == 2

    def test_zero(self):
        g = Hypergraph(3, 4, [(0, 1, 3), (1, 2, 3)])
        pair = RootedPair(g, 3)
        assert f_alpha(pair, Fraction(1, 2)) == 0

    def test_fractional(self):
        base = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3),
                (0, 2, 4), (0, 3, 4), (1, 2, 3)]
        pair = RootedPair(Hypergraph(3, 5, base), 2)
        assert (pair.v_diff, pair.e_diff) == (3, 7)
        assert f_alpha(pair, Fraction(2, 5)) == Fraction(1, 5)


class TestClassify:
    def test_lone_vertex_safe_everywhere(self):
        pair = RootedPair(Hypergraph(3, 2, []), 1)
        for alpha in (Fraction(1, 9), Fraction(1), Fraction(7)):
            assert classify_pair(pair, alpha).kind == "safe"

    def test_vertex_edge_sweep(self):
        assert classify_pair(VERTEX_EDGE, Fraction(1, 2)).kind == "safe"
        neutral = classify_pair(VERTEX_EDGE, Fraction(1))
        assert neutral.kind == "neutral"
        assert neutral.witness_value == 0
        rigid = classify_pair(VERTEX_EDGE, Fraction(2))
        assert rigid.kind == "rigid"
        assert rigid.witness_value == -1

    def test_none_kind(self):
        # one added vertex carries both edges, the other is bare
        g = Hypergraph(3, 5, [(0, 1, 3), (1, 2, 3)])
        pair = RootedPair(g, 3)
        got = classify_pair(pair, Fraction(1, 2))
        assert got.kind == "none"

    def test_safe_monotone_downward(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(60):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            roots = rng.randint(1, g.n - 1)
            pair = RootedPair(g, roots, [e for e in g.edges if e[-1] < roots])
            a_small = Fraction(rng.randint(1, 6), rng.randint(4, 9))
            a_big = a_small + Fraction(rng.randint(1, 5), 3)
            small = classify_pair(pair, a_small).kind
            big = classify_pair(pair, a_big).kind
            if big == "safe":
                assert small == "safe"
            if small == "rigid":
                assert big == "rigid"
            checked += 1
        assert checked == 60

    def test_neutral_pins_alpha(self):
        rng = random.Random(14)
        for _ in range(60):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            roots = rng.randint(1, g.n - 1)
            pair = RootedPair(g, roots, [e for e in g.edges if e[-1] < roots])
            if pair.e_diff == 0:
                continue
            breakpoint_alpha = Fraction(pair.v_diff, pair.e_diff)
            got = classify_pair(pair, breakpoint_alpha)
            assert f_alpha(pair, breakpoint_alpha) == 0
            assert got.kind in ("neutral", "none")
            # neutral demands every proper intermediate stay positive
            if got.kind == "neutral":
                assert classify_pair(pair, breakpoint_alpha / 2).kind == "safe"


class TestPairOracles:
    """The integer scans against the Fraction scans in tests/oracles.py."""

    @staticmethod
    def random_pair(rng):
        s = rng.choice([2, 3])
        n = rng.randint(s, 8)
        g = oracles.random_hypergraph(rng, s, n, rng.random())
        roots = rng.randint(0, n)
        # H takes a random share of the root-set edges, so roots often
        # carry edges of G that are not H-edges
        inside = [e for e in g.edges if e[-1] < roots]
        return RootedPair(g, roots, [e for e in inside if rng.random() < 0.5])

    def test_classify_matches_fraction_oracle(self):
        rng = random.Random(2024)
        kinds = {}
        non_h_roots = 0
        for _ in range(2400):
            pair = self.random_pair(rng)
            non_h_roots += any(e[-1] < pair.roots and e not in pair.h_edges
                               for e in pair.g.edges)
            if pair.v_diff and pair.e_diff and rng.random() < 0.5:
                alpha = Fraction(pair.v_diff, pair.e_diff)  # where neutral lives
            else:
                alpha = Fraction(rng.randint(0, 12), rng.randint(1, 6))
            got = classify_pair(pair, alpha)
            want = oracles.brute_classify_pair(pair, alpha)
            assert (got.kind, got.witness_vertices, got.witness_value) == \
                (want.kind, want.witness_vertices, want.witness_value), (pair, alpha)
            assert type(got.witness_value) is Fraction
            kinds[got.kind] = kinds.get(got.kind, 0) + 1
        assert min(kinds.get(k, 0) for k in ("safe", "rigid", "neutral", "none")) >= 50, kinds
        assert non_h_roots >= 200

    def test_densities_match_fraction_oracle(self):
        rng = random.Random(2025)
        verdicts = set()
        for _ in range(2000):
            pair = self.random_pair(rng)
            if pair.v_diff == 0:
                with pytest.raises(DegeneratePair):
                    pair_max_density(pair)
                continue
            got = pair_max_density(pair)
            assert got == oracles.brute_pair_max_density(pair)
            assert type(got) is Fraction
            balanced = is_strictly_balanced_pair(pair)
            assert balanced == oracles.brute_is_strictly_balanced_pair(pair)
            verdicts.add(balanced)
        assert verdicts == {True, False}

    @staticmethod
    def assert_matches_oracle(pair, alphas):
        for alpha in alphas:
            assert classify_pair(pair, alpha) == oracles.brute_classify_pair(pair, alpha), alpha
        if pair.v_diff:
            assert pair_max_density(pair) == oracles.brute_pair_max_density(pair)
            assert is_strictly_balanced_pair(pair) == \
                oracles.brute_is_strictly_balanced_pair(pair)

    @pytest.mark.parametrize("name", ["loose_path_15", "loose_cycle_14", "graph_cycle_11",
                                      "edgeless_12", "witness_15"])
    def test_tie_heavy_pairs_match_oracle(self, name):
        # 10 to 14 added vertices over one root: many sets share a value,
        # so the witness tuple tests the tie-break
        g, alphas = {
            "loose_path_15": (Hypergraph(3, 15, [(i, i + 1, i + 2) for i in range(0, 13, 2)]),
                              [Fraction(2)]),
            "loose_cycle_14": (Hypergraph(3, 14, [(i, i + 1, (i + 2) % 14)
                                                  for i in range(0, 14, 2)]),
                               [Fraction(13, 7), Fraction(3)]),
            "graph_cycle_11": (Hypergraph(2, 11, [(i, (i + 1) % 11) for i in range(11)]),
                               [Fraction(1), Fraction(10, 11), Fraction(1, 2)]),
            "edgeless_12": (Hypergraph(3, 12, []), [Fraction(1)]),
            # gate 3's witness: safe, none and rigid
            "witness_15": (build_two_cycle_witness(3, 2, 1, 1),
                           [Fraction(3, 2), Fraction(7, 4), Fraction(15, 8)]),
        }[name]
        self.assert_matches_oracle(RootedPair(g, 1), alphas)

    def test_huge_alpha_terms_do_not_overflow(self):
        near_one = Fraction(10**40 + 1, 10**40)
        alphas = [near_one, 1 / near_one]
        self.assert_matches_oracle(VERTEX_EDGE, alphas)
        assert [classify_pair(VERTEX_EDGE, a).kind for a in alphas] == ["rigid", "safe"]
        rng = random.Random(41)
        for _ in range(20):
            g = oracles.random_hypergraph(rng, 3, rng.randint(4, 10), rng.random())
            roots = rng.randint(0, 2)
            self.assert_matches_oracle(
                RootedPair(g, roots, [e for e in g.edges if e[-1] < roots]), alphas)

    def test_no_added_vertices(self):
        g = Hypergraph(3, 3, [(0, 1, 2)])
        # the root edge is H's: no K above H, and f(G, H) = 0
        closed = RootedPair(g, 3, [(0, 1, 2)])
        assert classify_pair(closed, Fraction(1)) == PairClass("none", (0, 1, 2), Fraction(0))
        # the root edge is not H's: K = G is the one set above H
        loose = RootedPair(g, 3)
        assert classify_pair(loose, Fraction(1)) == PairClass("rigid", (0, 1, 2), Fraction(-1))
        assert classify_pair(loose, Fraction(0)) == PairClass("neutral", (0, 1, 2), Fraction(0))
        assert classify_pair(loose, Fraction(-1)) == PairClass("safe", (0, 1, 2), Fraction(1))
        for pair in (closed, loose):
            self.assert_matches_oracle(pair, [Fraction(1), Fraction(0), Fraction(-1)])
            with pytest.raises(DegeneratePair):
                is_strictly_balanced_pair(pair)

    def test_seventeen_added_vertices_at_cap_17(self):
        # a loose path through 0..16 plus the bare vertex 17, rooted at 0:
        # an edge inside W brings two added vertices of its own, so
        # rho(K, H) <= 1/2 with equality at {0, 1, 2}, and z - i >= 1
        # everywhere, first reached by W = (0, 1)
        pair = RootedPair(Hypergraph(3, 18, [(i, i + 1, i + 2) for i in range(0, 15, 2)]), 1)
        assert pair.v_diff == 17
        assert pair_max_density(pair, cap=17) == Fraction(1, 2)
        assert not is_strictly_balanced_pair(pair, cap=17)  # rho(G, H) = 8/17
        assert classify_pair(pair, Fraction(1), cap=17) == \
            PairClass("safe", (0, 1), Fraction(1))
        with pytest.raises(CapExceeded, match="intermediate cap is 16$"):
            classify_pair(pair, Fraction(1))


class TestStrictExtensions:
    def test_complete_host(self):
        got = strict_extensions(complete(3, 5), (0, 1), VERTEX_EDGE)
        assert got == [(2,), (3,), (4,)]

    def test_edgeless_host(self):
        assert strict_extensions(Hypergraph(3, 5, []), (0, 1), VERTEX_EDGE) == []

    def test_single_edge_host(self):
        host = Hypergraph(3, 3, [(0, 1, 2)])
        assert strict_extensions(host, (0, 1), VERTEX_EDGE) == [(2,)]

    def test_forbidden_vertices(self):
        got = strict_extensions(complete(3, 5), (0, 1), VERTEX_EDGE,
                                forbidden={2, 3})
        assert got == [(4,)]

    def test_forbidden_vertex_outside_host(self):
        for x in (5, 99, -1):
            with pytest.raises(ValueError, match=f"forbidden vertex {x} outside the host"):
                strict_extensions(complete(3, 5), (0, 1), VERTEX_EDGE, forbidden={x})
        # a forbidden root is dropped, as before
        got = strict_extensions(complete(3, 5), (0, 1), VERTEX_EDGE, forbidden={0, 2})
        assert got == [(3,), (4,)]

    def test_pattern_edge_inside_roots(self):
        g = Hypergraph(3, 4, [(0, 1, 2)])
        pair = RootedPair(g, 3)  # the edge is not an H-edge yet sits in roots
        assert strict_extensions(complete(3, 6), (0, 1, 2), pair) == []

    def test_no_added_vertices(self):
        pair = RootedPair(Hypergraph(3, 3, [(0, 1, 2)]), 3, [(0, 1, 2)])
        assert strict_extensions(complete(3, 5), (0, 1, 2), pair) == [()]

    def test_strictness_excludes_denser_landings(self):
        # pair adds an edge vertex plus a bare vertex; landing the bare
        # vertex on 3 would pick up the spurious host edge {0,2,3}
        pair = RootedPair(Hypergraph(3, 4, [(0, 1, 2)]), 2)
        host = Hypergraph(3, 5, [(0, 1, 2), (0, 2, 3)])
        got = strict_extensions(host, (0, 1), pair)
        assert got == [(2, 4)]

    def test_matches_bruteforce(self):
        rng = random.Random(17)
        for _ in range(120):
            host = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            n_pair = rng.randint(2, 5)
            roots = rng.randint(1, n_pair - 1)
            g = oracles.random_hypergraph(rng, 3, n_pair, rng.random())
            pair = RootedPair(g, roots, [e for e in g.edges if e[-1] < roots])
            tuple_choices = list(itertools.permutations(range(host.n), roots))
            root_tuple = rng.choice(tuple_choices)
            forbidden = set(rng.sample(range(host.n), rng.randint(0, 2)))
            got = strict_extensions(host, root_tuple, pair, forbidden=forbidden)
            want = oracles.brute_strict_extensions(host, root_tuple, pair, forbidden)
            assert got == want

    def test_exists_matches_bruteforce(self):
        rng = random.Random(23)
        verdicts = {0: 0, 1: 0}
        for _ in range(200):
            host = oracles.random_hypergraph(rng, 3, rng.randint(4, 7), rng.random())
            n_pair = rng.randint(2, 5)
            roots = rng.randint(1, n_pair - 1)
            g = oracles.random_hypergraph(rng, 3, n_pair, rng.random())
            pair = RootedPair(g, roots, [e for e in g.edges if e[-1] < roots])
            root_tuple = tuple(rng.sample(range(host.n), roots))
            forbidden = set(rng.sample(range(host.n), rng.randint(0, 2)))
            got = _strict_search(host, root_tuple, pair, "exists", forbidden=forbidden)
            want = oracles.brute_strict_extensions(host, root_tuple, pair, forbidden)
            assert got == int(bool(want))
            verdicts[got] += 1
        assert min(verdicts.values()) >= 40, verdicts

    def test_exists_trivial_cases(self):
        inside = RootedPair(Hypergraph(3, 4, [(0, 1, 2)]), 3)
        assert _strict_search(complete(3, 6), (0, 1, 2), inside, "exists") == 0
        nothing_added = RootedPair(Hypergraph(3, 3, [(0, 1, 2)]), 3, [(0, 1, 2)])
        assert _strict_search(complete(3, 5), (0, 1, 2), nothing_added, "exists") == 1
        with pytest.raises(ValueError, match="expected 3 roots"):
            _strict_search(complete(3, 5), (0, 1), nothing_added, "exists")

    def test_cap(self):
        # the pair adds three vertices
        pair = RootedPair(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), 3, [(0, 1, 2)])
        host = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert len(strict_extensions(host, (0, 1, 2), pair, cap=3)) == 6
        for mode in ("collect", "exists"):
            with pytest.raises(CapExceeded, match="extension cap is 2"):
                _strict_search(host, (0, 1, 2), pair, mode, cap=2)

    @pytest.mark.parametrize("s, n_pat, edges, roots", [
        # two triangles sharing vertex 0, rooted at the shared vertex
        (2, 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], 1),
        # a triangle and a 4-cycle joined by (2, 3), rooted on the triangle
        (2, 7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)], 2),
        # a loose 3-cycle with a pendant edge at vertex 1
        (3, 8, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (1, 6, 7)], 1),
    ])
    def test_multi_cycle_matches_bruteforce(self, s, n_pat, edges, roots):
        g = Hypergraph(s, n_pat, edges)
        pair = RootedPair(g, roots, [e for e in g.edges if e[-1] < roots])
        rng = random.Random(n_pat)
        found = 0
        for i in range(6):
            n = n_pat + i % 2
            host = oracles.random_hypergraph(rng, s, n, 0.05 if s == 2 else 0.03)
            image = rng.sample(range(n), n_pat)
            host = Hypergraph(s, n, host.edges + tuple(
                tuple(image[x] for x in e) for e in edges))
            # the planted copy's roots, then a random root tuple
            for root_tuple in (tuple(image[:roots]), tuple(rng.sample(range(n), roots))):
                got = strict_extensions(host, root_tuple, pair)
                assert got == oracles.brute_strict_extensions(host, root_tuple, pair)
                found += bool(got)
        assert found >= 2

    def test_isomorphism_equivariant(self):
        rng = random.Random(18)
        for _ in range(25):
            host = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            g = oracles.random_hypergraph(rng, 3, 4, rng.random())
            pair = RootedPair(g, 2, [e for e in g.edges if e[-1] < 2])
            roots = (0, 1) if host.n >= 2 else None
            perm = list(range(host.n))
            rng.shuffle(perm)
            relabeled = Hypergraph(3, host.n,
                                   [tuple(sorted(perm[x] for x in e))
                                    for e in host.edges])
            base = strict_extensions(host, roots, pair)
            moved = strict_extensions(relabeled,
                                      tuple(perm[x] for x in roots), pair)
            assert sorted(tuple(perm[w] for w in t) for t in base) == moved


def test_median_extension_count_growth():
    """N^0 for the codegree pair grows like n^(2/3) at alpha = 1/3."""
    from hyperspectra.sampling import ModelParams, p_from_alpha, sample

    alpha = Fraction(1, 3)

    def median_count(n, seed):
        counts = []
        for i in range(50):
            host = sample(ModelParams(s=3, n=n, p=p_from_alpha(n, alpha),
                                      seed=seed, trial_index=i))
            counts.append(len(strict_extensions(host, (0, 1), VERTEX_EDGE)))
        return statistics.median(counts)

    small = median_count(40, seed=2024)
    large = median_count(80, seed=2025)
    assert small > 0
    ratio = large / small
    assert 1.3 <= ratio <= 2.3  # ideal 2^(2/3) = 1.587
