"""Core type: densities, balance, copies, automorphisms, distances."""

import collections
import contextlib
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hyperspectra.bounds import build_two_cycle_witness
from hyperspectra.errors import CapExceeded, FormatError
from hyperspectra.hypergraph import (
    Hypergraph,
    automorphism_count,
    contains_copy,
    count_copies,
    count_embeddings,
    density,
    from_json,
    is_strictly_balanced,
    max_density,
)
from hyperspectra import hypergraph
from hyperspectra.extensions import RootedPair, _strict_search, strict_extensions
from hyperspectra.experiments import count_unextendable_copies
from hyperspectra.sampling import ModelParams, sample
from hyperspectra.hypergraph import (_GROUP_BOUND, _complement, _embedding_search, _peel,
                                     _search_plan, _symmetry)

import oracles

EDGE3 = Hypergraph(3, 3, [(0, 1, 2)])
BOWTIE = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])  # two edges sharing vertex 2


def complete(s, n):
    import itertools
    return Hypergraph(s, n, list(itertools.combinations(range(n), s)))


def loose_cycle3(length):
    """Loose cycle with `length` edges, s=3: junctions every other vertex."""
    n = 2 * length
    edges = []
    for i in range(length):
        a = 2 * i
        edges.append(tuple(sorted((a, a + 1, (a + 2) % n))))
    return Hypergraph(3, n, edges)


class TestConstruction:
    def test_constructor_dedupes(self):
        g = Hypergraph(3, 4, [(0, 1, 2), (2, 1, 0)])
        assert g.e == 1

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 3, [(0, 1, 3)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(0, 1)])

    def test_edges_canonicalized(self):
        g = Hypergraph(3, 5, [(4, 3, 2), (0, 2, 1)])
        assert g.edges == ((0, 1, 2), (2, 3, 4))

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_link_matches_bruteforce(self, s):
        # every (s-1)-set -> its completions, ascending, over all subsets
        rng = random.Random(70 + s)
        for _ in range(6):
            g = oracles.random_hypergraph(rng, s, 8, rng.uniform(0.1, 0.5))
            want = {}
            for rest in itertools.combinations(range(g.n), s - 1):
                completions = tuple(z for z in range(g.n) if g.has_edge(rest + (z,)))
                if completions:
                    want[frozenset(rest)] = completions
            assert g.link == want


class TestDensity:
    def test_single_vertex(self):
        assert density(Hypergraph(3, 1, [])) == 0

    def test_one_edge(self):
        assert density(EDGE3) == Fraction(1, 3)

    def test_loose_4_cycle(self):
        g = loose_cycle3(4)
        assert (g.n, g.e) == (8, 4)
        assert density(g) == Fraction(1, 2)

    def test_edgeless_max(self):
        rho, witness = max_density(Hypergraph(3, 5, []))
        assert rho == 0
        assert len(witness) == 1

    def test_loose_cycle_max(self):
        # a single closed-path extension of one vertex has max density 1/(s-1)
        rho, _ = max_density(loose_cycle3(3))
        assert rho == Fraction(1, 2)

    def test_max_at_least_density(self):
        rng = random.Random(1)
        for _ in range(40):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 8), rng.random())
            rho_max, witness = max_density(g)
            assert rho_max >= density(g)
            inside = sum(1 for e in g.edges if set(witness).issuperset(e))
            assert Fraction(inside, len(witness)) == rho_max

    def test_flow_equals_bruteforce(self):
        rng = random.Random(7)
        for _ in range(60):
            g = oracles.random_hypergraph(
                rng, rng.choice([2, 3]), rng.randint(2, 9), rng.random())
            assert max_density(g)[0] == oracles.brute_max_density(g)


class TestBalance:
    def test_single_edge(self):
        assert is_strictly_balanced(EDGE3)

    def test_two_disjoint_edges(self):
        g = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert not is_strictly_balanced(g)

    def test_balanced_implies_density_equals_max(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(80):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            if g.e == 0:
                continue
            if is_strictly_balanced(g):
                hits += 1
                assert max_density(g)[0] == density(g)
        assert hits > 5


    def test_matches_bruteforce(self):
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            s = rng.choice([2, 3])
            g = oracles.random_hypergraph(rng, s, rng.randint(s, 9), rng.random())
            if g.e == 0:
                continue
            got = is_strictly_balanced(g)
            assert got == oracles.brute_is_strictly_balanced(g), g
            verdicts[got] += 1
        assert min(verdicts.values()) >= 50, verdicts

    @pytest.mark.parametrize("g, balanced", [
        # disjoint copies tie with the whole at every copy
        (Hypergraph(2, 8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                           (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]), False),
        (Hypergraph(3, 10, [(0, 1, 2), (2, 3, 4), (5, 6, 7), (7, 8, 9)]), False),
        # a cycle ties with a pendant edge hung on it (density 1 both)
        (Hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)]), False),
        # a block of density 1 and a pendant edge adding one vertex, one edge
        (Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (2, 3, 4)]),
         False),
        # a cycle with a chord: both sub-cycles sit at density 1 < 7/6
        (Hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
         True),
        # the same chord closing a loose 3-uniform cycle: 4/6 against 3/5
        (Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 2, 4)]), True),
        (complete(3, 6), True),
    ])
    def test_constructed_ties(self, g, balanced):
        assert oracles.brute_is_strictly_balanced(g) == balanced
        assert is_strictly_balanced(g) == balanced


class TestAutomorphisms:
    def test_single_edge(self):
        assert automorphism_count(EDGE3) == 6

    def test_edgeless_four(self):
        assert automorphism_count(Hypergraph(3, 4, [])) == 24

    def test_bowtie(self):
        # fix the shared vertex; swap pendant pairs inside each edge, swap edges
        assert automorphism_count(BOWTIE) == 8

    def test_cap(self):
        with pytest.raises(CapExceeded):
            automorphism_count(Hypergraph(3, 13, []), cap=12)

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(25):
            g = oracles.random_hypergraph(rng, 3, rng.randint(3, 6), rng.random())
            assert automorphism_count(g) == len(oracles.brute_automorphisms(g))


class TestCopies:
    def test_self_copy(self):
        assert count_copies(EDGE3, EDGE3) == 1

    def test_complete4_edges(self):
        assert count_copies(complete(3, 4), EDGE3) == 4

    def test_complete5_bowties(self):
        assert count_copies(complete(3, 5), BOWTIE) == 15

    def test_embeddings_bruteforce(self):
        rng = random.Random(5)
        for _ in range(40):
            host = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            pat = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), rng.random())
            if pat.n > host.n:
                continue
            emb = count_embeddings(host, pat)
            assert emb == oracles.brute_embedding_count(host, pat)
            assert emb == count_copies(host, pat) * automorphism_count(pat)

    def test_mixed_uniformity_refused(self):
        # no shortcut answers before the uniformities are compared
        host = EDGE3
        for pat in (Hypergraph(2, 2, []), Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]),
                    Hypergraph(2, 2, [(0, 1)])):
            with pytest.raises(ValueError, match="uniformity"):
                contains_copy(host, pat)
            with pytest.raises(ValueError, match="uniformity"):
                count_embeddings(host, pat)

    def test_contains_copy_agrees(self):
        rng = random.Random(6)
        for _ in range(40):
            host = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
            pat = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), 0.5)
            if pat.n > host.n:
                continue
            assert contains_copy(host, pat) == (
                oracles.brute_embedding_count(host, pat) > 0)

    def test_divisibility_checked_under_optimize(self):
        # `python -O` strips assert statements; this check must survive it.
        # The script's own assert fails unless -O is in effect.
        code = ("import hyperspectra.hypergraph as h\n"
                "assert False, 'asserts run'\n"
                "h.automorphism_count = lambda g, cap=None: 7\n"
                "k3 = h.Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])\n"
                "h.count_copies(k3, k3)\n")
        src = os.path.dirname(os.path.dirname(hypergraph.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.strip().endswith(
            "AssertionError: embedding count must be divisible by automorphisms")


class TestSparseHosts:
    """Hosts sparse enough that peeling removes edges, against brute force."""

    # degree-1 vertices, isolated vertices, two components
    PATTERNS = {
        2: [Hypergraph(2, 5, [(0, 1), (1, 2), (3, 4)]),
            Hypergraph(2, 5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
            Hypergraph(2, 4, [(0, 1), (1, 2)]),
            Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)])],
        3: [Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4)]),
            Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
            Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3)]),
            Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])],
    }

    def test_disconnected_pattern_embeds_in_itself(self):
        # each component's first edge must be filtered by its own profile
        star = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
        cycle = [(7, 8, 9), (9, 10, 11), (7, 11, 12)]
        g = Hypergraph(3, 13, star + cycle)
        assert count_embeddings(g, g, cap=13) == 288 == automorphism_count(g, cap=13)

    @pytest.mark.parametrize("s", [2, 3])
    def test_embeddings_match_bruteforce(self, s):
        rng = random.Random(40 + s)
        peeled_hits = 0
        for i in range(16):
            pat = self.PATTERNS[s][i % 4]
            # brute force walks (n)_v maps: keep 6-vertex patterns on n <= 9
            n = rng.randint(8, 11 if pat.n <= 5 else 9)
            host = oracles.random_hypergraph(rng, s, n, rng.uniform(0.05, 0.12))
            if i % 2:
                # plant a copy, so that peeling has something to keep
                image = rng.sample(range(n), pat.n)
                planted = [tuple(image[x] for x in e) for e in pat.edges]
                host = Hypergraph(s, n, host.edges + tuple(planted))
            emb = oracles.brute_embedding_count(host, pat)
            assert count_embeddings(host, pat) == emb
            assert contains_copy(host, pat) == (emb > 0)
            assert count_embeddings(host, pat, induced=True) == (
                oracles.brute_induced_embedding_count(host, pat))
            kept = _peel(host.edges, _search_plan(pat).profiles)
            peeled_hits += emb > 0 and len(kept) < host.e
        assert peeled_hits >= 2

    # least profile entry 2 or 3, so peeling runs its vertex pass first:
    # C4 ((2, 2)), K4 minus an edge ((2, 3), then the edge pass) and K4^(3)
    CORED = {
        2: [Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])],
        3: [Hypergraph(3, 4, list(itertools.combinations(range(4), 3)))],
    }

    @pytest.mark.parametrize("s", [2, 3])
    def test_cored_patterns_match_bruteforce(self, s):
        rng = random.Random(70 + s)
        peeled_hits = misses = 0
        for i in range(16):
            pat = self.CORED[s][(i // 2) % len(self.CORED[s])]
            assert min(prof[0] for prof in _search_plan(pat).profiles) >= 2
            n = rng.randint(8, 11)
            p = rng.uniform(1.5, 3) / math.comb(n - 1, s - 1)  # mean degree 1.5-3
            # odd i plants a copy, so that peeling has something to keep
            host = planted_host(rng, pat, n, p) if i % 2 else (
                oracles.random_hypergraph(rng, s, n, p))
            emb = oracles.brute_embedding_count(host, pat)
            assert count_embeddings(host, pat) == emb
            assert contains_copy(host, pat) == (emb > 0)
            assert count_embeddings(host, pat, induced=True) == (
                oracles.brute_induced_embedding_count(host, pat))
            kept = _peel(host.edges, _search_plan(pat).profiles)
            peeled_hits += emb > 0 and len(kept) < host.e
            misses += emb == 0 and 0 < host.e
        assert peeled_hits >= 2 and misses >= 2

    @pytest.mark.parametrize("s", [2, 3])
    def test_shared_peel_memo(self, s):
        # one memo per host serves patterns with different minimal profiles
        rng = random.Random(60 + s)
        profile_sets = {_search_plan(pat).profiles for pat in self.PATTERNS[s]}
        assert len(profile_sets) > 1
        for _ in range(6):
            edges = oracles.random_hypergraph(rng, s, 10, rng.uniform(0.05, 0.3)).edges
            # both orders: a stricter pattern's peel must never serve a looser one
            for order in (self.PATTERNS[s], self.PATTERNS[s][::-1]):
                host = Hypergraph(s, 10, edges)
                for pat in order:
                    for induced in (False, True):
                        assert count_embeddings(host, pat, induced=induced) == (
                            count_embeddings(Hypergraph(s, 10, edges), pat, induced=induced))
                assert set(host.peel_memo) == profile_sets

    @pytest.mark.parametrize("s", [2, 3])
    def test_forbidden_search_leaves_memo_alone(self, s):
        # a search that avoids a vertex peels without it, for itself only
        rng = random.Random(80 + s)
        fewer = 0
        for i in range(8):
            pat = self.PATTERNS[s][i % 4]
            host = planted_host(rng, pat, 10, 0.15)
            hub = max(range(host.n), key=host.degree)
            avoiding = _embedding_search(host, pat, "count", forbidden={hub})
            assert not host.peel_memo
            want = count_embeddings(Hypergraph(s, host.n, host.edges), pat)
            assert count_embeddings(host, pat) == want
            fewer += avoiding < want
        assert fewer >= 2

    @pytest.mark.parametrize("s", [2, 3])
    def test_isomorphism_matches_bruteforce(self, s):
        # between hypergraphs of equal order and size an embedding is an
        # isomorphism: the search must count them exactly as brute force does
        rng = random.Random(50 + s)
        same = 0
        for _ in range(8):
            g = oracles.random_hypergraph(rng, s, 8, rng.uniform(0.05, 0.15))
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [tuple(sorted(perm[x] for x in e)) for e in g.edges]
            assert count_embeddings(Hypergraph(s, g.n, edges), g) == automorphism_count(g)
            if len(edges) >= 2:
                # move a vertex between two edges: same degrees, maybe
                # another hypergraph
                e1, e2 = rng.sample(edges, 2)
                a = rng.choice([x for x in e1 if x not in e2])
                b = rng.choice([x for x in e2 if x not in e1])
                f1 = tuple(sorted(b if x == a else x for x in e1))
                f2 = tuple(sorted(a if x == b else x for x in e2))
                if f1 not in edges and f2 not in edges:
                    edges = [e for e in edges if e not in (e1, e2)] + [f1, f2]
            h = Hypergraph(s, g.n, edges)
            want = oracles.brute_embedding_count(h, g)
            same += want > 0
            assert count_embeddings(h, g) == want
            assert contains_copy(h, g) == (want > 0)
        assert 0 < same < 8


# patterns with several cycles, on at most 8 vertices for the brute-force oracles
MULTI_CYCLE = {
    # two triangles sharing vertex 0
    "bowtie": Hypergraph(2, 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    # a triangle and a 4-cycle joined by the edge (2, 3)
    "triangle-square": Hypergraph(2, 7, [(0, 1), (1, 2), (0, 2), (2, 3),
                                         (3, 4), (4, 5), (5, 6), (3, 6)]),
    # a loose 3-cycle with a pendant edge at the non-junction vertex 1
    "cycle-pendant": Hypergraph(3, 8, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (1, 6, 7)]),
}


def _antichain(profiles) -> bool:
    return not any(p != q and all(map(operator.ge, p, q))
                   for p in profiles for q in profiles)


class TestPeel:
    """`_peel` keeps what `oracles.naive_peel` keeps, in the same order."""

    # minimal-profile sets per uniformity: least entry 1 (edge pass only),
    # constant at 2 or 3 (vertex pass only), and mixed with least entry
    # 2 (vertex pass, then edge pass; (2, 3) is K4 minus an edge)
    PROFILES = {
        2: [((1, 2),), ((1, 3), (2, 2)),
            ((2, 2),), ((3, 3),),
            ((2, 3),), ((2, 4), (3, 3))],
        3: [((1, 2, 2),), ((1, 1, 3), (2, 2, 2)),
            ((2, 2, 2),), ((3, 3, 3),),
            ((2, 2, 3),), ((2, 3, 3),), ((2, 2, 4), (2, 3, 3))],
        4: [((1, 1, 2, 2),), ((1, 2, 2, 2),),
            ((2, 2, 2, 2),), ((3, 3, 3, 3),),
            ((2, 2, 2, 3),), ((2, 2, 2, 4), (2, 3, 3, 3))],
    }

    @staticmethod
    def hosts(rng, s, count, top):
        """Shuffled edge lists of `count` random s-graphs whose mean degree
        lies between 0.5 and top + 2, and after every second one a random
        hyperforest.  The forests come from their own generator, so the
        s-graphs drawn from rng do not depend on them."""
        forests = random.Random(f"forests {s} {top}")
        for i in range(count):
            n = rng.randint(s + 2, 16)
            p = rng.uniform(0.5, top + 2) / math.comb(n - 1, s - 1)
            edges = list(oracles.random_hypergraph(rng, s, n, p).edges)
            rng.shuffle(edges)
            yield edges
            if i % 2:
                n = forests.randint(s + 2, 16)
                yield oracles.random_hyperforest(forests, s, n, forests.randint(1, n))

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_naive_fixed_point(self, s):
        rng = random.Random(90 + s)
        for profiles in self.PROFILES[s]:
            assert _antichain(profiles)
            partial = 0
            for edges in self.hosts(rng, s, 40, max(map(max, profiles))):
                kept = _peel(edges, profiles)
                assert kept == oracles.naive_peel(edges, profiles)
                partial += 0 < len(kept) < len(edges)
            assert partial >= 3, profiles

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_vertex_pass_reads_each_vertex_once(self, s, monkeypatch):
        # With every profile entry equal, the vertex pass is the whole peel.
        # A host with no Berge cycle never builds an incidence.  On any
        # other host the pass reads the edges of exactly the vertices that
        # lose all theirs, each once.
        reads = collections.Counter()
        built = []

        class Counted(dict):
            def __getitem__(self, x):
                reads[x] += 1
                return dict.__getitem__(self, x)

        def counted_incidence(edges):
            built.append(edges)
            deg, inc = incidence(edges)
            return deg, Counted(inc)

        incidence = hypergraph._incidence
        monkeypatch.setattr(hypergraph, "_incidence", counted_incidence)
        rng = random.Random(95 + s)
        for low in (2, 3):
            partial = acyclic = 0
            for edges in self.hosts(rng, s, 30, low):
                reads.clear()
                built.clear()
                kept = _peel(edges, ((low,) * s,))
                assert kept == oracles.naive_peel(edges, ((low,) * s,))
                if not oracles.has_berge_cycle(edges):
                    assert not built and kept == []
                    acyclic += 1
                    continue
                assert set(reads.values()) <= {1}
                assert set(reads) == set().union(*edges) - set().union(*kept)
                partial += 0 < len(kept) < len(edges)
            assert acyclic >= 5
            assert partial >= 3

    def test_sparse_graphs_at_the_triangle_profile(self):
        # gate 2's hosts: G(150, 1/150), peeled for K3 and C4
        profiles = _search_plan(Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])).profiles
        assert profiles == ((2, 2),)
        cores = 0
        for i in range(12):
            host = sample(ModelParams(2, 150, p=1 / 150, seed=7, trial_index=i))
            kept = _peel(host.edges, profiles)
            assert kept == oracles.naive_peel(host.edges, profiles)
            cores += bool(kept)
        assert cores >= 2


class TestBergeExit:
    """`_berge_acyclic` finds a Berge cycle exactly when
    `oracles.has_berge_cycle` does, and `_peel`, which exits on it, keeps
    what `oracles.naive_peel` keeps."""

    @staticmethod
    def hosts(s):
        """Shuffled edge lists: random hyperforests, the same with one
        planted loose cycle, and random s-graphs."""
        rng = random.Random(60 + s)
        for _ in range(40):
            n = rng.randint(4 * (s - 1), 18)
            forest = oracles.random_hyperforest(rng, s, n, rng.randint(1, n))
            cycle = loose_cycle(s, rng.randint(3, 4), rng, n)
            p = rng.uniform(0.5, 3) / math.comb(n - 1, s - 1)
            for edges in (forest, list(dict.fromkeys(forest + cycle)),
                          list(oracles.random_hypergraph(rng, s, n, p).edges)):
                rng.shuffle(edges)
                yield edges

    @staticmethod
    def fixed(s):
        """(edges, has a cycle) for hosts built to catch an order-dependent
        union-find."""
        tree = [tuple(range(i * (s - 1), i * (s - 1) + s)) for i in range(3)]  # a loose path
        other = [tuple(x + 100 for x in f) for f in tree]
        joined = (1, 101, *range(200, 200 + s - 2))  # meets each path once
        cycle = loose_cycle(s, 4)
        cases = [(tree + other + [joined], False),
                 # the edge that closes the cycle comes first
                 (cycle[-1:] + cycle[:-1], True),
                 (cycle[:-1], False)]
        if s >= 3:
            # a Berge 2-cycle: two edges sharing two vertices, no loose cycle
            cases.append(([tuple(range(s)), (0, 1, *range(s, 2 * s - 2))], True))
        return cases

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_oracle(self, s):
        kinds = collections.Counter()
        for edges in self.hosts(s):
            cyclic = oracles.has_berge_cycle(edges)
            assert hypergraph._berge_acyclic(edges) == (not cyclic)
            kinds[cyclic] += 1
        assert kinds[True] >= 40 and kinds[False] >= 40
        for edges, cyclic in self.fixed(s):
            assert oracles.has_berge_cycle(edges) == cyclic
            assert hypergraph._berge_acyclic(edges) == (not cyclic)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_peel_matches_naive(self, s):
        hosts = list(self.hosts(s)) + [edges for edges, _ in self.fixed(s)]
        for profiles in TestPeel.PROFILES[s]:
            for edges in hosts:
                assert _peel(edges, profiles) == oracles.naive_peel(edges, profiles)

    def test_forest_host_builds_no_incidence(self):
        # gate 2's counts on a G(150, 1/150) host with no cycle: one union-find
        # for K3 and C4 together, and no incidence
        k3, c4 = SYMMETRIC["K3"], SYMMETRIC["C4"]
        for pat in (k3, c4):
            count_copies(pat, pat)  # caches the patterns' symmetry
        host = next(h for h in (sample(ModelParams(2, 150, p=1 / 150, seed=7, trial_index=i))
                                for i in range(20))
                    if h.e and not oracles.has_berge_cycle(h.edges))
        calls = _matcher_calls(lambda: (count_copies(host, k3), count_copies(host, c4)))
        assert calls["result"] == (0, 0)
        assert calls["_berge_acyclic"] == 1
        assert calls["_incidence"] == 0


def planted_host(rng, pat, n, p):
    """A sparse random host on n vertices holding one copy of pat."""
    host = oracles.random_hypergraph(rng, pat.s, n, p)
    image = rng.sample(range(n), pat.n)
    planted = [tuple(image[x] for x in e) for e in pat.edges]
    return Hypergraph(pat.s, n, host.edges + tuple(planted))


class TestCycleOrder:
    """The search plan closes short cycles early; answers must not move."""

    @pytest.mark.parametrize("name", sorted(MULTI_CYCLE))
    def test_multi_cycle_matches_bruteforce(self, name):
        pat = MULTI_CYCLE[name]
        rng = random.Random(name)
        # brute force walks (n)_v maps: at most (8)_7 = 40,320 per host
        for n in (7, 8, 9, 10) if pat.n <= 5 else (pat.n, 8, 8, 8):
            host = planted_host(rng, pat, n, 0.15 if pat.s == 2 else 0.05)
            emb = oracles.brute_embedding_count(host, pat)
            assert emb > 0
            assert count_embeddings(host, pat) == emb
            assert contains_copy(host, pat)
            assert count_embeddings(host, pat, induced=True) == (
                oracles.brute_induced_embedding_count(host, pat))

    def test_witness_closes_a_cycle_early(self):
        # the loose 3-cycle at the hub closes at step 3 (after the start
        # edge and two of its edges), not after every branch has grown
        plan = _search_plan(build_two_cycle_witness(3, 2, 1, 1))
        first = next(i for i, step in enumerate(plan.steps) if len(step[0]) >= 2)
        assert first <= 3

    def test_witness_self_embeddings(self):
        w = build_two_cycle_witness(3, 2, 1, 1)
        assert count_embeddings(w, w, cap=15) == automorphism_count(w, cap=15)


# patterns with large automorphism groups, brute-forceable on hosts of 8-9 vertices
SYMMETRIC = {
    "K3": Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]),
    "C4": Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4^(3)": complete(3, 4),
    "loose C3": loose_cycle3(3),
    "loose C4": loose_cycle3(4),
    "star2": Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)]),
    "star3": Hypergraph(3, 7, [(0, 1, 2), (0, 3, 4), (0, 5, 6)]),
    "two edges": Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
    # isolated vertices, one of them between the edge vertices
    "K3 + 2 isolated": Hypergraph(2, 5, [(0, 2), (2, 3), (0, 3)]),
    "edge + 2 isolated": Hypergraph(3, 5, [(1, 2, 4)]),
}

# rooted pairs whose added part has symmetries fixing the roots
SYMMETRIC_PAIRS = {
    # two edges through the root: 8 maps fix it
    "bow at root": RootedPair(Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)]), 1),
    # a 4-cycle rooted at opposite vertices: the other two swap
    "C4 opposite": RootedPair(Hypergraph(2, 4, [(0, 2), (1, 2), (0, 3), (1, 3)]), 2),
    # a triangle apart from the root edge: its three vertices rotate freely
    "detached triangle": RootedPair(Hypergraph(2, 5, [(0, 1), (2, 3), (3, 4), (2, 4)]), 2,
                                    [(0, 1)]),
    # perfbench's unextendable pair: the added triple is detached
    "two triples": RootedPair(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), 3, [(0, 1, 2)]),
}

# sha256 of `_collect_runs()`, recorded before exists and count broke
# symmetry: collect must keep every map and its order
COLLECT_DIGEST = "375046120f638399900dd8c1eaf831748c1df56ba56bf64969ca478de1d43fd1"


def _added_pattern(pair):
    return Hypergraph(pair.g.s, pair.g.n, pair.pattern.edges)


def _brute_rooted_count(host, roots, pair, forbidden):
    """Placements of the added part over the roots that land every
    pattern edge on a host edge, strict or not."""
    pool = [w for w in range(host.n) if w not in set(roots) | set(forbidden)]
    count = 0
    for placement in itertools.permutations(pool, pair.v_diff):
        image = tuple(roots) + placement
        count += all(tuple(sorted(image[x] for x in e)) in host.edge_set
                     for e in pair.pattern.edges)
    return count


def _collect_runs():
    rng = random.Random(2007)
    runs = []
    for name in sorted(SYMMETRIC):
        pat = SYMMETRIC[name]
        host = planted_host(rng, pat, pat.n + 2, 0.3 if pat.s == 2 else 0.08)
        for strict in (False, True):
            for forbidden in ((), (0,)):
                runs.append(_embedding_search(host, pat, "collect", strict=strict,
                                              forbidden=forbidden))
    for name in sorted(SYMMETRIC_PAIRS):
        pair = SYMMETRIC_PAIRS[name]
        host = planted_host(rng, pair.g, 8, 0.3 if pair.g.s == 2 else 0.1)
        for strict in (False, True):
            runs.append(_embedding_search(host, _added_pattern(pair), "collect", strict=strict,
                                          roots=tuple(range(pair.roots))))
    w = build_two_cycle_witness(3, 2, 1, 1)
    host = planted_host(rng, w, 20, 0.01)
    runs.append(_embedding_search(host, w, "collect"))
    runs.append(_embedding_search(w, w, "collect"))
    return runs


class TestSymmetryBreaking:
    """exists and count visit one map per automorphism class and count
    multiplies by the group order; every answer must match the
    unconditioned brute-force scans."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_counts_match_bruteforce(self, name):
        pat = SYMMETRIC[name]
        assert automorphism_count(pat) == len(oracles.brute_automorphisms(pat))
        assert _symmetry(pat, 0).order * factorial(len(_search_plan(pat).loose)) == (
            automorphism_count(pat))
        rng = random.Random(name)
        # brute force walks (n)_v maps: at most (8)_8 = 40,320 per host
        for n in (pat.n, 8) if pat.n >= 7 else (pat.n, 8, 9):
            host = planted_host(rng, pat, n, 0.3 if pat.s == 2 else 0.1)
            for forbidden in ((), (rng.randrange(n),)):
                rest = host.induced([w for w in range(n) if w not in forbidden])
                emb = oracles.brute_embedding_count(rest, pat)
                ind = oracles.brute_induced_embedding_count(rest, pat)
                for strict, want in ((False, emb), (True, ind)):
                    kw = {"strict": strict, "forbidden": forbidden}
                    assert _embedding_search(host, pat, "count", **kw) == want
                    assert _embedding_search(host, pat, "exists", **kw) == min(want, 1)
                    assert len(_embedding_search(host, pat, "collect", **kw)) == want

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_PAIRS))
    def test_rooted_counts_match_bruteforce(self, name):
        pair = SYMMETRIC_PAIRS[name]
        pat = _added_pattern(pair)
        fixing = [m for m in oracles.brute_automorphisms(pair.g)
                  if m[:pair.roots] == tuple(range(pair.roots))]
        assert _symmetry(pat, pair.roots).order == len(fixing) > 1
        rng = random.Random(name)
        extended = 0
        for _ in range(3):
            host = planted_host(rng, pair.g, 8, 0.3 if pair.g.s == 2 else 0.05)
            assert count_unextendable_copies(host, pair) == (
                oracles.brute_unextendable_copies(host, pair))
            for roots in rng.sample(list(itertools.permutations(range(8), pair.roots)), 4):
                for forbidden in ((), (rng.choice([w for w in range(8) if w not in roots]),)):
                    kw = {"roots": roots, "forbidden": forbidden}
                    placements = oracles.brute_strict_extensions(host, roots, pair, forbidden)
                    extended += bool(placements)
                    assert _embedding_search(host, pat, "count", strict=True, **kw) == (
                        len(placements))
                    assert _strict_search(host, roots, pair, "exists", forbidden=forbidden) == (
                        min(len(placements), 1))
                    assert _embedding_search(host, pat, "count", **kw) == (
                        _brute_rooted_count(host, roots, pair, forbidden))
        assert extended

    def test_witness(self):
        # gate 3's 15-vertex witness: the unconditioned collect is the reference
        w = build_two_cycle_witness(3, 2, 1, 1)
        assert _symmetry(w, 0).order == automorphism_count(w, cap=w.n) == 4
        rng = random.Random(15)
        for _ in range(3):
            host = planted_host(rng, w, 22, 0.005)
            for strict in (False, True):
                for forbidden in ((), (rng.randrange(22),)):
                    kw = {"strict": strict, "forbidden": forbidden}
                    want = len(_embedding_search(host, w, "collect", **kw))
                    assert _embedding_search(host, w, "count", **kw) == want
                    assert _embedding_search(host, w, "exists", **kw) == min(want, 1)

    def test_group_past_the_bound(self):
        # K_{1,7} and a disjoint edge: 7! * 2 automorphisms, so the search
        # runs without conditions and automorphism_count counts them by it;
        # for the dense complement it searches the sparse pattern instead
        pat = Hypergraph(2, 10, [(0, x) for x in range(1, 8)] + [(8, 9)])
        assert factorial(7) * 2 > _GROUP_BOUND
        assert _symmetry(pat, 0) is None
        assert len(_embedding_search(pat, pat, "collect", limit=10)) == 10
        dense = _complement(pat)
        assert dense.e > math.comb(10, 2) // 2 and _symmetry(dense, 0) is None
        assert automorphism_count(pat) == automorphism_count(dense) == factorial(7) * 2
        host = Hypergraph(2, 11, pat.edges + ((9, 10),))
        assert contains_copy(host, pat)
        assert _embedding_search(host, pat, "exists", forbidden=(0,)) == 0

    def test_collect_maps_unchanged(self):
        runs = _collect_runs()
        assert all(runs[-2:]) and sum(map(len, runs)) > 1000
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == COLLECT_DIGEST


def loose_cycle(s, length, rng=None, n=0):
    """Edges of a loose cycle of `length` edges at uniformity s: on
    0..length*(s-1)-1 in order, or on random vertices of range(n)."""
    size = length * (s - 1)
    pool = rng.sample(range(n), size) if rng else list(range(size))
    joints, rest = pool[:length], iter(pool[length:])
    return [tuple(sorted((joints[i], joints[(i + 1) % length],
                          *(next(rest) for _ in range(s - 2)))))
            for i in range(length)]


# patterns whose edges lie on loose 3- or 4-cycles, on at most 8 vertices
CYCLIC = {
    "K3": SYMMETRIC["K3"],
    "C4": SYMMETRIC["C4"],
    "loose C3": loose_cycle3(3),
    "loose C4": loose_cycle3(4),
    # every edge on a triangle and on a 4-cycle: domain class (3, 4)
    "K4": complete(2, 4),
    # domain classes (3,) and (4,), and a bridge with no domain
    "triangle-square": MULTI_CYCLE["triangle-square"],
}

# rooted pairs whose added part holds loose cycles
CYCLIC_PAIRS = {
    "K4 over an edge": RootedPair(complete(2, 4), 2, [(0, 1)]),
    "C4 at a vertex": RootedPair(SYMMETRIC["C4"], 1),
    "loose C3 at a vertex": RootedPair(loose_cycle3(3), 1),
}


@contextlib.contextmanager
def _without_domains():
    """Searches planned with no cycle lengths: no edge gets a domain."""
    saved = hypergraph._CYCLE_LENGTHS
    hypergraph._CYCLE_LENGTHS = ()
    _search_plan.cache_clear()
    _symmetry.cache_clear()
    try:
        yield
    finally:
        hypergraph._CYCLE_LENGTHS = saved
        _search_plan.cache_clear()
        _symmetry.cache_clear()


def _edge_classes(plan) -> dict:
    """Each pattern edge's domain class, read off the plan's steps."""
    classes = {}
    for known, new, checks, _, cls in plan.steps:
        classes[tuple(sorted(known + new))] = cls
        for step_checks in checks:
            classes.update(step_checks)
    return classes


def _domain_cut(host, pat, roots=0) -> bool:
    """Did a search of pat on host index the peeled edges and find some
    of them on no loose cycle of a length the pattern needs?"""
    peel = host.peel_memo[_search_plan(pat, roots).profiles]
    return any(len(on) < len(peel.edges) for on in peel.cycles.values())


def _cycle_index(host, length) -> set:
    """The host's edges on a loose cycle of `length` edges, as the search
    indexes them."""
    return hypergraph._Peel(list(host.edges)).cycle_edges(length)


def _matcher_calls(run) -> collections.Counter:
    """Calls of each function of the hypergraph module while run() runs."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == hypergraph.__file__:
            calls[frame.f_code.co_name] += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        calls["result"] = run()
    finally:
        sys.setprofile(saved)
    return calls


class TestCycleDomains:
    """A pattern edge on a loose 3- or 4-cycle only goes to a host edge on
    a loose cycle of each of its lengths; no answer and no collect order
    may move."""

    def test_plan_classes(self):
        assert _search_plan(CYCLIC["K3"]).classes == ((3,),)
        assert _search_plan(CYCLIC["C4"]).classes == ((4,),)
        assert _search_plan(CYCLIC["loose C4"]).classes == ((4,),)
        assert _search_plan(CYCLIC["K4"]).classes == ((3, 4),)
        plan = _search_plan(build_two_cycle_witness(3, 2, 1, 1))
        assert plan.classes == ((3,), (4,))
        # 3 edges on the odd cycle, 4 on the even one, and the bridge
        assert sorted(collections.Counter(_edge_classes(plan).values()).items()) == (
            [(0, 1), (1, 3), (2, 4)])
        # over the edge 01, the edge 23 of K4 lies on triangles only
        pair = CYCLIC_PAIRS["K4 over an edge"]
        assert _search_plan(_added_pattern(pair), 2).classes == ((3,), (3, 4))
        # sweep's loose 2-path and exact's unextendable pair skip it all
        for pat in (Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]),
                    Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])):
            assert not _search_plan(pat).classes

    def test_index_matches_oracle(self):
        rng = random.Random(2010)
        found = collections.Counter()
        for i in range(540):
            s, length = (2, 3, 4)[i % 3], rng.choice((3, 4))
            # every other host gets a planted loose cycle
            n = rng.randint(length * (s - 1), length * (s - 1) + 2) if i % 2 else (
                rng.randint(s + 2, 4 * (s - 1) + 2))
            space = list(itertools.combinations(range(n), s))
            edges = set(rng.sample(space, min(len(space), rng.randint(2, 7))))
            if i % 2:
                edges.update(loose_cycle(s, length, rng, n))
            host = Hypergraph(s, n, edges)
            for length in (3, 4):
                want = oracles.loose_cycle_edges(host.edges, length)
                assert _cycle_index(host, length) == want
                found[s, length, bool(want)] += 1
        for s in (2, 3, 4):
            for length in (3, 4):
                assert min(found[s, length, False], found[s, length, True]) >= 20, found

    @pytest.mark.parametrize("s, edges, want3, want4", [
        # three edges through one vertex: their meeting vertices coincide
        (2, [(0, 1), (0, 2), (0, 3)], set(), set()),
        (3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)], set(), set()),
        # two edges that share two vertices, closed up by other edges
        (3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)], set(), set()),
        (4, [(0, 1, 2, 3), (0, 1, 4, 5), (2, 4, 6, 7), (3, 5, 8, 9)], set(), set()),
        # a 4-cycle with a chord: the chord is on triangles, on no 4-cycle
        (2, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
         {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}, {(0, 1), (1, 2), (2, 3), (0, 3)}),
        (3, loose_cycle(3, 4) + [(0, 2, 8)],
         set(loose_cycle(3, 4)) | {(0, 2, 8)}, set(loose_cycle(3, 4))),
    ])
    def test_decoys(self, s, edges, want3, want4):
        host = Hypergraph(s, 1 + max(map(max, edges)), edges)
        for length, want in ((3, want3), (4, want4)):
            assert oracles.loose_cycle_edges(host.edges, length) == want
            assert _cycle_index(host, length) == want

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    def test_counts_match_bruteforce(self, name):
        pat = CYCLIC[name]
        rng = random.Random(name)
        planted = cut = 0
        for i in range(12):
            # brute force walks (n)_v maps: at most (8)_8 = 40,320 per host
            n = 8 if pat.n > 6 else rng.randint(7, 9)
            # mean degree near the pattern's largest: the peel keeps
            # edges on no short cycle
            top = max(map(pat.degree, range(pat.n)))
            p = rng.uniform(top - 0.5, top + 1.5) / math.comb(n - 1, pat.s - 1)
            host = planted_host(rng, pat, n, p) if i % 2 else (
                oracles.random_hypergraph(rng, pat.s, n, p))
            for forbidden in ((), (rng.randrange(n),)):
                rest = host.induced([w for w in range(n) if w not in forbidden])
                want = (oracles.brute_embedding_count(rest, pat),
                        oracles.brute_induced_embedding_count(rest, pat))
                for strict in (False, True):
                    kw = {"strict": strict, "forbidden": forbidden}
                    assert _embedding_search(host, pat, "count", **kw) == want[strict]
                    assert _embedding_search(host, pat, "exists", **kw) == min(want[strict], 1)
                    assert len(_embedding_search(host, pat, "collect", **kw)) == want[strict]
            planted += count_embeddings(host, pat) > 0
            cut += _domain_cut(host, pat)
        assert planted >= 6 and cut >= 2

    @pytest.mark.parametrize("name", sorted(CYCLIC_PAIRS))
    def test_rooted_counts_match_bruteforce(self, name):
        pair = CYCLIC_PAIRS[name]
        pat = _added_pattern(pair)
        assert _search_plan(pat, pair.roots).classes
        rng = random.Random(name)
        extended = cut = 0
        for _ in range(4):
            host = planted_host(rng, pair.g, 8, rng.uniform(1.5, 3) / math.comb(7, pair.g.s - 1))
            for roots in rng.sample(list(itertools.permutations(range(8), pair.roots)), 4):
                for forbidden in ((), (rng.choice([w for w in range(8) if w not in roots]),)):
                    kw = {"roots": roots, "forbidden": forbidden}
                    placements = oracles.brute_strict_extensions(host, roots, pair, forbidden)
                    extended += bool(placements)
                    assert strict_extensions(host, roots, pair, forbidden=forbidden) == placements
                    assert _embedding_search(host, pat, "count", strict=True, **kw) == (
                        len(placements))
                    assert _strict_search(host, roots, pair, "exists", forbidden=forbidden) == (
                        min(len(placements), 1))
                    assert _embedding_search(host, pat, "count", **kw) == (
                        _brute_rooted_count(host, roots, pair, forbidden))
                cut += _domain_cut(host, pat, pair.roots)
        assert extended and cut

    def test_witness_matches_unfiltered_search(self):
        # gate 3's witness has 15 vertices, past the brute-force scans: the
        # same search without domains is the reference, collect order included
        w = build_two_cycle_witness(3, 2, 1, 1)
        rng = random.Random(1515)
        runs = []
        for i in range(6):
            n = rng.randint(18, 24)
            hosts = [planted_host(rng, w, n, 1.2 / math.comb(n - 1, 2)) if i % 2 else
                     oracles.random_hypergraph(rng, 3, n, 2.5 / math.comb(n - 1, 2))]
            hosts.append(Hypergraph(3, n, hosts[0].edges + tuple(loose_cycle(3, 4, rng, n))))
            for host in hosts:
                forbidden = (rng.randrange(n),)
                for kw in ({}, {"strict": True}, {"forbidden": forbidden},
                           {"strict": True, "forbidden": forbidden}):
                    runs.append((host, kw, [_embedding_search(host, w, mode, **kw)
                                            for mode in ("count", "exists", "collect")]))
        cut = sum(_domain_cut(host, w) for host, kw, _ in runs if not kw)
        with _without_domains():
            for host, kw, got in runs:
                fresh = Hypergraph(3, host.n, host.edges)
                assert got == [_embedding_search(fresh, w, mode, **kw)
                               for mode in ("count", "exists", "collect")]
        assert sum(bool(got[0]) for _, _, got in runs) >= 4 and cut >= 4

    def test_filter_fires_before_backtracking(self):
        # the 2-core is one 5-cycle: no triangle and no 4-cycle
        five = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        host = Hypergraph(2, 9, five + [(0, 5), (5, 6), (2, 7), (7, 8)])
        k3, c4 = CYCLIC["K3"], CYCLIC["C4"]
        automorphism_count(k3)  # plans and groups are cached once per pattern
        calls = _matcher_calls(lambda: count_embeddings(host, k3))
        assert calls["result"] == 0 and calls["_loose_two_paths"] == 1
        assert "place" not in calls and "assign" not in calls
        # K3 and C4 share the host's one peel and 2-path table; C4 indexes
        # its own length once
        automorphism_count(c4)
        calls = _matcher_calls(lambda: count_embeddings(host, c4))
        assert calls["result"] == 0 and calls["_loose_cycle_edges"] == 1
        assert "_loose_two_paths" not in calls and "_peel" not in calls
        assert "place" not in calls and count_embeddings(host, k3) == 0
        assert list(host.peel_memo) == [((2, 2),)]
        peel = host.peel_memo[(2, 2),]
        assert peel.edges == five and peel.cycles == {3: set(), 4: set()}
        # with a chord the same search backtracks and finds the triangle
        chorded = Hypergraph(2, 9, host.edges + ((0, 2),))
        calls = _matcher_calls(lambda: count_embeddings(chorded, k3))
        assert calls["result"] == 6 and calls["place"] and calls["assign"]


class TestInduced:
    def test_full_set(self):
        g = BOWTIE
        assert g.induced(range(g.n)) == g

    def test_two_vertices_of_edge(self):
        got = EDGE3.induced([0, 1])
        assert (got.n, got.e) == (2, 0)

    def test_complete5_minus_one(self):
        assert complete(3, 5).induced([0, 1, 2, 4]) == complete(3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EDGE3.induced([])


class TestJson:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(25):
            g = oracles.random_hypergraph(rng, 3, rng.randint(1, 8), rng.random())
            assert from_json(g.to_json()) == g

    def test_positional_errors(self):
        with pytest.raises(FormatError, match="missing key"):
            from_json(json.dumps({"s": 3, "n": 4}))
        with pytest.raises(FormatError, match=r"edges\[0\]\[2\]"):
            from_json(json.dumps({"s": 3, "n": 3, "edges": [[0, 1, 7]]}))
        with pytest.raises(FormatError, match=r"edges\[1\]"):
            from_json(json.dumps(
                {"s": 3, "n": 4, "edges": [[0, 1, 2], [0, 1, 2]]}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_isomorphic_relabeling_preserves_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), rng.random())
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Hypergraph(3, g.n, [tuple(sorted(perm[x] for x in e)) for e in g.edges])
    assert max_density(g)[0] == max_density(h)[0]
    assert automorphism_count(g) == automorphism_count(h)
