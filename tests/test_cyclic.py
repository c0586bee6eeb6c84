"""Cyclic extension steps, decomposition chains, family membership."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from hyperspectra import cyclic
from hyperspectra.cyclic import (
    density_bound,
    m_decomposition,
    random_family_member,
)
from hyperspectra.errors import CapExceeded, NotInFamily, NoWitness
from hyperspectra.hypergraph import Hypergraph, max_density


# loose 3-cycle whose vertex 0 is interior to one edge: a closed path
# grown out of 0 never returns to 0 itself, it closes onto the path
CYCLE3 = [(0, 1, 2), (2, 3, 4), (1, 4, 5)]
# a second loose 3-cycle hung on vertex 1, again interior over there
CYCLE3B = [(1, 6, 7), (7, 8, 9), (6, 9, 10)]


def test_density_bound_values():
    assert density_bound(3, 1) == 1
    assert density_bound(3, 3) == Fraction(3, 5)
    assert density_bound(4, 2) == Fraction(2, 5)
    assert density_bound(2, 2) == 2  # the smallest m(s-1) allowed
    for s, m in ((3, 0), (2, 1), (2, 0), (3, -1), (1, 5)):
        with pytest.raises(ValueError, match=r"m\(s-1\) >= 2"):
            density_bound(s, m)


class TestDecomposition:
    def test_single_vertex(self):
        assert m_decomposition(Hypergraph(3, 1, []), 2) == []

    def test_loose_cycle_one_step(self):
        g = Hypergraph(3, 6, CYCLE3)
        chain = m_decomposition(g, 3)
        assert len(chain) == 1
        vs, es = chain[0]
        assert set(vs) == set(range(6))
        assert set(es) == set(g.edges)

    def test_two_cycles_sharing_a_vertex(self):
        g = Hypergraph(3, 11, CYCLE3 + CYCLE3B)
        assert max_density(g)[0] < density_bound(3, 3)
        chain = m_decomposition(g, 3)
        assert len(chain) == 2
        assert set(chain[-1][1]) == set(g.edges)
        # snapshots strictly grow
        assert set(chain[0][0]) < set(chain[1][0])

    def test_dense_not_in_family(self):
        dense = Hypergraph(3, 4, list(itertools.combinations(range(4), 3)))
        with pytest.raises(NotInFamily):
            m_decomposition(dense, 3)

    def test_density_rejection_measures_once(self, monkeypatch):
        # max_density is only asked for the message, once; a member never asks
        calls = []

        def counted(g):
            calls.append(g)
            return max_density(g)

        monkeypatch.setattr(cyclic, "max_density", counted)
        dense = Hypergraph(3, 4, list(itertools.combinations(range(4), 3)))
        with pytest.raises(NotInFamily) as exc:
            m_decomposition(dense, 3)
        assert str(exc.value) == "max density 1 is not below 3/5"
        assert len(calls) == 1
        m_decomposition(Hypergraph(3, 6, CYCLE3), 3)
        assert len(calls) == 1

    def test_disconnected_not_in_family(self):
        g = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(NotInFamily):
            m_decomposition(g, 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            m_decomposition(Hypergraph(3, 30, []), 2)

    def test_chain_steps_nest(self):
        four = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 6, 7)]
        three = [(3, 8, 9), (9, 10, 11), (8, 11, 12)]
        g = Hypergraph(3, 13, four + three)
        chain = m_decomposition(g, 4)
        prev_vs, prev_es = None, frozenset()
        for vs, es in chain:
            if prev_vs is not None:
                assert set(prev_vs) <= set(vs)
                assert prev_es <= set(es)
            prev_vs, prev_es = vs, frozenset(es)
        assert set(chain[-1][1]) == set(g.edges)


class TestFamilySampling:
    def test_members_decompose(self):
        rng = random.Random(55)
        for _ in range(25):
            m = rng.randint(2, 4)
            g = random_family_member(3, m, rng, max_vertices=14)
            assert max_density(g)[0] < density_bound(3, m)
            chain = m_decomposition(g, m)
            assert chain
            assert set(chain[-1][1]) == set(g.edges)

    def test_density_reciprocal_form(self):
        # 1/rho^max is either s-1 or s-1 - 1/(m + a/b) with a <= m
        rng = random.Random(56)
        seen_fractional = 0
        for _ in range(40):
            m = rng.randint(2, 4)
            g = random_family_member(3, m, rng, max_vertices=16)
            recip = 1 / max_density(g)[0]
            if recip == 2:
                continue
            seen_fractional += 1
            gap = 2 - recip           # = 1/(m + a/b)
            assert 0 < gap
            tail = 1 / gap - m        # = a/b, a <= m
            assert 0 <= tail.numerator <= m * tail.denominator
        assert seen_fractional > 0

    def test_member_fingerprint(self):
        """Twelve members per (s, m), each (s, m) from its own seeded rng.
        The digest was recorded before rejected candidates were skipped by
        their edge and vertex counts: a skip draws nothing from the rng, so
        the stream, every member and its edge list stay the same."""
        rows = []
        for s, m in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
            rng = random.Random(1000 * s + m)
            for _ in range(12):
                g = random_family_member(s, m, rng, max_vertices=16)
                rows.append([s, m, g.n, [list(e) for e in g.edges]])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "f88f421769fc3fdb08261a27a4d2879d59ac02c9641268e40b00127ed1a696b4"

    @pytest.mark.parametrize("s,m,seed,max_vertices,want", [
        (3, 2, 7, 14, "b31a2bbddcc38d0da8dfc407f83dc6b0a63c217f71e718ad397b83a6d8267467"),
        (4, 3, 11, 20, "c6bde81c85f724d92edfd7395e5c65ad66fb69c75aac999aaa14cef31ba66f25"),
        (5, 2, 12, 18, "821a0c5764471c869d30f8b8b88b33dd7629974e99885ad4be49bb171ae790b9"),
    ])
    def test_member_fingerprint_other_sizes(self, s, m, seed, max_vertices, want):
        """What `test_member_fingerprint` leaves out: vertex caps other
        than 16, at both ends of 14..20, and s = 5.  Eight members from
        one seeded rng, digested; recorded while each candidate was still
        relabeled through its sorted vertex set."""
        rng = random.Random(seed)
        rows = []
        for _ in range(8):
            g = random_family_member(s, m, rng, max_vertices=max_vertices)
            rows.append([g.n, [list(e) for e in g.edges]])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == want

    def test_chain_of_the_exact_benchmark(self, monkeypatch):
        """The 102 members the `exact` benchmark draws, m = 2, 3, 4 from one
        rng: a step drawing one value more or fewer changes the digest,
        recorded before steps were refused by their counts.  490 candidates
        reach a flow, and only they are built into an `ExtensionMove`."""
        counts = {"flows": 0, "moves": 0}
        below, move = cyclic.max_density_below, cyclic.ExtensionMove

        def counted_below(g, q):
            counts["flows"] += 1
            return below(g, q)

        def counted_move(*args):
            counts["moves"] += 1
            return move(*args)

        monkeypatch.setattr(cyclic, "max_density_below", counted_below)
        monkeypatch.setattr(cyclic, "ExtensionMove", counted_move)
        rng = random.Random(700)
        rows = []
        for m in (2, 3, 4):
            for _ in range(34):
                g = random_family_member(3, m, rng, max_vertices=20)
                rows.append([m, g.n, [list(e) for e in g.edges]])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "2e20f3b072ee2fe4fe352939a9cefb8e8badbf24d03b170fb18beae10a071038"
        assert counts == {"flows": 490, "moves": 490}

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_graphs_grow_or_find_no_witness(self, m):
        """s = 2 has no single-edge step: an edge through two anchors has no
        room for a fresh vertex.  The first step, a path of k < m edges from
        the start vertex closed back onto itself, needs k >= 3 in a graph,
        so members grow only from m = 4 on."""
        grown = 0
        for seed in range(5):
            try:
                g = random_family_member(2, m, random.Random(seed))
            except NoWitness:
                continue
            assert max_density(g)[0] < density_bound(2, m)
            grown += 1
        assert grown == (5 if m == 4 else 0)

    @pytest.mark.parametrize("max_vertices,attempts,made", [
        (0, 40, 0), (1, 40, 0), (2, 40, 40), (2, 7, 7)])
    def test_no_witness_names_attempts_made(self, max_vertices, attempts, made):
        # a closed path from the one start vertex needs at least 3 vertices
        with pytest.raises(NoWitness, match=f"found in {made} attempts$"):
            random_family_member(3, 3, random.Random(1), max_vertices, attempts)
