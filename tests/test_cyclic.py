"""Cyclic extension steps, decomposition chains, family membership."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperspectra import cyclic
from hyperspectra.cyclic import (
    density_bound,
    find_cyclic_m_extensions,
    is_cyclic_m_extension,
    m_decomposition,
    random_family_member,
)
from hyperspectra.errors import CapExceeded, NotInFamily
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
    with pytest.raises(ValueError):
        density_bound(3, 0)


class TestOneStep:
    def test_loose_cycle_from_one_vertex(self):
        g = Hypergraph(3, 6, CYCLE3)
        assert is_cyclic_m_extension(g, {0}, (), 3)
        assert is_cyclic_m_extension(g, {0}, (), 5)
        # chains of 2 fresh edges plus a closing edge need m >= 3
        assert not is_cyclic_m_extension(g, {0}, (), 2)

    def test_single_edge_between_two_roots(self):
        g = Hypergraph(3, 3, [(0, 1, 2)])
        assert is_cyclic_m_extension(g, {0, 1}, (), 1)
        assert is_cyclic_m_extension(g, {0, 1}, (), 4)

    def test_path_between_two_roots(self):
        # two edges sharing one interior vertex, ends at the two roots
        g = Hypergraph(3, 5, [(0, 2, 3), (1, 3, 4)])
        assert is_cyclic_m_extension(g, {0, 1}, (), 2)

    def test_density_violation(self):
        dense = Hypergraph(3, 4, list(itertools.combinations(range(4), 3)))
        assert max_density(dense)[0] == 1
        assert not is_cyclic_m_extension(dense, {0}, (), 3)

    def test_base_validation(self):
        g = Hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            is_cyclic_m_extension(g, {0, 9}, (), 2)
        with pytest.raises(ValueError):
            is_cyclic_m_extension(g, {0, 1}, [(0, 1, 2)], 2)  # edge leaves base


class TestFindExtensions:
    def test_enumerates_inside_host(self):
        host = Hypergraph(3, 6, CYCLE3)
        moves = find_cyclic_m_extensions(host, {0}, (), 3)
        assert any(set(mv.new_edges) == set(host.edges) for mv in moves)

    def test_respects_vertex_budget(self):
        host = Hypergraph(3, 6, CYCLE3)
        assert find_cyclic_m_extensions(host, {0}, (), 3, budget_vertices=3) == []

    def test_sorted_deterministic(self):
        host = Hypergraph(3, 7, CYCLE3 + [(0, 5, 6)])
        a = find_cyclic_m_extensions(host, {0, 5}, (), 3)
        b = find_cyclic_m_extensions(host, {0, 5}, (), 3)
        assert a == b == sorted(a, key=lambda mv: (mv.case, mv.new_edges))
        assert any(mv.case == 3 for mv in a)  # the (0,5,6) edge itself


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
