"""Game solver, strategy verification, logic agreement."""

import itertools
import random

import pytest

from hyperspectra.errors import BudgetExceeded, NoWitness
from hyperspectra.game import (
    DUPLICATOR,
    SPOILER,
    GamePosition,
    agreement_check,
    extends_partial_iso,
    extension_strategy,
    mirror_strategy,
    solve,
    verify_strategy,
)
from hyperspectra.hypergraph import Hypergraph
from hyperspectra.logic import parse, quantifier_depth

import oracles

EDGE = Hypergraph(3, 3, [(0, 1, 2)])
BARE3 = Hypergraph(3, 3, [])


def complete(s, n):
    return Hypergraph(s, n, list(itertools.combinations(range(n), s)))


class TestSolve:
    def test_identical_boards(self):
        g = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        for k in (0, 1, 2, 3):
            assert solve(g, g, k) == DUPLICATOR

    def test_edge_vs_edgeless(self):
        assert solve(EDGE, BARE3, 2) == DUPLICATOR  # two picks can't show an edge
        assert solve(EDGE, BARE3, 3) == SPOILER

    def test_edgeless_boards(self):
        for k in (1, 2, 3):
            assert solve(Hypergraph(3, 5, []), Hypergraph(3, 8, []), k) == DUPLICATOR

    def test_size_gap_on_edgeless(self):
        # three picks exhaust the two-vertex board, forcing a repeat
        assert solve(Hypergraph(3, 2, []), Hypergraph(3, 5, []), 3) == SPOILER

    def test_symmetric(self):
        rng = random.Random(61)
        for _ in range(25):
            g1 = oracles.random_hypergraph(rng, 3, rng.randint(2, 5), rng.random())
            g2 = oracles.random_hypergraph(rng, 3, rng.randint(2, 5), rng.random())
            k = rng.randint(1, 3)
            assert solve(g1, g2, k) == solve(g2, g1, k)

    def test_spoiler_win_is_monotone_in_k(self):
        # with s=3 a two-round game never exposes an edge, so start at k=3
        rng = random.Random(62)
        seen = 0
        for _ in range(40):
            g1 = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), rng.random())
            g2 = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), rng.random())
            if solve(g1, g2, 3) == SPOILER:
                seen += 1
                assert solve(g1, g2, 4) == SPOILER
        assert seen >= 3

    def test_memoized_matches_reference(self):
        rng = random.Random(63)
        for _ in range(30):
            g1 = oracles.random_hypergraph(rng, 3, rng.randint(1, 5), rng.random())
            g2 = oracles.random_hypergraph(rng, 3, rng.randint(1, 5), rng.random())
            k = rng.randint(0, 3)
            assert solve(g1, g2, k) == oracles.solve_unmemoized(g1, g2, k)

    def test_labels_name_the_positions_met(self):
        # "two non-adjacent vertices, each with a neighbour" has depth 3 and
        # holds only on the matching; a label that counted the edges a new
        # vertex makes, not which chosen vertices they meet, would miss it
        one = Hypergraph(2, 6, [(0, 5)])
        matching = Hypergraph(2, 6, [(0, 2), (1, 4)])
        assert solve(one, matching, 2) == DUPLICATOR
        assert solve(one, matching, 3) == SPOILER == oracles.solve_by_pairs(one, matching, 3)

    def test_matches_pair_set_reference_at_k4(self):
        # relabelled copies give Duplicator's wins; copies with one edge
        # toggled and independent boards mostly Spoiler's
        rng = random.Random(66)
        wins = {DUPLICATOR: 0, SPOILER: 0}
        for i in range(60):
            s, n = rng.choice((2, 3)), rng.randint(5, 7)
            g1 = oracles.random_hypergraph(rng, s, n, rng.random())
            perm = rng.sample(range(n), n)
            edges = {tuple(sorted(perm[x] for x in e)) for e in g1.edges}
            if i % 3 == 1:
                edges ^= {tuple(sorted(rng.sample(range(n), s)))}
            g2 = Hypergraph(s, n, edges)
            if i % 3 == 2:
                g2 = oracles.random_hypergraph(rng, s, rng.randint(5, 7), rng.random())
            want = oracles.solve_by_pairs(g1, g2, 4)
            assert solve(g1, g2, 4) == want
            wins[want] += 1
        assert min(wins.values()) >= 5, wins

    def test_reach_at_k4_on_twelve_vertices(self):
        board, twin, holed = oracles.twelve_vertex_boards()
        assert solve(board, twin, 4) == DUPLICATOR
        assert solve(board, holed, 4) == SPOILER
        # a search over pairs of chosen tuples cannot afford either game
        for other in (twin, holed):
            with pytest.raises(BudgetExceeded):
                oracles.solve_by_pairs(board, other, 4)

    def test_budget(self):
        big = Hypergraph(3, 40, [])
        with pytest.raises(BudgetExceeded):
            solve(big, big, 5)

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            solve(EDGE, Hypergraph(2, 3, []), 2)


class TestPartialIso:
    def test_equality_pattern(self):
        pairs = ((0, 1),)
        assert extends_partial_iso(EDGE, BARE3, pairs, 0, 1)   # repeat both
        assert not extends_partial_iso(EDGE, BARE3, pairs, 0, 2)  # one-sided repeat
        assert not extends_partial_iso(EDGE, BARE3, pairs, 1, 1)

    def test_edge_pattern(self):
        g2 = Hypergraph(3, 4, [(0, 1, 3)])
        pairs = ((0, 0), (1, 1))
        assert not extends_partial_iso(EDGE, g2, pairs, 2, 2)
        assert extends_partial_iso(EDGE, g2, pairs, 2, 3)


class TestStrategies:
    def test_mirror_on_identical(self):
        g = Hypergraph(3, 6, [(0, 1, 2), (1, 3, 4)])
        assert verify_strategy(g, g, 3, mirror_strategy)

    def test_budget_counts_spoiler_lines(self):
        # 42^3 Spoiler lines fit the default budget; 22^6 pairs of tuples would not
        rng = random.Random(21)
        g = Hypergraph(3, 21, rng.sample(list(itertools.combinations(range(21), 3)), 42))
        assert verify_strategy(g, g, 3, mirror_strategy)
        big = Hypergraph(3, 40, [])
        with pytest.raises(BudgetExceeded):  # 80^5 lines
            verify_strategy(big, big, 5, mirror_strategy)

    def test_constant_strategy_loses(self):
        def constant(pos, side, vertex):
            return 0

        assert not verify_strategy(EDGE, BARE3, 3, constant)

    def test_extension_first_round_picks_lowest(self):
        strat = extension_strategy(2)
        pos = GamePosition(EDGE, BARE3, (), (), 2)
        assert strat(pos, 1, 2) == 0
        assert strat(pos, 2, 1) == 0

    def test_extension_raises_without_witness(self):
        strat = extension_strategy(3)
        pos = GamePosition(EDGE, BARE3, (0, 1), (0, 1), 1)
        with pytest.raises(NoWitness):
            strat(pos, 1, 2)  # completing the edge has no image

    def test_extension_wins_on_complete_boards(self):
        assert verify_strategy(complete(3, 6), complete(3, 7), 3,
                               extension_strategy(3))

    def test_verify_implies_solve(self):
        rng = random.Random(64)
        confirmed = 0
        for _ in range(30):
            g1 = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), rng.random())
            g2 = oracles.random_hypergraph(rng, 3, rng.randint(3, 5), rng.random())
            k = rng.randint(1, 2)
            try:
                ok = verify_strategy(g1, g2, k, extension_strategy(k))
            except NoWitness:
                continue
            if ok:
                confirmed += 1
                assert solve(g1, g2, k) == DUPLICATOR
        assert confirmed >= 5


class TestAgreement:
    def test_identical_boards_empty(self):
        g = Hypergraph(3, 4, [(0, 1, 3)])
        corpus = [parse("(exists x (exists y (exists z (N x y z))))", 3)]
        assert agreement_check(g, g, 3, corpus) == []

    def test_spoiler_verdict_asserts_nothing(self):
        sentence = parse("(exists x (exists y (exists z (N x y z))))", 3)
        assert agreement_check(EDGE, BARE3, 3, [sentence]) == []
        from hyperspectra.logic import evaluate
        assert evaluate(EDGE, sentence) and not evaluate(BARE3, sentence)

    def test_compiles_each_sentence_once(self, monkeypatch):
        from hyperspectra import game
        compiled = []
        real = game.compile_formula

        def counting(f, s, *rest):
            compiled.append(f)
            return real(f, s, *rest)

        monkeypatch.setattr(game, "compile_formula", counting)
        corpus = [parse("(exists x (exists y (exists z (N x y z))))", 3),
                  parse("(forall x (= x x))", 3)]
        assert agreement_check(EDGE, EDGE, 3, corpus) == []
        assert compiled == corpus

    def test_depth_validation(self):
        deep = parse("(exists x (exists y (exists z (exists u (= x u)))))", 3)
        with pytest.raises(ValueError):
            agreement_check(EDGE, BARE3, 3, [deep])

    def test_random_instances_no_counterexamples(self):
        rng = random.Random(65)
        for _ in range(60):
            g1 = oracles.random_hypergraph(rng, 3, rng.randint(1, 5), rng.random())
            g2 = oracles.random_hypergraph(rng, 3, rng.randint(1, 5), rng.random())
            k = rng.randint(1, 3)
            corpus = []
            while len(corpus) < 20:
                f = oracles.close_formula(oracles.random_formula(rng, 3, rng.randint(0, 2)))
                if quantifier_depth(f) <= k:
                    corpus.append(f)
            assert agreement_check(g1, g2, k, corpus) == []
