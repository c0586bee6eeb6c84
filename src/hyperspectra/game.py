"""Ehrenfeucht game engine.

Two boards, k rounds.  Each round Spoiler picks a vertex on either board
and Duplicator answers on the other.  Duplicator wins when the chosen
tuples induce partially isomorphic substructures after every round: the
correspondence must preserve equalities and edge membership in both
directions.

The optimal solver compares rank-k types (Ehrenfeucht-Fraisse): the
rank-d type of a tuple of distinct vertices is the set of rank-(d-1)
types of its extensions by one new vertex, each tagged with the edges
the new vertex makes with the tuple.  Both boards intern their types in
one table, so comparing two types is comparing small ints, and the work
grows with the tuples of each board, not with pairs of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .errors import NoWitness, check_budget, DEFAULT_EVAL_BUDGET
from .hypergraph import Hypergraph
from .logic import Formula, compile_formula, quantifier_depth

DUPLICATOR = "duplicator"
SPOILER = "spoiler"

# A strategy maps (position, spoiler's side, spoiler's vertex) to
# Duplicator's reply on the other board.  side is 1 or 2.
Strategy = Callable[["GamePosition", int, int], int]


@dataclass(frozen=True)
class GamePosition:
    g1: Hypergraph
    g2: Hypergraph
    chosen1: tuple[int, ...]
    chosen2: tuple[int, ...]
    rounds_left: int

    def __post_init__(self):
        if len(self.chosen1) != len(self.chosen2):
            raise ValueError("chosen tuples must have equal length")
        if self.rounds_left < 0:
            raise ValueError("rounds_left must be nonnegative")
        for v, g, tag in ((self.chosen1, self.g1, "chosen1"),
                          (self.chosen2, self.g2, "chosen2")):
            for x in v:
                if not 0 <= x < g.n:
                    raise ValueError(f"{tag} vertex {x} outside board")


def extends_partial_iso(g1: Hypergraph, g2: Hypergraph,
                        pairs, a: int, b: int) -> bool:
    """Can the correspondence ``pairs`` absorb the new pair (a, b)?

    Checks the equality pattern (the extended map stays a well-defined
    bijection) and the edge pattern over every s-subset of the mapped
    vertices that involves ``a``.  Earlier subsets were checked when
    their own last vertex arrived, so the incremental test is complete.
    """
    mapping = {}
    for c1, c2 in pairs:
        if (c1 == a) != (c2 == b):
            return False
        mapping[c1] = c2
    if mapping.get(a, b) != b:
        return False
    mapping[a] = b
    s = g1.s
    support = [x for x in mapping if x != a]
    if len(support) + 1 < s:
        return True
    for rest in combinations(support, s - 1):
        sub1 = rest + (a,)
        sub2 = tuple(mapping[x] for x in sub1)
        if len(set(sub2)) < s:
            # injectivity already holds, so this cannot happen; guard anyway
            return False
        if g1.has_edge(sub1) != g2.has_edge(sub2):
            return False
    return True


def _type_children(g: Hypergraph, intern: dict):
    """``children(u, d)`` for a tuple u of distinct vertices of g: the
    frozenset of type ids of u + (v,) at depth d - 1 over every vertex v
    outside u.  An id interns (label, children(u + (v,), d - 1)), where
    the label is the bitmask of the (s-1)-subsets of u's positions that
    form an edge with v.  A chosen vertex picked again only spends one of
    Spoiler's rounds, and Duplicator answers it in kind, so repeats are
    left out."""
    memo: dict = {}

    def children(u: tuple, d: int) -> frozenset:
        if d == 0:
            return frozenset()
        got = memo.get((u, d))
        if got is None:
            labels = [0] * g.n
            for bit, rest in enumerate(combinations(u, g.s - 1)):
                for v in g.link.get(frozenset(rest), ()):
                    labels[v] |= 1 << bit
            got = memo[u, d] = frozenset(
                intern.setdefault((labels[v], children(u + (v,), d - 1)), len(intern))
                for v in range(g.n) if v not in u)
        return got

    return children


def solve(g1: Hypergraph, g2: Hypergraph, k: int,
          budget: Optional[int] = None) -> str:
    """Winner of the k-round game under optimal play.

    Duplicator wins d rounds exactly when the empty tuple has the same
    rank-d type on both boards; the first depth that tells them apart is
    Spoiler's win.  The budget counts the tuples of each board.
    """
    if g1.s != g2.s:
        raise ValueError("boards must share the same uniformity")
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_budget((g1.n + 1) ** k + (g2.n + 1) ** k, DEFAULT_EVAL_BUDGET, budget, "tuples")
    intern: dict = {}
    c1, c2 = _type_children(g1, intern), _type_children(g2, intern)
    for d in range(1, k + 1):
        if c1((), d) != c2((), d):
            return SPOILER
    return DUPLICATOR


def mirror_strategy(pos: GamePosition, side: int, vertex: int) -> int:
    """Answer with the same vertex id; sound only on identical boards."""
    other = pos.g2 if side == 1 else pos.g1
    if vertex >= other.n:
        raise NoWitness(f"vertex {vertex} missing from the other board")
    return vertex


def extension_strategy(k: int) -> Strategy:
    """Greedy Duplicator: copy the equality and adjacency pattern.

    Sound whenever both boards have the full extension property at level
    k - 1; the reply is the smallest vertex id realizing the pattern.
    """

    def strat(pos: GamePosition, side: int, vertex: int) -> int:
        if side == 1:
            pairs = tuple(zip(pos.chosen1, pos.chosen2))
        else:
            pairs = tuple(zip(pos.chosen2, pos.chosen1))
        ga, gb = (pos.g1, pos.g2) if side == 1 else (pos.g2, pos.g1)
        for y in range(gb.n):
            if extends_partial_iso(ga, gb, pairs, vertex, y):
                return y
        raise NoWitness(
            f"no vertex matches the pattern of {vertex} on side {side}")

    return strat


def verify_strategy(g1: Hypergraph, g2: Hypergraph, k: int,
                    strat: Strategy, budget: Optional[int] = None) -> bool:
    """True iff Duplicator following ``strat`` beats every Spoiler line;
    the budget counts the (n1+n2)^k lines."""
    if g1.s != g2.s:
        raise ValueError("boards must share the same uniformity")
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_budget((g1.n + g2.n) ** k, DEFAULT_EVAL_BUDGET, budget, "Spoiler lines")

    def rec(chosen1: tuple, chosen2: tuple, rounds_left: int) -> bool:
        if rounds_left == 0:
            return True
        pos = GamePosition(g1, g2, chosen1, chosen2, rounds_left)
        pairs = tuple(zip(chosen1, chosen2))
        for side in (1, 2):
            ga = g1 if side == 1 else g2
            for x in range(ga.n):
                try:
                    y = strat(pos, side, x)
                except NoWitness:
                    return False
                a, b = (x, y) if side == 1 else (y, x)
                if not 0 <= y < (g2.n if side == 1 else g1.n):
                    return False
                if not extends_partial_iso(g1, g2, pairs, a, b):
                    return False
                if not rec(chosen1 + (a,), chosen2 + (b,), rounds_left - 1):
                    return False
        return True

    return rec((), (), k)


def agreement_check(g1: Hypergraph, g2: Hypergraph, k: int,
                    corpus, budget: Optional[int] = None) -> list[Formula]:
    """Cross-check the solver against the evaluator.

    When the solver declares Duplicator the winner, every sentence of
    quantifier depth <= k must take the same truth value on both boards.
    Returns the list of sentences violating that (always empty unless the
    engine is broken).  Spoiler verdicts assert nothing.
    """
    corpus = list(corpus)
    for f in corpus:
        d = quantifier_depth(f)
        if d > k:
            raise ValueError(f"corpus sentence has depth {d} > k = {k}")
    if solve(g1, g2, k, budget) != DUPLICATOR:
        return []
    return [f for f in corpus
            if (check := compile_formula(f, g1.s))(g1) != check(g2)]
