"""Formula DSL: parsing, printing, evaluation, distance/cycle builders."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperspectra import logic
from hyperspectra.bounds import build_two_cycle_witness
from hyperspectra.errors import BudgetExceeded, ParseError
from hyperspectra.hypergraph import Hypergraph
from hyperspectra.logic import (
    And,
    EdgeAtom,
    Equal,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    _edge_guard,
    build_B,
    build_C,
    build_D,
    build_D_eq,
    build_Dtilde,
    build_thm9_L,
    compile_formula,
    evaluate,
    free_vars,
    has_full_extension_property,
    parse,
    quantifier_depth,
    to_text,
)

import oracles

EDGE3 = Hypergraph(3, 3, [(0, 1, 2)])
PATH2 = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])


class TestParse:
    def test_equality(self):
        f = parse("(= x x)", 3)
        assert f == Equal("x", "x")
        assert free_vars(f) == {"x"}

    def test_free_vars_under_quantifier(self):
        f = parse("(exists x (N x y z))", 3)
        assert free_vars(f) == {"y", "z"}

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("(N x y)", 3)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("(exists x\n  (oops x))", 3)
        assert exc.value.line == 2

    def test_reserved_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("(exists not (= not not))", 3)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("(= x y) (= y z)", 3)


def test_print_parse_identity_on_corpus():
    rng = random.Random(31337)
    for _ in range(1000):
        f = oracles.random_formula(rng, 3, rng.randint(0, 3))
        assert parse(to_text(f), 3) == f


def test_evaluate_matches_naive_reference():
    rng = random.Random(4242)
    for s in (2, 3, 4):
        for _ in range(300):
            f = oracles.random_formula(rng, s, rng.randint(0, 3))
            g = oracles.random_hypergraph(rng, s, rng.randint(1, 5), rng.random())
            env = {name: rng.randrange(g.n) for name in free_vars(f)}
            assert evaluate(g, f, env) == oracles.evaluate_naive(g, f, env)


def test_budget_matches_visit_count_reference():
    # the budget counts visited nodes in short-circuit order: exactly the
    # reference's count passes and one less raises
    rng = random.Random(5151)
    for s in (2, 3, 4):
        for _ in range(150):
            f = oracles.random_formula(rng, s, rng.randint(0, 3))
            g = oracles.random_hypergraph(rng, s, rng.randint(1, 5), rng.random())
            env = {name: rng.randrange(g.n) for name in free_vars(f)}
            value, visits = oracles.evaluate_visits(g, f, env)
            assert evaluate(g, f, env, budget=visits) == value
            with pytest.raises(BudgetExceeded):
                evaluate(g, f, env, budget=visits - 1)


def assert_budget_exact(g, f, env):
    """evaluate agrees with the visit reference on value and budget."""
    value, visits = oracles.evaluate_visits(g, f, env)
    assert evaluate(g, f, env, budget=visits) == value
    with pytest.raises(BudgetExceeded):
        evaluate(g, f, env, budget=visits - 1)
    return value


@pytest.mark.parametrize("s", (2, 3, 4))
def test_builders_match_visit_reference(s):
    # the builders are where edge-guarded exists loops occur; the random
    # corpus above rarely produces one
    formulas = ([build_D(i, s) for i in (1, 2, 3)] + [build_D_eq(i, s) for i in (1, 2, 3)]
                + [build_Dtilde(i, s) for i in (1, 2, 3)] + [build_B(i, s) for i in (2, 3)]
                + [build_C(i, s) for i in (1, 2)])
    rng = random.Random(600 + s)
    seen = set()
    for f in formulas:
        for _ in range(6):
            g = oracles.random_hypergraph(rng, s, rng.randint(s, 8), rng.uniform(0.05, 0.3))
            env = {name: rng.randrange(g.n) for name in sorted(free_vars(f))}
            seen.add(assert_budget_exact(g, f, env))
    assert seen == {False, True}


def test_two_cycle_sentence_matches_visit_reference():
    # the reference walks every vertex, so hosts stay small: random hosts
    # of 8 vertices and the 15-vertex planted witness (about 0.5 s)
    L = build_thm9_L(2, 1, 1, 3)
    rng = random.Random(909)
    for _ in range(6):
        assert not assert_budget_exact(
            oracles.random_hypergraph(rng, 3, 8, rng.uniform(0.05, 0.3)), L, {})
    assert assert_budget_exact(build_two_cycle_witness(3, 2, 1, 1), L, {})


class TestEdgeGuard:
    # vertices 0, 1 complete to an edge only with 9, far from the start
    FAR = Hypergraph(3, 12, [(0, 1, 9), (2, 3, 4), (3, 4, 11)])

    def test_repeated_bound_term(self):
        for text in ("(exists v (N a v a))", "(exists v (and (N a v a) (= v v)))"):
            f = parse(text, 3)
            for a in range(EDGE3.n):
                assert not assert_budget_exact(EDGE3, f, {"a": a})

    def test_shadowed_variable(self):
        for text in ("(exists x (N x y z))",
                     "(and (exists x (and (N x y z) (not (= x y)))) (not (= x y)))",
                     "(exists y (exists x (and (N x y z) (exists x (N x y z)))))"):
            f = parse(text, 3)
            for x, y, z in itertools.product(range(self.FAR.n), (0, 3, 9), (1, 4)):
                assert_budget_exact(self.FAR, f, {"x": x, "y": y, "z": z})

    def test_one_bound_term_when_s_is_two(self):
        path = Hypergraph(2, 6, [(0, 4), (1, 4), (4, 5)])
        for text in ("(exists v (N a v))", "(exists v (and (N v a) (exists w (N v w))))",
                     "(exists v (and (N a v) (not (= v a)) (forall w (N v w))))"):
            f = parse(text, 2)
            for a in range(path.n):
                assert_budget_exact(path, f, {"a": a})

    def test_unbound_later_part_fails_only_in_the_link(self):
        f = parse("(exists v (and (N a b v) (= v q)))", 3)
        # same walk with a bound last part: it stops where q would be read
        reach = parse("(exists v (and (N a b v) (= v v)))", 3)
        for a, b in itertools.product(range(self.FAR.n), repeat=2):
            env = {"a": a, "b": b}
            value, visits = oracles.evaluate_visits(self.FAR, reach, env)
            if not value:  # empty link: q is never read
                assert not assert_budget_exact(self.FAR, f, env)
                continue
            with pytest.raises(ValueError, match="unbound variable 'q'"):
                evaluate(self.FAR, f, env, budget=visits)
            with pytest.raises(BudgetExceeded):
                evaluate(self.FAR, f, env, budget=visits - 1)

    def test_budget_runs_out_inside_a_skipped_stretch(self):
        # 1 + 2 * 9 visits reach vertex 9 and 3 more find the edge; the
        # stretch 10..11 after a false body costs 4
        env = {"a": 0, "b": 1}
        for text, least in (("(exists v (and (N a b v) (= v v)))", 22),
                            ("(exists v (and (N a b v) (not (= v v))))", 27)):
            f = parse(text, 3)
            assert oracles.evaluate_visits(self.FAR, f, env)[1] == least
            for budget in range(least):
                with pytest.raises(BudgetExceeded,
                                   match="evaluation node-visit budget exhausted"):
                    evaluate(self.FAR, f, env, budget=budget)
            evaluate(self.FAR, f, env, budget=least)


def _exists_guards(f, s, scope):
    """(var, _edge_guard) of each exists in f, in pre-order, each with the
    names bound above it in scope."""
    match f:
        case Exists(var, body):
            inner = _exists_guards(body, s, {**scope, var: len(scope)})
            return [(var, _edge_guard(var, body, scope, s)), *inner]
        case Forall(var, body):
            return _exists_guards(body, s, {**scope, var: len(scope)})
        case Not(body):
            return _exists_guards(body, s, scope)
        case And(parts) | Or(parts):
            return [pair for p in parts for pair in _exists_guards(p, s, scope)]
        case Implies(left, right):
            return _exists_guards(left, s, scope) + _exists_guards(right, s, scope)
    return []


def test_edge_guard_fires_on_the_cycle_formula():
    # budgets are the same either way, so only this test sees the fast path
    guards = dict(_exists_guards(build_C(2, 3), 3, {"x1": 0}))
    assert {var for var, guard in guards.items() if guard} == {
        "x5", "x6", "x7", "x8", "x10", "x11", "x12", "x14", "x15"}
    assert {var for var, guard in guards.items() if guard is None} == {
        "x2", "x3", "x4", "x9", "x13"}
    assert [guards[var][1] for var in ("x5", "x12", "x14", "x15")] == [1, 1, 2, 2]
    scope = {"a": 0, "b": 1}
    for text in ("(N a v v)", "(or (N a b v) (= v v))", "(N a b w)", "(N a v w)",
                 "(and (= v v) (N a b v))", "(not (N a b v))"):
        assert _edge_guard("v", parse(text, 3), scope, 3) is None, text
    # an atom of the wrong arity is no guard either
    assert _edge_guard("v", EdgeAtom(("a", "v")), scope, 3) is None
    assert _edge_guard("v", parse("(N b v a)", 3), scope, 3) == ((1, 0), 1)


def test_compiled_formula_runs_on_many_hosts():
    f = build_C(1, 3)
    check = compile_formula(f, 3, ("x1",))
    rng = random.Random(12)
    for _ in range(20):
        g = oracles.random_hypergraph(rng, 3, rng.randint(3, 7), 0.3)
        for x in range(g.n):
            assert check(g, (x,)) == evaluate(g, f, {"x1": x})
    with pytest.raises(ValueError, match="compiled for s=3, host has s=2"):
        check(Hypergraph(2, 3, []), (0,))
    with pytest.raises(ValueError, match="expected 1 values"):
        check(EDGE3)
    with pytest.raises(ValueError, match="assignment sends x1 to 3, outside 0..2"):
        check(EDGE3, (3,))
    with pytest.raises(ValueError, match="assignment sends x1 to -1, outside 0..2"):
        evaluate(EDGE3, f, {"x1": -1})
    with pytest.raises(TypeError, match="not a formula"):
        compile_formula(Or((Equal("x", "x"), "oops")), 3)


def test_evaluate_compiles_each_formula_once():
    logic._compiled.cache_clear()
    for x in range(3):
        # an equal formula built anew finds the same compiled check
        f = build_C(1, 3)
        assert evaluate(PATH2, f, {"x1": x}) == oracles.evaluate_naive(PATH2, f, {"x1": x})
    assert logic._compiled.cache_info()[:2] == (2, 1)  # hits, misses
    evaluate(PATH2, build_C(2, 3), {"x1": 0})
    evaluate(Hypergraph(2, 3, []), build_C(1, 2), {"x1": 0})
    assert logic._compiled.cache_info()[:2] == (2, 3)


def test_quantifier_depth_examples():
    assert quantifier_depth(parse("(= x y)", 3)) == 0
    assert quantifier_depth(build_D(1, 3)) == 1
    assert quantifier_depth(build_Dtilde(2, 3)) == 2
    assert quantifier_depth(build_C(4, 3)) == 5


def test_depth_closed_form_for_distance_formula():
    for s in range(2, 6):
        for i in range(1, 65):
            want = (i - 1).bit_length() + s - 2  # ceil(log2 i) + s - 2
            assert quantifier_depth(build_D(i, s)) == want


def test_evaluate_simple_sentences():
    sentence = parse("(exists x (exists y (exists z (N x y z))))", 3)
    assert evaluate(EDGE3, sentence)
    assert not evaluate(Hypergraph(3, 3, []), sentence)


def test_evaluate_budget():
    f = parse("(forall x (forall y (forall z (or (N x y z) (not (N x y z))))))", 3)
    with pytest.raises(BudgetExceeded):
        evaluate(Hypergraph(3, 8, []), f, budget=50)


def test_budget_exact_on_tautology():
    # 1 + 8 * (1 + 8 * (1 + 8 * 4)) node visits: or, N, not, N per triple
    f = parse("(forall x (forall y (forall z (or (N x y z) (not (N x y z))))))", 3)
    empty = Hypergraph(3, 8, [])
    assert evaluate(empty, f, budget=2121)
    with pytest.raises(BudgetExceeded, match="evaluation node-visit budget exhausted"):
        evaluate(empty, f, budget=2120)


def test_cycle_formula_minimum_budgets():
    # the 20-vertex, 6-edge host of the benchmark's 5-cycle task
    rng = random.Random(700)
    host = Hypergraph(3, 20, rng.sample(list(itertools.combinations(range(20), 3)), 6))
    f = build_C(2, 3)
    for x1, least in ((0, 9227), (2, 6228), (5, 16560)):
        evaluate(host, f, {"x1": x1}, budget=least)
        with pytest.raises(BudgetExceeded):
            evaluate(host, f, {"x1": x1}, budget=least - 1)


def test_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable 'y'"):
        evaluate(EDGE3, parse("(= x y)", 3), {"x": 0})


def test_unbound_variable_fails_only_when_reached():
    assert evaluate(EDGE3, parse("(or (= x x) (= y z))", 3), {"x": 0})
    with pytest.raises(ValueError, match="unbound variable 'y'"):
        evaluate(EDGE3, parse("(or (not (= x x)) (= y z))", 3), {"x": 0})


def test_arity_mismatch_at_evaluation():
    atom = EdgeAtom(("x", "y", "z"))
    edge2 = Hypergraph(2, 3, [(0, 1)])
    env = {"x": 0, "y": 1, "z": 2}
    with pytest.raises(ValueError,
                       match="edge relation N takes 2 arguments here, got 3"):
        evaluate(edge2, atom, env)
    # an atom that short-circuiting skips is never checked
    assert evaluate(edge2, Or((Equal("x", "x"), atom)), env)


def test_quantifier_shadows_assigned_variable():
    # the quantifier re-binds x; the outer (= x y) must see the assigned 0
    for text in ("(and (exists x (not (= x y))) (= x y))",
                 "(and (forall x (or (= x x) (= x y))) (= x y))"):
        f = parse(text, 3)
        assert evaluate(EDGE3, f, {"x": 0, "y": 0})
        assert not evaluate(EDGE3, f, {"x": 1, "y": 0})
        assert oracles.evaluate_naive(EDGE3, f, {"x": 0, "y": 0})


def test_nested_quantifiers_over_one_name():
    # after the inner exists x returns, N x y z reads the outer x again
    f = parse("(exists x (and (exists x (= x y)) (N x y z)))", 3)
    assert evaluate(EDGE3, f, {"y": 1, "z": 2})
    assert evaluate(EDGE3, f, {"y": 1, "z": 2}) == oracles.evaluate_naive(
        EDGE3, f, {"y": 1, "z": 2})
    inner = parse("(forall x (exists x (= x x)))", 3)
    assert evaluate(EDGE3, inner)


def test_distance_formulas_on_loose_path():
    ends = {"x1": 0, "x2": 4}
    assert evaluate(PATH2, build_D_eq(2, 3), ends)
    assert not evaluate(PATH2, build_D_eq(1, 3), ends)
    assert evaluate(PATH2, build_D(2, 3), ends)
    assert evaluate(PATH2, build_D(3, 3), ends)


def test_distance_formulas_match_bfs():
    rng = random.Random(99)
    for _ in range(12):
        g = oracles.random_hypergraph(rng, 3, rng.randint(4, 8), 0.12)
        for i in range(1, 5):
            at_most = build_D(i, 3)
            exact = build_D_eq(i, 3)
            for x in range(g.n):
                for y in range(g.n):
                    env = {"x1": x, "x2": y}
                    d = oracles.bfs_distance(g, x, y)
                    assert evaluate(g, at_most, env) == (d is not None and d <= i)
                    assert evaluate(g, exact, env) == (d == i)


def test_avoiding_formula_matches_deleted_graph_bfs():
    rng = random.Random(7)
    for _ in range(8):
        g = oracles.random_hypergraph(rng, 3, rng.randint(4, 7), 0.15)
        for i in (1, 2, 3):
            f = build_Dtilde(i, 3)
            for avoid in range(g.n):
                for x in range(g.n):
                    for y in range(g.n):
                        got = evaluate(g, f, {"x": avoid, "x1": x, "x2": y})
                        d = oracles.bfs_distance_avoiding(g, avoid, x, y)
                        assert got == (d is not None and d <= i)


def test_midpoint_formula():
    # vertex 2 splits the length-2 path between the endpoints
    assert evaluate(PATH2, build_B(2, 3), {"x1": 0, "x2": 4, "x3": 2})
    assert not evaluate(PATH2, build_B(2, 3), {"x1": 0, "x2": 4, "x3": 1})


def test_cycle_formula_on_loose_cycles():
    def loose_cycle(length):
        n = 2 * length
        edges = [tuple(sorted((2 * i, 2 * i + 1, (2 * i + 2) % n)))
                 for i in range(length)]
        return Hypergraph(3, n, edges)

    f = build_C(1, 3)
    assert evaluate(loose_cycle(3), f, {"x1": 0})
    # even cycle has no odd cycle through any vertex
    assert not evaluate(loose_cycle(4), f, {"x1": 0})
    assert not evaluate(EDGE3, f, {"x1": 0})


class TestTwoCycleSentence:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_thm9_L(1, 1, 1, 3)
        with pytest.raises(ValueError):
            build_thm9_L(2, 2, 1, 3)

    def test_depth_small(self):
        assert quantifier_depth(build_thm9_L(5, 1, 4, 3)) <= 7

    def test_edgeless_false(self):
        assert not evaluate(Hypergraph(3, 10, []), build_thm9_L(2, 1, 1, 3))

    def test_true_on_two_cycle_graph(self):
        K = build_two_cycle_witness(3, 2, 1, 1)
        assert oracles.structural_two_cycle_property(K, 2, 1, 1)
        assert evaluate(K, build_thm9_L(2, 1, 1, 3))

    def test_matches_structural_checker_random(self):
        L = build_thm9_L(2, 1, 1, 3)
        rng = random.Random(424)
        for _ in range(25):
            n = rng.randint(5, 9)
            g = oracles.random_hypergraph(rng, 3, n, rng.uniform(0.05, 0.25))
            assert evaluate(g, L) == oracles.structural_two_cycle_property(
                g, 2, 1, 1)

    def test_matches_structural_checker_planted(self):
        # random graphs rarely hit the property, so perturb a known positive
        L = build_thm9_L(2, 1, 1, 3)
        K = build_two_cycle_witness(3, 2, 1, 1)
        rng = random.Random(20250)
        positives = 0
        for _ in range(10):
            pool = [e for e in itertools.combinations(range(K.n), 3)
                    if e not in K.edge_set]
            extra = rng.sample(pool, rng.randint(1, 2))
            g = Hypergraph(3, K.n, list(K.edges) + extra)
            want = oracles.structural_two_cycle_property(g, 2, 1, 1)
            assert evaluate(g, L) == want
            positives += want
        assert positives >= 3


class TestExtensionProperty:
    def test_edgeless_fails(self):
        assert not has_full_extension_property(Hypergraph(3, 6, []), 2)

    def test_complete_fails(self):
        g = Hypergraph(3, 6, list(itertools.combinations(range(6), 3)))
        assert not has_full_extension_property(g, 2)

    def test_level_below_arity_rejected(self):
        with pytest.raises(ValueError):
            has_full_extension_property(EDGE3, 1)

    def test_small_positive(self):
        # 7 vertices, medium density: found by search, frozen here
        rng = random.Random(0)
        hit = None
        for _ in range(400):
            g = oracles.random_hypergraph(rng, 3, 7, 0.5)
            if has_full_extension_property(g, 2):
                hit = g
                break
        assert hit is not None
        # removing all edges at one vertex kills the property
        stripped = Hypergraph(3, 7, [e for e in hit.edges if 0 not in e])
        assert not has_full_extension_property(stripped, 2)

    def test_level2_frequency_near_one(self):
        # at alpha = 1/10 the level-2 patterns are realized essentially
        # always at this scale; level 3 needs far larger n (see notes)
        from hyperspectra.sampling import ModelParams, p_from_alpha, sample
        from fractions import Fraction

        p = p_from_alpha(60, Fraction(1, 10))
        hits = 0
        trials = 30
        for i in range(trials):
            g = sample(ModelParams(s=3, n=60, p=p, seed=606, trial_index=i))
            hits += has_full_extension_property(g, 2)
        assert hits / trials >= 0.95


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_isomorphism_invariant(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = oracles.random_hypergraph(rng, 3, rng.randint(2, 5), rng.random())
    f = oracles.random_formula(rng, 3, rng.randint(0, 2))
    env = {name: rng.randrange(g.n) for name in free_vars(f)}
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Hypergraph(3, g.n, [tuple(sorted(perm[x] for x in e)) for e in g.edges])
    penv = {name: perm[v] for name, v in env.items()}
    assert evaluate(g, f, env) == evaluate(h, f, penv)


def test_numpy_vertices_in_assignment():
    # numpy integers compare to numpy booleans, which must steer the
    # short-circuits exactly as Python booleans do
    env = {"x": np.int64(0), "y": np.int64(1)}
    assert evaluate(EDGE3, parse("(or (= x y) (= x x))", 3), env)
    assert not evaluate(EDGE3, parse("(and (= x y) (= x x))", 3), env)
    assert evaluate(EDGE3, parse("(exists z (= x x))", 3), env)
    assert not evaluate(EDGE3, parse("(forall z (= x y))", 3), env)


def test_edge_atom_requires_distinct_vertices():
    f = EdgeAtom(("x", "x", "y"))
    assert not evaluate(EDGE3, f, {"x": 0, "y": 1})
