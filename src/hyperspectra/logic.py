"""First-order logic over uniform hypergraphs.

The one relation symbol N has the ambient arity s and holds on a tuple
exactly when its vertices are pairwise distinct and form an edge.  The
textual form is an s-expression DSL:

    (exists x (forall y (or (N x y z) (= x y))))

Formulas are immutable.  compile_formula turns one into nested closures
once, and the result runs on any number of hosts; evaluate caches it
and runs.  Evaluation is pure and budgeted in node visits.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, ParseError, DEFAULT_EVAL_BUDGET
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class Equal:
    left: str
    right: str


@dataclass(frozen=True)
class EdgeAtom:
    terms: tuple[str, ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("And needs at least one part")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("Or needs at least one part")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Equal | EdgeAtom | Not | And | Or | Implies | Exists | Forall

_RESERVED = {"exists", "forall", "and", "or", "not", "implies", "N", "="}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case Equal(left, right):
            return frozenset((left, right))
        case EdgeAtom(terms):
            return frozenset(terms)
        case Not(body):
            return free_vars(body)
        case And(parts) | Or(parts):
            return frozenset().union(*map(free_vars, parts))
        case Implies(left, right):
            return free_vars(left) | free_vars(right)
        case Exists(var, body) | Forall(var, body):
            return free_vars(body) - {var}
    raise TypeError(f"not a formula: {f!r}")


def quantifier_depth(f: Formula) -> int:
    match f:
        case Equal() | EdgeAtom():
            return 0
        case Not(body):
            return quantifier_depth(body)
        case And(parts) | Or(parts):
            return max(quantifier_depth(p) for p in parts)
        case Implies(left, right):
            return max(quantifier_depth(left), quantifier_depth(right))
        case Exists(_, body) | Forall(_, body):
            return 1 + quantifier_depth(body)
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula) -> str:
    match f:
        case Equal(left, right):
            return f"(= {left} {right})"
        case EdgeAtom(terms):
            return "(N " + " ".join(terms) + ")"
        case Not(body):
            return f"(not {to_text(body)})"
        case And(parts):
            return "(and " + " ".join(to_text(p) for p in parts) + ")"
        case Or(parts):
            return "(or " + " ".join(to_text(p) for p in parts) + ")"
        case Implies(left, right):
            return f"(implies {to_text(left)} {to_text(right)})"
        case Exists(var, body):
            return f"(exists {var} {to_text(body)})"
        case Forall(var, body):
            return f"(forall {var} {to_text(body)})"
    raise TypeError(f"not a formula: {f!r}")


class _Token(NamedTuple):
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            out.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], s: int):
        self.tokens = tokens
        self.pos = 0
        self.s = s

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def variable(self) -> str:
        tok = self.take()
        if tok.text in "()" or tok.text in _RESERVED or not _NAME.match(tok.text):
            raise ParseError(f"expected a variable name, got {tok.text!r}", tok.line, tok.column)
        return tok.text

    def formula(self) -> Formula:
        self.expect("(")
        head = self.take()
        match head.text:
            case "=":
                f: Formula = Equal(self.variable(), self.variable())
            case "N":
                terms = []
                while self.peek() is not None and self.peek().text != ")":
                    terms.append(self.variable())
                if len(terms) != self.s:
                    raise ParseError(
                        f"edge relation N takes {self.s} arguments, got {len(terms)}",
                        head.line, head.column)
                f = EdgeAtom(terms)
            case "not":
                f = Not(self.formula())
            case "and":
                f = And(self._at_least_one(head))
            case "or":
                f = Or(self._at_least_one(head))
            case "implies":
                f = Implies(self.formula(), self.formula())
            case "exists":
                f = Exists(self.variable(), self.formula())
            case "forall":
                f = Forall(self.variable(), self.formula())
            case _:
                raise ParseError(f"unknown connective {head.text!r}", head.line, head.column)
        self.expect(")")
        return f

    def _at_least_one(self, head: _Token) -> list[Formula]:
        parts = []
        while self.peek() is not None and self.peek().text == "(":
            parts.append(self.formula())
        if not parts:
            raise ParseError(f"{head.text} needs at least one subformula",
                             head.line, head.column)
        return parts


def parse(text: str, s: int) -> Formula:
    """Parse the s-expression DSL; the edge relation must have arity s."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens, s)
    f = parser.formula()
    extra = parser.peek()
    if extra is not None:
        raise ParseError(f"trailing input {extra.text!r}", extra.line, extra.column)
    return f


def require_closed(f: Formula) -> Formula:
    """f itself when it is a sentence; otherwise ValueError naming its free variables."""
    loose = free_vars(f)
    if loose:
        raise ValueError(f"formula has free variables: {', '.join(sorted(loose))}")
    return f


def evaluate(g: Hypergraph, f: Formula, assignment: dict[str, int] | None = None,
             budget: int | None = None) -> bool:
    """Tarskian truth of f in g under the assignment; short-circuits.

    The budget counts visited formula nodes (re-visits under quantifiers
    included) and raises BudgetExceeded when exhausted.  Compiled checks
    are cached by (f, s, free names), so one formula compiles once.
    """
    env = dict(assignment or {})
    return _compiled(f, g.s, tuple(env))(g, tuple(env.values()), budget)


def _out_of_budget():
    raise BudgetExceeded("evaluation node-visit budget exhausted")


def compile_formula(f: Formula, s: int,
                    free: tuple[str, ...] = ()) -> Callable[..., bool]:
    """Compile f once into nested closures; returns check(g, values=(), budget=None).

    check runs f on an s-uniform host g with free[i] bound to values[i],
    with the same short-circuits and the same node-visit budget as a walk
    of the tree.  Every closure takes one list: slot 0 holds the visits
    left, slot 1 the host's edges as frozensets, slot 2 its vertex range,
    slot 3 its link table `g.link`; each free name and each quantifier
    gets a slot of its own after that, so a re-bound name needs no save
    and restore.  Unbound names and edge atoms of the wrong arity raise
    ValueError only when visited.

    An exists whose body is an edge atom, or an and that starts with one,
    where the atom names the new variable once and its other terms are
    bound (see _edge_guard), walks only the link of those terms: the
    vertices that complete them to an edge, ascending.  Any other vertex
    makes the body false after a fixed number of visits, so each skipped
    stretch is charged that many visits per vertex at once and the budget
    count stays exact.  Every other quantifier loops over all n vertices.
    """
    width = 4 + len(free)

    def build(node: Formula, scope: dict[str, int]):
        nonlocal width
        match node:
            case Equal(left, right):
                if (loose := _first_unbound((left, right), scope)) is not None:
                    return _failing(loose)
                i, j = scope[left], scope[right]

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    return env[i] == env[j]
            case EdgeAtom(terms):
                if len(terms) != s:
                    return _failing(
                        f"edge relation N takes {s} arguments here, got {len(terms)}")
                if (loose := _first_unbound(terms, scope)) is not None:
                    return _failing(loose)
                # repeated vertices shrink the set below s, so it is no edge
                get = itemgetter(*(scope[t] for t in terms))

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    return frozenset(get(env)) in env[1]
            case Not(body):
                inner = build(body, scope)

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    return not inner(env)
            case And(parts) | Or(parts):
                inners, stop = [build(p, scope) for p in parts], isinstance(node, Or)

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    for inner in inners:
                        if inner(env) == stop:
                            return stop
                    return not stop
            case Implies(left, right):
                first, second = build(left, scope), build(right, scope)

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    return not first(env) or second(env)
            case Exists(var, body) if (guard := _edge_guard(var, body, scope, s)):
                slots, miss = guard
                # a repeated slot leaves the key unchanged and makes
                # itemgetter return a tuple when s = 2
                key = itemgetter(*slots, slots[0])
                k, width = width, width + 1
                inner = build(body, {**scope, var: k})

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    nxt = 0  # first vertex not yet charged
                    for x in env[3].get(frozenset(key(env)), ()):
                        env[0] -= miss * (x - nxt)
                        if env[0] < 0:
                            _out_of_budget()
                        env[k] = x
                        if inner(env):
                            return True
                        nxt = x + 1
                    env[0] -= miss * (len(env[2]) - nxt)
                    if env[0] < 0:
                        _out_of_budget()
                    return False
            case Exists(var, body) | Forall(var, body):
                k, width, stop = width, width + 1, isinstance(node, Exists)
                inner = build(body, {**scope, var: k})

                def run(env):
                    env[0] -= 1
                    if env[0] < 0:
                        _out_of_budget()
                    for x in env[2]:
                        env[k] = x
                        if inner(env) == stop:
                            return stop
                    return not stop
            case _:
                raise TypeError(f"not a formula: {node!r}")
        return run

    root = build(f, {name: 4 + i for i, name in enumerate(free)})

    def check(g: Hypergraph, values: tuple[int, ...] = (), budget: int | None = None) -> bool:
        if g.s != s:
            raise ValueError(f"formula compiled for s={s}, host has s={g.s}")
        if len(values) != len(free):
            raise ValueError(f"expected {len(free)} values for {free}, got {len(values)}")
        for name, vertex in zip(free, values):
            if not 0 <= vertex < g.n:
                raise ValueError(f"assignment sends {name} to {vertex}, outside 0..{g.n - 1}")
        env = [DEFAULT_EVAL_BUDGET if budget is None else budget,
               {frozenset(e) for e in g.edges}, range(g.n), g.link, *values]
        env.extend([0] * (width - len(env)))
        return root(env)

    return check


_compiled = lru_cache(maxsize=64)(compile_formula)


def _edge_guard(var: str, body: Formula, scope: dict[str, int],
                s: int) -> tuple[tuple[int, ...], int] | None:
    """(slots, miss) when body is false after exactly miss visits for
    every value of var outside the link of the values in slots.

    That holds when body is an edge atom (miss 1) or an and whose first
    part is one (miss 2), the atom has arity s, names var once, and its
    other terms are bound in scope; slots are theirs.  None otherwise.
    """
    match body:
        case EdgeAtom(terms):
            miss = 1
        case And((EdgeAtom(terms), *_)):
            miss = 2
        case _:
            return None
    rest = [t for t in terms if t != var]
    if len(terms) != s or len(rest) != s - 1 or any(t not in scope for t in rest):
        return None
    return tuple(scope[t] for t in rest), miss


def _first_unbound(names, scope: dict[str, int]) -> str | None:
    for name in names:
        if name not in scope:
            return f"unbound variable {name!r}"
    return None


def _failing(message: str):
    """A node that charges its visit and then raises ValueError(message)."""
    def run(env):
        env[0] -= 1
        if env[0] < 0:
            _out_of_budget()
        raise ValueError(message)
    return run


class _Gensym:
    """Deterministic fresh variable names x3, x4, ... in creation order."""

    def __init__(self, start: int = 3):
        self.next_id = start

    def fresh(self) -> str:
        name = f"x{self.next_id}"
        self.next_id += 1
        return name


def _conj(parts: list[Formula]) -> Formula:
    return parts[0] if len(parts) == 1 else And(parts)


def _exists_many(names: list[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


def _dist_at_most(i: int, s: int, a: str, b: str, gen: _Gensym) -> Formula:
    if i == 1:
        extras = [gen.fresh() for _ in range(s - 2)]
        return Or((Equal(a, b), _exists_many(extras, EdgeAtom((a, b, *extras)))))
    mid = gen.fresh()
    return Exists(mid, And((_dist_at_most(i // 2, s, a, mid, gen),
                            _dist_at_most((i + 1) // 2, s, mid, b, gen))))


def _dist_exact(i: int, s: int, a: str, b: str, gen: _Gensym) -> Formula:
    if i == 1:
        return And((_dist_at_most(1, s, a, b, gen), Not(Equal(a, b))))
    return And((_dist_at_most(i, s, a, b, gen),
                Not(_dist_at_most(i - 1, s, a, b, gen))))


def _dist_avoiding(i: int, s: int, avoid: str, a: str, b: str, gen: _Gensym) -> Formula:
    guard = [Not(Equal(a, avoid)), Not(Equal(b, avoid))]
    if i == 1:
        extras = [gen.fresh() for _ in range(s - 2)]
        inner = _conj([EdgeAtom((a, b, *extras)),
                       *[Not(Equal(e, avoid)) for e in extras]])
        return And((*guard, Or((Equal(a, b), _exists_many(extras, inner)))))
    mid = gen.fresh()
    step = And((Not(Equal(mid, avoid)),
                _dist_avoiding(i // 2, s, avoid, a, mid, gen),
                _dist_avoiding((i + 1) // 2, s, avoid, mid, b, gen)))
    return And((*guard, Exists(mid, step)))


def _dist_split(i: int, s: int, a: str, b: str, mid: str, gen: _Gensym) -> Formula:
    if i < 2:
        raise ValueError(f"distance split needs i >= 2, got {i}")
    return And((_dist_exact(i // 2, s, a, mid, gen),
                _dist_exact((i + 1) // 2, s, mid, b, gen)))


def _cycle_through(i: int, s: int, a: str, gen: _Gensym) -> Formula:
    b = gen.fresh()
    c = gen.fresh()
    return Exists(b, And((_dist_exact(i, s, a, b, gen),
                          Exists(c, And((_dist_split(i + 1, s, a, b, c, gen),
                                         _dist_avoiding(i, s, c, a, b, gen)))))))


def build_D(i: int, s: int) -> Formula:
    """Distance between free x1 and x2 is at most i."""
    if i < 1 or s < 2:
        raise ValueError(f"need i >= 1 and s >= 2, got i={i}, s={s}")
    return _dist_at_most(i, s, "x1", "x2", _Gensym())


def build_D_eq(i: int, s: int) -> Formula:
    """Distance between free x1 and x2 is exactly i."""
    if i < 1 or s < 2:
        raise ValueError(f"need i >= 1 and s >= 2, got i={i}, s={s}")
    return _dist_exact(i, s, "x1", "x2", _Gensym())


def build_Dtilde(i: int, s: int) -> Formula:
    """Some path of length <= i joins x1 and x2 and avoids the vertex x."""
    if i < 1 or s < 2:
        raise ValueError(f"need i >= 1 and s >= 2, got i={i}, s={s}")
    return _dist_avoiding(i, s, "x", "x1", "x2", _Gensym())


def build_B(i: int, s: int) -> Formula:
    """x3 sits at distance floor(i/2) from x1 and ceil(i/2) from x2."""
    if i < 2 or s < 2:
        raise ValueError(f"need i >= 2 and s >= 2, got i={i}, s={s}")
    return _dist_split(i, s, "x1", "x2", "x3", _Gensym(start=4))


def build_C(i: int, s: int) -> Formula:
    """x1 lies on a cycle of length 2i + 1 (shortest-path midpoint form)."""
    if i < 1 or s < 2:
        raise ValueError(f"need i >= 1 and s >= 2, got i={i}, s={s}")
    return _cycle_through(i, s, "x1", _Gensym(start=2))


def build_thm9_L(a1: int, a2: int, a3: int, s: int) -> Formula:
    """The closed sentence whose limit probability is neither 0 nor 1.

    Two vertices at distance a1 with one midpoint that reaches an odd
    cycle along a path of length a3 and another midpoint that does not.
    """
    if a1 < 2 or a2 < 1 or a3 < 1:
        raise ValueError(f"need a1 >= 2, a2 >= 1, a3 >= 1, got ({a1}, {a2}, {a3})")
    if a2 >= a1:
        raise ValueError(f"need a2 < a1, got a1={a1}, a2={a2}")
    gen = _Gensym(start=5)

    def q(var: str) -> Formula:
        reach = gen.fresh()
        return Exists(reach, And((_dist_exact(a3, s, var, reach, gen),
                                  _cycle_through(a2, s, reach, gen))))

    witness = And((_dist_split(a1, s, "x1", "x2", "x3", gen), q("x3")))
    counter = And((_dist_split(a1, s, "x1", "x2", "x4", gen), Not(q("x4"))))
    body = And((_dist_exact(a1, s, "x1", "x2", gen),
                Exists("x3", witness),
                Exists("x4", counter)))
    return Exists("x1", Exists("x2", body))


def has_full_extension_property(g: Hypergraph, level: int) -> bool:
    """Every small tuple sees every edge pattern realized by some vertex.

    For each r in {s-1, ..., level}, each r-set of distinct vertices, and
    each subset A of the (s-1)-subsets of the tuple, some outside vertex z
    must form an edge with exactly the (s-1)-subsets in A.  Checked
    directly with bitmasks of the completions in `g.link`, no FO
    evaluation.
    """
    s = g.s
    if level < s - 1:
        raise ValueError(f"level must be at least s - 1 = {s - 1}, got {level}")
    everyone = (1 << g.n) - 1
    for r in range(s - 1, level + 1):
        if g.n < r:
            continue
        patterns = 1 << comb(r, s - 1)
        for tup in combinations(range(g.n), r):
            masks = [sum(1 << z for z in g.link.get(frozenset(sub), ()))
                     for sub in combinations(tup, s - 1)]
            outside = everyone & ~sum(1 << z for z in tup)
            for a_bits in range(patterns):
                ok = outside
                for idx, m in enumerate(masks):
                    ok &= m if a_bits >> idx & 1 else ~m
                    if not ok:
                        break
                if not ok & everyone:
                    return False
    return True
