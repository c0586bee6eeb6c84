"""First-order logic over uniform hypergraphs.

The one relation symbol N has the ambient arity s and holds on a tuple
exactly when its vertices are pairwise distinct and form an edge.  The
textual form is an s-expression DSL:

    (exists x (forall y (or (N x y z) (= x y))))

Formulas are immutable; evaluation is pure and budgeted.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb

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
            out: frozenset[str] = frozenset()
            for p in parts:
                out |= free_vars(p)
            return out
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


class _Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.line = line
        self.column = column


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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("evaluation node-visit budget exhausted")


def evaluate(g: Hypergraph, f: Formula, assignment: dict[str, int] | None = None,
             budget: int | None = None) -> bool:
    """Tarskian truth of f in g under the assignment; short-circuits.

    The budget counts visited formula nodes (re-visits under quantifiers
    included) and raises BudgetExceeded when exhausted.
    """
    env = dict(assignment or {})
    for name, vertex in env.items():
        if not 0 <= vertex < g.n:
            raise ValueError(f"assignment sends {name} to {vertex}, outside 0..{g.n - 1}")
    tracker = _Budget(DEFAULT_EVAL_BUDGET if budget is None else budget)
    return _eval(g, f, env, tracker)


def _lookup(env: dict[str, int], name: str) -> int:
    try:
        return env[name]
    except KeyError:
        raise ValueError(f"unbound variable {name!r}") from None


def _eval(g: Hypergraph, f: Formula, env: dict[str, int], budget: _Budget) -> bool:
    budget.spend()
    match f:
        case Equal(left, right):
            return _lookup(env, left) == _lookup(env, right)
        case EdgeAtom(terms):
            if len(terms) != g.s:
                raise ValueError(
                    f"edge relation N takes {g.s} arguments here, got {len(terms)}")
            values = [_lookup(env, t) for t in terms]
            return len(set(values)) == g.s and tuple(sorted(values)) in g.edge_set
        case Not(body):
            return not _eval(g, body, env, budget)
        case And(parts):
            return all(_eval(g, p, env, budget) for p in parts)
        case Or(parts):
            return any(_eval(g, p, env, budget) for p in parts)
        case Implies(left, right):
            return not _eval(g, left, env, budget) or _eval(g, right, env, budget)
        case Exists(var, body):
            return any(_eval_bound(g, body, env, var, x, budget) for x in range(g.n))
        case Forall(var, body):
            return all(_eval_bound(g, body, env, var, x, budget) for x in range(g.n))
    raise TypeError(f"not a formula: {f!r}")


def _eval_bound(g, body, env, var, value, budget) -> bool:
    shadowed = env.get(var)
    env[var] = value
    try:
        return _eval(g, body, env, budget)
    finally:
        if shadowed is None:
            del env[var]
        else:
            env[var] = shadowed


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
    directly with neighbor bitmasks, no FO evaluation.
    """
    s = g.s
    if level < s - 1:
        raise ValueError(f"level must be at least s - 1 = {s - 1}, got {level}")
    completions: dict[tuple[int, ...], int] = {}
    for e in g.edges:
        for z in e:
            rest = tuple(x for x in e if x != z)
            completions[rest] = completions.setdefault(rest, 0) | (1 << z)
    everyone = (1 << g.n) - 1
    for r in range(s - 1, level + 1):
        if g.n < r:
            continue
        patterns = 1 << comb(r, s - 1)
        for tup in combinations(range(g.n), r):
            masks = [completions.get(sub, 0) for sub in combinations(tup, s - 1)]
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
