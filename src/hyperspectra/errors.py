"""Exception types, and the one place that resolves and enforces limits.

`check_cap` guards an exact enumeration by its vertex count: the limit is
the explicit cap, else the HYPERSPECTRA_BUDGET environment variable, else
the default.  `check_budget` guards work counted before it starts: the
limit is the explicit budget, else the default.  The evaluator counts its
node visits down as it runs; the dense witness keeps its own vertex guard.
"""
from __future__ import annotations

import os

ENV_BUDGET = "HYPERSPECTRA_BUDGET"

# Defaults, in vertices unless noted.
DEFAULT_ENUM_CAP = 12        # automorphism / copy-count searches
DEFAULT_PAIR_CAP = 16        # subset enumeration over v(G, H)
DEFAULT_EXTENSION_CAP = 8    # extension searches over v(G, H)
DEFAULT_DECOMP_CAP = 20      # decomposition chain searches over v(G)
DEFAULT_EDGE_BUDGET = 10**7  # potential edges C(n, s) a sampler may touch
DEFAULT_EVAL_BUDGET = 10**8  # evaluator node visits / game tuples or Spoiler lines


class CapExceeded(RuntimeError):
    """An exact enumeration was asked to run past its configured cap."""


class BudgetExceeded(RuntimeError):
    """An iteration or node-visit budget ran out mid-computation."""


class NoWitness(RuntimeError):
    """A strategy or search was asked for a witness that does not exist."""


class NotInFamily(RuntimeError):
    """No decomposition chain exists; the hypergraph is outside the family."""


class DegeneratePair(ValueError):
    """Rooted-pair operation undefined because the pair adds no vertices."""


class NoSplit(ValueError):
    """No admissible (a1, a2, a3) split exists for the requested parameters."""


class HypothesisViolated(ValueError):
    """Input fails an exactly checkable hypothesis; message names the check."""


class FormatError(ValueError):
    """Malformed hypergraph / pair document; message carries the JSON path."""


class ParseError(ValueError):
    """Formula text rejected, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def enum_cap(default: int, override: int | None = None) -> int:
    """Resolve a vertex cap: explicit override, else env var, else default."""
    if override is not None:
        return override
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from exc


def check_cap(size: int, default: int, cap: int | None, what: str) -> None:
    """Refuse an enumeration over `size` vertices past its cap."""
    limit = enum_cap(default, cap)
    if size > limit:
        raise CapExceeded(f"{what} needs {size} vertices, {what} cap is {limit}")


def check_budget(need: int, default: int, budget: int | None, what: str) -> None:
    """Refuse `need` units of work past the budget.  The message is built
    only on failure, since the sampler checks once per draw."""
    limit = default if budget is None else budget
    if need > limit:
        raise BudgetExceeded(f"{need} {what} exceed budget {limit}")
