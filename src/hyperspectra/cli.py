"""Command-line front door: one subcommand per library entry point.

Output contract: --format json emits a single JSON document with a
"schema" field, rationals as "p/q" strings, floats at 12 significant
digits.  Identical flags and seed give byte-identical JSON.  Exit codes:
0 success, 1 runtime or budget failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from . import __version__
from .bounds import bounds_report
from .errors import BudgetExceeded, CapExceeded, NotInFamily, NoWitness
from .errors import (DEFAULT_DECOMP_CAP, DEFAULT_EDGE_BUDGET, DEFAULT_ENUM_CAP,
                     DEFAULT_EVAL_BUDGET, DEFAULT_EXTENSION_CAP, DEFAULT_PAIR_CAP)
from .extensions import (
    PairClass,
    RootedPair,
    classify_pair,
    f_alpha,
    pair_density,
    pair_from_json,
    pair_max_density,
    strict_extensions,
)
from .cyclic import density_bound, m_decomposition
from .game import extension_strategy, mirror_strategy, solve, verify_strategy
from .hypergraph import (
    Hypergraph,
    _copies,
    automorphism_count,
    count_embeddings,
    density,
    from_json,
    is_strictly_balanced,
    max_density,
)
from .logic import evaluate, parse, quantifier_depth, require_closed
from .sampling import ModelParams, sample
from .experiments import (
    BUILTIN_PROPERTIES,
    CSV_FIELDS,
    JSONL_SCHEMA,
    CopyCountReport,
    ExperimentConfig,
    PropertySpec,
    TrialRecord,
    UnextendableReport,
    copy_count_distribution,
    csv_text,
    sweep_alpha,
    unextendable_copy_count,
    write_text,
)

# ValueError covers the library's input errors (FormatError, ParseError, ...);
# RuntimeError itself would also catch RecursionError
RUNTIME_ERRORS = (BudgetExceeded, CapExceeded, NotInFamily, NoWitness,
                  ValueError, ZeroDivisionError, OSError)


# ---------------------------------------------------------------------------
# Input parsing and output rendering.


def parse_rational(text: str) -> tuple[Fraction, bool]:
    """Exact rational from 'p/q', an integer, or a decimal literal.

    Decimals convert exactly (power-of-ten denominator); the flag in the
    return value marks them so output can say the conversion happened.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den)), False
        if "." in text or "e" in text.lower():
            return Fraction(text), True
        return Fraction(int(text)), False
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from exc


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def jsonable(x):
    """Mirror of the output contract: rationals 'p/q', floats 12 digits."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, Hypergraph):
        return x.to_json_dict()
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def render(doc: dict, fmt: str) -> str:
    body = jsonable(doc)
    if fmt == "json":
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    rows = [(key, val if isinstance(val, str) else json.dumps(val, sort_keys=True))
            for key, val in sorted(body.items())]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([("field", "value"), *rows])
        return buf.getvalue()
    return "".join(f"{key}: {val}\n" for key, val in rows)


def load_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        return from_json(fh.read())


def load_pair(path: str) -> RootedPair:
    with open(path) as fh:
        return pair_from_json(fh.read())


def int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (doc, artifact_text_or_None); the
# artifact is what --out writes (defaults to the rendered doc).


def parse_p(args) -> tuple[float | None, list[str]]:
    """--p as a float (None when absent) and ["p"] if it was a decimal."""
    if args.p is None:
        return None, []
    frac, dec = parse_rational(args.p)
    return float(frac), ["p"] if dec else []


def cmd_sample(args):
    p, decimals = parse_p(args)
    alpha = None
    if args.alpha is not None:
        alpha, dec = parse_rational(args.alpha)
        decimals += ["alpha"] if dec else []
    params = ModelParams(args.s, args.n, p=p, alpha=alpha,
                         seed=args.seed, trial_index=args.trial)
    g = sample(params, budget=args.budget)
    doc = {"schema": "hyperspectra.sample.v1", "s": g.s, "n": g.n,
           "edges": [list(e) for e in g.edges], "p": params.effective_p,
           "alpha": alpha, "seed": args.seed, "trial": args.trial,
           "decimal_inputs": sorted(decimals)}
    return doc, g.to_json() + "\n"


def cmd_density(args):
    g = load_hypergraph(args.infile)
    rho_max, witness = max_density(g)
    return {"schema": "hyperspectra.density.v1",
            "rho": density(g), "rho_max": rho_max,
            "witness": sorted(witness), "v": g.n, "e": g.e}, None


def cmd_balance(args):
    g = load_hypergraph(args.infile)
    rho_max, _ = max_density(g)
    return {"schema": "hyperspectra.balance.v1",
            "strictly_balanced": is_strictly_balanced(g),
            "rho": density(g), "rho_max": rho_max}, None


def cmd_classify_pair(args):
    pair = load_pair(args.infile)
    alpha, dec = parse_rational(args.alpha)
    verdict = classify_pair(pair, alpha, cap=args.budget)
    doc = {"schema": "hyperspectra.pair-class.v1", "alpha": alpha, **asdict(verdict),
           "f_alpha": f_alpha(pair, alpha),
           "rho_pair": pair_density(pair),
           "rho_max_pair": pair_max_density(pair, cap=args.budget),
           "decimal_inputs": ["alpha"] if dec else []}
    return doc, None


def cmd_extend(args):
    pair = load_pair(args.infile)
    host = load_hypergraph(args.host)
    roots = int_list(args.roots)
    forbidden = frozenset(int_list(args.forbidden)) if args.forbidden else frozenset()
    exts = strict_extensions(host, roots, pair, cap=args.budget,
                             forbidden=forbidden)
    return {"schema": "hyperspectra.extend.v1", "roots": roots,
            "count": len(exts), "extensions": [list(t) for t in exts]}, None


def cmd_decompose(args):
    g = load_hypergraph(args.infile)
    doc = {"schema": "hyperspectra.decompose.v1", "m": args.m,
           "density_bound": density_bound(g.s, args.m)}
    try:
        chain = m_decomposition(g, args.m, cap=args.budget)
    except NotInFamily as exc:
        doc.update({"in_family": False, "reason": str(exc), "steps": None})
        return doc, None
    doc.update({"in_family": True, "reason": None,
                "steps": [{"vertices": list(vs),
                           "edges": [list(e) for e in es]}
                          for vs, es in chain]})
    return doc, None


def cmd_game(args):
    g1 = load_hypergraph(args.g1)
    g2 = load_hypergraph(args.g2)
    doc = {"schema": "hyperspectra.game.v1", "k": args.k,
           "strategy": args.strategy}
    if args.strategy == "optimal":
        doc["winner"] = solve(g1, g2, args.k, budget=args.budget)
        doc["duplicator_wins"] = doc["winner"] == "duplicator"
    else:
        strat = mirror_strategy if args.strategy == "mirror" \
            else extension_strategy(args.k)
        ok = verify_strategy(g1, g2, args.k, strat, budget=args.budget)
        doc["duplicator_wins"] = ok
        doc["winner"] = "duplicator" if ok else "spoiler"
    return doc, None


def cmd_eval(args):
    g = load_hypergraph(args.infile)
    if args.formula_file is not None:
        with open(args.formula_file) as fh:
            text = fh.read()
    else:
        text = args.formula
    f = require_closed(parse(text, g.s))
    doc = {"schema": "hyperspectra.eval.v1",
           "value": evaluate(g, f, budget=args.budget),
           "depth": quantifier_depth(f)}
    return doc, None


def cmd_bounds(args):
    report = bounds_report(args.theorem, s=args.s, k=args.k,
                           a=args.a, j=args.j, m=args.m, cap=args.budget)
    doc = {"schema": "hyperspectra.bounds.v1", "theorem": report.theorem,
           "meaning": report.meaning, "parameters": dict(report.parameters),
           "witness": report.witness}
    doc.update(report.values)
    artifact = report.witness.to_json() + "\n" if report.witness is not None else None
    return doc, artifact


def make_property(args) -> PropertySpec:
    given = [name for name, val in (("pattern", args.pattern),
                                    ("formula", args.formula),
                                    ("builtin", args.builtin)) if val]
    if len(given) != 1:
        raise ValueError("give exactly one of --pattern, --formula, --builtin")
    if args.pattern:
        return PropertySpec("pattern", pattern=load_hypergraph(args.pattern))
    if args.formula:
        return PropertySpec("formula", formula_text=args.formula)
    return PropertySpec("builtin", builtin=args.builtin)


def cmd_sweep(args):
    prop = make_property(args)
    alphas, decimals = [], []
    for part in args.alphas.split(","):
        frac, dec = parse_rational(part)
        alphas.append(frac)
        if dec:
            decimals.append(part.strip())
    cfg = ExperimentConfig(args.s, tuple(int_list(args.n)), prop, args.trials,
                           seed=args.seed, alpha=alphas[0], jobs=args.jobs,
                           budget=args.budget)
    reports = sweep_alpha(cfg, alphas=alphas)
    cells = [{name: getattr(r, name) for name in CSV_FIELDS} for r in reports]
    doc = {"schema": "hyperspectra.sweep.v1", "digest": cfg.digest(),
           "property": prop.describe(), "coupled": True,
           "cells": cells, "decimal_inputs": sorted(decimals)}
    return doc, csv_text(cfg.digest(), reports)


def cmd_poisson(args):
    patterns = [load_hypergraph(path) for path in args.pattern]
    p, decimals = parse_p(args)
    rep = copy_count_distribution(patterns, args.n, args.trials, args.seed, p=p,
                                  jobs=args.jobs, budget=args.budget)
    return {"schema": "hyperspectra.poisson.v1", **asdict(rep),
            "decimal_inputs": sorted(decimals)}, None


def cmd_count_copies(args):
    host = load_hypergraph(args.infile)
    pattern = load_hypergraph(args.pattern)
    emb = count_embeddings(host, pattern, cap=args.budget, induced=args.induced)
    aut = automorphism_count(pattern, cap=args.budget)
    return {"schema": "hyperspectra.count-copies.v1", "embeddings": emb, "automorphisms": aut,
            "copies": _copies(emb, aut), "induced": args.induced}, None


def cmd_unextendable(args):
    pair = load_pair(args.infile)
    p, decimals = parse_p(args)
    rep = unextendable_copy_count(pair, args.n, args.trials, args.seed, p=p,
                                  jobs=args.jobs, budget=args.budget)
    return {"schema": "hyperspectra.unextendable.v1", **asdict(rep),
            "decimal_inputs": sorted(decimals)}, None


def field_names(cls) -> list[str]:
    """The fields of a report dataclass, which its document carries in order."""
    return [f.name for f in fields(cls)]


def cmd_schema_dump(args):
    doc = {
        "schema": "hyperspectra.schemas.v1",
        "hypergraph_file": {"s": "int >= 2", "n": "int >= 0",
                            "edges": "sorted list of sorted s-lists of ints"},
        "pair_file": {"g": "hypergraph object", "roots": "int",
                      "h_edges": "list of edges inside the first `roots` vertices"},
        "formula_file": "UTF-8 s-expression text, .fol by convention",
        "jsonl": {"schema": JSONL_SCHEMA,
                  "header": ["schema", "digest", "config"],
                  "record": field_names(TrialRecord)},
        "csv_summary": {"comment": "# digest: <sha256 of canonical config>",
                        "fields": CSV_FIELDS},
        "documents": {
            "sample": ["schema", "s", "n", "edges", "p", "alpha", "seed",
                       "trial", "decimal_inputs"],
            "density": ["schema", "rho", "rho_max", "witness", "v", "e"],
            "balance": ["schema", "strictly_balanced", "rho", "rho_max"],
            "classify-pair": ["schema", "alpha", *field_names(PairClass), "f_alpha",
                              "rho_pair", "rho_max_pair", "decimal_inputs"],
            "extend": ["schema", "roots", "count", "extensions"],
            "decompose": ["schema", "m", "density_bound", "in_family",
                          "reason", "steps"],
            "game": ["schema", "k", "strategy", "winner", "duplicator_wins"],
            "eval": ["schema", "value", "depth"],
            "bounds": ["schema", "theorem", "meaning", "parameters",
                       "witness", "<one key per computed value>"],
            "sweep": ["schema", "digest", "property", "coupled", "cells",
                      "decimal_inputs"],
            "poisson": ["schema", *field_names(CopyCountReport), "decimal_inputs"],
            "count-copies": ["schema", "embeddings", "copies",
                             "automorphisms", "induced"],
            "unextendable": ["schema", *field_names(UnextendableReport), "decimal_inputs"],
        },
        "notes": ["rationals serialize as 'p/q' strings",
                  "floats carry 12 significant digits",
                  "json output is sorted and stable for fixed flags and seed"],
    }
    return doc, None


# ---------------------------------------------------------------------------
# Parser assembly.


def positive_int(text: str) -> int:
    """An integer of at least 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="json", help="output format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="also write the command's artifact to this file")

    parser = argparse.ArgumentParser(
        prog="hyperspectra",
        description="Density, logic, game, and Monte Carlo tools for random "
                    "uniform hypergraphs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="SUBCOMMAND")

    def cap(what, default):
        return f"vertex cap on {what} (default: HYPERSPECTRA_BUDGET, else {default})"

    edges = f"budget of potential edges C(n, s) per draw (default {DEFAULT_EDGE_BUDGET})"

    def sub(name, handler, help_text, seed=False, budget=None, jobs=False,
            infile=None, **kwargs):
        """Add a subcommand.  It gets --seed, --budget and --jobs only if its
        handler reads them; `budget` is that option's help, naming its unit."""
        sp = subs.add_parser(name, parents=[common], help=help_text,
                             description=help_text, **kwargs)
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="deterministic RNG seed (default 0)")
        if budget:
            sp.add_argument("--budget", type=positive_int, default=None, help=budget)
        if jobs:
            sp.add_argument("--jobs", type=positive_int, default=1,
                            help="worker processes (default 1)")
        if infile:
            sp.add_argument("--in", dest="infile", required=True, help=infile)
        sp.set_defaults(handler=handler)
        return sp

    sp = sub("sample", cmd_sample, "draw one hypergraph from G^s(n, p)",
             seed=True, budget=edges)
    sp.add_argument("--s", type=int, required=True, help="edge size")
    sp.add_argument("--n", type=int, required=True, help="vertex count")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", help="edge probability as p/q or decimal")
    group.add_argument("--alpha", help="use p = n^-alpha (rational)")
    sp.add_argument("--trial", type=int, default=0,
                    help="trial index for substream selection")

    sub("density", cmd_density, "exact density and maximum subdensity",
        infile="hypergraph JSON file")
    sub("balance", cmd_balance, "strict balance check", infile="hypergraph JSON file")

    sp = sub("classify-pair", cmd_classify_pair,
             "safe/rigid/neutral classification of a rooted pair at alpha",
             budget=cap("the pair's added part", DEFAULT_PAIR_CAP),
             infile="pair JSON file {g, roots, h_edges}")
    sp.add_argument("--alpha", required=True, help="exponent, rational")

    sp = sub("extend", cmd_extend,
             "strict extensions of a rooted pair over given host roots",
             budget=cap("the pair's added part", DEFAULT_EXTENSION_CAP),
             infile="pair JSON file")
    sp.add_argument("--host", required=True, help="host hypergraph JSON file")
    sp.add_argument("--roots", required=True,
                    help="comma-separated host vertices for the root tuple")
    sp.add_argument("--forbidden", default=None,
                    help="comma-separated host vertices to avoid")

    sp = sub("decompose", cmd_decompose,
             "build chain showing membership in the bounded-density family",
             budget=cap("the hypergraph", DEFAULT_DECOMP_CAP),
             infile="hypergraph JSON file")
    sp.add_argument("--m", type=int, required=True, help="family parameter")

    sp = sub("game", cmd_game, "solve or verify the k-round comparison game",
             budget="budget of board tuples (optimal) or Spoiler lines (mirror, "
                    f"extension) (default {DEFAULT_EVAL_BUDGET})")
    sp.add_argument("--g1", required=True, help="first board JSON file")
    sp.add_argument("--g2", required=True, help="second board JSON file")
    sp.add_argument("--k", type=int, required=True, help="round count")
    sp.add_argument("--strategy", choices=["optimal", "mirror", "extension"],
                    default="optimal",
                    help="optimal solves the game; mirror/extension verify "
                         "that duplicator strategy exhaustively")

    sp = sub("eval", cmd_eval, "evaluate a closed formula on a hypergraph",
             budget=f"budget of evaluator node visits (default {DEFAULT_EVAL_BUDGET})",
             infile="hypergraph JSON file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="inline s-expression formula")
    group.add_argument("--formula-file", help="path to a .fol file")

    sp = sub(
        "bounds", cmd_bounds,
        "closed-form zero-one law calculators",
        budget="vertex cap on theorem 7's witness (default 10000; "
               "HYPERSPECTRA_BUDGET does not reach it)",
        epilog="required flags per calculator: 6 and 8 need --s --k; "
               "7 needs --s --k (writes a witness; raise --budget above the "
               "witness size when it exceeds 10000 vertices); 9 needs --s "
               "--k --a; 10 needs --s --k --j; 11 needs --s --k and accepts "
               "--m for the family exponent")
    sp.add_argument("--theorem", type=int, required=True,
                    choices=[6, 7, 8, 9, 10, 11],
                    help="which calculator to run")
    sp.add_argument("--s", type=int, required=True, help="edge size")
    sp.add_argument("--k", type=int, required=True, help="quantifier depth")
    sp.add_argument("--a", type=int, default=None, help="offset (theorem 9)")
    sp.add_argument("--j", type=int, default=None, help="index (theorem 10)")
    sp.add_argument("--m", type=int, default=None,
                    help="family exponent (theorem 11)")

    sp = sub("sweep", cmd_sweep,
             "containment probability estimates over an (n, alpha) grid",
             seed=True, budget=edges, jobs=True)
    sp.add_argument("--s", type=int, required=True, help="edge size")
    sp.add_argument("--n", required=True,
                    help="comma-separated vertex counts")
    sp.add_argument("--alphas", required=True,
                    help="comma-separated rational exponents")
    sp.add_argument("--trials", type=positive_int, required=True,
                    help="trials per grid cell")
    sp.add_argument("--pattern",
                    help="hypergraph JSON file; property = contains a copy")
    sp.add_argument("--formula", help="inline closed formula as the property")
    sp.add_argument("--builtin", choices=BUILTIN_PROPERTIES,
                    help="named built-in property")

    sp = sub("poisson", cmd_poisson,
             "copy-count distribution against the limiting Poisson law",
             seed=True, budget=edges, jobs=True)
    sp.add_argument("--pattern", action="append", required=True,
                    help="pattern JSON file (repeat for joint counts)")
    sp.add_argument("--n", type=int, required=True, help="vertex count")
    sp.add_argument("--trials", type=positive_int, required=True, help="sample count")
    sp.add_argument("--p", default=None,
                    help="edge probability; defaults to the pattern threshold")

    sp = sub("count-copies", cmd_count_copies,
             "embeddings, copies, and automorphisms of a pattern in a host",
             budget=cap("the pattern", DEFAULT_ENUM_CAP),
             infile="host hypergraph JSON file")
    sp.add_argument("--pattern", required=True,
                    help="pattern hypergraph JSON file")
    sp.add_argument("--induced", action="store_true",
                    help="require the image to carry no extra edges")

    sp = sub("unextendable", cmd_unextendable,
             "distribution of root-structure copies with no strict extension",
             seed=True, budget=edges, jobs=True, infile="pair JSON file")
    sp.add_argument("--n", type=int, required=True, help="vertex count")
    sp.add_argument("--trials", type=positive_int, required=True, help="sample count")
    sp.add_argument("--p", default=None,
                    help="edge probability; defaults to the root threshold")

    sub("schema-dump", cmd_schema_dump,
        "print every JSON and CSV schema this tool reads or writes")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, artifact = args.handler(args)
        # sweep's natural csv is the summary table, not key/value rows
        if args.command == "sweep" and args.format == "csv":
            text = artifact
        else:
            text = render(doc, args.format)
        sys.stdout.write(text)
        if args.out:
            write_text(args.out, artifact if artifact is not None else text)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
