"""Command-line front end.

Every subcommand prints exactly one canonical JSON document on stdout (same
input, same bytes) and one-line human summaries on stderr.  Exit codes:
0 = success / positive answer, 1 = negative answer (not exhibitable, check
failed), 2 = usage or input error, or any unexpected failure (reported in one
line, without a traceback).

The handlers write nothing: each returns (document or None, exit code,
stderr summary), and `run` is the one writer of both streams.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from dataclasses import asdict

from . import jsonio
from .decide import brute_force_exhibitable, condition_cnf, decide_exhibitable
from .errors import PatternaError
from .hypergraphs import (
    blowup,
    build_witness_structure,
    free_amalgam,
    triangle_free_double,
)
from .hypergraphs import pattern_from_hypergraph as _hyper_pattern
from .jsonio import dumps_canonical
from .patterns import GEN_KINDS, Pattern, classify, gen_divline
from .sat import export_dimacs
from .verify import VERIFIERS


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run: a
    parse fills a fresh namespace and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="patterna",
        description="Classify, generate, decide, and verify consistency/inconsistency patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification flags for a pattern file")
    p.add_argument("pattern_file")

    p = sub.add_parser("generate", help="emit a named dividing-line pattern")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int, help="branching / row width (tree families)")
    p.add_argument("--d", type=int, help="depth / row count (tree families)")
    p.add_argument("--k", type=int, help="inconsistency size (ktp, ktp2)")

    p = sub.add_parser("decide", help="decide exhibitability of a pattern file")
    p.add_argument("pattern_file")
    p.add_argument("--witness", action="store_true", help="include the witness family")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle and report agreement")

    p = sub.add_parser("dimacs", help="export one consistency condition's CNF")
    p.add_argument("pattern_file")
    p.add_argument("--condition", type=int, default=None,
                   help="index into the canonical consistency list; omit for the sentinel")

    p = sub.add_parser("hypergraph", help="hypergraph constructions")
    p.add_argument("action", choices=("pattern", "blowup", "double", "witness-structure"))
    p.add_argument("file")

    p = sub.add_parser("verify", help="replay a named construction and check it")
    p.add_argument("construction", choices=sorted(VERIFIERS))
    for name in sorted({name for procedure in VERIFIERS.values()
                        for name in inspect.signature(procedure).parameters}):
        p.add_argument(f"--{name}", type=int)  # every verifier parameter is an int

    p = sub.add_parser("amalgam", help="free amalgam of two structures over a base")
    p.add_argument("base_file")
    p.add_argument("side0_file")
    p.add_argument("side1_file")
    p.add_argument("maps_file", help='JSON {"e0": {...}, "e1": {...}}')
    return parser


#: What a handler returns: the document to print (None for none), the exit code, the stderr summary.
Outcome = tuple[dict | None, int, str]


def _pattern(path: str) -> Pattern:
    return jsonio.pattern_from_dict(jsonio.load_json(path))


def _cmd_classify(args) -> Outcome:
    return asdict(classify(_pattern(args.pattern_file))), 0, ""


def _cmd_generate(args) -> Outcome:
    params = {
        name: getattr(args, name)
        for name in ("n", "b", "d", "k")
        if getattr(args, name) is not None
    }
    return jsonio.pattern_to_dict(gen_divline(args.kind, **params)), 0, ""


def _cmd_decide(args) -> Outcome:
    pattern = _pattern(args.pattern_file)
    decision = decide_exhibitable(pattern)
    payload = jsonio.decision_to_dict(decision, include_witness=args.witness)
    if args.oracle:
        oracle = brute_force_exhibitable(pattern)
        payload["oracle_exhibitable"] = oracle.exhibitable
        payload["oracle_agreement"] = oracle.exhibitable == decision.exhibitable
        if not payload["oracle_agreement"]:
            return payload, 2, "oracle disagreement: decision procedure is buggy\n"
    if decision.exhibitable:
        return payload, 0, "exhibitable\n"
    return payload, 1, "not exhibitable\n"


def _cmd_dimacs(args) -> Outcome:
    pattern = _pattern(args.pattern_file)
    if args.condition is None:
        return {"condition": None, "index": "sentinel", "dimacs": export_dimacs(condition_cnf(pattern))}, 0, ""
    if not 0 <= args.condition < len(pattern.consistency):
        return None, 2, (f"condition index {args.condition} out of range "
                         f"(pattern has {len(pattern.consistency)} consistency conditions)\n")
    target = pattern.consistency[args.condition]
    return {"condition": [list(target.pos), list(target.neg)], "index": str(args.condition),
            "dimacs": export_dimacs(condition_cnf(pattern, target))}, 0, ""


def _cmd_hypergraph(args) -> Outcome:
    data = jsonio.load_json(args.file)
    if args.action == "witness-structure":
        source = (jsonio.pattern_from_dict(data) if isinstance(data, dict) and "consistency" in data
                  else jsonio.hypergraph_from_dict(data))
        return jsonio.structure_to_dict(build_witness_structure(source)), 0, ""
    source = jsonio.hypergraph_from_dict(data)
    if args.action == "pattern":
        return jsonio.pattern_to_dict(_hyper_pattern(source)), 0, ""
    if args.action == "blowup":
        blown, grouping = blowup(source)
        return {"hypergraph": jsonio.hypergraph_to_dict(blown),
                "grouping": [list(block) for block in grouping]}, 0, ""
    result = triangle_free_double(source)
    return {
        "graph": jsonio.hypergraph_to_dict(result.graph),
        "pairs": [list(pair) for pair in result.pairs],
        "clique_witnesses": [{"vertex": v, "clique": sorted(s)} for v, s in result.clique_witnesses],
        "family": jsonio.family_to_dict(result.family),
    }, 0, ""


def _cmd_verify(args) -> Outcome:
    procedure = VERIFIERS[args.construction]
    signature = inspect.signature(procedure)
    kwargs = {name: getattr(args, name) for name in signature.parameters
              if getattr(args, name) is not None}
    report = procedure(**kwargs)
    bound = signature.bind(**kwargs)
    bound.apply_defaults()  # the report names every argument it ran with, defaults included
    summary = "".join(f"{'PASS' if check.ok else 'FAIL'} {report.construction}/{check.name} {check.detail}\n"
                      for check in report.checks)
    return {**report.to_dict(), "parameters": dict(bound.arguments)}, 0 if report.ok else 1, summary


def _cmd_amalgam(args) -> Outcome:
    base, side0, side1 = (jsonio.structure_from_dict(jsonio.load_json(path))
                          for path in (args.base_file, args.side0_file, args.side1_file))
    e0, e1 = jsonio.maps_from_dict(jsonio.load_json(args.maps_file))
    result = free_amalgam(base, side0, side1, e0, e1)
    return {
        "structure": jsonio.structure_to_dict(result.structure),
        "embed0": jsonio.embedding_to_dict(result.embed0),
        "embed1": jsonio.embedding_to_dict(result.embed1),
    }, 0, ""


_COMMANDS = {
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "decide": _cmd_decide,
    "dimacs": _cmd_dimacs,
    "hypergraph": _cmd_hypergraph,
    "verify": _cmd_verify,
    "amalgam": _cmd_amalgam,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Run one command; returns the exit code.  Streams default to the process's.  The one
    writer: the handler's document, if it returns one, then its stderr summary."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        document, code, summary = _COMMANDS[args.command](args)
        if document is not None:
            stdout.write(dumps_canonical(document))
        stderr.write(summary)
        return code
    except (PatternaError, KeyError, OSError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # any other fault: exit 2, never a traceback or exit 1
        message = " ".join(str(exc).split())
        stderr.write(f"error: unexpected {type(exc).__name__}: {message}\n")
        return 2


def main() -> None:
    raise SystemExit(run(None))


if __name__ == "__main__":
    main()
