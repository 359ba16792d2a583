"""Command-line front end.

Every subcommand prints exactly one canonical JSON document on stdout (same
input, same bytes) and one-line human summaries on stderr.  Exit codes:
0 = success / positive answer, 1 = negative answer (not exhibitable, check
failed), 2 = usage or input error, or any unexpected failure (reported in one
line, without a traceback).
"""

from __future__ import annotations

import argparse
import inspect
import sys

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
from .patterns import GEN_KINDS, classify, gen_divline
from .sat import export_dimacs
from .verify import VERIFIERS


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--vertices", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--exhaustive", action="store_true", default=None)
    p.add_argument("--arity", type=int)

    p = sub.add_parser("amalgam", help="free amalgam of two structures over a base")
    p.add_argument("base_file")
    p.add_argument("side0_file")
    p.add_argument("side1_file")
    p.add_argument("maps_file", help='JSON {"e0": {...}, "e1": {...}}')
    return parser


def _cmd_classify(args, stdout, stderr) -> int:
    pattern = jsonio.pattern_from_dict(jsonio.load_json(args.pattern_file))
    flags = classify(pattern)
    stdout.write(dumps_canonical(jsonio.flags_to_dict(flags)))
    return 0


def _cmd_generate(args, stdout, stderr) -> int:
    params = {
        name: getattr(args, name)
        for name in ("n", "b", "d", "k")
        if getattr(args, name) is not None
    }
    pattern = gen_divline(args.kind, **params)
    stdout.write(dumps_canonical(jsonio.pattern_to_dict(pattern)))
    return 0


def _cmd_decide(args, stdout, stderr) -> int:
    pattern = jsonio.pattern_from_dict(jsonio.load_json(args.pattern_file))
    decision = decide_exhibitable(pattern)
    payload = jsonio.decision_to_dict(decision, include_witness=args.witness)
    if args.oracle:
        oracle = brute_force_exhibitable(pattern)
        payload["oracle_exhibitable"] = oracle.exhibitable
        payload["oracle_agreement"] = oracle.exhibitable == decision.exhibitable
        if not payload["oracle_agreement"]:
            stderr.write("oracle disagreement: decision procedure is buggy\n")
            stdout.write(dumps_canonical(payload))
            return 2
    stdout.write(dumps_canonical(payload))
    stderr.write(
        ("exhibitable\n" if decision.exhibitable else "not exhibitable\n")
    )
    return 0 if decision.exhibitable else 1


def _cmd_dimacs(args, stdout, stderr) -> int:
    pattern = jsonio.pattern_from_dict(jsonio.load_json(args.pattern_file))
    if args.condition is None:
        cond = None
        formula = condition_cnf(pattern)
        label = "sentinel"
    else:
        try:
            target = pattern.consistency[args.condition]
        except IndexError:
            stderr.write(
                f"condition index {args.condition} out of range "
                f"(pattern has {len(pattern.consistency)} consistency conditions)\n"
            )
            return 2
        cond = [list(target.pos), list(target.neg)]
        formula = condition_cnf(pattern, target)
        label = str(args.condition)
    stdout.write(
        dumps_canonical({"condition": cond, "index": label, "dimacs": export_dimacs(formula)})
    )
    return 0


def _cmd_hypergraph(args, stdout, stderr) -> int:
    data = jsonio.load_json(args.file)
    if args.action == "witness-structure" and "consistency" in data:
        source = jsonio.pattern_from_dict(data)
        structure = build_witness_structure(source)
        stdout.write(dumps_canonical(jsonio.structure_to_dict(structure)))
        return 0
    h = jsonio.hypergraph_from_dict(data)
    if args.action == "pattern":
        stdout.write(dumps_canonical(jsonio.pattern_to_dict(_hyper_pattern(h))))
    elif args.action == "blowup":
        blown, grouping = blowup(h)
        stdout.write(
            dumps_canonical(
                {
                    "hypergraph": jsonio.hypergraph_to_dict(blown),
                    "grouping": [list(block) for block in grouping],
                }
            )
        )
    elif args.action == "double":
        result = triangle_free_double(h)
        stdout.write(
            dumps_canonical(
                {
                    "graph": jsonio.hypergraph_to_dict(result.graph),
                    "pairs": [list(pair) for pair in result.pairs],
                    "clique_witnesses": [
                        {"vertex": v, "clique": sorted(s)} for v, s in result.clique_witnesses
                    ],
                    "family": jsonio.family_to_dict(result.family),
                }
            )
        )
    else:
        structure = build_witness_structure(h)
        stdout.write(dumps_canonical(jsonio.structure_to_dict(structure)))
    return 0


def _cmd_verify(args, stdout, stderr) -> int:
    procedure = VERIFIERS[args.construction]
    kwargs = {
        name: getattr(args, name)
        for name in inspect.signature(procedure).parameters
        if getattr(args, name) is not None
    }
    report = procedure(**kwargs)
    stdout.write(dumps_canonical(report.to_dict()))
    for check in report.checks:
        marker = "PASS" if check.ok else "FAIL"
        stderr.write(f"{marker} {report.construction}/{check.name} {check.detail}\n")
    return 0 if report.ok else 1


def _cmd_amalgam(args, stdout, stderr) -> int:
    base = jsonio.structure_from_dict(jsonio.load_json(args.base_file))
    side0 = jsonio.structure_from_dict(jsonio.load_json(args.side0_file))
    side1 = jsonio.structure_from_dict(jsonio.load_json(args.side1_file))
    e0, e1 = jsonio.maps_from_dict(jsonio.load_json(args.maps_file))
    result = free_amalgam(base, side0, side1, e0, e1)
    stdout.write(
        dumps_canonical(
            {
                "structure": jsonio.structure_to_dict(result.structure),
                "embed0": jsonio.embedding_to_dict(result.embed0),
                "embed1": jsonio.embedding_to_dict(result.embed1),
            }
        )
    )
    return 0


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
    """Run one command; returns the exit code.  Streams default to the process's."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
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
