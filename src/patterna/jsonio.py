"""Canonical JSON interchange for every file format the CLI speaks.

All serializers emit canonically ordered structures (ascending indices,
conditions sorted by (pos, neg), sorted object keys), so identical inputs
always produce byte-identical documents.
"""

from __future__ import annotations

import json

from .decide import Decision
from .errors import ParseError
from .hypergraphs import Embedding, Hypergraph, WitnessStructure
from .patterns import Pattern, PatternFlags, validate_pattern
from .semantics import SetFamily


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require_integers(value, name: str) -> None:
    """Reject any leaf of value's nested lists that is not an integer.  JSON
    true/false would otherwise pass as 1/0, and floats fail deep inside."""
    if isinstance(value, (list, tuple)):
        for item in value:
            if type(item) is not int:
                _require_integers(item, name)
    elif type(value) is not int:
        raise ParseError(f"{name} must hold integers, got {json.dumps(value, default=repr)}")


# -- patterns ---------------------------------------------------------------


def pattern_to_dict(p: Pattern) -> dict:
    return {
        "n": p.n,
        "consistency": [[list(c.pos), list(c.neg)] for c in p.consistency],
        "inconsistency": [[list(c.pos), list(c.neg)] for c in p.inconsistency],
    }


def pattern_from_dict(data, *, strict: bool = True) -> Pattern:
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("pattern document must be an object with an 'n' key")
    for key in ("n", "consistency", "inconsistency"):
        _require_integers(data.get(key, []), key)
    try:
        return validate_pattern(data, strict=strict)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed pattern document: {exc}") from exc


def flags_to_dict(flags: PatternFlags) -> dict:
    return {
        "reasonable": flags.reasonable,
        "positive": flags.positive,
        "complete": flags.complete,
        "fully_complete": flags.fully_complete,
        "k_bounded": flags.k_bounded,
        "k_bounded_at_most": flags.k_bounded_at_most,
    }


# -- set families -----------------------------------------------------------


def family_to_dict(fam: SetFamily) -> dict:
    return {"universe": fam.universe_size, "sets": [sorted(s) for s in fam.sets]}


def family_from_dict(data) -> SetFamily:
    try:
        _require_integers([data["universe"], data["sets"]], "set-family document")
        return SetFamily(data["universe"], tuple(frozenset(s) for s in data["sets"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed set-family document: {exc}") from exc


# -- decisions --------------------------------------------------------------


def decision_to_dict(decision: Decision, *, include_witness: bool = True) -> dict:
    out = {"exhibitable": decision.exhibitable}
    if decision.exhibitable:
        out["witness"] = (
            family_to_dict(decision.witness) if include_witness and decision.witness else None
        )
        out["failing"] = None
    else:
        out["witness"] = None
        cond = decision.failing_condition
        out["failing"] = [list(cond.pos), list(cond.neg)] if cond is not None else None
    return out


# -- hypergraphs ------------------------------------------------------------


def hypergraph_to_dict(h: Hypergraph) -> dict:
    return {
        "k": h.arity,
        "vertices": h.vertex_count,
        "edges": sorted(sorted(e) for e in h.edges),
    }


def hypergraph_from_dict(data) -> Hypergraph:
    try:
        k = data.get("k", 2)
        _require_integers([k, data["vertices"], data["edges"]], "hypergraph document")
        return Hypergraph(k, data["vertices"], frozenset(frozenset(e) for e in data["edges"]))
    except (AttributeError, TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed hypergraph document: {exc}") from exc


# -- witness structures -----------------------------------------------------


def structure_to_dict(s: WitnessStructure) -> dict:
    return {
        "flavor": s.flavor,
        "witness_points": list(s.witness_points),
        "parameter_points": list(s.parameter_points),
        "r": sorted([w, p] for w, p in s.r),
        "hyperedges": sorted(sorted(e) for e in s.hyperedges),
    }


def structure_from_dict(data) -> WitnessStructure:
    try:
        _require_integers([data["r"], data["hyperedges"]], "witness-structure document")
        return WitnessStructure(
            tuple(data["witness_points"]),
            tuple(data["parameter_points"]),
            frozenset((w, p) for w, p in data["r"]),
            frozenset(frozenset(e) for e in data["hyperedges"]),
            data.get("flavor", "positive"),
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed witness-structure document: {exc}") from exc


def embedding_to_dict(e: Embedding) -> dict:
    return {"witness": list(e.witness_map), "parameter": list(e.parameter_map)}


def embedding_from_dict(data) -> Embedding:
    try:
        _require_integers([data["witness"], data["parameter"]], "embedding document")
        return Embedding(tuple(data["witness"]), tuple(data["parameter"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed embedding document: {exc}") from exc


def maps_from_dict(data) -> tuple[Embedding, Embedding]:
    """The two embeddings of an amalgam maps document {"e0": ..., "e1": ...}."""
    if not isinstance(data, dict) or "e0" not in data or "e1" not in data:
        raise ParseError("maps document must be an object with 'e0' and 'e1' keys")
    return embedding_from_dict(data["e0"]), embedding_from_dict(data["e1"])


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}", line=exc.lineno) from exc
