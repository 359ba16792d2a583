"""Canonical JSON interchange for every file format the CLI speaks.

All serializers emit canonically ordered structures (ascending indices,
conditions sorted by (pos, neg), sorted object keys), so identical inputs
always produce byte-identical documents.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .decide import Decision
from .errors import IndexOutOfRange, ParseError, PatternaError
from .hypergraphs import POSITIVE_FLAVOR, UNIFORM_FLAVOR, Embedding, Hypergraph, WitnessStructure
from .patterns import Pattern, _bits, validate_pattern
from .semantics import SetFamily


def dumps_canonical(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", byte for byte.
    json's indented encoder is pure Python; this writes the common types
    directly and hands any other value to json.dumps."""
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append value's JSON to out; newline is a line break plus the indent
    of the line value starts on."""
    kind = type(value)
    if kind is list or kind is tuple:
        inner = newline + "  "
        if not value:
            out.append("[]")
        elif all(type(item) is int for item in value):
            out.append(f"[{inner}{(',' + inner).join(map(str, value))}{newline}]")
        else:
            separator = "[" + inner
            for item in value:
                out.append(separator)
                _write(item, inner, out)
                separator = "," + inner
            out.append(newline + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif kind is dict and all(type(key) is str for key in value):
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(f"{separator}{encode_basestring_ascii(key)}: ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}" if value else "{}")
    else:  # floats, subclasses, non-string keys
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


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
    """validate_pattern's one pass; only a document that fails it is walked
    for non-integer leaves, which are reported first, wherever they are."""
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("pattern document must be an object with an 'n' key")
    try:
        return validate_pattern(data, strict=strict)
    except (TypeError, ValueError, PatternaError) as exc:
        for key in ("n", "consistency", "inconsistency"):
            _require_integers(data.get(key, []), key)
        if isinstance(exc, PatternaError):
            raise
        raise ParseError(f"malformed pattern document: {exc}") from exc


# -- set families -----------------------------------------------------------


def family_to_dict(fam: SetFamily) -> dict:
    return {"universe": fam.universe_size, "sets": [list(_bits(mask)) for mask in fam.masks]}


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
        "edges": sorted(list(_bits(mask)) for mask in h.masks),
    }


def hypergraph_from_dict(data) -> Hypergraph:
    try:
        k = data.get("k", 2)
        _require_integers([k, data["vertices"], data["edges"]], "hypergraph document")
        return Hypergraph(k, data["vertices"], data["edges"])
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
    """Point labels must be arrays of strings and flavor, when given, one of the two flavors."""
    try:
        _require_integers([data["r"], data["hyperedges"]], "witness-structure document")
        for key in ("witness_points", "parameter_points"):
            if type(data[key]) is not list or not all(type(label) is str for label in data[key]):
                raise ParseError(f"{key} must be an array of strings, got {json.dumps(data[key])}")
        flavor = data.get("flavor", POSITIVE_FLAVOR)
        if flavor not in (POSITIVE_FLAVOR, UNIFORM_FLAVOR):
            raise ParseError(f"flavor must be 'positive' or 'k-uniform', got {json.dumps(flavor)}")
        return WitnessStructure(
            tuple(data["witness_points"]),
            tuple(data["parameter_points"]),
            frozenset((w, p) for w, p in data["r"]),
            frozenset(frozenset(e) for e in data["hyperedges"]),
            flavor,
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed witness-structure document: {exc}") from exc


def embedding_to_dict(e: Embedding) -> dict:
    return {"witness": list(e.witness_map), "parameter": list(e.parameter_map)}


def embedding_from_dict(data) -> Embedding:
    try:
        _require_integers([data["witness"], data["parameter"]], "embedding document")
        return Embedding(tuple(data["witness"]), tuple(data["parameter"]))
    except (TypeError, KeyError, ValueError, IndexOutOfRange) as exc:  # a nested list reaches Embedding
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
