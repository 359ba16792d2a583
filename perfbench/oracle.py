"""Independent correctness oracle for the benchmark's operations.

Shares no code with ``patterna``: it reads only the input specs written by
``workloads.py`` and the plain JSON data each operation's result was turned
into, and re-derives every answer with bitmask scans of its own.

``check(spec, out)`` returns ``None`` when the result is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import itertools
import json

TYPE_SCAN_N = 16


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _point_types(universe, sets):
    """Type of each point as a mask over set indices."""
    types = [0] * universe
    for i, members in enumerate(sets):
        for x in members:
            types[x] |= 1 << i
    return types


def _has_point(types, pos, neg) -> bool:
    return any(t & pos == pos and not t & neg for t in types)


def exhibit_problems(pattern, family) -> str | None:
    """Own trace check: does the family exhibit the pattern?"""
    n, universe, sets = pattern["n"], family["universe"], family["sets"]
    if len(sets) != n or universe < 1:
        return f"witness has {len(sets)} sets over {universe} points for an {n}-pattern"
    if any(not 0 <= x < universe for members in sets for x in members):
        return "witness point outside its universe"
    types = _point_types(universe, sets)
    for pos, neg in pattern["consistency"]:
        if not _has_point(types, _mask(pos), _mask(neg)):
            return f"consistency condition {[pos, neg]} has an empty trace"
    for pos, neg in pattern["inconsistency"]:
        if _has_point(types, _mask(pos), _mask(neg)):
            return f"inconsistency condition {[pos, neg]} has a nonempty trace"
    return None


def type_scan(pattern):
    """(exhibitable, failing condition) by scanning complete types per
    consistency condition in canonical order; failing is [[], []] when there
    are no consistency conditions and no type survives at all."""
    n = pattern["n"]
    forbidden = [(_mask(p), _mask(q)) for p, q in pattern["inconsistency"]]
    full = (1 << n) - 1
    for pos, neg in pattern["consistency"] or [[[], []]]:
        want, avoid = _mask(pos), _mask(neg)
        if want & avoid:
            return False, [pos, neg]
        free = full & ~(want | avoid)
        sub = 0
        while True:
            t = want | sub
            if not any(t & zp == zp and not t & zn for zp, zn in forbidden):
                break
            sub = (sub - free) & free
            if sub == 0:
                return False, [pos, neg]
    return True, None


def _check_decide(spec, out) -> str | None:
    pattern = spec["pattern"]
    try:
        doc = json.loads(out["stdout"])
    except ValueError:
        return f"unparseable CLI output (exit {out['exit']})"
    expect, failing = spec["expect"], None
    if pattern["n"] <= TYPE_SCAN_N:
        scanned, failing = type_scan(pattern)
        if expect is not None and scanned != expect:
            return f"type scan says {scanned}, construction says {expect}"
        expect = scanned
    elif expect is False:
        failing = pattern["consistency"][0]  # single-condition CNF encodings
    if doc.get("exhibitable") is not expect:
        return f"verdict {doc.get('exhibitable')} but expected {expect}"
    if out["exit"] != (0 if expect else 1):
        return f"exit {out['exit']} for verdict {expect}"
    if not expect:
        if doc.get("witness") is not None or doc.get("failing") != failing:
            return f"failing condition {doc.get('failing')}, expected {failing}"
        return None
    if doc.get("witness") is None:
        return "exhibitable verdict without a witness"
    return exhibit_problems(pattern, doc["witness"])


def _is_clique(members, k, edges) -> bool:
    return all(frozenset(c) in edges for c in itertools.combinations(members, k))


def realize_problems(k, vertices, edge_list, family) -> str | None:
    """Subset scan: every k-subset's sets meet iff it is an edge, and every
    clique's sets share a point."""
    sets = family["sets"]
    if len(sets) != vertices:
        return f"family has {len(sets)} sets for {vertices} vertices"
    edges = {frozenset(e) for e in edge_list}
    masks = [_mask(s) for s in sets]
    for subset in range(1, 1 << vertices):
        members = [v for v in range(vertices) if subset >> v & 1]
        meet = -1
        for v in members:
            meet &= masks[v]
        if len(members) == k and bool(meet) != (frozenset(members) in edges):
            return f"{members}: sets meet={bool(meet)} but edge={frozenset(members) in edges}"
        if not meet and _is_clique(members, k, edges):
            return f"clique {members} has no common point"
    return None


def _check_dictionary(spec, out) -> str | None:
    k, vertices, edges = spec["k"], spec["vertices"], spec["edges"]
    if not (out["reasonable"] and out["positive"] and out["exhibitable"] and out["realized"]):
        return "realization pattern not reasonable/positive/exhibitable/realized"
    problem = realize_problems(k, vertices, edges, out["witness"])
    if problem:
        return f"decided witness: {problem}"
    edge_set = {frozenset(e) for e in edges}
    cliques = [
        s for s in range(1, 1 << vertices)
        if _is_clique([v for v in range(vertices) if s >> v & 1], k, edge_set)
    ]
    non_edges = sorted(
        list(c) for c in itertools.combinations(range(vertices), k) if frozenset(c) not in edge_set
    )
    if out["witnesses"] != len(cliques) or out["parameters"] != vertices:
        return "witness structure has the wrong sorts"
    if out["hyperedges"] != non_edges:
        return "witness structure hyperedges are not the non-edges"
    related = [0] * out["witnesses"]
    for w, p in out["r"]:
        related[w] |= 1 << p
    for edge in out["hyperedges"]:
        e = _mask(edge)
        if any(r & e == e for r in related):
            return f"a witness is related to all of hyperedge {edge}"
    columns = [[w for w in range(out["witnesses"]) if related[w] >> p & 1] for p in range(vertices)]
    problem = realize_problems(k, vertices, edges, {"universe": max(1, out["witnesses"]), "sets": columns})
    if problem or not out["axioms_ok"]:
        return f"witness structure: {problem or 'check_axioms failed'}"
    return None


def _check_double(spec, out) -> str | None:
    n, total = spec["vertices"], out["vertices"]
    adjacency = [0] * total
    for u, v in out["edges"]:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    if any(adjacency[u] & adjacency[v] for u, v in out["edges"]):
        return "doubled graph has a triangle"
    if out["pairs"] != [[v, n + v] for v in range(n)]:
        return "unexpected vertex pairs"
    derived = [
        [x for x in range(total) if adjacency[x] >> v & 1 and adjacency[x] >> (n + v) & 1]
        for v in range(n)
    ]
    if out["family"]["sets"] != derived:
        return "family is not the common neighbourhoods of the pairs"
    return realize_problems(2, n, spec["edges"], out["family"])


def _check_extension(spec, out) -> str | None:
    n = len(spec["sets"])
    realized = set(_point_types(spec["universe"], spec["sets"]))
    splits = {"consistency": [], "inconsistency": []}
    for t in range(1 << n):
        pos = [i for i in range(n) if t >> i & 1]
        neg = [i for i in range(n) if not t >> i & 1]
        splits["consistency" if t in realized else "inconsistency"].append([pos, neg])
    expected = {"n": n, **{side: sorted(conds) for side, conds in splits.items()}}
    if out["extension"] != expected:
        return "fully complete extension differs from the realized/unrealized split"
    if not out["ok"]:
        return "family does not exhibit its own extension"
    witness = out["witness"]
    if len(witness["sets"]) != n or set(_point_types(witness["universe"], witness["sets"])) != realized:
        return "powerset witness realizes other complete types than the family"
    return None


def check(spec, out) -> str | None:
    kind = spec["kind"]
    if kind == "blowup-roundtrip":
        if not out["realized"]:
            return "realize_check rejected the pullback"
        return realize_problems(spec["k"], spec["vertices"], spec["edges"], out["family"])
    if kind == "dictionary-roundtrip":
        return _check_dictionary(spec, out)
    if kind == "triangle-free-double":
        return _check_double(spec, out)
    if kind in ("ip-check", "ip-check-violated"):
        if out["universe"] != 1 << spec["n"]:
            return "independence family has the wrong universe"
        want_failing = [] if kind == "ip-check" else spec["pattern"]["inconsistency"]
        if out["ok"] is not spec["expect"] or out["failing_consistency"] or (
            out["failing_inconsistency"] != want_failing
        ):
            return f"report ok={out['ok']} failing={out['failing_inconsistency']}, expected {want_failing}"
        return None
    if kind == "complete-extension":
        return _check_extension(spec, out)
    if kind == "one1":
        ok = out["ok"] and out["universe"] == spec["n"] and out["index_count"] == spec["n"]
        return None if ok else "disjoint singleton family failed its threshold check"
    return _check_decide(spec, out)


def witness_points(spec, out) -> int | None:
    """Universe size of the family the operation returned, if any."""
    kind = spec["kind"]
    if kind in ("blowup-roundtrip", "triangle-free-double"):
        return out["family"]["universe"]
    if kind == "dictionary-roundtrip":
        return out["witness"]["universe"]
    if kind in ("ip-check", "ip-check-violated", "one1"):
        return out["universe"]
    if kind == "complete-extension":
        return out["witness"]["universe"]
    witness = json.loads(out["stdout"]).get("witness")
    return witness["universe"] if witness else None
