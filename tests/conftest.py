"""Shared oracles, enumeration helpers and seeded generators.

The oracles here deliberately share no code with the library paths they
check: truth-table SAT and a recursive DPLL for the solver, direct subset
scans for clique and trace logic.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

from patterna import CnfFormula, Condition, Literal, Pattern, SetFamily
from patterna.rand import random_condition


def run_capped(script: str, args=(), *, cap: int, timeout: float, env=None) -> subprocess.CompletedProcess:
    """The Python code script run with argv args in a child process whose
    address space is capped at cap bytes, with this process's sys.path as
    PYTHONPATH, stopped after timeout seconds; env defaults to os.environ."""
    prelude = ("import resource\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, resource.getrlimit(resource.RLIMIT_AS)[1]))\n")
    return subprocess.run(
        [sys.executable, "-c", prelude + script, *args], capture_output=True, text=True, timeout=timeout,
        env={**(os.environ if env is None else env), "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def random_pattern(rng: random.Random, n: int, max_conditions: int) -> Pattern:
    """An arbitrary pattern: conditions need not be disjoint or reasonable."""
    if n == 0:
        return Pattern(0)
    total = rng.randint(0, max_conditions)
    split = rng.randint(0, total)
    cons = [random_condition(rng, n) for _ in range(split)]
    incons = [random_condition(rng, n) for _ in range(total - split)]
    return Pattern(n, tuple(cons), tuple(incons))


def random_cnf(rng: random.Random, variables: int, clause_count: int, width: int = 3) -> CnfFormula:
    clauses = []
    for _ in range(clause_count):
        if variables == 0:
            clauses.append(())  # only the empty clause exists
            continue
        size = rng.randint(1, min(width, variables))
        chosen = rng.sample(range(variables), size)
        clauses.append(tuple(Literal(v, rng.random() < 0.5) for v in chosen))
    return CnfFormula(variables, tuple(clauses))


def family_from_dict(doc) -> SetFamily:
    """The set family of a witness document: {"universe": u, "sets": [[point, ...], ...]}."""
    return SetFamily(doc["universe"], tuple(frozenset(s) for s in doc["sets"]))


def truth_table_sat(formula: CnfFormula) -> bool:
    """Ground-truth satisfiability by scanning all assignments."""
    n = formula.variable_count
    for bits in itertools.product((False, True), repeat=n):
        if all(
            any(bits[lit.variable] != lit.negated for lit in clause)
            for clause in formula.clauses
        ):
            return True
    return not formula.clauses if n == 0 else False


def _simplify(clauses, lit):
    """Drop clauses satisfied by lit, remove -lit elsewhere; None on empty clause."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = frozenset(x for x in clause if x != -lit)
            if not clause:
                return None
        out.append(clause)
    return out


def _dpll(clauses, assignment):
    while True:
        # unit propagation, first unit in clause order
        unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
        if unit is not None:
            assignment[abs(unit) - 1] = unit > 0
            clauses = _simplify(clauses, unit)
            if clauses is None:
                return None
            continue
        # pure literal elimination, lowest variable first
        polarity = {}
        for clause in clauses:
            for lit in clause:
                var = abs(lit)
                polarity[var] = lit if polarity.setdefault(var, lit) == lit else 0
        pures = sorted(lit for lit in polarity.values() if lit != 0)
        if pures:
            for lit in pures:
                assignment[abs(lit) - 1] = lit > 0
                clauses = _simplify(clauses, lit)
            continue
        break
    if not clauses:
        return assignment
    branch_var = min(abs(lit) for clause in clauses for lit in clause)
    for lit in (branch_var, -branch_var):
        trial = dict(assignment)
        trial[abs(lit) - 1] = lit > 0
        reduced = _simplify(clauses, lit)
        if reduced is None:
            continue
        result = _dpll(reduced, trial)
        if result is not None:
            return result
    return None


def dpll_reference(formula: CnfFormula) -> dict[int, bool] | None:
    """The recursive DPLL the solver must match assignment for assignment:
    unit propagation, then every pure literal, repeated; then branch on the
    lowest residual variable, True first; unassigned variables are True.
    Recursion depth grows with the number of decisions, so keep it small."""
    clauses = [
        frozenset(-(lit.variable + 1) if lit.negated else lit.variable + 1 for lit in clause)
        for clause in formula.clauses
    ]
    if any(not c for c in clauses):
        return None
    partial = _dpll(clauses, {})
    if partial is None:
        return None
    return {v: partial.get(v, True) for v in range(formula.variable_count)}


def all_conditions(n: int) -> list[Condition]:
    """Every legal condition over [0, n): nonempty (pos, neg) pairs,
    overlap allowed."""
    out = []
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(n), size) for size in range(n + 1)
        )
    )
    for pos in subsets:
        for neg in subsets:
            if pos or neg:
                out.append(Condition(pos, neg))
    return out


def disjoint_conditions(n: int) -> list[Condition]:
    """Every condition with disjoint pos/neg (3**n - 1 of them)."""
    out = []
    for assignment in itertools.product((0, 1, 2), repeat=n):
        pos = tuple(i for i, a in enumerate(assignment) if a == 1)
        neg = tuple(i for i, a in enumerate(assignment) if a == 2)
        if pos or neg:
            out.append(Condition(pos, neg))
    return out


def complete_conditions(n: int) -> list[Condition]:
    everything = frozenset(range(n))
    return [
        Condition(pos, everything - set(pos))
        for size in range(n + 1)
        for pos in itertools.combinations(range(n), size)
    ]


def fully_complete_patterns(n: int):
    splits = complete_conditions(n)
    for mask in range(1, 1 << len(splits)):
        yield Pattern(
            n,
            tuple(c for i, c in enumerate(splits) if mask >> i & 1),
            tuple(c for i, c in enumerate(splits) if not mask >> i & 1),
        )


def clique_masks_by_scan(h) -> list[int]:
    """Every nonempty clique of a hypergraph as an ascending vertex mask, by
    testing every arity-subset of every vertex subset."""
    out = []
    for mask in range(1, 1 << h.vertex_count):
        members = [v for v in range(h.vertex_count) if mask >> v & 1]
        if all(frozenset(sub) in h.edges for sub in itertools.combinations(members, h.arity)):
            out.append(mask)
    return out


def encodes_by_scan(fam, h):
    return all(
        bool(trace_by_points(fam, Condition(combo, ()))) == (frozenset(combo) in h.edges)
        for combo in itertools.combinations(range(h.vertex_count), h.arity)
    )


# Named instances used across test modules.

#: Not exhibitable: requires set 0 empty and its complement empty.
NO_POINT = Pattern(1, (), (Condition((0,), ()), Condition((), (0,))))

#: Exhibitable: two nonempty disjoint sets whose union is the third.
UNION_SPLIT = Pattern(
    3,
    (Condition((0,), ()), Condition((1,), ())),
    (
        Condition((0, 1), ()),
        Condition((0,), (2,)),
        Condition((1,), (2,)),
        Condition((2,), (0, 1)),
    ),
)


def trace_by_points(fam, cond) -> frozenset[int]:
    """The trace of cond in fam, one point at a time: the points that lie in
    every positive set and in no negative set."""
    return frozenset(
        point
        for point in range(fam.universe_size)
        if all(point in fam.sets[i] for i in cond.pos)
        and not any(point in fam.sets[j] for j in cond.neg)
    )


def reference_pattern(doc, *, strict=True):
    """The canonical (n, consistency, inconsistency) of a pattern document,
    worked out with plain set and sort calls, or None when the document is
    malformed.

    Well formed: a dict with an int n >= 0 whose sides (empty when absent)
    are lists or tuples of (pos, neg) pairs; each pair and each of its parts
    is a list or tuple, and each index an int in [0, n); no pair is empty on
    both sides.  Each part becomes sorted(set(part)); each side is
    deduplicated through a dict, where a repeat makes a strict document
    malformed, and its keys are sorted.  A Condition counts as its pair."""
    sequences = (list, tuple)
    if not isinstance(doc, dict) or type(doc.get("n")) is not int or doc["n"] < 0:
        return None
    n, sides = doc["n"], []
    for name in ("consistency", "inconsistency"):
        raw = doc.get(name, [])
        if type(raw) not in sequences:
            return None
        keys = {}
        for item in raw:
            if isinstance(item, Condition):
                item = (item.pos, item.neg)
            if type(item) not in sequences or len(item) != 2:
                return None
            if any(type(part) not in sequences for part in item):
                return None
            if any(type(i) is not int or not 0 <= i < n for part in item for i in part):
                return None
            key = (tuple(sorted(set(item[0]))), tuple(sorted(set(item[1]))))
            if key == ((), ()) or (strict and key in keys):
                return None
            keys[key] = None
        sides.append(tuple(sorted(keys)))
    return (n, *sides)


def reference_maps(doc):
    """The ((witness, parameter), (witness, parameter)) index tuples of an
    amalgam maps document, or None when it is malformed.

    Well formed: a dict with keys "e0" and "e1", each a dict with keys
    "witness" and "parameter" whose values are lists or tuples of ints;
    true, false and 1.0 are not ints.  Other keys are ignored, and an index
    is not range-checked here: that needs the structures it maps between."""
    if not isinstance(doc, dict) or "e0" not in doc or "e1" not in doc:
        return None
    out = []
    for name in ("e0", "e1"):
        embedding = doc[name]
        if not isinstance(embedding, dict) or "witness" not in embedding or "parameter" not in embedding:
            return None
        maps = (embedding["witness"], embedding["parameter"])
        if any(type(m) not in (list, tuple) or any(type(v) is not int for v in m) for m in maps):
            return None
        out.append(tuple(tuple(m) for m in maps))
    return tuple(out)


def reference_hypergraph(doc):
    """The (k, vertices, edges) of a hypergraph document, edges as a frozenset of
    frozensets, or None when it is malformed.

    Well formed: a dict with keys "vertices" and "edges" and an optional "k"
    (2 when absent); k an int of at least 2 and vertices an int of at least 0;
    edges a list or tuple of lists or tuples of ints in [0, vertices), each
    holding exactly k distinct ints.  true, false and 1.0 are not ints.  An
    edge is the set of its entries, and a repeated edge is one edge."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        return None
    k, vertices, edges = doc.get("k", 2), doc["vertices"], doc["edges"]
    if type(k) is not int or k < 2 or type(vertices) is not int or vertices < 0:
        return None
    if type(edges) not in (list, tuple) or any(type(edge) not in (list, tuple) for edge in edges):
        return None
    if any(type(v) is not int or not 0 <= v < vertices for edge in edges for v in edge):
        return None
    if any(len(set(edge)) != k for edge in edges):
        return None
    return k, vertices, frozenset(frozenset(edge) for edge in edges)


def reference_structure(doc):
    """The (witness_points, parameter_points, r, hyperedges, flavor) of a
    witness-structure document, or None when it is malformed.

    Well formed: a dict with keys "witness_points" and "parameter_points",
    each a list of strings, "r", a list or tuple of [w, p] pairs of ints, and
    "hyperedges", a list or tuple of lists or tuples of ints, with an optional
    "flavor" that is "positive" (the default) or "k-uniform".  true, false and
    1.0 are not ints.  Indices are not range-checked: check_axioms reports
    those.  The labels become tuples, r a frozenset of (w, p) tuples and
    hyperedges a frozenset of frozensets."""
    keys = ("witness_points", "parameter_points", "r", "hyperedges")
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        return None
    labels = (doc["witness_points"], doc["parameter_points"])
    if any(type(points) is not list or any(type(label) is not str for label in points) for points in labels):
        return None
    sequences = (list, tuple)
    r, hyperedges = doc["r"], doc["hyperedges"]
    if type(r) not in sequences or any(type(pair) not in sequences or len(pair) != 2 for pair in r):
        return None
    if type(hyperedges) not in sequences or any(type(edge) not in sequences for edge in hyperedges):
        return None
    if any(type(v) is not int for entries in (*r, *hyperedges) for v in entries):
        return None
    flavor = doc.get("flavor", "positive")
    if flavor not in ("positive", "k-uniform"):
        return None
    return (*map(tuple, labels), frozenset(map(tuple, r)), frozenset(map(frozenset, hyperedges)), flavor)


def assert_parsed_as(p, reference):
    """p is the canonical Pattern of reference: its n, its conditions in
    order, tuple fields throughout, and the repr and hash that follow."""
    n, consistency, inconsistency = reference
    assert p.n == n
    for side, keys in ((p.consistency, consistency), (p.inconsistency, inconsistency)):
        assert type(side) is tuple and [(c.pos, c.neg) for c in side] == list(keys)
        assert all(type(c) is Condition and type(c.pos) is type(c.neg) is tuple for c in side)
    conds = [tuple(Condition(pos, neg) for pos, neg in keys) for keys in (consistency, inconsistency)]
    assert repr(p) == f"Pattern(n={n}, consistency={conds[0]!r}, inconsistency={conds[1]!r})"
    expected = Pattern(n, *conds)
    assert p == expected and hash(p) == hash(expected)
