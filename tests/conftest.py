"""Shared oracles and enumeration helpers.

The oracles here deliberately share no code with the library paths they
check: truth-table SAT and a recursive DPLL for the solver, direct subset
scans for clique and trace logic.
"""

from __future__ import annotations

import itertools

from patterna import CnfFormula, Condition, Pattern


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
