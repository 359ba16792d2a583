"""Propositional CNF, a deterministic DPLL solver, and DIMACS interchange.

The solver is deliberately plain: unit propagation to a fixpoint, then every
pure literal at once, repeated until neither applies; then branching on the
lowest-index variable still occurring in an unsatisfied clause, trying True
first.  It is iterative, with an explicit trail and decision stack and
per-clause counters, so its depth is bounded by memory, not by Python's
recursion limit.  sat_solve takes optional assumption literals, which act
exactly like extra unit clauses, so one formula can be solved under many
sets of assumptions.  The fixed strategy makes every produced assignment
(and hence every synthesized witness downstream) bit-for-bit reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import IndexOutOfRange, ParseError


@dataclass(frozen=True, order=True)
class Literal:
    variable: int
    negated: bool = False

    def negate(self) -> "Literal":
        return Literal(self.variable, not self.negated)


def _normalize_clauses(clauses, variable_count):
    # Literals are deduplicated and sorted by their (variable, negated) keys,
    # which order and compare them exactly as Literal does, without calling
    # the dataclass's Python-level __hash__ and __lt__.
    out = {}
    for clause in clauses:
        lits = {(lit.variable, lit.negated): lit for lit in clause}
        for variable, _ in lits:
            if not 0 <= variable < variable_count:
                raise IndexOutOfRange(f"variable {variable} outside [0, {variable_count})")
        if any((variable, not negated) in lits for variable, negated in lits):
            continue  # tautological clause carries no constraint
        keys = tuple(sorted(lits))
        out.setdefault(keys, tuple(lits[key] for key in keys))
    return tuple(out[keys] for keys in sorted(out))


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula in canonical form.

    Construction normalizes: duplicate literals and clauses collapse,
    tautological clauses are dropped, and literals/clauses are sorted by
    (variable, negated).  Two formulas are equal iff they normalize alike.
    """

    variable_count: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        if self.variable_count < 0:
            raise IndexOutOfRange("variable count must be nonnegative")
        object.__setattr__(
            self, "clauses", _normalize_clauses(self.clauses, self.variable_count)
        )


def _encode(lit: Literal) -> int:
    # 1-based signed encoding, as in DIMACS
    return -(lit.variable + 1) if lit.negated else lit.variable + 1


def _search(variable_count, clauses):
    """Iterative DPLL over clauses of literal codes 2 * variable + negated.

    Returns the value of each variable (None where the search assigned
    none), or None if the clauses are unsatisfiable.  Each clause counts its true literals and its
    literals not yet false, so a clause is satisfied when the first count is
    nonzero, a unit when it is not and the second count is 1, and a conflict
    when both are 0.  Each literal counts the unsatisfied clauses it occurs
    in, which finds pure literals and the residual variables.  The trail
    holds every assigned literal; a decision records the trail length before
    it, so a conflict undoes the trail back to the last decision still to be
    tried False.
    """
    occurs = [[] for _ in range(2 * variable_count)]
    for c, clause in enumerate(clauses):
        for lit in clause:
            occurs[lit].append(c)
    true_count = [0] * len(clauses)
    free_count = [len(clause) for clause in clauses]
    live = [len(cs) for cs in occurs]
    value = [None] * variable_count
    trail = []
    decisions = []  # (trail length before, variable, False branch taken)
    units = [c for c, clause in enumerate(clauses) if len(clause) == 1]
    # Every pure variable is among these: a literal's count only reaches 0
    # by a decrement, and the state a conflict returns to had no pure literal.
    candidates = set(range(variable_count))

    def assign(lit):
        """Set lit true; returns True if some clause became empty."""
        value[lit >> 1] = not lit & 1
        trail.append(lit)
        for c in occurs[lit]:
            true_count[c] += 1
            if true_count[c] == 1:
                for other in clauses[c]:
                    live[other] -= 1
                    if not live[other]:
                        candidates.add(other >> 1)
        conflict = False
        for c in occurs[lit ^ 1]:
            free_count[c] -= 1
            if not true_count[c]:
                if free_count[c] == 1:
                    units.append(c)
                elif not free_count[c]:
                    conflict = True
        return conflict

    def unassign(lit):
        value[lit >> 1] = None
        for c in occurs[lit]:
            true_count[c] -= 1
            if not true_count[c]:
                for other in clauses[c]:
                    live[other] += 1
        for c in occurs[lit ^ 1]:
            free_count[c] += 1

    def propagate():
        """Unit propagation to a fixpoint, then every pure literal at once,
        until neither applies; returns True on a conflict."""
        while True:
            while units:
                c = units.pop()
                if true_count[c] or free_count[c] != 1:
                    continue
                if assign(next(lit for lit in clauses[c] if value[lit >> 1] is None)):
                    return True
            pures = []
            for v in candidates:
                if value[v] is None and bool(live[2 * v]) != bool(live[2 * v + 1]):
                    pures.append(2 * v if live[2 * v] else 2 * v + 1)
            candidates.clear()
            if not pures:
                return False
            for lit in pures:
                assign(lit)  # a pure literal falsifies no unsatisfied clause

    conflict = propagate()
    while True:
        while conflict:  # undo back to the last decision still to be tried False
            if not decisions:
                return None
            mark, v, flipped = decisions.pop()
            while len(trail) > mark:
                unassign(trail.pop())
            units.clear()
            candidates.clear()
            if not flipped:
                decisions.append((mark, v, True))
                conflict = assign(2 * v + 1) or propagate()
        # branch on the lowest residual variable, True first; every variable
        # below the last decision's is assigned or gone from the unsatisfied
        # clauses
        v = decisions[-1][1] + 1 if decisions else 0
        while v < variable_count and (value[v] is not None or not (live[2 * v] or live[2 * v + 1])):
            v += 1
        if v == variable_count:
            return value
        decisions.append((len(trail), v, False))
        conflict = assign(2 * v) or propagate()


def sat_solve(formula: CnfFormula, assumptions=()) -> dict[int, bool] | None:
    """Return a total satisfying assignment {variable: bool}, or None if unsat.

    `assumptions` are literals that act exactly like extra unit clauses, so
    sat_solve(f, assumptions=a) equals sat_solve of f with the clauses (l,)
    for l in a added.  Deterministic: variables the search never assigns
    default to True.
    """
    if any(not clause for clause in formula.clauses):
        return None
    clauses = [[2 * lit.variable + lit.negated for lit in clause] for clause in formula.clauses]
    for lit in assumptions:
        if not 0 <= lit.variable < formula.variable_count:
            raise IndexOutOfRange(
                f"assumption variable {lit.variable} outside [0, {formula.variable_count})"
            )
        clauses.append([2 * lit.variable + lit.negated])
    values = _search(formula.variable_count, clauses)
    if values is None:
        return None
    return {v: value is not False for v, value in enumerate(values)}


def export_dimacs(formula: CnfFormula) -> str:
    """Serialize in DIMACS CNF format; byte-deterministic for canonical input."""
    lines = [f"p cnf {formula.variable_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join([str(_encode(lit)) for lit in clause] + ["0"]))
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)\s*$")


def import_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.  Raises ParseError with a line number."""
    header = None
    clauses: list[list[Literal]] = []
    pending: list[Literal] = []
    last_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            m = _HEADER.match(line)
            if m is None:
                raise ParseError(f"expected 'p cnf <vars> <clauses>', got {line!r}", lineno)
            header = (int(m.group(1)), int(m.group(2)))
            continue
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno) from None
            if value == 0:
                clauses.append(pending)
                pending = []
            else:
                var = abs(value) - 1
                if var >= header[0]:
                    raise ParseError(
                        f"variable {abs(value)} exceeds declared count {header[0]}", lineno
                    )
                pending.append(Literal(var, value < 0))
    if header is None:
        raise ParseError("missing 'p cnf' header", last_line or None)
    if pending:
        raise ParseError("unterminated clause (missing trailing 0)", last_line)
    if len(clauses) != header[1]:
        raise ParseError(
            f"header declares {header[1]} clauses, found {len(clauses)}", last_line
        )
    return CnfFormula(header[0], tuple(tuple(c) for c in clauses))
