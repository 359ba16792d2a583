"""Propositional CNF, a deterministic DPLL solver, and DIMACS interchange.

The solver is deliberately plain: unit propagation to a fixpoint, then every
pure literal at once, repeated until neither applies; then branching on the
lowest-index variable still occurring in an unsatisfied clause, trying True
first.  It is iterative, with an explicit trail and decision stack, so its
depth is bounded by memory, not by Python's recursion limit.  It keeps only
the counts it reads: each unassigned variable's literals count the
unsatisfied clauses they occur in (pure literals and residual variables),
and each unsatisfied clause counts its literals not yet false (units and
conflicts).  An assigned variable's counts and a satisfied clause's count
stay as they were when it was assigned or satisfied, which is what they are
again when that step is undone.  Once some node has failed (both of its
branches), it also caches residual formulas (formula caching): each node's
key is the OR, over the trail, of each literal's clause bits and variable
bit, which fixes the unsatisfied clauses and their unassigned literals, and
a state whose key belongs to a node that failed is a conflict.  The DPLL is
complete, so such a state has no model, and skipping it leaves every
returned assignment as it was.  sat_solve takes a CompiledCnf (clauses
compiled once, for many solves) or a CnfFormula, and assumption literals,
which act exactly like extra unit clauses.  The fixed strategy makes every
produced assignment (and hence every synthesized witness downstream)
bit-for-bit reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .bounds import check_indices
from .errors import IndexOutOfRange, ParseError


@dataclass(frozen=True, order=True)
class Literal:
    variable: int
    negated: bool = False


def _normal_codes(clauses) -> list[tuple[int, ...]]:
    """Clauses of literal codes 2 * variable + negated, which order as the
    literals do, in CnfFormula's normal form: literals and clauses
    deduplicated and sorted, tautological clauses dropped."""
    out = set()
    for clause in clauses:
        lits = set(clause)
        if lits.isdisjoint([lit ^ 1 for lit in lits]):
            out.add(tuple(sorted(lits)))
    return sorted(out)


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
        count = self.variable_count
        check_indices((count,), "variable count")
        if count < 0:
            raise IndexOutOfRange("variable count must be nonnegative")
        check_indices([lit.variable for clause in self.clauses for lit in clause], "variable", count)
        codes = _normal_codes([[2 * lit.variable + lit.negated for lit in clause] for clause in self.clauses])
        clauses = tuple(tuple(Literal(c >> 1, bool(c & 1)) for c in clause) for clause in codes)
        object.__setattr__(self, "clauses", clauses)


class CompiledCnf:
    """Clauses of literal codes in any order, compiled once for many solves:
    each literal's occurrence list and the counts a search starts from."""

    def __init__(self, variable_count: int, clauses):
        self.variable_count, self.clauses = variable_count, tuple(clauses)
        self.occurs = [[] for _ in range(2 * variable_count)]
        for c, clause in enumerate(self.clauses):
            for lit in clause:
                self.occurs[lit].append(c)
        self.free_count = [len(clause) for clause in self.clauses]
        self.live = [len(cs) for cs in self.occurs]
        self.units = [c for c, free in enumerate(self.free_count) if free == 1]
        self.has_empty = 0 in self.free_count


class _Marks(dict):
    """Each literal's key bits, built on first use: bit c for each clause c
    it satisfies and, when its variable occurs in some clause, bit
    len(clauses) + variable."""

    def __init__(self, cnf: CompiledCnf):
        super().__init__()
        self.occurs, self.base = cnf.occurs, len(cnf.clauses)

    def __missing__(self, lit):
        occurs = self.occurs
        mark = sum(map((1).__lshift__, occurs[lit]))
        if mark or occurs[lit ^ 1]:
            mark |= 1 << (self.base + (lit >> 1))
        self[lit] = mark
        return mark


def _search(cnf: CompiledCnf, assumptions):
    """Iterative DPLL over cnf with the literal codes `assumptions` set first.

    Returns the value of each variable (None where the search assigned
    none), or None if the clauses are unsatisfiable under the assumptions.
    A clause is satisfied while it records the literal that first made it
    true.  The counts the search reads are exact where it reads them:
    - `live[lit]`, the unsatisfied clauses lit occurs in, while lit's
      variable is unassigned; it finds pure literals and residual variables;
    - `free_count[c]`, clause c's literals not yet false, while c is
      unsatisfied; c is a unit when it is 1 and a conflict when it is 0.
    An assigned variable's `live` and a satisfied clause's `free_count` are
    left as they were when it was assigned or satisfied.  Undo is last in,
    first out and runs assign's steps in reverse, clearing the value last,
    so each is exact again when it is read again.  The trail holds every
    assigned literal; a decision records the trail length before it, so a
    conflict undoes the trail back to the last decision still to be tried
    False.  Assumptions stay on the trail below every decision; unit
    propagation reaches one fixpoint in any order, so they act as unit
    clauses would.

    A node is a state at a propagation fixpoint where the search branches.
    Its key, the OR of `marks` over the trail, is the set of satisfied
    clauses plus the set of assigned variables that occur in some clause,
    so it fixes the residual formula: the unsatisfied clauses, each cut to
    its unassigned literals.  When both branches of a node fail, its key
    goes into `failed`; the DPLL is complete, so that residual formula has
    no model, and a later state whose key is in `failed` is treated as a
    conflict.  Only subtrees with no model are skipped, so the first model,
    and hence the returned values, stay those of the plain search.  No key
    is built before the first node fails, so a solve that never fails pays
    for none; that node and the nodes on the decision stack then get theirs
    in one pass along the trail, and each later node extends its parent's
    key over the trail since the parent and keeps it with the decision
    pushed from it.
    """
    variable_count, clauses, occurs = cnf.variable_count, cnf.clauses, cnf.occurs
    satisfier = [None] * len(clauses)  # the literal that first made each clause true
    free_count = cnf.free_count.copy()
    live = cnf.live.copy()
    end = 2 * variable_count
    value = [None] * end  # of each literal: True, False or None
    trail = []
    # (trail length before, variable's positive literal, False branch taken,
    # node key or None before the first failed node)
    decisions = []
    failed = set()  # keys of nodes whose two branches both failed
    marks = None  # each literal's key bits, from the first failed node on
    units = cnf.units.copy()
    # Every pure variable is among these: an unassigned variable's count only
    # reaches 0 by a decrement, and the state a conflict returns to had no
    # pure literal.
    candidates = set(range(variable_count))

    def assign(lit):
        """Set lit true; returns True if some clause became empty."""
        value[lit], value[lit ^ 1] = True, False
        trail.append(lit)
        for c in occurs[lit]:
            if satisfier[c] is None:
                satisfier[c] = lit
                for other in clauses[c]:
                    if value[other] is None:
                        count = live[other] - 1
                        live[other] = count
                        if not count:
                            candidates.add(other >> 1)
        conflict = False
        for c in occurs[lit ^ 1]:
            if satisfier[c] is None:
                free = free_count[c] - 1
                free_count[c] = free
                if free < 2:
                    if free:
                        units.append(c)
                    else:
                        conflict = True
        return conflict

    def propagate():
        """Unit propagation to a fixpoint, then every pure literal at once,
        until neither applies; returns True on a conflict."""
        while True:
            while units:
                c = units.pop()
                if satisfier[c] is None and free_count[c] == 1:
                    for lit in clauses[c]:
                        if value[lit] is None:
                            break
                    if assign(lit):
                        return True
            pures = []
            for v in candidates:
                lit = 2 * v
                if value[lit] is None and bool(live[lit]) != bool(live[lit + 1]):
                    pures.append(lit if live[lit] else lit + 1)
            candidates.clear()
            if not pures:
                return False
            for lit in pures:
                assign(lit)  # a pure literal falsifies no unsatisfied clause

    def extend(key, start, stop=None):
        """key ORed with the marks of trail[start:stop]."""
        return reduce(or_, map(marks.__getitem__, trail[start:stop]), key)

    for lit in assumptions:  # conflict if the literal is false or a clause empties
        if value[lit] is False or value[lit] is None and assign(lit):
            return None
    conflict = propagate()
    while True:
        while conflict:  # undo back to the last decision still to be tried False
            if not decisions:
                return None
            mark, decided, flipped, key = decisions.pop()
            for lit in reversed(trail[mark:]):  # assign's steps in reverse order
                for c in occurs[lit ^ 1]:
                    if satisfier[c] is None:
                        free_count[c] += 1
                for c in occurs[lit]:
                    if satisfier[c] == lit:
                        satisfier[c] = None
                        for other in clauses[c]:
                            if value[other] is None:
                                live[other] += 1
                value[lit] = value[lit ^ 1] = None
            del trail[mark:]
            units.clear()
            candidates.clear()
            if flipped:
                if marks is None:  # the first failed node: key it and the stack
                    marks, key, start = _Marks(cnf), 0, 0
                    for i, (stop, branch, tried, _) in enumerate(decisions):
                        key = extend(key, start, stop)
                        decisions[i] = stop, branch, tried, key
                        start = stop
                    key = extend(key, start)
                failed.add(key)
            else:
                decisions.append((mark, decided, True, key))
                conflict = assign(decided + 1) or propagate()
        # branch on the lowest residual variable, True first; every variable
        # below the last decision's is assigned or gone from the unsatisfied
        # clauses
        lit = decisions[-1][1] + 2 if decisions else 0
        while lit < end and (value[lit] is not None or not (live[lit] or live[lit + 1])):
            lit += 2
        if lit == end:
            return value[::2]
        key = None
        if failed:
            start, _, _, key = decisions[-1] if decisions else (0, 0, 0, 0)
            key = extend(key, start)
            if key in failed:
                conflict = True
                continue
        decisions.append((len(trail), lit, False, key))
        conflict = assign(lit) or propagate()


def sat_solve(formula: CnfFormula | CompiledCnf, assumptions=()) -> dict[int, bool] | None:
    """Return a total satisfying assignment {variable: bool}, or None if unsat.

    `formula` is a CnfFormula, compiled for this call, or a CompiledCnf
    shared between calls.  `assumptions` are literals that act exactly like
    extra unit clauses, so sat_solve(f, assumptions=a) equals sat_solve of f
    with the clauses (l,) for l in a added.  Deterministic: variables the
    search never assigns default to True.
    """
    if isinstance(formula, CnfFormula):
        formula = CompiledCnf(formula.variable_count,
                              [[2 * lit.variable + lit.negated for lit in clause] for clause in formula.clauses])
    if formula.has_empty:
        return None
    check_indices([lit.variable for lit in assumptions], "assumption variable", formula.variable_count)
    values = _search(formula, [2 * lit.variable + lit.negated for lit in assumptions])
    if values is None:
        return None
    return {v: value is not False for v, value in enumerate(values)}


def export_dimacs(formula: CnfFormula) -> str:
    """Serialize in DIMACS CNF format; byte-deterministic for canonical input."""
    lines = [f"p cnf {formula.variable_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        signed = [-lit.variable - 1 if lit.negated else lit.variable + 1 for lit in clause]
        lines.append(" ".join(map(str, signed + [0])))
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)\s*$")


def import_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.  Raises ParseError with a line number."""
    header = None
    clauses: list[list[Literal]] = []
    pending: list[Literal] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
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
        raise ParseError("missing 'p cnf' header", len(lines) or None)
    if pending:
        raise ParseError("unterminated clause (missing trailing 0)", len(lines))
    if len(clauses) != header[1]:
        raise ParseError(
            f"header declares {header[1]} clauses, found {len(clauses)}", len(lines)
        )
    return CnfFormula(header[0], tuple(tuple(c) for c in clauses))
