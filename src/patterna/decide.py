"""Exhibitability decision via per-condition CNF encodings.

A pattern is exhibitable iff, for each consistency condition, some complete
type extends it without extending any inconsistency condition — plus, when
there are no consistency conditions at all, some complete type must still
exist to populate the mandatory nonempty universe (the "sentinel" instance).
Each such question is one small CNF formula; decide_exhibitable answers them
with the deterministic DPLL solver and assembles the chosen types into a
witness family, which it re-verifies before returning.  A brute-force scanner
with the same contract serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BRUTE_FORCE_N, enumeration_bound
from .errors import BoundExceeded, WitnessVerificationFailure
from .patterns import Condition, Pattern, subset_index
from .sat import CnfFormula, Literal, sat_solve
from .semantics import SetFamily, check_exhibits

#: Sentinel for the "universe is nonempty" instance solved when C = ∅.  Not a
#: legal pattern condition; only ever appears as a Decision's failing marker.
EMPTY_CONDITION = Condition((), ())


@dataclass(frozen=True)
class Decision:
    """exhibitable with a verified witness, or not with the first failing
    consistency condition (EMPTY_CONDITION when the sentinel fails)."""

    exhibitable: bool
    witness: SetFamily | None = None
    failing_condition: Condition | None = None


def condition_cnf(p: Pattern, cond: Condition = EMPTY_CONDITION) -> CnfFormula:
    """CNF whose models are the complete types extending `cond` and extending
    no inconsistency condition of p.

    Variable i stands for "index i belongs to the type": unit clauses fix
    cond's positive and negative parts, and each inconsistency condition
    (Z+, Z-) contributes the clause (OR of not-i for i in Z+) or (OR of j for
    j in Z-).  An inconsistency condition with overlapping parts yields a
    tautological clause, which normalization drops — correctly, since its
    trace is empty in every family.
    """
    clauses = [(Literal(i),) for i in cond.pos]
    clauses += [(Literal(j, True),) for j in cond.neg]
    for z in p.inconsistency:
        clauses.append(
            tuple(Literal(i, True) for i in z.pos) + tuple(Literal(j) for j in z.neg)
        )
    return CnfFormula(p.n, tuple(clauses))


def _targets(p: Pattern):
    return p.consistency if p.consistency else (EMPTY_CONDITION,)


def _witness_from_types(p: Pattern, types) -> SetFamily:
    universe = sorted(set(types), key=sorted)
    sets = tuple(
        frozenset(point for point, t in enumerate(universe) if i in t) for i in range(p.n)
    )
    return SetFamily(len(universe), sets)


def _verified(p: Pattern, types) -> Decision:
    witness = _witness_from_types(p, types)
    report = check_exhibits(witness, p)
    if not report.ok:
        raise WitnessVerificationFailure(
            f"synthesized witness fails re-verification: {report}"
        )
    return Decision(True, witness, None)


def decide_exhibitable(p: Pattern) -> Decision:
    """Decide exhibitability; on yes, synthesize and re-verify a witness.

    One SAT instance per consistency condition (the sentinel instance when
    there are none); the witness universe is the deduplicated set of chosen
    complete types, one point each.  Deterministic end to end.
    """
    types = []
    for cond in _targets(p):
        assignment = sat_solve(condition_cnf(p, cond))
        if assignment is None:
            return Decision(False, None, cond)
        types.append(frozenset(i for i in range(p.n) if assignment[i]))
    return _verified(p, types)


def brute_force_exhibitable(p: Pattern, bound: int | None = None) -> Decision:
    """Same contract as decide_exhibitable, by scanning all 2**n complete
    types per condition in ascending binary order.  The ground-truth oracle;
    shares no code with the SAT path."""
    limit = enumeration_bound(BRUTE_FORCE_N) if bound is None else bound
    if p.n > limit:
        raise BoundExceeded(f"n={p.n} exceeds brute-force bound {limit}")
    forbidden = [(subset_index(z.pos), subset_index(z.neg)) for z in p.inconsistency]
    types = []
    for cond in _targets(p):
        want, avoid = subset_index(cond.pos), subset_index(cond.neg)
        found = None
        for candidate in range(1 << p.n):
            if candidate & want != want or candidate & avoid:
                continue
            if any(candidate & zp == zp and not candidate & zn for zp, zn in forbidden):
                continue
            found = candidate
            break
        if found is None:
            return Decision(False, None, cond)
        types.append(frozenset(i for i in range(p.n) if found >> i & 1))
    return _verified(p, types)
