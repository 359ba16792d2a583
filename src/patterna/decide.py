"""Exhibitability decision via incremental per-condition SAT solving.

A pattern is exhibitable iff, for each consistency condition, some complete
type extends it without extending any inconsistency condition — plus, when
there are no consistency conditions at all, some complete type must still
exist to populate the mandatory nonempty universe (the "sentinel" instance).
decide_exhibitable compiles the inconsistency clauses, shared by every such
question, once per pattern and solves each question under the condition's
literals as assumptions.  The witness grows as column masks, one point per
solve, and a condition it already traces needs no solve.  The witness is
re-verified before returning.  A brute-force scanner with the same contract
serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BRUTE_FORCE_STEPS_LOG2, PATTERN_INDICES_LOG2, check_bound
from .errors import WitnessVerificationFailure
from .patterns import Condition, Pattern, _bits, subset_index
from .sat import CnfFormula, CompiledCnf, Literal, sat_solve
from .semantics import SetFamily, _tracer, check_exhibits

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


def _literals(cond: Condition) -> list[Literal]:
    """The literals fixing cond: i in the type for i in pos, j not for j in neg."""
    return [Literal(i) for i in cond.pos] + [Literal(j, True) for j in cond.neg]


def _clause_codes(p: Pattern) -> list[list[int]]:
    """p's inconsistency clauses as literal codes, in p's order: (Z+, Z-)
    gives (OR of not-i for i in Z+) or (OR of j for j in Z-), and is dropped
    as a tautology when its parts overlap, since its trace is always empty.
    The search's answer does not depend on the order; CnfFormula normalises.
    More than 2**PATTERN_INDICES_LOG2 variables are refused."""
    check_bound(p.n, PATTERN_INDICES_LOG2, "n={size} exceeds the pattern index bound {limit}", log2=True)
    return [[2 * i + 1 for i in z.pos] + [2 * j for j in z.neg]
            for z in p.inconsistency if set(z.pos).isdisjoint(z.neg)]


def condition_cnf(p: Pattern, cond: Condition = EMPTY_CONDITION) -> CnfFormula:
    """CNF whose models are the complete types extending `cond` and extending
    no inconsistency condition of p.

    Variable i stands for "index i belongs to the type": unit clauses fix
    cond's positive and negative parts, and each inconsistency condition
    contributes its clause from _clause_codes.
    """
    clauses = [(lit,) for lit in _literals(cond)]
    clauses += [tuple(Literal(c >> 1, bool(c & 1)) for c in clause) for clause in _clause_codes(p)]
    return CnfFormula(p.n, tuple(clauses))


def _targets(p: Pattern):
    return p.consistency if p.consistency else (EMPTY_CONDITION,)


def _verified(p: Pattern, witness: SetFamily) -> Decision:
    """The decision for witness, re-verified against p."""
    report = check_exhibits(witness, p)
    if not report.ok:
        raise WitnessVerificationFailure(f"synthesized witness fails re-verification: {report}")
    return Decision(True, witness, None)


def decide_exhibitable(p: Pattern) -> Decision:
    """Decide exhibitability; on yes, synthesize and re-verify a witness.

    The clauses of condition_cnf(p) are compiled once, and the witness grows
    as p.n column masks.  Each consistency condition in canonical order (the
    sentinel when there are none) is skipped if the witness so far traces
    it, and otherwise solved as assumptions; the model's true indices make a
    new point.  So the first failing condition is the first unsatisfiable
    one, and point k is the type chosen by the k-th solve, which no earlier
    point has.  Deterministic; nothing is kept between calls.  More than
    2**PATTERN_INDICES_LOG2 indices (the witness's sets) are refused.
    """
    shared = CompiledCnf(p.n, _clause_codes(p))
    masks, trace, bit = [0] * p.n, None, 1  # the witness's columns, its tracer, the next point's bit
    for cond in _targets(p):
        if trace and trace(cond.pos, cond.neg):
            continue
        assignment = sat_solve(shared, assumptions=_literals(cond))
        if assignment is None:
            return Decision(False, None, cond)
        for v, true in assignment.items():
            if true:
                masks[v] |= bit
        witness = SetFamily._of_masks(bit.bit_length(), masks)
        trace, bit = _tracer(witness), bit << 1
    return _verified(p, witness)


def brute_force_exhibitable(p: Pattern) -> Decision:
    """Same contract as decide_exhibitable, by scanning all 2**n complete
    types per condition in ascending binary order.  The ground-truth oracle;
    shares no code with the SAT path.  Over 2**BRUTE_FORCE_STEPS_LOG2 steps
    (targets x 2**n types x (1 + |I|)) the scan is refused before it starts;
    n is checked against the exponent first, as 2**n types take at least
    2**n steps, so no huge n is shifted."""
    targets = _targets(p)
    check_bound(p.n, BRUTE_FORCE_STEPS_LOG2, "n={size} exceeds the brute-force bound {limit}")
    check_bound(len(targets) * (len(p.inconsistency) + 1) << p.n, BRUTE_FORCE_STEPS_LOG2,
                "a brute-force scan of {size} steps exceeds the brute-force step bound {limit}", log2=True)
    forbidden = [(subset_index(z.pos), subset_index(z.neg)) for z in p.inconsistency]
    types = []
    for cond in targets:
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
        types.append(found)
    return _verified(p, SetFamily._of_types(p.n, map(_bits, dict.fromkeys(types))))
