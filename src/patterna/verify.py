"""Named verification procedures: each replays one witness construction and
reports every property it checks.

These back the CLI `verify` subcommand; the acceptance test suite drives the
same library operations at its own (larger) sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .bounds import GRAPH_SWEEP_VERTICES, SUBSET_PATTERN_N, enumeration_bound
from .constructions import (
    atomless_pm_witness,
    canonical_char_family,
    cm_from_doubled_witness,
    disjoint_one1_family,
    ip_family,
    membership_column_family,
    membership_structure,
    pm_char_reduction,
    powerset_sm_witness,
)
from .decide import decide_exhibitable
from .hypergraphs import (
    blowup,
    blowup_pullback,
    build_witness_structure,
    check_axioms,
    free_amalgam,
    realization_witness,
    realize_check,
    triangle_free_double,
    witness_trace_family,
)
from .errors import BoundExceeded, UnsupportedParams
from .patterns import (
    Condition,
    Pattern,
    classify,
    complete_conditions,
    cooper_pattern,
    double_positive,
)
from .rand import (
    random_amalgam_problem,
    random_consistency_pattern,
    random_hypergraph,
    random_reasonable_positive,
)
from .semantics import UnionClosedFamily, check_exhibits, check_one_n


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    construction: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(Check(name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "ok": self.ok,
            "passed": self.passed,
            "total": len(self.checks),
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


def fully_complete_patterns(n: int):
    """All 2**(2**n) - 1 fully complete n-patterns (every nonempty choice of
    the consistent side)."""
    limit = enumeration_bound(SUBSET_PATTERN_N)
    if n > limit:
        raise BoundExceeded(f"n={n} exceeds the fully-complete-pattern bound {limit}")
    splits = complete_conditions(n)
    for mask in range(1, 1 << len(splits)):
        cons = tuple(c for i, c in enumerate(splits) if mask >> i & 1)
        incons = tuple(c for i, c in enumerate(splits) if not mask >> i & 1)
        yield Pattern(n, cons, incons)


def verify_powerset_sm(n: int = 2) -> Report:
    report = Report("powerset-sm")
    total = good = 0
    for p in fully_complete_patterns(n):
        total += 1
        decision = decide_exhibitable(p)
        witness = powerset_sm_witness(p)  # raises on self-check failure
        if decision.exhibitable and check_exhibits(witness, p).ok:
            good += 1
    report.add(
        "fully-complete-exhibition",
        good == total,
        f"{good}/{total} fully complete patterns exhibited",
    )
    return report


def verify_atomless_pm(n: int = 4, samples: int = 50, seed: int = 0) -> Report:
    report = Report("atomless-pm")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        p = random_reasonable_positive(rng, rng.randint(0, n), 4, 4)
        decision = decide_exhibitable(p)
        witness = atomless_pm_witness(p)
        if decision.exhibitable and check_exhibits(witness, p).ok:
            good += 1
    report.add(
        "positive-exhibition", good == samples, f"{good}/{samples} witnesses verified"
    )
    return report


def verify_pm_char(n: int = 4, samples: int = 30, seed: int = 0) -> Report:
    report = Report("pm-char")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        p = random_reasonable_positive(rng, rng.randint(0, n), 4, 4)
        fam = pm_char_reduction(canonical_char_family(len(p.consistency)), p)
        if check_exhibits(fam, p).ok:
            good += 1
    report.add(
        "characterization-reduction", good == samples, f"{good}/{samples} reductions verified"
    )
    return report


def verify_cm_doubling(n: int = 4, samples: int = 50, seed: int = 0) -> Report:
    report = Report("cm-doubling")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        p = random_consistency_pattern(rng, rng.randint(0, n), 4)
        doubled = double_positive(p)
        decision = decide_exhibitable(doubled)
        truncated = cm_from_doubled_witness(decision.witness, p)
        if decision.exhibitable and check_exhibits(truncated, p).ok:
            good += 1
    report.add("doubling-truncation", good == samples, f"{good}/{samples} truncations verified")
    return report


def all_disjoint_conditions(n: int) -> list[Condition]:
    """Every condition over [0, n) with disjoint pos/neg (3**n - 1 of them)."""
    out = []
    for assignment in itertools.product((0, 1, 2), repeat=n):
        pos = tuple(i for i, a in enumerate(assignment) if a == 1)
        neg = tuple(i for i, a in enumerate(assignment) if a == 2)
        if pos or neg:
            out.append(Condition(pos, neg))
    return out


def verify_ip_family(n: int = 2, exhaustive: bool = True, samples: int = 100, seed: int = 0) -> Report:
    report = Report("ip-family")
    fam = ip_family(n)
    if exhaustive:
        conditions = all_disjoint_conditions(n)
        if len(conditions) > 16:
            raise UnsupportedParams(
                f"exhaustive sweep over 2**{len(conditions)} patterns; use samples for n > 2"
            )
        good = total = 0
        for mask in range(1 << len(conditions)):
            total += 1
            p = Pattern(n, tuple(c for i, c in enumerate(conditions) if mask >> i & 1), ())
            if check_exhibits(fam, p).ok:
                good += 1
        report.add(
            "exhibits-all-consistency-patterns",
            good == total,
            f"{good}/{total} consistency {n}-patterns exhibited",
        )
    else:
        rng = random.Random(seed)
        good = 0
        for _ in range(samples):
            p = random_consistency_pattern(rng, n, 6)
            if check_exhibits(fam, p).ok:
                good += 1
        report.add(
            "exhibits-random-consistency-patterns",
            good == samples,
            f"{good}/{samples} random consistency {n}-patterns exhibited",
        )
    return report


def verify_one1(n: int = 4) -> Report:
    report = Report("one1")
    for flavor in ("atoms", "skolem"):
        fam = disjoint_one1_family(n, flavor)
        report.add(f"{flavor}-threshold-1", check_one_n(fam, 1), f"n={n}")
        if n >= 2:
            report.add(f"{flavor}-not-threshold-2", not check_one_n(fam, 2), f"n={n}")
    return report


def verify_membership(n: int = 3) -> Report:
    report = Report("membership")
    structure = membership_structure(n)  # raises if its own checks fail
    report.add("homomorphism", True, f"algebra of {len(structure.algebra_elements)} elements")
    report.add("columns-are-disjoint-union-closed", check_one_n(membership_column_family(structure), 1))
    return report


def verify_blowup_roundtrip(k: int = 2, vertices: int = 4, samples: int = 20, seed: int = 0) -> Report:
    report = Report("blowup-roundtrip")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        h = random_hypergraph(rng, k, rng.randint(0, vertices), rng.choice((0.3, 0.5, 0.7)))
        blown, grouping = blowup(h)
        witness = realization_witness(blown)
        pulled = blowup_pullback(witness, h, grouping)
        if realize_check(pulled, h):
            good += 1
    report.add("pullback-realizes-original", good == samples, f"{good}/{samples} round trips")
    return report


def verify_triangle_free(vertices: int = 4) -> Report:
    limit = enumeration_bound(GRAPH_SWEEP_VERTICES)
    if vertices > limit:
        raise BoundExceeded(f"{vertices} vertices exceed the all-graphs sweep bound {limit}")
    report = Report("triangle-free")
    good = total = 0
    for n in range(vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            total += 1
            g = _graph_from_mask(n, pairs, mask)
            result = triangle_free_double(g)  # raises TriangleFound on any triangle
            if realize_check(result.family, g):
                good += 1
    report.add(
        "all-doublings-triangle-free-and-realizing",
        good == total,
        f"{good}/{total} graphs on <= {vertices} vertices",
    )
    return report


def _graph_from_mask(n, pairs, mask):
    from .hypergraphs import graph

    return graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def verify_free_amalgam(samples: int = 25, seed: int = 0) -> Report:
    report = Report("free-amalgam")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        a, b0, b1, e0, e1 = random_amalgam_problem(rng)
        result = free_amalgam(a, b0, b1, e0, e1)  # raises on axiom/commuting failure
        if check_axioms(result.structure).ok:
            good += 1
    report.add("amalgams-satisfy-axioms", good == samples, f"{good}/{samples} problems")
    return report


def verify_cooper_claim(n: int = 2) -> Report:
    """Decide the principal-up-set pattern and confirm the forced witness
    shape: pairwise-disjoint base sets whose unions are all traced."""
    report = Report("cooper-claim")
    pattern = cooper_pattern(n)
    decision = decide_exhibitable(pattern)
    report.add("decides-exhibitable", decision.exhibitable, f"n={n}")
    if not decision.exhibitable:
        return report
    witness = decision.witness
    ufam = UnionClosedFamily(n, witness)
    base = [ufam.base_set(i) for i in range(n)]
    report.add("base-sets-nonempty", all(base))
    report.add(
        "base-sets-pairwise-disjoint",
        all(not (base[i] & base[j]) for i in range(n) for j in range(i + 1, n)),
    )
    report.add("unions-traced-and-threshold-1", check_one_n(ufam, 1))
    return report


def verify_hypergraph_dictionary(vertices: int = 4, arity: int = 2, samples: int = 30, seed: int = 0) -> Report:
    """Extra entry point: random hypergraphs through the whole dictionary."""
    report = Report("hypergraph-dictionary")
    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        h = random_hypergraph(rng, arity, rng.randint(0, vertices), rng.choice((0.3, 0.5, 0.7)))
        p = pattern_from_hypergraph_checked(h)
        decision = decide_exhibitable(p)
        structure = build_witness_structure(h)
        ok = (
            decision.exhibitable
            and realize_check(decision.witness, h)
            and check_axioms(structure).ok
            and realize_check(witness_trace_family(structure), h)
        )
        good += bool(ok)
    report.add("dictionary-roundtrip", good == samples, f"{good}/{samples} hypergraphs")
    return report


def pattern_from_hypergraph_checked(h):
    from .errors import VerificationFailure
    from .hypergraphs import pattern_from_hypergraph
    from .patterns import is_k_bounded

    p = pattern_from_hypergraph(h)
    flags = classify(p)
    if not (flags.reasonable and flags.positive and is_k_bounded(p, h.arity)):
        raise VerificationFailure("hypergraph pattern lost its classification contract")
    return p


VERIFIERS = {
    "powerset-sm": verify_powerset_sm,
    "atomless-pm": verify_atomless_pm,
    "pm-char": verify_pm_char,
    "cm-doubling": verify_cm_doubling,
    "ip-family": verify_ip_family,
    "one1": verify_one1,
    "membership": verify_membership,
    "blowup-roundtrip": verify_blowup_roundtrip,
    "triangle-free": verify_triangle_free,
    "free-amalgam": verify_free_amalgam,
    "cooper-claim": verify_cooper_claim,
    "hypergraph-dictionary": verify_hypergraph_dictionary,
}
