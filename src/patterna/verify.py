"""Named verification procedures: each replays one witness construction and
reports every property it checks.

These back the CLI `verify` subcommand; the acceptance test suite drives the
same library operations at its own (larger) sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field

from .bounds import CLIQUE_VERTICES, GRAPH_SWEEP_VERTICES, SAMPLED_PATTERN_N, SUBSET_PATTERN_N, check_bound
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
    graph,
    pattern_from_hypergraph,
    realization_witness,
    realize_check,
    triangle_free_double,
    witness_trace_family,
)
from .errors import UnsupportedParams, VerificationFailure
from .patterns import (
    Condition,
    Pattern,
    _bits,
    _fully_complete,
    classify,
    cooper_pattern,
    double_positive,
    is_k_bounded,
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
        return {**asdict(self), "ok": self.ok, "passed": self.passed, "total": len(self.checks)}


def _require_sizes(**sizes):
    """Reject a size below the least that makes sense: name=(value, least)."""
    for name, (value, least) in sizes.items():
        if value < least:
            raise UnsupportedParams(f"{name} must be at least {least}, got {value}")


def fully_complete_patterns(n: int):
    """For n >= 1, all 2**(2**n) - 1 fully complete n-patterns (every nonempty
    choice of the consistent side), the consistent splits' masks chosen by
    the bits of 1, 2, ...; none for n = 0, whose only split (∅, ∅) is
    illegal."""
    check_bound(n, SUBSET_PATTERN_N, "n={size} exceeds the fully-complete-pattern bound {limit}")
    for chosen in range(1, 1 << (1 << n) if n else 1):
        yield _fully_complete(n, set(_bits(chosen)))


def _counted(construction: str, name: str, outcomes, what: str) -> Report:
    """One check: how many of the outcomes hold, as good/total."""
    results = [bool(outcome) for outcome in outcomes]
    report = Report(construction)
    report.add(name, all(results), f"{sum(results)}/{len(results)} {what}")
    return report


def _sampled(construction: str, name: str, samples: int, seed: int, trial, what: str) -> Report:
    """One check: how many of `samples` seeded trials pass, trial(rng) -> bool."""
    _require_sizes(samples=(samples, 1))
    rng = random.Random(seed)
    return _counted(construction, name, (trial(rng) for _ in range(samples)), what)


def verify_powerset_sm(n: int = 2) -> Report:
    _require_sizes(n=(n, 1))

    def outcome(p):
        decision = decide_exhibitable(p)
        witness = powerset_sm_witness(p)  # raises on self-check failure
        return decision.exhibitable and check_exhibits(witness, p).ok

    return _counted("powerset-sm", "fully-complete-exhibition", map(outcome, fully_complete_patterns(n)),
                    "fully complete patterns exhibited")


def verify_atomless_pm(n: int = 4, samples: int = 50, seed: int = 0) -> Report:
    _require_sizes(n=(n, 0))
    check_bound(n, SAMPLED_PATTERN_N, "n={size} exceeds the sampled-pattern bound {limit}")

    def trial(rng):
        p = random_reasonable_positive(rng, rng.randint(0, n), 4, 4)
        decision = decide_exhibitable(p)
        witness = atomless_pm_witness(p)
        return decision.exhibitable and check_exhibits(witness, p).ok

    return _sampled("atomless-pm", "positive-exhibition", samples, seed, trial, "witnesses verified")


def verify_pm_char(n: int = 4, samples: int = 30, seed: int = 0) -> Report:
    _require_sizes(n=(n, 0))
    check_bound(n, SAMPLED_PATTERN_N, "n={size} exceeds the sampled-pattern bound {limit}")

    def trial(rng):
        p = random_reasonable_positive(rng, rng.randint(0, n), 4, 4)
        fam = pm_char_reduction(canonical_char_family(len(p.consistency)), p)
        return check_exhibits(fam, p).ok

    return _sampled("pm-char", "characterization-reduction", samples, seed, trial,
                    "reductions verified")


def verify_cm_doubling(n: int = 4, samples: int = 50, seed: int = 0) -> Report:
    _require_sizes(n=(n, 0))
    check_bound(n, SAMPLED_PATTERN_N, "n={size} exceeds the sampled-pattern bound {limit}")

    def trial(rng):
        p = random_consistency_pattern(rng, rng.randint(0, n), 4)
        decision = decide_exhibitable(double_positive(p))
        truncated = cm_from_doubled_witness(decision.witness, p)
        return decision.exhibitable and check_exhibits(truncated, p).ok

    return _sampled("cm-doubling", "doubling-truncation", samples, seed, trial,
                    "truncations verified")


def all_disjoint_conditions(n: int) -> list[Condition]:
    """Every condition over [0, n) with disjoint pos/neg (3**n - 1 of them)."""
    out = []
    for assignment in itertools.product((0, 1, 2), repeat=n):
        pos = tuple(i for i, a in enumerate(assignment) if a == 1)
        neg = tuple(i for i, a in enumerate(assignment) if a == 2)
        if pos or neg:
            out.append(Condition(pos, neg))
    return out


def verify_ip_family(n: int = 2, samples: int = 100, seed: int = 0) -> Report:
    """Sweep every consistency n-pattern while they number at most 2**16
    (3**n - 1 <= 16 conditions, so n <= 2); sample random ones above that."""
    fam = ip_family(n)
    _require_sizes(samples=(samples, 1))
    if 3**n - 1 > 16:
        return _sampled("ip-family", "exhibits-random-consistency-patterns", samples, seed,
                        lambda rng: check_exhibits(fam, random_consistency_pattern(rng, n, 6)).ok,
                        f"random consistency {n}-patterns exhibited")
    conditions = all_disjoint_conditions(n)
    return _counted("ip-family", "exhibits-all-consistency-patterns",
                    (check_exhibits(fam, Pattern(n, tuple(conditions[i] for i in _bits(mask)), ())).ok
                     for mask in range(1 << len(conditions))),
                    f"consistency {n}-patterns exhibited")


def verify_one1(n: int = 4) -> Report:
    report = Report("one1")
    for naming in ("atoms", "skolem"):
        fam = disjoint_one1_family(n, naming)
        report.add(f"{naming}-threshold-1", check_one_n(fam, 1), f"n={n}")
        if n >= 2:
            report.add(f"{naming}-not-threshold-2", not check_one_n(fam, 2), f"n={n}")
    return report


def verify_membership(n: int = 3) -> Report:
    report = Report("membership")
    structure = membership_structure(n)  # raises if its own checks fail
    report.add("homomorphism", True, f"algebra of {len(structure.algebra_elements)} elements")
    report.add("columns-are-disjoint-union-closed", check_one_n(membership_column_family(structure), 1))
    return report


def verify_blowup_roundtrip(k: int = 2, vertices: int = 4, samples: int = 20, seed: int = 0) -> Report:
    _require_sizes(k=(k, 2), vertices=(vertices, 0))
    check_bound(vertices, CLIQUE_VERTICES, "{size} vertices exceed the clique-enumeration bound {limit}")

    def trial(rng):
        h = random_hypergraph(rng, k, rng.randint(0, vertices), rng.choice((0.3, 0.5, 0.7)))
        blown, grouping = blowup(h)
        return realize_check(blowup_pullback(realization_witness(blown), h, grouping), h)

    return _sampled("blowup-roundtrip", "pullback-realizes-original", samples, seed, trial,
                    "round trips")


def verify_triangle_free(vertices: int = 4) -> Report:
    check_bound(vertices, GRAPH_SWEEP_VERTICES, "{size} vertices exceed the all-graphs sweep bound {limit}")
    _require_sizes(vertices=(vertices, 0))

    def outcomes():
        for n in range(vertices + 1):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = graph(n, (pairs[i] for i in _bits(mask)))
                yield realize_check(triangle_free_double(g).family, g)  # raises TriangleFound on any triangle

    return _counted("triangle-free", "all-doublings-triangle-free-and-realizing", outcomes(),
                    f"graphs on <= {vertices} vertices")


def verify_free_amalgam(samples: int = 25, seed: int = 0) -> Report:
    def trial(rng):
        result = free_amalgam(*random_amalgam_problem(rng))  # raises on axiom/commuting failure
        return check_axioms(result.structure).ok

    return _sampled("free-amalgam", "amalgams-satisfy-axioms", samples, seed, trial, "problems")


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
    _require_sizes(vertices=(vertices, 0), arity=(arity, 2))
    check_bound(vertices, CLIQUE_VERTICES, "{size} vertices exceed the clique-enumeration bound {limit}")

    def trial(rng):
        h = random_hypergraph(rng, arity, rng.randint(0, vertices), rng.choice((0.3, 0.5, 0.7)))
        p = pattern_from_hypergraph_checked(h)
        decision = decide_exhibitable(p)
        structure = build_witness_structure(h)
        return (
            decision.exhibitable
            and realize_check(decision.witness, h)
            and check_axioms(structure).ok
            and realize_check(witness_trace_family(structure), h)
        )

    return _sampled("hypergraph-dictionary", "dictionary-roundtrip", samples, seed, trial,
                    "hypergraphs")


def pattern_from_hypergraph_checked(h):
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
