"""Executable finite witness constructions.

Each function here materializes, at desk scale, one of the constructions used
to prove an exhibitability statement: the atoms-over-a-Boolean-algebra witness
for fully complete patterns, the disjoint-pieces witness for reasonable
positive patterns, the reduction through an intersection-characterizing
family, the doubling truncation, the full independence family, disjoint
union-closed families in two presentations, and the two-sorted membership
structure with its homomorphism check.  Every construction re-verifies its
output against its contract before returning it; a failure raises, loudly,
because it can only mean a transcription bug.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

from .bounds import IP_FAMILY_N, MEMBERSHIP_N, check_bound, check_indices
from .errors import (
    ArityMismatch,
    CharacterizationPropertyViolated,
    IndexOutOfRange,
    NotFullyComplete,
    NotReasonablePositive,
    PreconditionFailure,
    UnsupportedParams,
    VerificationFailure,
)
from .patterns import Pattern, _bits, _subset_families, _up_masks, classify, double_positive, subset_index
from .semantics import SetFamily, UnionClosedFamily, _columns, _tracer, check_exhibits, check_one_n


def _self_check(fam: SetFamily, p: Pattern, what: str) -> SetFamily:
    report = check_exhibits(fam, p)
    if not report.ok:
        raise VerificationFailure(f"{what} failed self-verification: {report}")
    return fam


def powerset_sm_witness(p: Pattern) -> SetFamily:
    """Witness a fully complete pattern over a tiny atomic-algebra shadow.

    The universe holds one point per consistency condition (its "atom"), one
    extra fresh atom, and one non-atom point.  With C enumerated canonically
    as splits (A_j, rest), atom j has type A_j.  The two stray points have
    type ∅ if (∅, everything) is not forbidden, and otherwise type A_0, a
    consistent one.
    """
    if not classify(p).fully_complete:
        raise NotFullyComplete("input pattern is not fully complete")
    stray = p.consistency[0].pos if any(not z.pos for z in p.inconsistency) else ()
    types = [cond.pos for cond in p.consistency] + [stray, stray]
    return _self_check(SetFamily._of_types(p.n, types), p, "powerset witness")


def atomless_pm_witness(p: Pattern) -> SetFamily:
    """Witness a reasonable positive pattern with pairwise-disjoint pieces.

    One point per consistency condition; set i collects the conditions whose
    positive part contains i.  An inconsistency condition (Z, ∅) would need a
    condition containing all of Z, which reasonableness rules out.  With no
    consistency conditions every set is empty over a single point.
    """
    flags = classify(p)
    if not (flags.reasonable and flags.positive):
        raise NotReasonablePositive("input pattern must be reasonable and positive")
    fam = SetFamily._of_types(p.n, [cond.pos for cond in p.consistency])
    return _self_check(fam, p, "disjoint-pieces witness")


def canonical_char_family(k: int) -> SetFamily:
    """The family indexed by subsets of [0, k) with B_X = X itself.

    Trivially satisfies the intersection characterization: the traces of a
    family of subsets intersect exactly where the subsets do.
    """
    if k < 0:
        raise UnsupportedParams("k must be nonnegative")
    return SetFamily._of_masks(max(k, 1), range(1 << k))


def check_char_property(char_fam: SetFamily, k: int) -> bool:
    """Brute-force the characterization property: for every nonempty family Z
    of subsets of [0, k), the traces of Z intersect iff the subsets of Z do."""
    if char_fam.n != 1 << k:
        raise ArityMismatch(f"need {1 << k} sets for k={k}, got {char_fam.n}")
    trace = _tracer(char_fam)
    return all(bool(trace(members, ())) == meets for members, meets in _subset_families(k))


#: pm_char_reduction brute-forces the characterization for k <= this: 2**16
#: families at k = 4, but 2**32 at k = 5.  A limit, not a refusal: above it
#: only the reduction's output is checked, by check_exhibits.
CHAR_PROPERTY_CHECK_K = 4


def pm_char_reduction(char_fam: SetFamily, p: Pattern) -> SetFamily:
    """Witness a reasonable positive pattern through a characterizing family.

    char_fam must be indexed by subsets of [0, k), k = |C|, and satisfy the
    intersection characterization (brute-force pre-checked up to
    CHAR_PROPERTY_CHECK_K).  Set i is the family's set for the subset
    {j : condition j's positive part contains i}.
    """
    flags = classify(p)
    if not (flags.reasonable and flags.positive):
        raise NotReasonablePositive("input pattern must be reasonable and positive")
    k = len(p.consistency)
    if char_fam.n != 1 << k:
        raise ArityMismatch(f"characterizing family needs {1 << k} sets, got {char_fam.n}")
    if k <= CHAR_PROPERTY_CHECK_K and not check_char_property(char_fam, k):
        raise CharacterizationPropertyViolated(
            "family does not satisfy the intersection characterization"
        )
    atoms = SetFamily._of_types(p.n, [cond.pos for cond in p.consistency])
    fam = SetFamily._of_masks(char_fam.universe_size, (char_fam.masks[x] for x in atoms.masks))
    report = check_exhibits(fam, p)
    if not report.ok:
        raise CharacterizationPropertyViolated(
            f"reduction output fails to exhibit the pattern: {report}"
        )
    return fam


def cm_from_doubled_witness(witness: SetFamily, p: Pattern) -> SetFamily:
    """Truncate a witness of double_positive(p) to the first n sets.

    Disjointness of each pair {i, i+n} forces the truncation to satisfy the
    original negative parts, so the result exhibits p; re-verified.
    """
    doubled = double_positive(p)
    if witness.n != doubled.n or not check_exhibits(witness, doubled).ok:
        raise PreconditionFailure("family does not exhibit the doubled pattern")
    fam = SetFamily._of_masks(witness.universe_size, witness.masks[: p.n])
    return _self_check(fam, p, "doubling truncation")


def ip_family(n: int) -> SetFamily:
    """The full independence family: universe = all subsets of [0, n) in
    binary encoding, set i = the subsets containing i.

    Exhibits every reasonable consistency n-pattern: the trace of (pos, neg)
    contains the point encoding pos itself.
    """
    check_bound(n, IP_FAMILY_N, "n={size} exceeds the independence-family bound {limit}")
    if n < 0:
        raise UnsupportedParams("n must be nonnegative")
    return SetFamily._of_masks(1 << n, _up_masks(n))


def first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def disjoint_one1_family(n: int, naming: str = "atoms") -> UnionClosedFamily:
    """A union-closed family of n pairwise-disjoint singletons over [0, n).

    Two namings label the same trace family: "atoms" names the points
    a0..a(n-1) and each union by its atoms; "skolem" names point i by the
    i-th prime and each union by the product of its primes.  Labels are
    metadata only; check_one_n(result, 1) holds either way.
    """
    if n < 1:
        raise UnsupportedParams("n must be at least 1")
    check_bound(n, IP_FAMILY_N, "n={size} exceeds the bound {limit} on its 2**n unions")
    if naming not in ("atoms", "skolem"):
        raise UnsupportedParams(f"unknown naming {naming!r}; choose atoms or skolem")
    singles = [frozenset({i}) for i in range(n)]
    # mask 2**i + m (m < 2**i) extends the label of m, built one bit earlier
    if naming == "atoms":
        point_labels = tuple(f"a{i}" for i in range(n))
        labels = ["0"]
        for atom in point_labels:
            labels += [atom] + [f"{label}∪{atom}" for label in labels[1:]]
    else:
        primes = first_primes(n)
        point_labels = tuple(str(q) for q in primes)
        products = [1]
        for q in primes:
            products += [product * q for product in products]
        labels = map(str, products)
    set_labels = tuple(labels)
    ufam = UnionClosedFamily.from_singletons(n, singles, point_labels, set_labels)
    if not check_one_n(ufam, 1):
        raise VerificationFailure("disjoint singleton family failed its threshold check")
    return ufam


@dataclass(frozen=True)
class MembershipStructure:
    """Two sorts — points [0, s_size) and an algebra of subsets — related by
    membership.  algebra_elements is indexed by binary subset encoding;
    relation holds (point, element_index) pairs.  Not self-validating, so
    corrupted instances can be built and fed to check_membership_structure.
    """

    s_size: int
    algebra_elements: tuple[frozenset[int], ...]
    relation: frozenset[tuple[int, int]]


def membership_structure(n: int) -> MembershipStructure:
    """The full membership structure on n points: algebra = all 2**n subsets,
    relation = actual membership.  Self-checked: the induced map
    b -> {points related to b} must be a homomorphism of Boolean algebras and
    the singleton columns must form a disjoint union-closed family."""
    check_bound(n, MEMBERSHIP_N, "n={size} exceeds the membership bound {limit}")
    if n < 1:
        raise UnsupportedParams("n must be at least 1")
    elements = tuple(frozenset(_bits(mask)) for mask in range(1 << n))
    relation = frozenset(
        (i, idx) for idx, element in enumerate(elements) for i in element
    )
    structure = MembershipStructure(n, elements, relation)
    problems = check_membership_structure(structure)
    if problems:
        raise VerificationFailure(f"membership structure failed its checks: {problems}")
    if not check_one_n(membership_column_family(structure), 1):
        raise VerificationFailure("membership columns are not a disjoint union-closed family")
    return structure


def membership_column_family(structure: MembershipStructure) -> UnionClosedFamily:
    """The relation's columns, bundled as a union-closed family over the point
    sort (set for subset X = column of the element encoding X)."""
    if structure.s_size < 1:
        raise ValueError("universe must be nonempty")
    count = len(structure.algebra_elements)
    return UnionClosedFamily(count.bit_length() - 1, _columns(structure.s_size, count, structure.relation))


def check_membership_structure(structure: MembershipStructure) -> list[str]:
    """Verify algebra closure, membership agreement, and the homomorphism
    property of b -> {points related to b}, on element and column masks.  An
    element that is not a set of points is reported once and left out of the
    other checks.  Returns human-readable violations; empty means pass."""
    size, elements = structure.s_size, structure.algebra_elements
    masks = {}
    for a, element in enumerate(elements):
        with contextlib.suppress(IndexOutOfRange):
            masks[a] = subset_index(check_indices(element, "point", size))
    problems = [f"algebra element #{a} leaves the point sort" for a in range(len(elements)) if a not in masks]
    lookup = {mask: a for a, mask in masks.items()}
    full = (1 << max(size, 0)) - 1
    column = _columns(size, len(elements), structure.relation).masks
    # each meet and complement is looked up once, for closure and for preservation
    meets = [(a, b, lookup.get(masks[a] & masks[b]))
             for a, b in itertools.combinations_with_replacement(masks, 2)]
    complements = [(a, lookup.get(full ^ mask)) for a, mask in masks.items()]
    if full not in lookup:
        problems.append("algebra does not contain the full point set")
    problems += [f"algebra not closed under intersection of #{a} and #{b}"
                 for a, b, meet in meets if meet is None]
    problems += [f"algebra not closed under complement of #{a}" for a, comp in complements if comp is None]
    problems += [f"relation pair ({point}, {idx}) out of range" for point, idx in structure.relation
                 if not 0 <= point < size or not 0 <= idx < len(elements)]
    problems += [f"relation disagrees with membership on element #{a}"
                 for a, mask in masks.items() if column[a] != mask]
    # homomorphism surrogate for the term-agreement axioms
    if full in lookup and column[lookup[full]] != full:
        problems.append("image of the top element is not the full point set")
    problems += [f"map fails to preserve intersection of #{a} and #{b}" for a, b, meet in meets
                 if meet is not None and column[meet] != column[a] & column[b]]
    problems += [f"map fails to preserve complement of #{a}" for a, comp in complements
                 if comp is not None and column[comp] != full ^ column[a]]
    return problems
