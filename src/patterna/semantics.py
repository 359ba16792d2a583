"""Finite trace semantics for patterns.

A SetFamily is the finite stand-in for a tuple of definable sets: a nonempty
universe of abstract points and one subset per index.  A family exhibits a
pattern when every consistency condition's trace is nonempty and every
inconsistency condition's trace is empty.  Exhibitability of a pattern means
existence of such a family; this is the semantic contract the decision
procedures implement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityMismatch, IndexOutOfRange, MalformedUnionMap
from .patterns import Condition, Pattern, complete_conditions, subset_index


@dataclass(frozen=True)
class SetFamily:
    """universe_size points [0, m) and one subset per index.

    The universe is mandatorily nonempty: first-order structures are, and
    that single fact is what makes e.g. I = {({0},∅), (∅,{0})} non-exhibitable.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        coerced = tuple(frozenset(s) for s in self.sets)
        for s in coerced:
            for point in s:
                if not 0 <= point < self.universe_size:
                    raise IndexOutOfRange(
                        f"point {point} outside universe [0, {self.universe_size})"
                    )
        object.__setattr__(self, "sets", coerced)

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(self.universe_size))


def condition_trace(fam: SetFamily, cond: Condition) -> frozenset[int]:
    """Points inside every positive set and outside every negative one.

    Empty pos/neg sides intersect to the full universe."""
    for i in cond.indices:
        if not 0 <= i < fam.n:
            raise IndexOutOfRange(f"condition index {i} outside family of {fam.n} sets")
    trace = fam.universe
    for i in cond.pos:
        trace &= fam.sets[i]
    for j in cond.neg:
        trace -= fam.sets[j]
    return trace


@dataclass(frozen=True)
class ExhibitReport:
    ok: bool
    failing_consistency: tuple[Condition, ...] = ()
    failing_inconsistency: tuple[Condition, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_exhibits(fam: SetFamily, p: Pattern) -> ExhibitReport:
    """Does fam exhibit p?  The report lists every failing condition."""
    if fam.n != p.n:
        raise ArityMismatch(f"family has {fam.n} sets, pattern expects {p.n}")
    bad_c = tuple(c for c in p.consistency if not condition_trace(fam, c))
    bad_i = tuple(z for z in p.inconsistency if condition_trace(fam, z))
    return ExhibitReport(not bad_c and not bad_i, bad_c, bad_i)


def realized_types(fam: SetFamily) -> frozenset[frozenset[int]]:
    """The complete types realized by at least one point:
    { {i : point in sets[i]} : point in universe }."""
    return frozenset(
        frozenset(i for i, s in enumerate(fam.sets) if point in s)
        for point in range(fam.universe_size)
    )


def fully_complete_extension(fam: SetFamily) -> Pattern:
    """The fully complete pattern splitting complete types into realized
    (consistent) and unrealized (inconsistent).

    Any family exhibiting the extension exhibits every pattern fam exhibits.
    For n = 0 the only split is the illegal (∅, ∅), so the empty pattern is
    returned.
    """
    n = fam.n
    if n == 0:
        return Pattern(0)
    realized = realized_types(fam)
    consistency, inconsistency = [], []
    for cond in complete_conditions(n):
        (consistency if frozenset(cond.pos) in realized else inconsistency).append(cond)
    return Pattern(n, tuple(consistency), tuple(inconsistency))


@dataclass(frozen=True)
class UnionClosedFamily:
    """A family indexed by all subsets of [0, index_count), in binary
    encoding, intended to satisfy B_X = union of B_{i} over i in X.

    Labels are presentation metadata (atom names, prime products); equality of
    traces is the only semantics.  Union representability is an intended
    invariant but is re-verified by check_one_n rather than trusted, so that
    hand-built families can be tested.
    """

    index_count: int
    family: SetFamily
    point_labels: tuple[str, ...] | None = None
    set_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        expected = 1 << self.index_count
        if self.family.n != expected:
            raise MalformedUnionMap(
                f"need {expected} sets for {self.index_count} indices, got {self.family.n}"
            )
        if self.point_labels is not None and len(self.point_labels) != self.family.universe_size:
            raise MalformedUnionMap("one label per universe point required")
        if self.set_labels is not None and len(self.set_labels) != self.family.n:
            raise MalformedUnionMap("one label per set required")

    def base_set(self, i: int) -> frozenset[int]:
        """The set indexed by the singleton {i}."""
        if not 0 <= i < self.index_count:
            raise IndexOutOfRange(f"base index {i} outside [0, {self.index_count})")
        return self.family.sets[1 << i]

    def set_for(self, subset) -> frozenset[int]:
        return self.family.sets[subset_index(subset)]

    @classmethod
    def from_singletons(cls, universe_size, singletons, point_labels=None, set_labels=None):
        """Build the family with B_X = union of the given singleton sets."""
        singles = [frozenset(s) for s in singletons]
        k = len(singles)
        sets = []
        for mask in range(1 << k):
            union = frozenset()
            for i in range(k):
                if mask >> i & 1:
                    union |= singles[i]
            sets.append(union)
        return cls(k, SetFamily(universe_size, tuple(sets)), point_labels, set_labels)


def union_representable(ufam: UnionClosedFamily) -> bool:
    """Re-verify B_X = union of B_{i} over i in X, for every X."""
    k = ufam.index_count
    for mask in range(1 << k):
        union = frozenset()
        for i in range(k):
            if mask >> i & 1:
                union |= ufam.base_set(i)
        if ufam.family.sets[mask] != union:
            return False
    return True


def check_one_n(ufam: UnionClosedFamily, n: int) -> bool:
    """The finite intersection-threshold check behind the maximality property:
    unions are traced (re-verified), and for every nonempty Y of base indices
    the intersection of the base sets is empty iff |Y| > n."""
    if n < 1:
        raise MalformedUnionMap("threshold must be at least 1")
    if not union_representable(ufam):
        return False
    k = ufam.index_count
    base = [ufam.base_set(i) for i in range(k)]
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(k), size):
            meet = base[combo[0]]
            for i in combo[1:]:
                meet &= base[i]
            if bool(meet) != (size <= n):
                return False
    return True


def encodes_hypergraph(fam: SetFamily, hg) -> bool:
    """True iff for every arity-sized vertex subset S:
    the sets of S intersect <=> S is a hyperedge."""
    if fam.n != hg.vertex_count:
        raise ArityMismatch(f"family has {fam.n} sets, hypergraph has {hg.vertex_count} vertices")
    for combo in itertools.combinations(range(hg.vertex_count), hg.arity):
        meet = fam.sets[combo[0]]
        for v in combo[1:]:
            meet &= fam.sets[v]
        if bool(meet) != (frozenset(combo) in hg.edges):
            return False
    return True
