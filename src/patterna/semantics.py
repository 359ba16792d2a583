"""Finite trace semantics for patterns.

A SetFamily is the finite stand-in for a tuple of definable sets: a nonempty
universe of abstract points and one subset per index.  A family exhibits a
pattern when every consistency condition's trace is nonempty and every
inconsistency condition's trace is empty.  Exhibitability of a pattern means
existence of such a family; this is the semantic contract the decision
procedures implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .bounds import check_indices
from .errors import ArityMismatch, IndexOutOfRange, MalformedUnionMap
from .patterns import Condition, Pattern, _bits, _canonical, _fully_complete, subset_index


@dataclass(frozen=True, init=False, repr=False)
class SetFamily:
    """universe_size points [0, m) and one subset per index.

    The universe is mandatorily nonempty: first-order structures are, and
    that single fact is what makes e.g. I = {({0},∅), (∅,{0})} non-exhibitable.
    The state is `masks`, one int per index with bit p set iff point p is in
    the set; equality and hashing are on (universe_size, masks), and traces
    are computed on the masks.  `sets`, the frozensets, is a read-only view:
    SetFamily(m, sets) checks every point and fills it at once, while the
    library builds the families it computes with _of_masks, which checks
    nothing and leaves the view to be built on first read.
    """

    universe_size: int
    masks: tuple[int, ...]

    def __init__(self, universe_size: int, sets):
        if type(universe_size) is not int:
            raise IndexOutOfRange(f"universe size {universe_size!r} is not an integer")
        if universe_size < 1:
            raise ValueError("universe must be nonempty")
        where = f"outside universe [0, {universe_size})"
        coerced = tuple(frozenset(check_indices(s, "point", universe_size, where)) for s in sets)
        masks = tuple(map(subset_index, coerced))
        self.__dict__.update(universe_size=universe_size, masks=masks, sets=coerced)

    @classmethod
    def _of_masks(cls, universe_size: int, masks) -> SetFamily:
        """A family from point masks the library has just computed, each below
        1 << universe_size; nothing is re-checked."""
        return _canonical(cls, universe_size, tuple(masks))

    @classmethod
    def _of_types(cls, n: int, types) -> SetFamily:
        """The family with one point per type, in order: point p is in set i
        iff i is in types[p], each type an iterable of indices trusted to be
        below n.  No types give one point in no set: the universe is nonempty."""
        masks = [0] * n
        bit = 1  # the next point's bit
        for t in types:
            for i in t:
                masks[i] |= bit
            bit <<= 1
        return cls._of_masks(max(bit.bit_length() - 1, 1), masks)

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(mask)) for mask in self.masks)

    def __repr__(self) -> str:
        return f"SetFamily(universe_size={self.universe_size!r}, sets={self.sets!r})"

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(self.universe_size))


def _columns(point_count: int, n: int, pairs) -> SetFamily:
    """The columns of a relation from points [0, point_count) to indices
    [0, n): set i holds the points related to i.  Pairs outside the two
    ranges are skipped; no points give one point in no set."""
    masks = [0] * n
    for point, i in pairs:
        if 0 <= point < point_count and 0 <= i < n:
            masks[i] |= 1 << point
    return SetFamily._of_masks(max(point_count, 1), masks)


def _tracer(fam: SetFamily):
    """trace(pos, neg): the trace of (pos, neg) in fam as a point mask, full &
    AND(masks[pos]) & ~OR(masks[neg]), with fam's masks and full mask bound
    once.  Indices are not range-checked here."""
    masks = fam.masks
    full = (1 << fam.universe_size) - 1

    def trace(pos, neg) -> int:
        out = full
        for i in pos:
            out &= masks[i]
        for j in neg:
            out &= ~masks[j]
        return out

    return trace


def condition_trace(fam: SetFamily, cond: Condition) -> frozenset[int]:
    """Points inside every positive set and outside every negative one.

    Empty pos/neg sides intersect to the full universe.  The parts are sorted,
    so their last indices are checked against fam before any mask is built."""
    top = max(cond.pos[-1:] + cond.neg[-1:], default=-1)
    if top >= fam.n:
        raise IndexOutOfRange(f"condition index {top} outside family of {fam.n} sets")
    return frozenset(_bits(_tracer(fam)(cond.pos, cond.neg)))


@dataclass(frozen=True)
class ExhibitReport:
    ok: bool
    failing_consistency: tuple[Condition, ...] = ()
    failing_inconsistency: tuple[Condition, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_exhibits(fam: SetFamily, p: Pattern) -> ExhibitReport:
    """Does fam exhibit p?  The report lists every failing condition.  A
    pattern whose conditions all name n indices is answered from the types
    fam realises; any other pattern is traced condition by condition."""
    if fam.n != p.n:
        raise ArityMismatch(f"family has {fam.n} sets, pattern expects {p.n}")
    n = fam.n
    if all(len(c.pos) + len(c.neg) == n for c in p.conditions):
        # each condition names all n indices: a disjoint one is a split (X, n∖X),
        # whose trace is the points of type X; an overlapping one has no points
        types = _type_classes(fam)
        bad_c = tuple(c for c in p.consistency if not ((x := c.pos_mask) in types and not x & c.neg_mask))
        bad_i = tuple(z for z in p.inconsistency if (x := z.pos_mask) in types and not x & z.neg_mask)
    else:
        trace = _tracer(fam)
        bad_c = tuple(c for c in p.consistency if not trace(c.pos, c.neg))
        bad_i = tuple(z for z in p.inconsistency if trace(z.pos, z.neg))
    return ExhibitReport(not bad_c and not bad_i, bad_c, bad_i)


def _type_classes(fam: SetFamily):
    """The realized complete types, as index masks, by partition refinement:
    the universe split by each set in turn, keeping the nonempty parts, each
    keyed by its type.  The keys come back as a view, not copied."""
    classes = {0: (1 << fam.universe_size) - 1}
    for i, mask in enumerate(fam.masks):
        split = {}
        for t, points in classes.items():
            inside = points & mask
            if inside:
                split[t | 1 << i] = inside
            if inside != points:
                split[t] = points ^ inside
        classes = split
    return classes.keys()


def realized_types(fam: SetFamily) -> frozenset[frozenset[int]]:
    """The complete types { {i : point in sets[i]} : point in universe }."""
    return frozenset(frozenset(_bits(t)) for t in _type_classes(fam))


def fully_complete_extension(fam: SetFamily) -> Pattern:
    """The fully complete pattern splitting complete types into realized
    (consistent) and unrealized (inconsistent).

    Any family exhibiting the extension exhibits every pattern fam exhibits.
    For n = 0 the only split is the illegal (∅, ∅), so the empty pattern is
    returned.  The splits come in canonical order, so they are kept as built.
    """
    return _fully_complete(fam.n, _type_classes(fam))


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
        check_indices((i,), "base index", self.index_count)
        return self.family.sets[1 << i]

    @classmethod
    def from_singletons(cls, universe_size, singletons, point_labels=None, set_labels=None):
        """Build the family with B_X = union of the given singleton sets."""
        singles = SetFamily(universe_size, tuple(singletons)).masks
        masks = [0]
        for x in range(1, 1 << len(singles)):
            low = x & -x
            masks.append(masks[x ^ low] | singles[low.bit_length() - 1])
        return cls(len(singles), SetFamily._of_masks(universe_size, masks), point_labels, set_labels)


def union_representable(ufam: UnionClosedFamily) -> bool:
    """Re-verify B_X = union of B_{i} over i in X, for every X: B_∅ is empty
    and each B_X is B_{X minus its lowest index} plus B_{lowest index}."""
    masks = ufam.family.masks
    return masks[0] == 0 and all(
        masks[x] == masks[x & (x - 1)] | masks[x & -x] for x in range(1, 1 << ufam.index_count)
    )


def check_one_n(ufam: UnionClosedFamily, n: int) -> bool:
    """The finite intersection-threshold check behind the maximality property:
    unions are traced (re-verified), and for every nonempty Y of base indices
    the intersection of the base sets is empty iff |Y| > n.  A set of base
    indices meets iff it lies inside a realized type of the k base sets, so
    with t = min(n, k) this holds iff no type has more than t indices and
    exactly C(k, t) types have t: once no type exceeds t, a t-set meets iff
    it is itself a type, and every smaller set lies inside a meeting t-set."""
    if n < 1:
        raise MalformedUnionMap("threshold must be at least 1")
    if not union_representable(ufam):
        return False
    k, t = ufam.index_count, min(n, ufam.index_count)
    base = SetFamily._of_masks(ufam.family.universe_size, [ufam.family.masks[1 << i] for i in range(k)])
    sizes = [x.bit_count() for x in _type_classes(base)]
    return max(sizes) <= t and sizes.count(t) == math.comb(k, t)
