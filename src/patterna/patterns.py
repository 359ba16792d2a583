"""Patterns of consistency and inconsistency over a finite index set.

An n-pattern is a pair (C, I) of sets of conditions, where a condition is a
pair (pos, neg) of subsets of [0, n), not both empty.  C-conditions request a
common point inside the positive sets and outside the negative ones;
I-conditions forbid such a point.  This module defines the combinatorial
objects, their classification (reasonable / positive / complete / fully
complete / k-bounded), the classical dividing-line families as concrete
patterns, the CNF-to-pattern reduction, and the positive doubling transform.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .bounds import PATTERN_INDICES_LOG2, SUBSET_PATTERN_N, TREE_NODES, check_bound, check_indices
from .errors import (
    DuplicateCondition,
    EmptyCondition,
    IndexOutOfRange,
    NotConsistencyPattern,
    UnsupportedParams,
)
from .sat import CnfFormula


class _Mask:
    """Condition.pos_mask or neg_mask, bit i set for each index i of the part:
    computed on each read and never stored, so a condition holds a mask only
    where complete_conditions stored one, which then shadows this descriptor."""

    def __set_name__(self, owner, name):
        self.part = name[:3]  # pos_mask reads pos

    def __get__(self, cond, owner=None):
        return self if cond is None else subset_index(getattr(cond, self.part))


@dataclass(frozen=True, order=True)
class Condition:
    """A pair (pos, neg) of index sets, stored as sorted duplicate-free tuples,
    with masks pos_mask and neg_mask.  An index that is not an int (a bool
    is not) or is negative raises IndexOutOfRange.  Comparison is
    lexicographic on (pos, neg), the canonical condition order used
    everywhere (serialization, witness synthesis, failure reporting); the
    masks take no part in it, nor in hash or repr."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]
    pos_mask = _Mask()
    neg_mask = _Mask()

    def __post_init__(self):
        pos, neg = check_indices(self.pos, "index"), check_indices(self.neg, "index")
        lowest = min(pos + neg, default=0)
        if lowest < 0:
            raise IndexOutOfRange(f"index {lowest} is negative")
        object.__setattr__(self, "pos", tuple(sorted(set(pos))))
        object.__setattr__(self, "neg", tuple(sorted(set(neg))))


def _canonical(cls, *values):
    """A frozen dataclass instance (Pattern, Condition, SetFamily, Hypergraph)
    from field values that are already canonical and valid, not re-checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _condition(pos, neg, masks=None) -> Condition:
    """_canonical(Condition, pos, neg), faster, keeping the compact instance
    layout; masks, when the caller has them, is (pos_mask, neg_mask)."""
    cond = object.__new__(Condition)
    object.__setattr__(cond, "pos", pos)
    object.__setattr__(cond, "neg", neg)
    if masks:
        object.__setattr__(cond, "pos_mask", masks[0])
        object.__setattr__(cond, "neg_mask", masks[1])
    return cond


# Naming all four attributes before any condition is built puts the masks in
# CPython's shared instance keys: a condition built with masks after plain
# ones then takes 113 bytes, not 336 (tracemalloc, 10,000 conditions).
_condition((), (), (0, 0))


def _canonical_side(raw, n: int, side: str, strict: bool) -> tuple[Condition, ...]:
    """One side of a pattern, checked and canonicalised in one pass.

    n must be an int >= 0 and the side a list or tuple.  Each item is a
    Condition, whose fields are taken as they are, or a raw (pos, neg) pair
    of lists or tuples, checked as written, then sorted and deduplicated.
    Every index must be an int in [0, n) and no condition may be (∅, ∅); a
    repeated condition raises DuplicateCondition when strict (a document read
    by jsonio.pattern_from_dict) and is dropped otherwise (Pattern(...)).  The
    side comes back sorted by the keys that order Conditions.
    """
    if type(n) is not int or n < 0:
        raise IndexOutOfRange(f"index count must be a nonnegative integer, got {n!r}")
    conditions, where = {}, f"in {side} outside [0, {n})"
    for item in raw:
        if isinstance(item, Condition):
            pos, neg = key = item.pos, item.neg
        else:
            p, q = item
            pos, neg = tuple(p), tuple(q)
            if type(p) not in (list, tuple) or type(q) not in (list, tuple):
                raise TypeError(f"a raw condition is a pair of lists or tuples, got {p!r}, {q!r}")
            item = None
        try:
            check_indices(pos + neg, "index", n, where)
        except IndexOutOfRange:
            hash(pos + neg)  # a list index fails as set() does
            raise
        if item is None:
            if len(pos) > 1:  # parts of fewer than two indices are canonical
                pos = tuple(sorted(set(pos)))
            if len(neg) > 1:
                neg = tuple(sorted(set(neg)))
            key = pos, neg
        if not pos and not neg:
            raise EmptyCondition(f"{side} contains the empty condition (∅, ∅)")
        if key in conditions:
            if strict:
                raise DuplicateCondition(f"duplicate {side} condition {pos}/{neg}")
            continue
        conditions[key] = item
    # sides and parts are type-checked after use: a non-iterable fails as iterating it does
    if type(raw) not in (list, tuple):
        raise TypeError(f"a pattern side is a list or tuple, got {type(raw).__name__}")
    return tuple([conditions[key] or _condition(*key) for key in sorted(conditions)])


@dataclass(frozen=True)
class Pattern:
    """An n-pattern.  Construction canonicalizes: conditions are deduplicated
    and sorted, and index-range / nonemptiness violations raise immediately."""

    n: int
    consistency: tuple[Condition, ...] = ()
    inconsistency: tuple[Condition, ...] = ()

    def __post_init__(self):
        for side in ("consistency", "inconsistency"):
            raw = getattr(self, side)
            object.__setattr__(self, side, _canonical_side(raw, self.n, side, strict=False))

    @property
    def conditions(self) -> tuple[Condition, ...]:
        return self.consistency + self.inconsistency


@dataclass(frozen=True)
class PatternFlags:
    reasonable: bool
    positive: bool
    complete: bool
    fully_complete: bool
    k_bounded: int | None
    k_bounded_at_most: int | None


def classify(p: Pattern) -> PatternFlags:
    """Compute the classification flags literally from the definitions.

    reasonable: no inconsistency condition is coordinatewise contained in a
    consistency condition, and every condition has disjoint pos/neg parts.
    positive: every condition has empty neg.  complete: every condition is a
    split (X, n∖X) and there is at least one condition.  fully complete:
    complete, C nonempty, and each split lies in exactly one of C, I.
    k_bounded: all inconsistency conditions are positive of one size k.
    The cost grows with the conditions and their largest index, not with n;
    an index of 2**PATTERN_INDICES_LOG2 or more is refused before any mask.
    """
    conds = p.conditions
    # (pos, neg) as one int, neg shifted past every positive index: z lies
    # coordinatewise inside y iff z & y == z, so z == y or z has fewer bits
    shift = max((c.pos[-1] + 1 for c in conds if c.pos), default=0)
    width = max((c.neg[-1] + 1 for c in conds if c.neg), default=0)
    check_bound(max(shift, width), PATTERN_INDICES_LOG2,
                "conditions over [0, {size}) exceed the pattern index bound {limit}", log2=True)
    disjoint, by_count = True, {}
    for c in p.consistency:  # each mask read once
        pos, neg = c.pos_mask, c.neg_mask
        disjoint = disjoint and not pos & neg
        y = pos | neg << shift
        by_count.setdefault(y.bit_count(), set()).add(y)
    contained, top = False, max(by_count, default=0)
    for c in p.inconsistency:
        pos, neg = c.pos_mask, c.neg_mask
        disjoint = disjoint and not pos & neg
        if disjoint and not contained:
            z = pos | neg << shift
            size = z.bit_count()
            contained = z in by_count.get(size, ()) or size < top and any(
                z & y == z for count, ys in by_count.items() if count > size for y in ys)
    reasonable = disjoint and not contained
    positive = all(not c.neg for c in conds)
    complete = bool(conds) and disjoint and all(len(c.pos) + len(c.neg) == p.n for c in conds)
    # splits all have n bits, so for complete patterns C ∩ I = ∅ is reasonableness
    fully_complete = (complete and bool(p.consistency) and reasonable
                      and len(p.consistency) + len(p.inconsistency) == 2**p.n)
    k_bounded = None
    k_bounded_at_most = None
    if p.inconsistency and all(not z.neg for z in p.inconsistency):
        sizes = {len(z.pos) for z in p.inconsistency}
        k_bounded_at_most = max(sizes)
        if len(sizes) == 1:
            k_bounded = k_bounded_at_most
    return PatternFlags(reasonable, positive, complete, fully_complete,
                        k_bounded, k_bounded_at_most)


def is_k_bounded(p: Pattern, k: int) -> bool:
    """True iff every inconsistency condition is positive of size exactly k.

    Vacuously true when I = ∅ (such a pattern qualifies for every k)."""
    return all(not z.neg and len(z.pos) == k for z in p.inconsistency)


# ---------------------------------------------------------------------------
# Dividing-line pattern families
# ---------------------------------------------------------------------------


def complete_conditions(n: int) -> list[Condition]:
    """Every complete split (X, n∖X) of [0, n), in the canonical (pos, neg)
    order.  For n = 0 this is the single, illegal (∅, ∅)."""
    splits = [((), (), 0)]  # pos, neg and the mask of pos
    for i in reversed(range(n)):
        # the splits of [i, n): ((), [i, n)), then those with i in pos, then the rest
        without = [(pos, (i,) + neg, mask) for pos, neg, mask in splits]
        splits = without[:1] + [((i,) + pos, neg, mask | 1 << i) for pos, neg, mask in splits] + without[1:]
    full = (1 << n) - 1
    return [_condition(pos, neg, (mask, full ^ mask)) for pos, neg, mask in splits]


def _fully_complete(n: int, consistent) -> Pattern:
    """The fully complete n-pattern whose consistent splits (X, n∖X) are those
    with the mask of X in `consistent`, every other split inconsistent.  For
    n = 0 the only split is the illegal (∅, ∅), so it is the empty pattern."""
    sides = [], []
    for cond in complete_conditions(n) if n else ():
        sides[cond.pos_mask not in consistent].append(cond)
    return _canonical(Pattern, n, tuple(sides[0]), tuple(sides[1]))


def op_pattern(n: int) -> Pattern:
    """Order property: C = {({i..n-1}, {0..i-1}) : i < n}, I = ∅."""
    _require(n >= 0, "n must be nonnegative")
    _require_output(n * n)
    return Pattern(n, tuple((tuple(range(i, n)), tuple(range(i))) for i in range(n)))


def ip_pattern(n: int) -> Pattern:
    """Independence property: every complete split (X, n∖X) is consistent."""
    _require(n >= 0, "n must be nonnegative")
    _require_output(n << n)
    return _fully_complete(n, range(1 << n))


def cm_pattern(n: int) -> Pattern:
    """Consistency-maximality family; identical to the independence family."""
    return ip_pattern(n)


def sop_pattern(n: int) -> Pattern:
    """Strict order property: C = {({i+1},{i})}, I = {({i},{i+1})} for i < n-1."""
    _require(n >= 0, "n must be nonnegative")
    _require_output(4 * max(n - 1, 0))
    return Pattern(n, tuple(((i + 1,), (i,)) for i in range(n - 1)),
                   tuple(((i,), (i + 1,)) for i in range(n - 1)))


def _tree_nodes(branching: int, depth: int):
    """Strings over [0, branching) of length <= depth, in level order (root first).
    Each level is refused before it is built if it would take the tree over
    the node bound."""
    _require(branching >= 1, "branching must be >= 1")
    _require(depth >= 0, "depth must be >= 0")
    nodes = [()]
    level = [()]
    for _ in range(depth):
        check_bound(len(nodes) + len(level) * branching, TREE_NODES,
                    "a tree of at least {size} nodes exceeds the tree bound {limit}")
        level = [node + (c,) for node in level for c in range(branching)]
        nodes.extend(level)
    return nodes, {node: i for i, node in enumerate(nodes)}


def _tree_paths(branching, depth, index):
    return [tuple(index[leaf[:length]] for length in range(depth + 1))
            for leaf in itertools.product(range(branching), repeat=depth)]


def ktp_pattern(branching: int, depth: int, k: int) -> Pattern:
    """k-tree property on the tree of strings of length <= depth.

    Paths (root included) are consistent; every k-subset of a sibling set is
    inconsistent.  Requires 2 <= k <= branching, else no level condition is
    expressible.
    """
    _require(2 <= k, "k must be at least 2")
    _require(k <= branching, "k must not exceed the branching (no k-subsets of a level)")
    nodes, index = _tree_nodes(branching, depth)
    leaves = branching**depth
    _require_output(leaves * (depth + 1) + (len(nodes) - leaves) * math.comb(branching, k) * k)
    consistency = [(path, ()) for path in _tree_paths(branching, depth, index)]
    inconsistency = [(combo, ()) for node in nodes if len(node) < depth for combo in
                     itertools.combinations([index[node + (c,)] for c in range(branching)], k)]
    return Pattern(len(nodes), tuple(consistency), tuple(inconsistency))


def tp1_pattern(branching: int, depth: int) -> Pattern:
    """Tree property of the first kind: paths consistent, incomparable pairs inconsistent."""
    nodes, index = _tree_nodes(branching, depth)
    # a node of length l is comparable with its l proper prefixes
    incomparable = math.comb(len(nodes), 2) - sum(map(len, nodes))
    _require_output(branching**depth * (depth + 1) + 2 * incomparable)
    consistency = [(path, ()) for path in _tree_paths(branching, depth, index)]
    inconsistency = [((index[a], index[b]), ()) for a, b in itertools.combinations(nodes, 2)
                     if a != b[: len(a)] and b != a[: len(b)]]
    return Pattern(len(nodes), tuple(consistency), tuple(inconsistency))


def ktp2_pattern(branching: int, depth: int, k: int) -> Pattern:
    """k-tree property of the second kind on a (depth x branching) array.

    Index (row i, column j) maps to i*branching + j.  One choice per row is
    consistent (all branching**depth choice functions); every k-subset of a
    row is inconsistent.
    """
    _require(2 <= k, "k must be at least 2")
    _require(k <= branching, "k must not exceed the row width")
    _require(branching >= 1 and depth >= 0, "array dimensions must be nonnegative")
    choices = 1
    for _ in itertools.repeat(None, depth):  # row by row, so a huge depth is refused at once
        choices *= branching
        check_bound(choices, TREE_NODES, "at least {size} choice functions exceed the tree bound {limit}")
    _require_output(choices * depth + depth * math.comb(branching, k) * k)
    consistency = [(tuple(i * branching + f[i] for i in range(depth)), ())
                   for f in itertools.product(range(branching), repeat=depth) if depth > 0]
    inconsistency = [(combo, ()) for i in range(depth)
                     for combo in itertools.combinations(range(i * branching, (i + 1) * branching), k)]
    return Pattern(branching * depth, tuple(consistency), tuple(inconsistency))


def subset_index(subset) -> int:
    """Binary encoding of a subset of [0, n): X -> sum of 2**i over i in X."""
    out = 0
    for i in subset:
        out |= 1 << i
    return out


def _bits(mask: int):
    """The set bits of a nonnegative mask, ascending, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _up_masks(n: int) -> list[int]:
    """The principal up-sets ↑{i} = {X ⊆ n : i ∈ X}, i < n, as masks over
    the subset codes: bit e of mask i is bit i of e, so blocks of 2**i zeros
    and 2**i ones alternate from bit 0 up."""
    return [int(("1" * (1 << i) + "0" * (1 << i)) * (1 << (n - i - 1)), 2) for i in range(n)]


def _subset_families(k: int):
    """Each nonempty family Z of subsets of [0, k), as the ascending codes of
    its members, with whether the members have a common element.  Z itself
    is encoded as a subset of [0, 2**k), in ascending order."""
    full = (1 << k) - 1
    for family in range(1, 1 << (1 << k)):
        members = _bits(family)
        meet = full
        for e in members:
            meet &= e  # a subset's code is its own membership mask
        yield members, meet != 0


def cooper_pattern(n: int) -> Pattern:
    """The fully complete 2**n-pattern whose consistent complete types are
    exactly the principal up-sets ↑{i} = {X ⊆ n : i ∈ X}.

    Indices are subsets of [0, n) in binary encoding.  Any witness is forced
    to consist of points whose complete type is some encoded ↑{i}; the base
    sets (one per singleton) come out pairwise disjoint with all their unions
    traced, i.e. a disjoint union-closed family.
    """
    _require(n >= 1, "n must be at least 1")
    check_bound(n, SUBSET_PATTERN_N, "n={size} exceeds the subset-pattern bound {limit}")
    count = 1 << n
    _require_output(count << count)
    return _fully_complete(count, set(_up_masks(n)))


def pmchar_pattern(n: int) -> Pattern:
    """Positive-maximality characterization family on 2**n indices.

    For each nonempty family Z of subsets of [0, n) (encoded as a subset of
    [0, 2**n)): consistent iff the members of Z have a common element,
    inconsistent otherwise.
    """
    _require(n >= 0, "n must be nonnegative")
    check_bound(n, SUBSET_PATTERN_N, "n={size} exceeds the subset-pattern bound {limit}")
    count = 1 << n
    _require_output(count << (count - 1))  # each index lies in half of the subsets
    consistency, inconsistency = [], []
    for members, meets in _subset_families(n):
        (consistency if meets else inconsistency).append((members, ()))
    return Pattern(count, tuple(consistency), tuple(inconsistency))


_GENERATORS = {
    "op": lambda n=None, **_: op_pattern(_need(n, "n")),
    "ip": lambda n=None, **_: ip_pattern(_need(n, "n")),
    "sop": lambda n=None, **_: sop_pattern(_need(n, "n")),
    "cm": lambda n=None, **_: cm_pattern(_need(n, "n")),
    "ktp": lambda b=None, d=None, k=None, **_: ktp_pattern(_need(b, "b"), _need(d, "d"), _need(k, "k")),
    "tp1": lambda b=None, d=None, **_: tp1_pattern(_need(b, "b"), _need(d, "d")),
    "ktp2": lambda b=None, d=None, k=None, **_: ktp2_pattern(_need(b, "b"), _need(d, "d"), _need(k, "k")),
    "cooper": lambda n=None, **_: cooper_pattern(_need(n, "n")),
    "pmchar": lambda n=None, **_: pmchar_pattern(_need(n, "n")),
}

GEN_KINDS = tuple(sorted(_GENERATORS))


def gen_divline(kind: str, **params) -> Pattern:
    """Generate a named dividing-line pattern family member.

    kind is one of op, ip, sop, ktp, tp1, ktp2, cm, cooper, pmchar (case
    insensitive).  Size parameters: n for op/ip/sop/cm/cooper/pmchar;
    b (branching), d (depth) and, where applicable, k for the tree families.
    """
    try:
        generator = _GENERATORS[kind.lower()]
    except KeyError:
        raise UnsupportedParams(f"unknown pattern kind {kind!r}; choose from {GEN_KINDS}") from None
    return generator(**params)


def _need(value, name):
    if value is None:
        raise UnsupportedParams(f"missing required parameter {name!r}")
    return value


def _require(ok: bool, message: str):
    if not ok:
        raise UnsupportedParams(message)


def _require_output(indices: int):
    """Refuse a pattern holding more than 2**PATTERN_INDICES_LOG2 indices in all."""
    check_bound(indices, PATTERN_INDICES_LOG2,
                "{size} indices in all exceed the pattern output bound {limit}", log2=True)


# ---------------------------------------------------------------------------
# Reductions and transforms
# ---------------------------------------------------------------------------


def pattern_from_cnf(formula: CnfFormula) -> Pattern:
    """Encode CNF satisfiability as pattern exhibitability.

    For a formula on m variables, build the (m+1)-pattern with a single
    consistency condition ({m}, ∅) and, per clause, the inconsistency
    condition (negated-variable indices, positive-variable indices).  A
    complete type X avoiding all inconsistency conditions is exactly a
    satisfying assignment (i in X <-> variable i true), so the pattern is
    exhibitable iff the formula is satisfiable; it is reasonable whenever the
    formula has no empty clause.  An empty clause is accepted but flagged: it
    becomes the inconsistency condition ({m}, ∅), directly contradicting the
    consistency side.
    """
    m = formula.variable_count
    inconsistency = []
    for clause in formula.clauses:
        if not clause:
            warnings.warn("empty clause: encoding is trivially non-exhibitable", stacklevel=2)
        pos = [lit.variable for lit in clause if lit.negated] if clause else [m]
        inconsistency.append((pos, [lit.variable for lit in clause if not lit.negated]))
    return Pattern(m + 1, (((m,), ()),), tuple(inconsistency))


def double_positive(p: Pattern) -> Pattern:
    """Turn a reasonable consistency pattern on n indices into a reasonable
    positive 2n-pattern: each (pos, neg) becomes (pos ∪ (n + neg), ∅), and
    every pair {i, i+n} is declared inconsistent.

    A witness of the doubled pattern, truncated to its first n sets, is a
    witness of the original (membership in set i+n forces non-membership in
    set i).
    """
    if p.inconsistency:
        raise NotConsistencyPattern("input must have an empty inconsistency side")
    if not classify(p).reasonable:
        raise NotConsistencyPattern("input must be reasonable (disjoint pos/neg parts)")
    n = p.n
    doubled = tuple((c.pos + tuple(n + j for j in c.neg), ()) for c in p.consistency)
    pairs = tuple(((i, i + n), ()) for i in range(n))
    return Pattern(2 * n, doubled, pairs)
