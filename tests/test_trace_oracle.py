"""Seeded differential tests: every trace-based check against point scans.

The oracles here (conftest.trace_by_points, clique_masks_by_scan and the
scans below) look at one point at a time and share no code with the
library's trace primitive.  Universes reach 200 points, so the library's
point masks run well past 64 bits.
"""

import itertools
import random

import pytest

from patterna import (
    Condition,
    Hypergraph,
    Pattern,
    SetFamily,
    UnionClosedFamily,
    atomless_pm_witness,
    blowup,
    blowup_pullback,
    brute_force_exhibitable,
    build_witness_structure,
    canonical_char_family,
    check_char_property,
    check_exhibits,
    check_one_n,
    classify,
    cm_from_doubled_witness,
    condition_trace,
    cooper_pattern,
    decide_exhibitable,
    disjoint_one1_family,
    double_positive,
    fully_complete_extension,
    ip_family,
    ip_pattern,
    membership_column_family,
    membership_structure,
    pattern_from_hypergraph,
    pm_char_reduction,
    powerset_sm_witness,
    realization_witness,
    realize_check,
    realized_types,
    triangle_free_double,
    union_representable,
    witness_trace_family,
)
from patterna.errors import PreconditionFailure
from patterna.patterns import _bits
from patterna.rand import (
    random_consistency_pattern,
    random_hypergraph as random_uniform_hypergraph,
    random_reasonable_positive,
)

from conftest import clique_masks_by_scan, encodes_by_scan, random_pattern, trace_by_points


def random_family(rng, n, max_universe=200):
    universe = rng.randint(1, max_universe)
    density = rng.random()
    return SetFamily(
        universe,
        tuple(
            frozenset(p for p in range(universe) if rng.random() < density) for _ in range(n)
        ),
    )


def random_condition(rng, n, overlap=True):
    """A legal condition over [0, n); pos and neg may share indices."""
    while True:
        pos = [i for i in range(n) if rng.random() < 0.35]
        neg = [i for i in range(n) if rng.random() < 0.25 and (overlap or i not in pos)]
        if pos or neg:
            return Condition(tuple(pos), tuple(neg))


def members(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def padded(fam, rng, extra):
    """fam moved to a universe with `extra` more points that lie in no set;
    the points keep their order and the traces their emptiness."""
    offset = rng.randint(0, extra)
    return SetFamily(
        fam.universe_size + extra,
        tuple(frozenset(p + offset for p in s) for s in fam.sets),
    )


def assert_report_by_points(fam, p, traces):
    """check_exhibits(fam, p) reports what the point scan finds: ok, and both
    failing lists in order.  traces keeps each condition's scan.  Returns ok."""
    for c in p.conditions:
        if c not in traces:
            traces[c] = trace_by_points(fam, c)
    bad_c = tuple(c for c in p.consistency if not traces[c])
    bad_i = tuple(z for z in p.inconsistency if traces[z])
    report = check_exhibits(fam, p)
    assert (report.ok, report.failing_consistency, report.failing_inconsistency) == (
        not bad_c and not bad_i, bad_c, bad_i
    ), (fam, p)
    return report.ok


def overlapping_condition(rng, n):
    """A condition over [0, n), n >= 2, naming n indices in all, one of them
    on both sides: it has as many indices as a split but no points."""
    pos = rng.sample(range(n), rng.randint(1, n - 1))
    shared = rng.choice(pos)
    return Condition(tuple(pos), (shared, *rng.sample([i for i in range(n) if i != shared], n - len(pos) - 1)))


def shared_out(rng, n, conds):
    split = [rng.random() < 0.5 for _ in conds]
    return Pattern(
        n,
        tuple(c for c, s in zip(conds, split) if s),
        tuple(c for c, s in zip(conds, split) if not s),
    )


def complete_candidates(rng, fam):
    """Patterns whose conditions all name fam's n >= 2 indices: fam's fully
    complete extension and ip_pattern(n) as built, which hand their masks
    over; both rebuilt with the public Condition, which computes them; and
    rebuilt splits shared out at random with overlapping conditions."""
    n = fam.n
    built = [fully_complete_extension(fam), ip_pattern(n)]
    rebuilt = [
        Pattern(n, *(tuple(Condition(c.pos, c.neg) for c in side) for side in (p.consistency, p.inconsistency)))
        for p in built
    ]
    assert all("pos_mask" in vars(c) for p in built for c in p.conditions)
    assert not any("pos_mask" in vars(c) for p in rebuilt for c in p.conditions)
    overlapping = [overlapping_condition(rng, n) for _ in range(rng.randint(1, 4))]
    return built + rebuilt + [shared_out(rng, n, list(rebuilt[0].conditions) + overlapping)]


def test_traces_and_exhibit_reports():
    # pinned: point 0 has type {0}, so (0, 0), which names both indices,
    # meets its type's class but has no points, on either side
    fam = SetFamily(2, ({0}, ()))
    p = Pattern(2, (((0,), (1,)), ((0,), (0,))), (((0,), (0,)), ((1,), (0,))))
    assert not assert_report_by_points(fam, p, {})
    assert check_exhibits(fam, p).failing_consistency == (Condition((0,), (0,)),)
    rng = random.Random(4101)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(0, 7)
        fam = random_family(rng, n)
        conds = [random_condition(rng, n) for _ in range(rng.randint(1, 12))] if n else []
        traces = {}
        for cond in conds:
            traces[cond] = trace_by_points(fam, cond)
            assert condition_trace(fam, cond) == traces[cond], (fam, cond)
        candidates = [
            shared_out(rng, n, conds),
            Pattern(
                n,
                tuple(c for c in conds if traces[c]),
                tuple(c for c in conds if not traces[c]),
            ),
        ]
        if n >= 2:
            candidates += complete_candidates(rng, fam)
        for p in candidates:
            outcomes.add(assert_report_by_points(fam, p, traces))
    assert outcomes == {True, False}


def realizes_by_scan(fam, h):
    return encodes_by_scan(fam, h) and all(
        trace_by_points(fam, Condition(members(mask), ())) for mask in clique_masks_by_scan(h)
    )


def random_hypergraph(rng):
    arity = rng.randint(2, 3)
    vertices = rng.randint(0, 7)
    density = rng.random()
    edges = frozenset(
        frozenset(combo)
        for combo in itertools.combinations(range(vertices), arity)
        if rng.random() < density
    )
    return Hypergraph(arity, vertices, edges)


def test_hypergraph_encoding_and_realization():
    rng = random.Random(4102)
    outcomes = set()
    for _ in range(150):
        h = random_hypergraph(rng)
        witness = padded(realization_witness(h), rng, rng.randint(0, 150))
        point = rng.randrange(witness.universe_size)
        flipped = SetFamily(
            witness.universe_size,
            tuple(s ^ {point} if rng.random() < 0.3 else s for s in witness.sets),
        )
        for fam in (random_family(rng, h.vertex_count), witness, flipped):
            encodes = encodes_by_scan(fam, h)
            realizes = realizes_by_scan(fam, h)
            assert realize_check(fam, h) == realizes, (fam, h)
            outcomes.add((encodes, realizes))
    assert outcomes == {(True, True), (True, False), (False, False)}


def of_types(n, universe, types):
    """The family on n indices with one point per type, in order, and
    `universe` points in all: the points past the types lie in no set."""
    return SetFamily(universe, tuple(frozenset(p for p, t in enumerate(types) if i in t) for i in range(n)))


def complete_minus(arity, vertices, missing):
    return Hypergraph(arity, vertices, frozenset(
        frozenset(e) for e in itertools.combinations(range(vertices), arity) if e not in missing))


def cocktail_party(vertices):
    """Every pair but {2i, 2i+1}: its maximal cliques take one vertex of each
    missing pair, so they overlap."""
    return complete_minus(2, vertices, {(v, v + 1) for v in range(0, vertices, 2)})


TRIANGLE = complete_minus(2, 3, ())
PATH = Hypergraph(2, 3, frozenset({frozenset({0, 1}), frozenset({1, 2})}))
PENDANT = Hypergraph(3, 4, frozenset({frozenset({0, 1, 3})}))  # {0,2}, {1,2}, {2,3} are maximal, below k
PARTY6, PARTY8 = cocktail_party(6), cocktail_party(8)
K9_MINUS = complete_minus(3, 9, {(0, 1, 2), (3, 4, 5), (6, 7, 8)})
EDGE01 = Hypergraph(2, 3, frozenset({frozenset({0, 1})}))


def maximal_types(h):
    """h's maximal cliques by scan, as index tuples: the types of its realization witness."""
    scanned = set(clique_masks_by_scan(h))
    return [members(m) for m in sorted(scanned)
            if not any(m | 1 << v in scanned for v in range(h.vertex_count) if not m >> v & 1)]


def inner_types(h):
    """Each maximal clique of h minus one vertex, where that leaves at least
    k vertices: types inside a clique that are not themselves maximal."""
    return [c[:i] + c[i + 1:] for c in maximal_types(h) if len(c) > h.arity for i in range(len(c))]


#: (h, universe, types, realizes): families that separate the two halves of
#: realize_check, every realised type of at least k indices inside a maximal
#: clique and every maximal clique with a common point, and three small
#: families whose sets meet exactly on the edges, or on a non-edge too.
REALIZATION_TABLE = {
    "positive-example": (EDGE01, 2, [(0, 1), (2,)], True),
    "disjoint-edgeless": (Hypergraph(2, 3, frozenset()), 3, [(0,), (1,), (2,)], True),
    "shared-point-breaks-nonedge": (EDGE01, 1, [(0, 1, 2)], False),
    "k-type-non-edge": (PATH, 3, [(0, 1), (1, 2), (0, 2)], False),
    "k-type-edge": (PATH, 3, [(0, 1), (1, 2), (1,)], True),
    "short-type-outside-k-cliques": (PENDANT, 4, [(0, 1, 3), (0, 2), (1, 2), (2, 3)], True),
    "short-type-alone": (PENDANT, 5, [(0, 1, 3), (0, 2), (1, 2), (2,), (2, 3)], True),
    "short-type-in-no-k-clique-missing": (PENDANT, 3, [(0, 1, 3), (0, 2), (1, 2)], False),
    "edges-meet-clique-does-not": (TRIANGLE, 3, [(0, 1), (1, 2), (0, 2)], False),
    "clique-meets": (TRIANGLE, 3, [(0, 1), (1, 2), (0, 1, 2)], True),
    "no-vertices": (Hypergraph(2, 0, frozenset()), 1, [], True),
    "no-vertices-padded": (Hypergraph(3, 0, frozenset()), 4, [], True),
    "padded-edgeless": (Hypergraph(2, 2, frozenset()), 5, [(0,), (1,)], True),
    "padded-edgeless-missing": (Hypergraph(2, 2, frozenset()), 5, [(1,)], False),
    "party6": (PARTY6, 8, maximal_types(PARTY6), True),
    "party6-cross-edge": (PARTY6, 9, maximal_types(PARTY6) + [(0, 3)], True),
    "party6-non-edge": (PARTY6, 9, maximal_types(PARTY6) + [(2, 3)], False),
    "party7": (cocktail_party(7), 12, maximal_types(cocktail_party(7)), True),
    "party8-inside-cliques": (PARTY8, 80, maximal_types(PARTY8) + inner_types(PARTY8), True),
    "party8-inside-cliques-non-edge": (PARTY8, 81, maximal_types(PARTY8) + inner_types(PARTY8) + [(0, 1)],
                                       False),
    "party8-drop-one": (PARTY8, 16, maximal_types(PARTY8)[1:], False),
    "party8-two-cliques": (PARTY8, 17, maximal_types(PARTY8) + [(0, 2, 4, 6, 7)], False),
    "k9-minus": (K9_MINUS, 27, maximal_types(K9_MINUS), True),
    "k9-minus-inside": (K9_MINUS, 28, maximal_types(K9_MINUS) + [(0, 1, 3, 4)], True),
    "k9-minus-non-edge": (K9_MINUS, 28, maximal_types(K9_MINUS) + [(0, 1, 2)], False),
    "k9-minus-drop-one": (K9_MINUS, 27, maximal_types(K9_MINUS)[:-1], False),
}


@pytest.mark.parametrize("name", sorted(REALIZATION_TABLE))
def test_realization_table(name):
    h, universe, types, realizes = REALIZATION_TABLE[name]
    fam = of_types(h.vertex_count, universe, types)
    assert realizes_by_scan(fam, h) == realizes
    assert realize_check(fam, h) == realizes


def test_blowup_pullback_meets_blocks():
    rng = random.Random(4103)
    for _ in range(20):
        vertices = rng.randint(0, 4)
        edges = [e for e in itertools.combinations(range(vertices), 2) if rng.random() < 0.6]
        h = Hypergraph(2, vertices, frozenset(frozenset(e) for e in edges))
        blown, grouping = blowup(h)
        witness = padded(realization_witness(blown), rng, rng.randint(0, 100))
        pulled = blowup_pullback(witness, h, grouping)
        assert pulled.universe_size == witness.universe_size
        assert pulled.sets == tuple(
            trace_by_points(witness, Condition(block, ())) for block in grouping
        )


def test_blowup_pullback_precondition():
    # padded realization witnesses of arity-3 and arity-4 blowups, copies
    # with a used point flipped in or dropped from some of their sets, and
    # families of the wrong size: the pullback refuses exactly the families
    # that the scan says do not realize the blowup
    rng = random.Random(4106)
    outcomes = set()
    for _ in range(40):
        arity = rng.choice((2, 3))
        vertices = rng.randint(0, 6 - arity)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(vertices), arity) if rng.random() < density]
        h = Hypergraph(arity, vertices, frozenset(map(frozenset, edges)))
        blown, grouping = blowup(h)
        witness = padded(realization_witness(blown), rng, rng.randint(0, 50))
        point = rng.choice(sorted(frozenset().union(*witness.sets)) or [0])
        flipped, dropped = (
            SetFamily(witness.universe_size, tuple(
                change(s) if rng.random() < 0.4 else s for s in witness.sets
            ))
            for change in (lambda s: s ^ {point}, lambda s: s - {point})
        )
        resized = SetFamily(witness.universe_size, witness.sets[:-1] or ({point},))
        scanned = set(clique_masks_by_scan(blown))
        cliques = [members(m) for m in scanned  # the scanned cliques no vertex extends
                   if not any(m | 1 << v in scanned for v in range(blown.vertex_count) if not m >> v & 1)]
        for fam in (witness, flipped, dropped, resized):
            encodes = fam.n == blown.vertex_count and encodes_by_scan(fam, blown)
            realizes = encodes and all(trace_by_points(fam, Condition(c, ())) for c in cliques)
            try:
                blowup_pullback(fam, h, grouping)
                refused = False
            except PreconditionFailure:
                refused = True
            assert refused == (not realizes), (fam, h)
            outcomes.add((realizes, encodes))
    assert outcomes == {(True, True), (False, True), (False, False)}


def one_n_by_scan(singles, universe, threshold):
    for size in range(1, len(singles) + 1):
        for combo in itertools.combinations(singles, size):
            common = any(all(p in s for s in combo) for p in range(universe))
            if common != (size <= threshold):
                return False
    return True


def union_representable_by_scan(ufam):
    singles = [ufam.family.sets[1 << i] for i in range(ufam.index_count)]
    return all(
        ufam.family.sets[mask]
        == frozenset(
            p
            for p in range(ufam.family.universe_size)
            if any(p in singles[i] for i in members(mask))
        )
        for mask in range(1 << ufam.index_count)
    )


def test_union_closed_threshold_checks():
    rng = random.Random(4104)
    outcomes = set()
    for _ in range(100):
        k = rng.randint(1, 6)
        universe = rng.randint(1, 200)
        density = rng.choice((0.005, 0.05, 0.3, 0.8))
        singles = [
            frozenset(p for p in range(universe) if rng.random() < density) for _ in range(k)
        ]
        ufam = UnionClosedFamily.from_singletons(universe, singles)
        threshold = rng.randint(1, k + 1)
        expected = one_n_by_scan(singles, universe, threshold)
        assert union_representable(ufam)
        assert check_one_n(ufam, threshold) == expected
        outcomes.add(expected)
        sets = list(ufam.family.sets)
        sets[rng.randrange(len(sets))] = frozenset({rng.randrange(universe)})
        broken = UnionClosedFamily(k, SetFamily(universe, tuple(sets)))
        representable = union_representable_by_scan(broken)
        base = [broken.family.sets[1 << i] for i in range(k)]
        assert union_representable(broken) == representable
        assert check_one_n(broken, threshold) == (
            representable and one_n_by_scan(base, universe, threshold)
        )
    assert outcomes == {True, False}
    # the library's own union-closed families, at every threshold 1..k+1
    outcomes = set()
    library = [disjoint_one1_family(n, naming) for n in range(1, 7) for naming in ("atoms", "skolem")]
    library += [membership_column_family(membership_structure(n)) for n in range(1, 6)]
    library += [UnionClosedFamily(n, decide_exhibitable(cooper_pattern(n)).witness) for n in range(1, 4)]
    for ufam in library:
        k = ufam.index_count
        base = [ufam.base_set(i) for i in range(k)]
        for threshold in range(1, k + 2):
            expected = union_representable_by_scan(ufam) and one_n_by_scan(
                base, ufam.family.universe_size, threshold)
            assert check_one_n(ufam, threshold) == expected, (ufam, threshold)
            outcomes.add(expected)
    assert outcomes == {True, False}
    # planted: one point per t-subset of k <= 10 base indices, so exactly the
    # subsets of size <= t meet, sometimes plus one point on a (t+1)-subset.
    # Per threshold 1..12 (up to k+2): t at the threshold (True), one point
    # too many or t elsewhere (False), then two random t.
    by_threshold = {}
    for threshold in range(1, 13):
        for variant in range(4):
            k = rng.randint(max(2, threshold - 2), 10)
            t, extra = min(threshold, k), variant == 1
            if variant == 1 and t == k:
                t, extra = rng.randint(1, k - 1), rng.random() < 0.5
            elif variant > 1:
                t = rng.randint(1, k)
                extra = t < k and rng.random() < 0.5
            tops = list(itertools.combinations(range(k), t))
            if extra:
                tops.append(tuple(sorted(rng.sample(range(k), t + 1))))
            rng.shuffle(tops)
            universe = len(tops) + rng.randint(0, 3)
            singles = [frozenset(p for p, top in enumerate(tops) if i in top) for i in range(k)]
            expected = one_n_by_scan(singles, universe, threshold)
            assert check_one_n(UnionClosedFamily.from_singletons(universe, singles), threshold) == expected
            by_threshold.setdefault(threshold, set()).add(expected)
    assert all(seen == {True, False} for seen in by_threshold.values())


def char_property_by_scan(fam, k):
    full = (1 << k) - 1
    for family_mask in range(1, 1 << (1 << k)):
        chosen = members(family_mask)
        meet = full
        for e in chosen:
            meet &= e
        common = any(all(p in fam.sets[e] for e in chosen) for p in range(fam.universe_size))
        if common != bool(meet):
            return False
    return True


def test_characterization_property():
    rng = random.Random(4105)
    outcomes = set()
    for _ in range(40):
        k = rng.randint(0, 3)
        canonical = padded(canonical_char_family(k), rng, rng.randint(0, 150))
        sets = list(canonical.sets)
        sets[rng.randrange(len(sets))] = frozenset(
            rng.sample(range(canonical.universe_size), rng.randint(0, min(3, canonical.universe_size)))
        )
        for fam in (canonical, SetFamily(canonical.universe_size, tuple(sets))):
            expected = char_property_by_scan(fam, k)
            assert check_char_property(fam, k) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_classify_reasonable_matches_set_recomputation():
    rng = random.Random(4106)
    patterns = []
    for _ in range(300):
        n = rng.randint(1, 7)
        overlap = rng.random() < 0.2
        consistency = [random_condition(rng, n, overlap) for _ in range(rng.randint(0, 10))]
        inconsistency = [random_condition(rng, n, overlap) for _ in range(rng.randint(0, 10))]
        patterns.append(Pattern(n, tuple(consistency), tuple(inconsistency)))
    # fully complete extensions, where every condition has the same size,
    # and copies with one consistent split made inconsistent too (z == y)
    for _ in range(40):
        ext = fully_complete_extension(random_family(rng, rng.randint(1, 6), 80))
        split = rng.choice(ext.consistency)
        patterns += [ext, Pattern(ext.n, ext.consistency, ext.inconsistency + (split,))]
    outcomes = set()
    for p in patterns:
        disjoint = all(not set(c.pos) & set(c.neg) for c in p.conditions)
        contained = any(
            set(z.pos) <= set(y.pos) and set(z.neg) <= set(y.neg)
            for z in p.inconsistency
            for y in p.consistency
        )
        expected = disjoint and not contained
        complete = bool(p.conditions) and all(
            sorted(c.pos + c.neg) == list(range(p.n)) for c in p.conditions
        )
        fully_complete = (
            complete
            and bool(p.consistency)
            and not set(p.consistency) & set(p.inconsistency)
            and len(p.consistency) + len(p.inconsistency) == 2**p.n
        )
        flags = classify(p)
        assert (flags.reasonable, flags.complete, flags.fully_complete) == (
            expected, complete, fully_complete
        ), p
        outcomes.add((expected, fully_complete))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_realized_types_match_point_scan():
    rng = random.Random(4107)
    for _ in range(60):
        fam = random_family(rng, rng.randint(0, 8))
        assert realized_types(fam) == {
            frozenset(i for i, s in enumerate(fam.sets) if point in s)
            for point in range(fam.universe_size)
        }


def assert_as_public(fam):
    """A family the library built from masks, unchecked, is the family the
    public constructor builds from its sets: every mask inside the universe,
    and the same masks, sets and hash."""
    assert all(0 <= mask < 1 << fam.universe_size for mask in fam.masks)
    public = SetFamily(fam.universe_size, fam.sets)
    assert (public.masks, public.sets) == (fam.masks, fam.sets)
    assert public == fam and hash(public) == hash(fam)


def assert_hypergraph_as_public(h):
    public = Hypergraph(h.arity, h.vertex_count, h.edges)
    assert (public.arity, public.vertex_count, public.edges) == (h.arity, h.vertex_count, h.edges)


def test_mask_built_families_match_the_public_constructor():
    rng = random.Random(4111)
    for n in range(9):
        assert_as_public(ip_family(n))
        assert_as_public(canonical_char_family(n))
    for n in range(1, 7):
        assert_as_public(membership_column_family(membership_structure(n)).family)
    for _ in range(40):
        universe = rng.randint(1, 200)
        density = rng.choice((0.01, 0.1, 0.5))
        singles = [frozenset(p for p in range(universe) if rng.random() < density)
                   for _ in range(rng.randint(0, 6))]
        ufam = UnionClosedFamily.from_singletons(universe, singles)
        assert_as_public(ufam.family)
        assert ufam.family.sets == tuple(frozenset().union(*(singles[i] for i in members(x)))
                                         for x in range(1 << len(singles)))
    for _ in range(60):
        # dense families realize every type but ∅, so (∅, everything) is forbidden
        fam = random_family(rng, rng.randint(1, 6), rng.choice((3, 80)))
        assert_as_public(powerset_sm_witness(fully_complete_extension(fam)))
    for _ in range(80):
        p = random_pattern(rng, rng.randint(1, 6), 8)
        for decision in (decide_exhibitable(p), brute_force_exhibitable(p)):
            if decision.exhibitable:
                assert_as_public(decision.witness)
        q = random_consistency_pattern(rng, rng.randint(0, 5), 6)
        assert_as_public(cm_from_doubled_witness(decide_exhibitable(double_positive(q)).witness, q))
    for _ in range(60):
        h = random_hypergraph(rng)
        assert_as_public(realization_witness(h))
        blown, grouping = blowup(h)
        assert_hypergraph_as_public(blown)
        witness = realization_witness(blown)
        assert_as_public(witness)
        assert_as_public(blowup_pullback(witness, h, grouping))
        assert_as_public(witness_trace_family(build_witness_structure(h)))
        p = pattern_from_hypergraph(h)
        assert_as_public(atomless_pm_witness(p))
        if len(p.consistency) <= 8:
            assert_as_public(pm_char_reduction(canonical_char_family(len(p.consistency)), p))
    for _ in range(40):
        doubling = triangle_free_double(random_uniform_hypergraph(rng, 2, rng.randint(0, 6), rng.random()))
        assert_hypergraph_as_public(doubling.graph)
        assert_as_public(doubling.family)
    for _ in range(40):
        p = random_reasonable_positive(rng, rng.randint(0, 6), 6, 4)
        assert_as_public(witness_trace_family(build_witness_structure(p)))


def test_families_of_types_realize_exactly_those_types():
    rng = random.Random(4112)
    for _ in range(200):
        n = rng.randint(0, 8)
        types = [rng.getrandbits(n) for _ in range(rng.randint(1, 70))]
        fam = SetFamily._of_types(n, map(_bits, types))
        assert_as_public(fam)
        assert fam.universe_size == len(types)
        assert realized_types(fam) == {frozenset(i for i in range(n) if t >> i & 1) for t in types}


def test_no_types_give_one_point_in_no_set():
    for n in range(4):
        assert SetFamily._of_types(n, []) == SetFamily(1, [()] * n)
