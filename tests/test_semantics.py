import itertools
import random

import pytest

from patterna import (
    Condition,
    Pattern,
    SetFamily,
    UnionClosedFamily,
    canonical_char_family,
    check_exhibits,
    check_one_n,
    classify,
    condition_trace,
    decide_exhibitable,
    fully_complete_extension,
    ip_family,
    realized_types,
    union_representable,
)
from patterna import patterns
from patterna.errors import ArityMismatch, IndexOutOfRange, MalformedUnionMap

from conftest import NO_POINT, UNION_SPLIT, complete_conditions, random_pattern


def fam(universe, *sets):
    return SetFamily(universe, tuple(frozenset(s) for s in sets))


class TestTrace:
    def test_intersection_with_complement(self):
        f = fam(2, {0}, {1})
        assert condition_trace(f, Condition((0,), (1,))) == {0}

    def test_disjoint_sets_empty(self):
        f = fam(2, {0}, {1})
        assert condition_trace(f, Condition((0, 1), ())) == frozenset()

    def test_full_set_complement_empty(self):
        f = fam(2, {0, 1})
        assert condition_trace(f, Condition((), (0,))) == frozenset()

    def test_empty_parts_give_universe(self):
        f = fam(3, {0})
        assert condition_trace(f, Condition((), ())) == {0, 1, 2}

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            condition_trace(fam(1, {0}), Condition((1,), ()))

    def test_range_checked_before_any_mask(self, monkeypatch):
        # neither the range check nor the trace builds a mask of the condition
        def refuse(subset):
            raise AssertionError(f"mask built for {subset}")

        monkeypatch.setattr(patterns, "subset_index", refuse)
        f = fam(3, {0}, {0, 1}, {2})
        for cond in (Condition((3,), ()), Condition((0,), (3,)), Condition((1, 3), (0, 2))):
            with pytest.raises(IndexOutOfRange, match="condition index 3 outside family of 3 sets"):
                condition_trace(f, cond)
        assert condition_trace(f, Condition((0,), (2,))) == {0}

    def test_trace_composes_under_union(self):
        rng = random.Random(11)
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 4)
            f = fam(m, *({x for x in range(m) if rng.random() < 0.5} for _ in range(n)))
            a = Condition(
                tuple(i for i in range(n) if rng.random() < 0.4),
                tuple(i for i in range(n) if rng.random() < 0.4),
            )
            b = Condition(
                tuple(i for i in range(n) if rng.random() < 0.4),
                tuple(i for i in range(n) if rng.random() < 0.4),
            )
            merged = Condition(a.pos + b.pos, a.neg + b.neg)
            assert condition_trace(f, merged) == condition_trace(f, a) & condition_trace(f, b)


class TestExhibits:
    def test_union_split_family(self):
        assert check_exhibits(fam(2, {0}, {1}, {0, 1}), UNION_SPLIT).ok

    def test_empty_pattern_vacuous(self):
        assert check_exhibits(fam(3, {0}, {2}), Pattern(2)).ok

    def test_inconsistency_violated(self):
        report = check_exhibits(fam(1, {0}), Pattern(1, (), (Condition((0,), ()),)))
        assert not report.ok
        assert report.failing_inconsistency == (Condition((0,), ()),)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            check_exhibits(fam(1, {0}), Pattern(2))

    def test_nonempty_universe_required(self):
        with pytest.raises(ValueError):
            SetFamily(0, ())

    @pytest.mark.parametrize("point", [0.5, 1.0, "1", True, None])
    def test_non_integer_point_rejected(self, point):
        # 0 <= 0.5 < 2 holds, so a range check alone let 0.5 in, and the point
        # then dropped out of every trace
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            SetFamily(2, (frozenset({point}), frozenset({1})))

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", True, None])
    def test_non_integer_universe_size_rejected(self, size):
        # SetFamily(2.5, ...) used to construct, and the first trace then
        # raised a bare TypeError from the float shift
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            SetFamily(size, (frozenset({0}),))


class TestSetFamilyState:
    """Masks are the state; sets is a view, filled at once by the public
    constructor and on first read for a family built from masks."""

    def test_mask_built_equals_public_built(self):
        public = fam(3, {0, 2}, set(), {1})
        built = SetFamily._of_masks(3, (0b101, 0, 0b10))
        assert built == public and hash(built) == hash(public)
        assert built.sets == public.sets and built.masks == public.masks == (5, 0, 2)
        assert built != SetFamily._of_masks(4, (0b101, 0, 0b10))
        assert built != SetFamily._of_masks(3, (0b101, 0))

    @pytest.mark.parametrize("build, text", [
        (lambda: fam(3, {0, 2}, set(), {1}),
         "SetFamily(universe_size=3, sets=(frozenset({0, 2}), frozenset(), frozenset({1})))"),
        (lambda: SetFamily._of_masks(3, (0b101, 0, 0b10)),
         "SetFamily(universe_size=3, sets=(frozenset({0, 2}), frozenset(), frozenset({1})))"),
        (lambda: SetFamily(1, ()), "SetFamily(universe_size=1, sets=())"),
        (lambda: ip_family(2),
         "SetFamily(universe_size=4, sets=(frozenset({1, 3}), frozenset({2, 3})))"),
        (lambda: canonical_char_family(0), "SetFamily(universe_size=1, sets=(frozenset(),))"),
        (lambda: UnionClosedFamily.from_singletons(2, [{0}, {1}]),
         "UnionClosedFamily(index_count=2, family=SetFamily(universe_size=2, sets=(frozenset(), "
         "frozenset({0}), frozenset({1}), frozenset({0, 1}))), point_labels=None, set_labels=None)"),
        (lambda: UnionClosedFamily.from_singletons(20, [{9}, {1}]).family,  # 1 and 9 collide
         "SetFamily(universe_size=20, sets=(frozenset(), frozenset({9}), frozenset({1}), frozenset({1, 9})))"),
    ])
    def test_repr_unchanged(self, build, text):
        # the strings were printed by the frozenset-state SetFamily
        assert repr(build()) == text

    def test_view_inserts_points_ascending(self):
        # 1 and 9 share a slot in a small frozenset's table, so it prints them
        # in insertion order; the view inserts each set's points ascending,
        # whatever order the unions that made the mask came in.
        family = UnionClosedFamily.from_singletons(20, [{1}, {9}]).family
        assert repr(family.sets[3]) == "frozenset({1, 9})"
        assert family == fam(20, set(), {1}, {9}, {9, 1})

    @pytest.mark.parametrize("name", ["universe_size", "masks", "sets"])
    def test_fields_cannot_be_assigned(self, name):
        for family in (fam(2, {0}), SetFamily._of_masks(2, (1,)), ip_family(3)):
            for _ in range(2):  # before and after the view is read
                with pytest.raises(AttributeError):
                    setattr(family, name, getattr(family, name))
                assert family.sets


class TestRealizedTypes:
    def test_two_point_family(self):
        assert realized_types(fam(2, {0}, {0, 1})) == {frozenset({0, 1}), frozenset({1})}

    def test_all_empty(self):
        assert realized_types(fam(1, set(), set())) == {frozenset()}

    def test_membership_family_realizes_all(self):
        f = fam(4, {1, 3}, {2, 3})  # subsets of {0,1} by binary encoding
        assert realized_types(f) == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
        }

    def test_never_empty(self):
        rng = random.Random(5)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(0, 4)
            f = fam(m, *({x for x in range(m) if rng.random() < 0.5} for _ in range(n)))
            assert realized_types(f)


class TestFullyCompleteExtension:
    def test_example(self):
        ext = fully_complete_extension(fam(2, {0}, {0, 1}))
        assert set(ext.consistency) == {Condition((0, 1), ()), Condition((1,), (0,))}
        assert set(ext.inconsistency) == {Condition((), (0, 1)), Condition((0,), (1,))}

    def test_single_point(self):
        ext = fully_complete_extension(fam(1, {0}))
        assert ext.consistency == (Condition((0,), ()),)
        assert ext.inconsistency == (Condition((), (0,)),)

    def test_ip_family_extension_has_empty_inconsistency(self):
        from patterna import ip_family

        ext = fully_complete_extension(ip_family(2))
        assert len(ext.consistency) == 4 and not ext.inconsistency

    def test_own_family_exhibits_extension(self):
        rng = random.Random(9)
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 4)
            f = fam(m, *({x for x in range(m) if rng.random() < 0.5} for _ in range(n)))
            ext = fully_complete_extension(f)
            assert classify(ext).fully_complete
            assert check_exhibits(f, ext).ok

    def test_matches_pattern_built_from_sorted_splits(self):
        # the splits, built in canonical order and kept as built, against
        # the complete splits by size sorted into a Pattern
        rng = random.Random(17)
        for _ in range(60):
            m, n, density = rng.randint(1, 80), rng.randint(0, 9), rng.random()
            f = fam(m, *({x for x in range(m) if rng.random() < density} for _ in range(n)))
            realized = realized_types(f)
            splits = complete_conditions(n)
            expected = Pattern(
                n,
                tuple(c for c in splits if frozenset(c.pos) in realized),
                tuple(c for c in splits if frozenset(c.pos) not in realized),
            ) if n else Pattern(0)
            ext = fully_complete_extension(f)
            assert ext == expected and hash(ext) == hash(expected)
            assert repr(ext) == repr(expected)

    def test_extension_refines_every_exhibited_pattern(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 4)
            p = random_pattern(rng, n, 5)
            decision = decide_exhibitable(p)
            if not decision.exhibitable:
                continue
            ext = fully_complete_extension(decision.witness)
            other = decide_exhibitable(ext)
            assert other.exhibitable
            assert check_exhibits(other.witness, p).ok


class TestUnionClosed:
    def base(self):
        return UnionClosedFamily.from_singletons(2, [{0}, {1}])

    def test_one_1_holds(self):
        assert check_one_n(self.base(), 1)

    def test_threshold_two_fails_for_disjoint(self):
        assert not check_one_n(self.base(), 2)

    def test_shared_point_fails_threshold_one(self):
        shared = UnionClosedFamily.from_singletons(1, [{0}, {0}])
        assert not check_one_n(shared, 1)

    def test_no_base_sets_holds_vacuously(self):
        assert check_one_n(UnionClosedFamily.from_singletons(1, []), 1)

    def test_malformed_count(self):
        with pytest.raises(MalformedUnionMap):
            UnionClosedFamily(2, fam(1, {0}))

    def test_union_representability_reverified(self):
        broken = UnionClosedFamily(1, fam(2, set(), {0, 1}))
        # base singleton {0} -> {0,1}? B_∅ must be ∅ ok, B_{0}={0,1}; unions ok
        assert union_representable(broken)
        broken2 = UnionClosedFamily(2, fam(2, set(), {0}, {1}, set()))
        assert not union_representable(broken2)
        assert not check_one_n(broken2, 1)


def test_no_point_pattern_has_no_family():
    # spot-check tiny families: none exhibits the contradictory pattern
    for m in (1, 2, 3):
        for bits in itertools.product((False, True), repeat=m):
            f = fam(m, {i for i in range(m) if bits[i]})
            assert not check_exhibits(f, NO_POINT).ok
