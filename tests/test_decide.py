import random

import pytest

import patterna.decide
from patterna import (
    EMPTY_CONDITION,
    Condition,
    Literal,
    Pattern,
    SetFamily,
    brute_force_exhibitable,
    check_exhibits,
    condition_cnf,
    decide_exhibitable,
    pattern_from_cnf,
    sat_solve,
)
from patterna.errors import BoundExceeded
from patterna.rand import random_cnf, random_condition, random_pattern

from conftest import NO_POINT, UNION_SPLIT, all_conditions, truth_table_sat


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


class TestConditionCnf:
    def test_sentinel_on_contradictory_pattern_unsat(self):
        f = condition_cnf(NO_POINT)
        assert f.clauses == ((Literal(0),), (Literal(0, True),))
        assert sat_solve(f) is None

    def test_units_plus_inconsistency_clause(self):
        p = Pattern(2, (cond([0]),), (cond([0, 1]),))
        f = condition_cnf(p, p.consistency[0])
        assignment = sat_solve(f)
        assert assignment == {0: True, 1: False}

    def test_units_only(self):
        p = Pattern(2, (cond([0], [1]),))
        assert sat_solve(condition_cnf(p, p.consistency[0])) is not None

    def test_assumptions_match_per_condition_formula(self):
        rng = random.Random(21)
        for _ in range(200):
            p = random_pattern(rng, rng.randint(1, 5), 6)
            k = rng.randrange(p.n)
            # random_condition draws pos and neg independently, so they may overlap
            conditions = [*p.consistency, cond([k], [k])]
            conditions += [random_condition(rng, p.n) for _ in range(3)]
            for c in conditions:
                literals = [Literal(i) for i in c.pos] + [Literal(j, True) for j in c.neg]
                assert sat_solve(condition_cnf(p), assumptions=literals) == sat_solve(
                    condition_cnf(p, c)
                )

    def test_overlapping_inconsistency_condition_is_vacuous(self):
        # a condition with pos∩neg nonempty can never be traced; its clause
        # is tautological and normalization drops it
        p = Pattern(1, (cond([0]),), (cond([0], [0]),))
        assert decide_exhibitable(p).exhibitable


class TestDecide:
    def test_no_point_pattern(self):
        decision = decide_exhibitable(NO_POINT)
        assert not decision.exhibitable
        assert decision.failing_condition == EMPTY_CONDITION
        assert decision.witness is None

    def test_union_split_pattern(self):
        decision = decide_exhibitable(UNION_SPLIT)
        assert decision.exhibitable
        assert check_exhibits(decision.witness, UNION_SPLIT).ok

    def test_fully_complete_example(self):
        p = Pattern(
            2,
            (cond([], [0, 1]), cond([0, 1])),
            (cond([0], [1]), cond([1], [0])),
        )
        assert decide_exhibitable(p).exhibitable

    def test_failing_condition_is_first_in_canonical_order(self):
        p = Pattern(2, (cond([0]), cond([1])), (cond([0]), cond([1])))
        decision = decide_exhibitable(p)
        assert decision.failing_condition == cond([0])

    def test_realised_condition_is_not_solved(self, monkeypatch):
        # the type chosen for ({0}, ∅) is {0, 1}, which realises ({0, 1}, ∅)
        p = Pattern(2, (cond([0]), cond([0, 1])))
        calls = []

        def counting(formula, assumptions=()):
            calls.append(tuple(assumptions))
            return sat_solve(formula, assumptions=assumptions)

        monkeypatch.setattr(patterna.decide, "sat_solve", counting)
        decision = decide_exhibitable(p)
        assert calls == [(Literal(0),)]
        assert decision.exhibitable and decision.witness.universe_size == 1

    def test_exhibitable_iff_witness(self):
        rng = random.Random(2)
        for _ in range(150):
            p = random_pattern(rng, rng.randint(0, 4), 5)
            d = decide_exhibitable(p)
            assert d.exhibitable == (d.witness is not None)
            assert (not d.exhibitable) == (d.failing_condition is not None)
            if d.exhibitable:
                assert check_exhibits(d.witness, p).ok

    def test_deterministic_witness(self):
        rng = random.Random(4)
        patterns = [random_pattern(rng, 4, 6) for _ in range(30)]
        assert [decide_exhibitable(p) for p in patterns] == [
            decide_exhibitable(p) for p in patterns
        ]


class TestBruteForce:
    def test_agrees_on_named_instances(self):
        assert not brute_force_exhibitable(NO_POINT).exhibitable
        assert brute_force_exhibitable(UNION_SPLIT).exhibitable

    def test_empty_pattern(self):
        d = brute_force_exhibitable(Pattern(0))
        assert d.exhibitable and d.witness.universe_size == 1 and d.witness.sets == ()
        d2 = brute_force_exhibitable(Pattern(2))
        assert d2.exhibitable and all(not s for s in d2.witness.sets)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            brute_force_exhibitable(Pattern(17))
        assert brute_force_exhibitable(Pattern(17), bound=17).exhibitable

    def test_random_agreement_up_to_six(self):
        rng = random.Random(6)
        for _ in range(400):
            p = random_pattern(rng, rng.randint(0, 6), 6)
            assert decide_exhibitable(p).exhibitable == brute_force_exhibitable(p).exhibitable

    def test_exhaustive_small_agreement(self):
        # all patterns with n=2 and at most 2 conditions
        conditions = all_conditions(2)
        patterns = [Pattern(2)]
        for c in conditions:
            patterns.append(Pattern(2, (c,), ()))
            patterns.append(Pattern(2, (), (c,)))
        for a in conditions:
            for b in conditions:
                patterns.append(Pattern(2, (a, b), ()))
                patterns.append(Pattern(2, (a,), (b,)))
                patterns.append(Pattern(2, (), (a, b)))
        for p in patterns:
            assert decide_exhibitable(p).exhibitable == brute_force_exhibitable(p).exhibitable


def family_search_exhibitable(p: Pattern) -> bool:
    """Third, fully semantic oracle: search over set families directly.

    Only the set of realized complete types matters for exhibition, so every
    exhibitable pattern has a witness whose points carry pairwise distinct
    types; enumerating all nonempty type sets T and running the trace-level
    check on the induced family covers the entire search space.
    """
    n = p.n
    type_masks = list(range(1 << n))
    for family_mask in range(1, 1 << len(type_masks)):
        types = [t for i, t in enumerate(type_masks) if family_mask >> i & 1]
        fam = SetFamily(
            len(types),
            tuple(
                frozenset(j for j, t in enumerate(types) if t >> i & 1)
                for i in range(n)
            ),
        )
        if check_exhibits(fam, p).ok:
            return True
    return False


class TestSemanticOracle:
    def test_exhaustive_two_indices(self):
        conditions = all_conditions(2)
        patterns = [Pattern(2)]
        patterns += [Pattern(2, (c,), ()) for c in conditions]
        patterns += [Pattern(2, (), (c,)) for c in conditions]
        patterns += [Pattern(2, (a,), (b,)) for a in conditions for b in conditions]
        for p in patterns:
            assert decide_exhibitable(p).exhibitable == family_search_exhibitable(p)

    def test_random_three_indices(self):
        rng = random.Random(33)
        for _ in range(150):
            p = random_pattern(rng, 3, 5)
            assert decide_exhibitable(p).exhibitable == family_search_exhibitable(p)


class TestReduction:
    def test_reduction_matches_truth_table(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_cnf(rng, rng.randint(1, 6), rng.randint(0, 7))
            assert decide_exhibitable(pattern_from_cnf(f)).exhibitable == truth_table_sat(f)

    def test_reduction_matches_truth_table_wide(self):
        rng = random.Random(88)
        for _ in range(25):
            f = random_cnf(rng, rng.randint(9, 12), rng.randint(4, 14))
            assert decide_exhibitable(pattern_from_cnf(f)).exhibitable == truth_table_sat(f)

    def test_monotone_under_condition_removal(self):
        rng = random.Random(12)
        checked = 0
        while checked < 60:
            p = random_pattern(rng, rng.randint(1, 4), 5)
            if not decide_exhibitable(p).exhibitable or not p.conditions:
                continue
            checked += 1
            for i in range(len(p.consistency)):
                smaller = Pattern(
                    p.n, p.consistency[:i] + p.consistency[i + 1 :], p.inconsistency
                )
                assert decide_exhibitable(smaller).exhibitable
            for i in range(len(p.inconsistency)):
                smaller = Pattern(
                    p.n, p.consistency, p.inconsistency[:i] + p.inconsistency[i + 1 :]
                )
                assert decide_exhibitable(smaller).exhibitable
