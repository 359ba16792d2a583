import random

import pytest

from patterna import (
    Condition,
    MembershipStructure,
    Pattern,
    SetFamily,
    atomless_pm_witness,
    canonical_char_family,
    check_char_property,
    check_exhibits,
    check_membership_structure,
    check_one_n,
    cm_from_doubled_witness,
    decide_exhibitable,
    disjoint_one1_family,
    double_positive,
    ip_family,
    membership_column_family,
    membership_structure,
    pm_char_reduction,
    powerset_sm_witness,
)
from patterna.constructions import first_primes
from patterna.errors import (
    BoundExceeded,
    CharacterizationPropertyViolated,
    NotFullyComplete,
    NotReasonablePositive,
    PreconditionFailure,
    UnsupportedParams,
)
from patterna.patterns import subset_index
from patterna.rand import random_condition, random_consistency_pattern, random_reasonable_positive

from conftest import disjoint_conditions, fully_complete_patterns


def random_k_bounded(rng, n, max_consistency, max_inconsistency, k):
    """random_reasonable_positive with each inconsistency condition drawn as a
    k-subset of [0, n), n >= k: a candidate inside a consistency condition is
    dropped, with 20 * (wanted + 1) draws at most."""
    cons = [random_condition(rng, n, positive=True) for _ in range(rng.randint(0, max_consistency))]
    incons, want = [], rng.randint(0, max_inconsistency)
    for _ in range(20 * (want + 1)):
        if len(incons) == want:
            break
        z = Condition(tuple(rng.sample(range(n), k)), ())
        if not any(set(z.pos) <= set(c.pos) for c in cons):
            incons.append(z)
    return Pattern(n, tuple(cons), tuple(incons))


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


class TestPowersetWitness:
    def test_branch_one_example(self):
        p = Pattern(2, (cond([], [0, 1]), cond([0, 1])), (cond([0], [1]), cond([1], [0])))
        w = powerset_sm_witness(p)
        assert w.universe_size == 4
        assert w.sets == (frozenset({1}), frozenset({1}))

    def test_branch_two_example(self):
        p = Pattern(1, (cond([0]),), (cond([], [0]),))
        w = powerset_sm_witness(p)
        assert w.sets[0] == w.universe

    def test_rejects_non_fully_complete(self):
        with pytest.raises(NotFullyComplete):
            powerset_sm_witness(Pattern(1, (cond([0]),)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        for p in fully_complete_patterns(n):
            w = powerset_sm_witness(p)  # self-verifying
            assert check_exhibits(w, p).ok


class TestAtomlessWitness:
    def test_example(self):
        p = Pattern(3, (cond([0, 1]), cond([1, 2])), (cond([0, 2]),))
        w = atomless_pm_witness(p)
        assert w.sets == (frozenset({0}), frozenset({0, 1}), frozenset({1}))

    def test_no_consistency_side(self):
        p = Pattern(1, (), (cond([0]),))
        w = atomless_pm_witness(p)
        assert w.universe_size == 1 and w.sets == (frozenset(),)

    def test_rejects_non_positive(self):
        with pytest.raises(NotReasonablePositive):
            atomless_pm_witness(Pattern(2, (cond([0], [1]),)))

    def test_random_reasonable_positive(self):
        rng = random.Random(21)
        for _ in range(150):
            p = random_reasonable_positive(rng, rng.randint(0, 6), 5, 5)
            assert check_exhibits(atomless_pm_witness(p), p).ok

    def test_uniform_inconsistency_size_slice(self):
        # patterns whose inconsistency conditions all have one fixed size are
        # still covered by the disjoint-pieces witness
        from patterna import is_k_bounded

        rng = random.Random(22)
        for _ in range(80):
            k = rng.choice((2, 3))
            p = random_k_bounded(rng, rng.randint(k, 6), 5, 5, k)
            assert is_k_bounded(p, k)
            assert check_exhibits(atomless_pm_witness(p), p).ok


class TestPmCharReduction:
    def test_canonical_single_condition(self):
        p = Pattern(2, (cond([0, 1]),))
        fam = pm_char_reduction(canonical_char_family(1), p)
        assert fam.sets == (frozenset({0}), frozenset({0}))

    def test_canonical_two_conditions(self):
        p = Pattern(2, (cond([0]), cond([1])), (cond([0, 1]),))
        fam = pm_char_reduction(canonical_char_family(2), p)
        assert fam.sets == (frozenset({0}), frozenset({1}))

    def test_property_violation_detected(self):
        # all sets equal: traces always intersect, subsets often do not
        broken = SetFamily(1, (frozenset({0}), frozenset({0})))
        assert not check_char_property(broken, 1)
        p = Pattern(1, (cond([0]),))
        with pytest.raises(CharacterizationPropertyViolated):
            pm_char_reduction(broken, p)

    def test_canonical_family_satisfies_property(self):
        for k in range(4):
            assert check_char_property(canonical_char_family(k), k)

    def test_random_patterns(self):
        rng = random.Random(31)
        for _ in range(60):
            p = random_reasonable_positive(rng, rng.randint(0, 5), 4, 4)
            fam = pm_char_reduction(canonical_char_family(len(p.consistency)), p)
            assert check_exhibits(fam, p).ok


class TestDoublingTruncation:
    def test_end_to_end(self):
        p = Pattern(2, (cond([0], [1]),))
        decision = decide_exhibitable(double_positive(p))
        truncated = cm_from_doubled_witness(decision.witness, p)
        assert check_exhibits(truncated, p).ok

    def test_empty_consistency(self):
        p = Pattern(1)
        decision = decide_exhibitable(double_positive(p))
        truncated = cm_from_doubled_witness(decision.witness, p)
        assert check_exhibits(truncated, p).ok

    def test_rejects_non_witness(self):
        p = Pattern(2, (cond([0], [1]),))
        bogus = SetFamily(1, (frozenset(), frozenset(), frozenset(), frozenset()))
        with pytest.raises(PreconditionFailure):
            cm_from_doubled_witness(bogus, p)


class TestIpFamily:
    def test_encoding(self):
        fam = ip_family(2)
        assert fam.universe_size == 4
        assert fam.sets == (frozenset({1, 3}), frozenset({2, 3}))

    def test_exhibits_ip_pattern(self):
        from patterna import ip_pattern

        assert check_exhibits(ip_family(2), ip_pattern(2)).ok

    def test_zero(self):
        fam = ip_family(0)
        assert fam.universe_size == 1 and fam.sets == ()

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            ip_family(17)

    def test_exhibits_random_consistency_patterns(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(0, 4)
            p = random_consistency_pattern(rng, n, 6)
            assert check_exhibits(ip_family(n), p).ok


class TestDisjointFamilies:
    def test_atoms_layout(self):
        fam = disjoint_one1_family(2, "atoms")
        assert fam.base_set(0) == {0} and fam.base_set(1) == {1}
        assert fam.family.sets[subset_index({0, 1})] == {0, 1}
        assert fam.family.sets[subset_index(())] == frozenset()
        assert check_one_n(fam, 1)

    def test_skolem_labels(self):
        fam = disjoint_one1_family(3, "skolem")
        assert fam.point_labels == ("2", "3", "5")
        assert fam.set_labels[subset_index({0, 2})] == "10"
        assert fam.family.sets[subset_index({0, 2})] == {0, 2}

    def test_labels_match_direct_formula(self):
        # each union is labelled by its atoms in ascending order ("0" when
        # empty), or by the product of its points' primes
        for n in range(1, 11):
            primes = first_primes(n)
            members = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
            atoms = disjoint_one1_family(n, "atoms")
            assert atoms.set_labels == tuple(
                "∪".join(f"a{i}" for i in m) or "0" for m in members
            )
            skolem = disjoint_one1_family(n, "skolem")
            expected = []
            for m in members:
                product = 1
                for i in m:
                    product *= primes[i]
                expected.append(str(product))
            assert skolem.set_labels == tuple(expected)

    def test_not_one_2(self):
        for n in (2, 3, 4):
            assert not check_one_n(disjoint_one1_family(n), 2)

    def test_flavor_validation(self):
        with pytest.raises(UnsupportedParams):
            disjoint_one1_family(2, "unknown")
        with pytest.raises(UnsupportedParams):
            disjoint_one1_family(0)

    def test_first_primes(self):
        assert first_primes(6) == [2, 3, 5, 7, 11, 13]


class TestMembership:
    def test_n2(self):
        s = membership_structure(2)
        assert len(s.algebra_elements) == 4
        assert check_membership_structure(s) == []
        assert check_one_n(membership_column_family(s), 1)

    def test_n1(self):
        s = membership_structure(1)
        assert set(s.algebra_elements) == {frozenset(), frozenset({0})}

    def test_corrupted_relation_fails(self):
        s = membership_structure(2)
        corrupted = MembershipStructure(
            s.s_size, s.algebra_elements, s.relation | {(0, 0)}
        )
        problems = check_membership_structure(corrupted)
        assert problems
        assert any("complement" in p or "disagrees" in p for p in problems)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            membership_structure(9)

    def test_columns_skip_pairs_outside_the_sorts(self):
        # structures are not validated on construction: a pair naming no
        # point or no element, negative ones included, is reported as out of
        # range and adds nothing to any column
        s = membership_structure(2)
        stray = {(2, 1), (-1, 1), (0, 4), (0, -1)}
        corrupted = MembershipStructure(s.s_size, s.algebra_elements, s.relation | stray)
        assert membership_column_family(corrupted) == membership_column_family(s)
        problems = check_membership_structure(corrupted)
        assert sorted(problems) == sorted(f"relation pair ({i}, {idx}) out of range" for i, idx in stray)

    def test_pinned_problem_lists(self):
        # recorded before the checks moved to element masks
        s2, s3 = membership_structure(2), membership_structure(3)
        elements = list(s2.algebra_elements)
        elements[3] = frozenset({0})
        cases = [
            (MembershipStructure(2, s2.algebra_elements, s2.relation | {(0, 0)}), [
                "relation disagrees with membership on element #0",
                "map fails to preserve intersection of #0 and #2",
                "map fails to preserve intersection of #1 and #2",
                "map fails to preserve complement of #0",
                "map fails to preserve complement of #3",
            ]),
            (MembershipStructure(2, s2.algebra_elements, s2.relation | {(2, 1), (-1, 1), (0, 4), (0, -1)}), [
                "relation pair (0, 4) out of range",
                "relation pair (2, 1) out of range",
                "relation pair (-1, 1) out of range",
                "relation pair (0, -1) out of range",
            ]),
            (MembershipStructure(2, tuple(elements), s2.relation), [
                "algebra does not contain the full point set",
                "algebra not closed under complement of #0",
                "relation disagrees with membership on element #3",
                "map fails to preserve intersection of #1 and #1",
                "map fails to preserve intersection of #1 and #3",
                "map fails to preserve intersection of #2 and #3",
                "map fails to preserve complement of #2",
                "map fails to preserve complement of #3",
            ]),
            (MembershipStructure(2, s2.algebra_elements[:3], frozenset(p for p in s2.relation if p[1] < 3)), [
                "algebra does not contain the full point set",
                "algebra not closed under complement of #0",
            ]),
            (MembershipStructure(3, s3.algebra_elements, frozenset(((i + 1) % 3, idx) for i, idx in s3.relation)),
             [f"relation disagrees with membership on element #{idx}" for idx in range(1, 7)]),
            (MembershipStructure(3, s3.algebra_elements, s3.relation - {(1, 3), (2, 7)}), [
                "relation disagrees with membership on element #3",
                "relation disagrees with membership on element #7",
                "image of the top element is not the full point set",
                "map fails to preserve intersection of #2 and #3",
                "map fails to preserve intersection of #3 and #6",
                "map fails to preserve intersection of #4 and #7",
                "map fails to preserve intersection of #5 and #7",
                "map fails to preserve intersection of #6 and #7",
                "map fails to preserve complement of #0",
                "map fails to preserve complement of #3",
                "map fails to preserve complement of #4",
                "map fails to preserve complement of #7",
            ]),
        ]
        for structure, expected in cases:
            assert check_membership_structure(structure) == expected

    def test_element_outside_the_point_sort_is_reported_once(self):
        # such an element has no mask: it is named once and left out of the
        # closure, agreement and homomorphism checks
        s = membership_structure(2)
        for stray in ({2}, {-1}, {0, 5}, {"0"}, {True}, {1.0}):
            structure = MembershipStructure(2, s.algebra_elements[:3] + (frozenset(stray),), s.relation)
            assert check_membership_structure(structure) == [
                "algebra element #3 leaves the point sort",
                "algebra does not contain the full point set",
                "algebra not closed under complement of #0",
            ]
        elements = (frozenset({7}),) + s.algebra_elements
        shifted = frozenset((i, idx + 1) for i, idx in s.relation)
        assert check_membership_structure(MembershipStructure(2, elements, shifted)) == [
            "algebra element #0 leaves the point sort"]

    def test_columns_need_a_point(self):
        empty = MembershipStructure(0, (frozenset(),), frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            membership_column_family(empty)


class TestPrincipalUpsets:
    def test_powerset_witness_is_disjoint_union_closed(self):
        # the atoms construction applied to the principal-up-set pattern must
        # produce the same shape the decision witness does: disjoint base
        # sets with every union traced
        from patterna import UnionClosedFamily, cooper_pattern

        for n in (1, 2, 3):
            p = cooper_pattern(n)
            witness = powerset_sm_witness(p)
            ufam = UnionClosedFamily(n, witness)
            assert check_one_n(ufam, 1)

    def test_skolem_label_products(self):
        fam = disjoint_one1_family(6, "skolem")
        from patterna.patterns import subset_index

        assert fam.set_labels[subset_index(range(6))] == "30030"
        assert fam.set_labels[subset_index(())] == "1"


class TestWitnessesAgainstDecide:
    def test_positive_patterns_decide_exhibitable(self):
        rng = random.Random(41)
        for _ in range(60):
            p = random_reasonable_positive(rng, rng.randint(0, 5), 4, 4)
            assert decide_exhibitable(p).exhibitable

    def test_exhaustive_consistency_patterns_on_two_indices(self):
        fam = ip_family(2)
        conditions = disjoint_conditions(2)
        for mask in range(1 << len(conditions)):
            p = Pattern(2, tuple(c for i, c in enumerate(conditions) if mask >> i & 1))
            assert check_exhibits(fam, p).ok
