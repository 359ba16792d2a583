import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import patterna.decide
import patterna.patterns
from patterna import (
    EMPTY_CONDITION,
    CnfFormula,
    Condition,
    Decision,
    Literal,
    Pattern,
    SetFamily,
    brute_force_exhibitable,
    check_exhibits,
    condition_cnf,
    condition_trace,
    decide_exhibitable,
    gen_divline,
    pattern_from_cnf,
    sat_solve,
)
from patterna.bounds import ENV_VAR
from patterna.errors import BoundExceeded, WitnessVerificationFailure
from patterna.rand import random_condition

from patterna.decide import _clause_codes, _literals, _verified
from patterna.sat import CompiledCnf

from conftest import (
    NO_POINT,
    UNION_SPLIT,
    all_conditions,
    dpll_reference,
    random_cnf,
    random_pattern,
    truth_table_sat,
)


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


#: one small pattern of each gen_divline kind
NAMED_DIVLINE = [gen_divline(kind, **params) for kind, params in (
    ("op", {"n": 3}), ("ip", {"n": 3}), ("sop", {"n": 4}), ("cm", {"n": 2}),
    ("ktp", {"b": 2, "d": 2, "k": 2}), ("tp1", {"b": 2, "d": 2}),
    ("ktp2", {"b": 3, "d": 2, "k": 2}), ("cooper", {"n": 3}), ("pmchar", {"n": 3}))]


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


def messy_pattern(rng):
    """A random pattern whose raw inconsistency side repeats conditions and
    includes conditions with overlapping parts (tautological clauses)."""
    n = rng.randint(1, 6)
    incons = [random_condition(rng, n) for _ in range(rng.randint(0, 8))]
    incons += rng.choices(incons, k=rng.randint(0, 3)) if incons else []
    k = rng.randrange(n)
    incons.append(cond([k], [k]))
    cons = [random_condition(rng, n) for _ in range(rng.randint(0, 4))]
    return Pattern(n, tuple(cons), tuple(incons))


class TestCompiledClauses:
    def test_codes_are_cnf_normal_form(self):
        # sorted, the clauses are the ones built literal by literal and
        # normalised by CnfFormula, as codes 2 * variable + negated; the
        # search does not depend on their order, so they keep the pattern's
        rng = random.Random(17)
        for _ in range(300):
            p = messy_pattern(rng)
            formula = CnfFormula(
                p.n,
                tuple(
                    tuple(Literal(i, True) for i in z.pos) + tuple(Literal(j) for j in z.neg)
                    for z in p.inconsistency
                ),
            )
            codes = tuple(tuple(2 * l.variable + l.negated for l in c) for c in formula.clauses)
            compiled = CompiledCnf(p.n, _clause_codes(p))
            assert tuple(sorted(tuple(sorted(c)) for c in compiled.clauses)) == codes
            # one clause per condition with disjoint parts, none tautological
            disjoint = [z for z in p.inconsistency if set(z.pos).isdisjoint(z.neg)]
            assert len(compiled.clauses) == len(disjoint)
            assert all(set(c).isdisjoint(code ^ 1 for code in c) for c in compiled.clauses)

    def test_compiled_solve_matches_formula_and_reference(self):
        rng = random.Random(18)
        for _ in range(200):
            p = messy_pattern(rng)
            compiled = CompiledCnf(p.n, _clause_codes(p))
            conditions = [*p.consistency, EMPTY_CONDITION]
            conditions += [random_condition(rng, p.n) for _ in range(3)]
            for c in conditions:
                formula = condition_cnf(p, c)
                expected = sat_solve(formula)
                assert sat_solve(compiled, assumptions=_literals(c)) == expected
                assert expected == dpll_reference(formula)

    def test_solver_gets_the_shared_clauses(self, monkeypatch):
        # every solve decide makes is on the clauses of condition_cnf(p),
        # passed first and positionally
        rng = random.Random(19)
        sizes = []

        def recording(*args, **kwargs):
            sizes.append(len(args[0].clauses))
            return sat_solve(*args, **kwargs)

        monkeypatch.setattr(patterna.decide, "sat_solve", recording)
        for _ in range(150):
            p = messy_pattern(rng)
            sizes.clear()
            decide_exhibitable(p)
            assert sizes and set(sizes) == {len(condition_cnf(p).clauses)}


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

    def test_types_stay_index_sets(self, monkeypatch):
        # decide sets each model's true indices straight into the witness's
        # columns: its skip test reads no Condition mask, and no type is
        # packed into a mask or unpacked from one.  The re-verification is
        # check_exhibits', whose type lookup reads the masks of complete
        # patterns such as op, so reads inside it are not counted.
        reads, verifying = [], []
        get = patterna.patterns._Mask.__get__

        def counting(self, cond, owner=None):
            if cond is not None and not verifying:
                reads.append(self.part)
            return get(self, cond, owner)

        def verified(fam, p):
            verifying.append(p)
            try:
                return check_exhibits(fam, p)
            finally:
                verifying.pop()

        def refused(*args):
            raise AssertionError("decide converted a type between masks and indices")

        monkeypatch.setattr(patterna.patterns._Mask, "__get__", counting)
        monkeypatch.setattr(patterna.decide, "subset_index", refused)
        monkeypatch.setattr(patterna.decide, "_bits", refused)
        monkeypatch.setattr(patterna.decide, "check_exhibits", verified)
        wide = Pattern(2**16, (((2**16 - 1,), ()),), ())
        answers = [decide_exhibitable(p).exhibitable for p in (NO_POINT, UNION_SPLIT, *NAMED_DIVLINE, wide)]
        assert reads == []
        assert answers[0] is False and answers[1] is True and answers[-1] is True

    def test_exhibitable_iff_witness(self):
        rng = random.Random(2)
        for _ in range(150):
            p = random_pattern(rng, rng.randint(0, 4), 5)
            d = decide_exhibitable(p)
            assert d.exhibitable == (d.witness is not None)
            assert (not d.exhibitable) == (d.failing_condition is not None)
            if d.exhibitable:
                assert check_exhibits(d.witness, p).ok

    def test_witness_points_follow_the_lexicographic_type_order(self):
        # the types {1} (mask 2) and {0, 5} (mask 33) are both forced; the
        # witness lists {0, 5} first, since its condition comes first in
        # canonical order, which here is also how sorted index lists order
        # the types, though integer order of the masks would put {1} first
        p = Pattern(6, (cond([1], [0, 2, 3, 4, 5]), cond([0, 5], [1, 2, 3, 4])))
        for decision in (decide_exhibitable(p), brute_force_exhibitable(p)):
            assert decision.witness.masks == (0b01, 0b10, 0, 0, 0, 0b01)
        witness = SetFamily._of_types(6, [(0, 5), (1,)])
        assert _verified(p, witness) == Decision(True, witness, None)
        with pytest.raises(WitnessVerificationFailure):
            _verified(p, SetFamily._of_types(6, [(0, 5)]))

    def test_points_keep_choice_order(self, monkeypatch):
        # point k is the type solved for the first condition, in canonical
        # order, that points 0..k-1 do not trace, and there is one point per
        # solve; choice2 puts {1} first, though the lexicographic order of
        # the types' index lists would put {0, 1} first
        solves = []

        def counting(*args, **kwargs):
            solves.append(args)
            return sat_solve(*args, **kwargs)

        monkeypatch.setattr(patterna.decide, "sat_solve", counting)
        choice2 = Pattern(2, (cond([], [0]), cond([0])))
        assert decide_exhibitable(choice2).witness.masks == (0b10, 0b11)
        rng = random.Random(2202)
        patterns = [choice2, *NAMED_DIVLINE, *(random_pattern(rng, rng.randint(0, 7), 8) for _ in range(400))]
        exhibitable = 0
        for p in patterns:
            solves.clear()
            decision = decide_exhibitable(p)
            if not decision.exhibitable:
                continue
            exhibitable += 1
            fam = decision.witness
            assert fam.universe_size == len(solves)
            traces = [condition_trace(fam, c) for c in p.consistency or (EMPTY_CONDITION,)]
            for k in range(fam.universe_size):
                assert k in next(t for t in traces if min(t) >= k), (p, k)
        assert exhibitable > 150

    def test_peak_memory_follows_the_witness_not_the_types(self):
        # each pair condition needs a solve of its own, and its model sets
        # about n indices true; the witness keeps them as n small column
        # masks, so eight conditions peak little above one (a type kept as a
        # set of its indices would add about 1 MiB per condition here)
        n = 2**14

        def peak(k):
            p = Pattern(n, tuple(cond([n - 1 - i], [n - 2 - i]) for i in range(k)))
            tracemalloc.start()
            try:
                assert decide_exhibitable(p).witness.universe_size == k
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) - peak(1) < 3 * 2**20

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

    def test_bound(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(BoundExceeded):
            brute_force_exhibitable(Pattern(17))
        monkeypatch.setenv(ENV_VAR, "17")
        assert brute_force_exhibitable(Pattern(17)).exhibitable

    def test_one_point_per_distinct_type(self):
        # ({0}, ∅) and ({0}, {1}) share their least type {0}, which gets one
        # point, where it is first chosen
        p = Pattern(2, (cond([0]), cond([0], [1]), cond([1])))
        assert brute_force_exhibitable(p).witness.masks == (0b01, 0b10)

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


@st.composite
def planted_patterns(draw):
    """(p, trapped): an n-pattern for n in 17..64, too wide for the brute-force
    oracle, with its answer planted.  No inconsistency condition holds of 1-3
    hidden types, and each consistency condition is realised by one of them,
    so p is exhibitable unless it is trapped: then one more consistency
    condition, realised by no hidden type, is extended by inconsistency
    conditions on every split of 1-3 further indices, which leaves no type for it."""
    n = draw(st.integers(17, 64))
    index = st.integers(0, n - 1)
    hidden = draw(st.lists(st.frozensets(index, max_size=n), min_size=1, max_size=3))

    def part(indices):
        return draw(st.frozensets(st.sampled_from(sorted(indices)), max_size=4)) if indices else frozenset()

    def realised_by_none():
        pos, neg = set(part(range(n))), set(part(range(n)))
        neg -= pos
        for h in hidden:
            if h.issuperset(pos) and h.isdisjoint(neg):
                i = draw(st.sampled_from(sorted(set(range(n)) - pos - neg)))
                (neg if i in h else pos).add(i)
        return pos, neg

    consistency = []
    for h in draw(st.lists(st.sampled_from(hidden), min_size=1, max_size=6)):
        pos, neg = part(h), part(set(range(n)) - h)
        if pos or neg:
            consistency.append(Condition(tuple(pos), tuple(neg)))
    inconsistency = [Condition(tuple(pos), tuple(neg))
                     for pos, neg in (realised_by_none() for _ in range(draw(st.integers(0, 12))))]
    trapped = draw(st.booleans())
    if trapped:
        pos, neg = realised_by_none()
        consistency.append(Condition(tuple(pos), tuple(neg)))
        rest = sorted(set(range(n)) - pos - neg)
        split = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
        for signs in itertools.product((True, False), repeat=len(split)):
            inconsistency.append(Condition(tuple(pos) + tuple(i for i, s in zip(split, signs) if s),
                                           tuple(neg) + tuple(i for i, s in zip(split, signs) if not s)))
    return Pattern(n, consistency, inconsistency), trapped


def _renamed(p: Pattern, rename) -> Pattern:
    """p with each condition's parts mapped by rename(pos, neg) -> (pos, neg)."""
    return Pattern(p.n, *([Condition(*rename(c.pos, c.neg)) for c in side]
                          for side in (p.consistency, p.inconsistency)))


class TestMetamorphic:
    """Relations between decisions above the brute-force bound, where no
    oracle can scan the types."""

    @settings(max_examples=100, deadline=None)
    @given(planted_patterns(), st.data())
    def test_permutation_polarity_and_padding(self, planted, data):
        p, trapped = planted
        decision = decide_exhibitable(p)
        assert decision.exhibitable is not trapped
        n = p.n
        # an index permutation σ: σ(p)'s witness, read back through σ, exhibits p
        sigma = data.draw(st.permutations(range(n)))
        permuted = decide_exhibitable(
            _renamed(p, lambda pos, neg: ([sigma[i] for i in pos], [sigma[j] for j in neg])))
        assert permuted.exhibitable is decision.exhibitable
        if permuted.exhibitable:
            w = permuted.witness
            assert check_exhibits(SetFamily(w.universe_size, [w.sets[sigma[i]] for i in range(n)]), p).ok
        # a polarity flip on S: the flipped pattern's witness, with its S-sets
        # complemented, exhibits p
        flip = data.draw(st.frozensets(st.integers(0, n - 1)))
        flipped = decide_exhibitable(_renamed(p, lambda pos, neg: (
            [i for i in pos if i not in flip] + [j for j in neg if j in flip],
            [j for j in neg if j not in flip] + [i for i in pos if i in flip])))
        assert flipped.exhibitable is decision.exhibitable
        if flipped.exhibitable:
            w = flipped.witness
            assert check_exhibits(SetFamily(w.universe_size, [
                w.universe - s if i in flip else s for i, s in enumerate(w.sets)]), p).ok
        # padding by unused indices
        padded = Pattern(n + data.draw(st.integers(1, 8)), p.consistency, p.inconsistency)
        assert decide_exhibitable(padded).exhibitable is decision.exhibitable

    @settings(max_examples=100, deadline=None)
    @given(planted_patterns(), st.data())
    def test_monotone_in_each_side(self, planted, data):
        # fewer inconsistency conditions forbid fewer types, and more
        # consistency conditions ask for more of them
        p, trapped = planted
        if trapped:
            index = st.integers(0, p.n - 1)
            pos, neg = data.draw(st.tuples(st.frozensets(index, max_size=4),
                                           st.frozensets(index, max_size=4)).filter(any))
            more = Pattern(p.n, p.consistency + (Condition(tuple(pos), tuple(neg)),), p.inconsistency)
            assert not decide_exhibitable(more).exhibitable
        else:
            for i in range(len(p.inconsistency)):
                fewer = Pattern(p.n, p.consistency, p.inconsistency[:i] + p.inconsistency[i + 1:])
                assert decide_exhibitable(fewer).exhibitable


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


class TestIndexBound:
    def test_huge_n_refused_before_compiling(self, tmp_path):
        # in a child process with its address space capped at 1.5 GB: the
        # 2 * n occurrence lists for n = 10**8 would exceed it
        (tmp_path / "p.json").write_text('{"n": 100000000}')
        script = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
            "from patterna import Pattern, cli, decide_exhibitable\n"
            "from patterna.errors import BoundExceeded\n"
            "try:\n"
            "    decide_exhibitable(Pattern(2**20 + 1))\n"
            "except BoundExceeded as exc:\n"
            "    print(exc)\n"
            "sys.exit(cli.run(['decide', sys.argv[1]]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "p.json")],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == "n=1048577 exceeds the pattern index bound 2**20\n"
        assert "n=100000000 exceeds the pattern index bound 2**20" in done.stderr
        assert "MemoryError" not in done.stderr

    def test_huge_index_refused_before_any_mask(self, tmp_path):
        # a mask as wide as index 10**11 - 1 would take 12.5 GB, and one as
        # wide as 10**20 - 1 cannot be built at all: parsing builds none, so
        # decide and dimacs reach the index bound, in a child process capped
        # at 1.5 GB as above
        for n in (10**11, 10**20):
            (tmp_path / f"{n}.json").write_text(f'{{"n": {n}, "consistency": [[[{n - 1}], []]], '
                                                f'"inconsistency": [[[{n - 1}], [0]]]}}')
        script = (
            "import contextlib, io, resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
            "from patterna import Condition, cli\n"
            "print(Condition((10**9,), ()))\n"
            "for path in sys.argv[1:]:\n"
            "    for command in ('decide', 'dimacs'):\n"
            "        err = io.StringIO()\n"
            "        with contextlib.redirect_stderr(err):\n"
            "            code = cli.run([command, path, '--witness'] if command == 'decide' else [command, path])\n"
            "        print(code, err.getvalue(), end='')\n"
        )
        env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / f"{10**11}.json"), str(tmp_path / f"{10**20}.json")],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["Condition(pos=(1000000000,), neg=())"] + [
            f"2 error: n={n} exceeds the pattern index bound 2**20" for n in (10**11, 10**11, 10**20, 10**20)]

    def test_mask_reads_keep_nothing(self, tmp_path):
        # 40,000 conditions at indices up to 2**16 - 1: their masks would take
        # about 230 MB if each read kept one, over the 150 MB address-space cap
        # of this child process; decide itself needs about 50 MB here
        n = 2**16
        doc = {"n": n, "consistency": [[[n - 1 - i], []] for i in range(40000)]}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        script = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (150_000_000, hard))\n"
            "from patterna import cli\n"
            "sys.exit(cli.run(['decide', sys.argv[1]]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "p.json")],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"exhibitable": True, "failing": None, "witness": None}

    def test_bound_follows_the_env_exponent(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "4")
        decision = decide_exhibitable(Pattern(16, (cond([15], [0]),)))
        assert decision.exhibitable and decision.witness.universe_size == 1
        with pytest.raises(BoundExceeded, match=r"n=17 exceeds the pattern index bound 2\*\*4"):
            decide_exhibitable(Pattern(17))
