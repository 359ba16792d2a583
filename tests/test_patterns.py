import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from patterna import patterns
from patterna import (
    CnfFormula,
    Condition,
    Literal,
    Pattern,
    classify,
    cooper_pattern,
    decide_exhibitable,
    double_positive,
    gen_divline,
    ip_pattern,
    is_k_bounded,
    ktp2_pattern,
    ktp_pattern,
    op_pattern,
    pattern_from_cnf,
    pmchar_pattern,
    sop_pattern,
    tp1_pattern,
    validate_pattern,
)
from patterna.bounds import ENV_VAR
from patterna.errors import (
    BoundExceeded,
    DuplicateCondition,
    EmptyCondition,
    IndexOutOfRange,
    NotConsistencyPattern,
    UnsupportedParams,
)
from patterna.hypergraphs import pattern_from_hypergraph
from patterna.jsonio import pattern_from_dict
from patterna.rand import random_condition, random_consistency_pattern, random_hypergraph
from patterna.semantics import SetFamily, condition_trace, fully_complete_extension
from patterna.verify import all_disjoint_conditions, fully_complete_patterns

import conftest
from conftest import assert_parsed_as, complete_conditions, disjoint_conditions, random_cnf, reference_pattern


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


class TestValidate:
    def test_minimal_pattern(self):
        p = validate_pattern({"n": 2, "consistency": [[[0], []]], "inconsistency": []})
        assert p == Pattern(2, (cond([0]),))

    def test_empty_condition_rejected(self):
        with pytest.raises(EmptyCondition):
            validate_pattern({"n": 1, "consistency": [[[], []]], "inconsistency": []})

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate_pattern({"n": 1, "consistency": [[[1], []]], "inconsistency": []})

    def test_strict_duplicate(self):
        raw = {"n": 2, "consistency": [[[0], []], [[0], []]], "inconsistency": []}
        with pytest.raises(DuplicateCondition):
            validate_pattern(raw)
        lenient = validate_pattern(raw, strict=False)
        assert lenient.consistency == (cond([0]),)

    def test_canonical_order_and_dedup(self):
        p = Pattern(3, (cond([2, 0]), cond([0, 2]), cond([1])))
        assert p.consistency == (cond([0, 2]), cond([1]))

    @given(st.integers(1, 5), st.data())
    def test_idempotent(self, n, data):
        conds = disjoint_conditions(n)
        picks = data.draw(st.lists(st.sampled_from(conds), max_size=6))
        p = Pattern(n, tuple(picks))
        assert validate_pattern(p) == p
        assert Pattern(p.n, p.consistency, p.inconsistency) == p


def messy_document(rng):
    """A well-formed pattern document in every raw form a caller may use:
    unsorted and repeated indices within a pair, overlapping parts, list and
    tuple pairs mixed with Conditions, and repeats of a condition written in
    another order or form."""
    n = rng.randint(1, 5)
    doc = {"n": n}
    for name in ("consistency", "inconsistency"):
        keys = []
        for _ in range(rng.randint(0, 6)):
            pos = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            neg = [rng.randrange(n) for _ in range(rng.randint(0 if pos else 1, 4))]
            keys.append((pos, neg))
        keys += [rng.choice(keys) for _ in range(rng.randint(0, 2))] if keys else []
        items = []
        for pos, neg in keys:
            pos, neg = rng.sample(pos, len(pos)) + pos[:1], rng.sample(neg, len(neg))
            form = rng.randrange(3)
            items.append([pos, neg] if form == 0 else (tuple(pos), tuple(neg)) if form == 1
                         else Condition(pos, neg))
        rng.shuffle(items)
        doc[name] = rng.choice((list, tuple))(items)
    return doc


class TestOnePassParse:
    def test_matches_reference(self):
        rng = random.Random(31)
        repeats = 0
        for _ in range(600):
            doc = messy_document(rng)
            lenient = reference_pattern(doc, strict=False)
            assert_parsed_as(validate_pattern(doc, strict=False), lenient)
            assert_parsed_as(Pattern(doc["n"], doc["consistency"], doc["inconsistency"]), lenient)
            strict = reference_pattern(doc)
            if strict is None:
                repeats += 1
                with pytest.raises(DuplicateCondition):
                    validate_pattern(doc)
            else:
                assert_parsed_as(validate_pattern(doc), strict)
        assert 0 < repeats < 600  # both branches are exercised

    def test_non_integer_indices_rejected(self):
        for bad, shown in ((0.5, "0.5"), (True, "True"), (1.0, "1.0"), ("1", "'1'")):
            for sides in (lambda: ((Condition((bad,), ()),), ()), lambda: ((), (((0,), (bad,)),))):
                with pytest.raises(IndexOutOfRange) as caught:
                    Pattern(2, *sides())
                assert str(caught.value) == f"index {shown} is not an integer"
        with pytest.raises(IndexOutOfRange, match="index count must be a nonnegative integer"):
            Pattern(True)

    def test_malformed_containers_rejected(self):
        for side in ((({0}, ()),), ((("0",), ()),), (([0], "1"),), {((0,), ())}):
            with pytest.raises((TypeError, IndexOutOfRange)):
                Pattern(2, side)


class TestConditionMasks:
    @staticmethod
    def assert_masked(conditions):
        conditions = list(conditions)
        assert conditions
        for c in conditions:
            assert c.pos_mask == patterns.subset_index(c.pos), c
            assert c.neg_mask == patterns.subset_index(c.neg), c

    def test_every_builder_sets_the_masks(self):
        rng = random.Random(16)
        self.assert_masked([Condition((3, 0, 3), (5, 1)), Condition((), (2,)), Condition([1], []), Condition((), ())])
        parsed = []
        for doc in (messy_document(rng) for _ in range(50)):
            parsed += Pattern(doc["n"], doc["consistency"], doc["inconsistency"]).conditions
            parsed += validate_pattern(doc, strict=False).conditions
        self.assert_masked(parsed)
        for n in range(6):
            self.assert_masked(patterns.complete_conditions(n))
        for kind, params in (("op", {"n": 1}), ("ip", {"n": 1}), ("sop", {"n": 2}), ("cm", {"n": 1}),
                             ("cooper", {"n": 1}), ("pmchar", {"n": 0}), ("ktp", {"b": 2, "d": 1, "k": 2}),
                             ("tp1", {"b": 1, "d": 1}), ("ktp2", {"b": 2, "d": 1, "k": 2})):
            self.assert_masked(gen_divline(kind, **params).conditions)
        formula = CnfFormula(3, ((Literal(0), Literal(2, True)), (Literal(1, True),)))
        self.assert_masked(pattern_from_cnf(formula).conditions)
        self.assert_masked(double_positive(op_pattern(3)).conditions)
        self.assert_masked(pattern_from_hypergraph(random_hypergraph(rng, 2, 5, 0.5)).conditions)
        self.assert_masked(fully_complete_extension(SetFamily(5, [{0, 1}, {1, 4}, {2}, set()])).conditions)
        self.assert_masked(random_condition(rng, 6) for _ in range(30))
        self.assert_masked(all_disjoint_conditions(3))

    def test_masks_take_no_part_in_comparison(self):
        plain, odd = Condition((0,), ()), patterns._condition((0,), (), (6, 9))
        assert plain == odd and hash(plain) == hash(odd) and repr(odd) == repr(plain)
        assert repr(plain) == "Condition(pos=(0,), neg=())"
        # (0, 2) orders before (1,) although its mask, 5, is the larger
        assert Condition((0, 2), ()) < Condition((1,), ()) and not odd < plain

    def test_indices_without_a_mask_refused(self):
        for bad, message in ((0.5, "index 0.5 is not an integer"), (1.0, "index 1.0 is not an integer"),
                             ("1", "index '1' is not an integer"), (-1, "index -1 is negative"),
                             ([0], "index [0] is not an integer"), (True, "index True is not an integer")):
            for parts in (((bad,), ()), ((), (2, bad)), ((1, bad), (0,))):
                with pytest.raises(IndexOutOfRange) as caught:
                    Condition(*parts)
                assert str(caught.value) == message

    def test_reads_store_no_mask(self):
        # a read computes the mask and keeps nothing, so deciding, classifying
        # and tracing leave a parsed pattern's conditions as parsed; only
        # complete_conditions, which grows the masks, stores them
        p = pattern_from_dict({"n": 6, "consistency": [[[0, 2], [1]], [[3], []], [[], [4, 5]]],
                               "inconsistency": [[[1, 3], []], [[5], [0]]]})
        decision = decide_exhibitable(p)
        assert decision.exhibitable and not classify(p).positive
        assert all(condition_trace(decision.witness, c) for c in p.consistency)
        self.assert_masked(p.conditions)
        assert all(not {"pos_mask", "neg_mask"} & c.__dict__.keys() for c in p.conditions)
        splits = patterns.complete_conditions(4)
        assert all(c.__dict__.keys() >= {"pos_mask", "neg_mask"} for c in splits)
        self.assert_masked(splits)


class TestClassify:
    def test_sop3_flags(self):
        p = Pattern(3, (cond([1], [0]), cond([2], [1])), (cond([0], [1]), cond([1], [2])))
        flags = classify(p)
        assert flags.reasonable and not flags.positive

    def test_subset_violation(self):
        p = Pattern(2, (cond([0, 1]),), (cond([0]),))
        assert not classify(p).reasonable

    def test_all_splits_consistent_is_fully_complete(self):
        p = Pattern(2, (cond([0], [1]), cond([1], [0]), cond([0, 1]), cond([], [0, 1])))
        flags = classify(p)
        assert flags.complete and flags.fully_complete

    def test_overlapping_parts_not_reasonable(self):
        assert not classify(Pattern(2, (cond([0], [0, 1]),))).reasonable

    def test_empty_pattern_flags(self):
        flags = classify(Pattern(4))
        assert flags.reasonable and flags.positive and not flags.complete

    def test_cost_independent_of_n(self, tmp_path):
        # in a child process with its address space capped at 1.5 GB, which
        # anything linear in n = 10**8 would exceed
        (tmp_path / "p.json").write_text('{"n": 100000000}')
        script = (
            "import dataclasses, resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
            "from patterna import Condition, Pattern, classify, cli\n"
            "for p in (Pattern(10**8), Pattern(10**8, (Condition((0, 1), ()),), (Condition((1,), ()),))):\n"
            "    print(dataclasses.astuple(classify(p)))\n"
            "sys.exit(cli.run(['classify', sys.argv[1]]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "p.json")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:2] == [
            "(True, True, False, False, None, None)",
            "(False, True, False, False, 1, 1)",
        ]
        assert json.loads("\n".join(lines[2:])) == {
            "complete": False, "fully_complete": False, "k_bounded": None,
            "k_bounded_at_most": None, "positive": True, "reasonable": True,
        }

    def test_huge_index_refused_before_any_mask(self, tmp_path):
        # a mask as wide as index 10**11 - 1 would take 12.5 GB, and one as
        # wide as 10**20 - 1 cannot be built at all; in a child process capped
        # at 1.5 GB as above, classify exits 2 on the index bound instead
        for n in (10**11, 10**20):
            (tmp_path / f"{n}.json").write_text(f'{{"n": {n}, "consistency": [[[{n - 1}], []]]}}')
        script = (
            "import contextlib, io, resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
            "from patterna import cli\n"
            "for path in sys.argv[1:]:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = cli.run(['classify', path])\n"
            "    print(code, err.getvalue(), end='')\n"
        )
        env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
        done = subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / f"{n}.json") for n in (10**11, 10**20))],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"2 error: conditions over [0, {n}) exceed the pattern index bound 2**20" for n in (10**11, 10**20)]

    def test_k_bounded(self):
        p = Pattern(4, (), (cond([0, 1]), cond([2, 3])))
        flags = classify(p)
        assert flags.k_bounded == 2 and flags.k_bounded_at_most == 2
        mixed = Pattern(4, (), (cond([0, 1]), cond([1, 2, 3])))
        assert classify(mixed).k_bounded is None
        assert classify(mixed).k_bounded_at_most == 3
        assert is_k_bounded(Pattern(3), 7)  # vacuous with no inconsistency side


class TestGenerators:
    def test_op_example(self):
        assert op_pattern(2) == Pattern(2, (cond([0, 1]), cond([1], [0])))

    def test_ip_has_all_splits(self):
        p = ip_pattern(2)
        assert len(p.consistency) == 4 and not p.inconsistency
        assert classify(p).complete

    def test_sop(self):
        p = sop_pattern(3)
        assert p.consistency == (cond([1], [0]), cond([2], [1]))
        assert p.inconsistency == (cond([0], [1]), cond([1], [2]))

    def test_ktp_example(self):
        p = ktp_pattern(2, 2, 2)
        assert p.n == 7
        assert set(p.consistency) == {cond([0, 1, 3]), cond([0, 1, 4]), cond([0, 2, 5]), cond([0, 2, 6])}
        assert set(p.inconsistency) == {cond([1, 2]), cond([3, 4]), cond([5, 6])}

    def test_ktp_k_above_branching_rejected(self):
        with pytest.raises(UnsupportedParams):
            ktp_pattern(2, 2, 3)
        with pytest.raises(UnsupportedParams):
            ktp_pattern(3, 1, 1)

    def test_tp1_inconsistency_is_incomparability(self):
        p = tp1_pattern(2, 2)
        # incomparable pairs in {ε,0,1,00,01,10,11}: everything off a chain
        assert cond([1, 2]) in p.inconsistency
        assert cond([3, 4]) in p.inconsistency
        assert cond([4, 5]) in p.inconsistency
        assert cond([0, 1]) not in p.inconsistency
        assert cond([1, 3]) not in p.inconsistency

    def test_ktp2_shape(self):
        p = ktp2_pattern(2, 2, 2)
        assert p.n == 4
        assert set(p.consistency) == {cond([0, 2]), cond([0, 3]), cond([1, 2]), cond([1, 3])}
        assert set(p.inconsistency) == {cond([0, 1]), cond([2, 3])}

    def test_cooper_n1(self):
        p = cooper_pattern(1)
        assert p.consistency == (cond([1], [0]),)
        assert set(p.inconsistency) == {cond([], [0, 1]), cond([0], [1]), cond([0, 1])}
        assert classify(p).fully_complete

    def test_cooper_rejects_zero(self):
        with pytest.raises(UnsupportedParams):
            cooper_pattern(0)

    def test_pmchar_n1(self):
        # families over P(1) = {∅, {0}}: {∅} empty meet, {{0}} nonempty,
        # {∅,{0}} empty meet
        p = pmchar_pattern(1)
        assert p.consistency == (cond([1]),)
        assert set(p.inconsistency) == {cond([0]), cond([0, 1])}

    def test_every_kind_reasonable(self):
        cases = [
            ("op", {"n": 3}), ("ip", {"n": 3}), ("sop", {"n": 4}), ("cm", {"n": 2}),
            ("ktp", {"b": 2, "d": 2, "k": 2}), ("ktp", {"b": 3, "d": 1, "k": 2}),
            ("tp1", {"b": 2, "d": 2}), ("ktp2", {"b": 3, "d": 2, "k": 2}),
            ("cooper", {"n": 1}), ("cooper", {"n": 2}), ("cooper", {"n": 3}),
            ("pmchar", {"n": 0}), ("pmchar", {"n": 2}), ("pmchar", {"n": 3}),
        ]
        for kind, params in cases:
            flags = classify(gen_divline(kind, **params))
            assert flags.reasonable, (kind, params)

    def test_positive_kinds(self):
        assert classify(gen_divline("ktp", b=2, d=2, k=2)).positive
        assert classify(gen_divline("tp1", b=2, d=1)).positive
        assert classify(gen_divline("ktp2", b=2, d=2, k=2)).positive
        assert classify(gen_divline("pmchar", n=2)).positive

    def test_no_inconsistency_kinds(self):
        for kind in ("ip", "cm", "op"):
            assert not gen_divline(kind, n=3).inconsistency

    def test_every_family_exhibitable(self):
        cases = [
            ("op", {"n": 5}), ("ip", {"n": 4}), ("sop", {"n": 5}), ("cm", {"n": 3}),
            ("ktp", {"b": 2, "d": 2, "k": 2}), ("ktp", {"b": 3, "d": 2, "k": 3}),
            ("tp1", {"b": 2, "d": 2}), ("ktp2", {"b": 3, "d": 2, "k": 2}),
            ("cooper", {"n": 2}), ("cooper", {"n": 3}), ("pmchar", {"n": 2}),
        ]
        for kind, params in cases:
            assert decide_exhibitable(gen_divline(kind, **params)).exhibitable, (kind, params)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedParams):
            gen_divline("nope", n=1)

    def test_complete_splits_in_canonical_order(self):
        for n in range(9):
            assert patterns.complete_conditions(n) == sorted(complete_conditions(n))

    def test_fully_complete_builders_are_canonical(self):
        # these builders skip the checks and the sort of Pattern(...), so each
        # result must equal its rebuild through it
        built = [ip_pattern(n) for n in range(5)] + [cooper_pattern(n) for n in (1, 2)]
        built += [fully_complete_extension(SetFamily(3, sets)) for sets in ([], [{0, 1}, {1, 2}, {2}, set()])]
        built += fully_complete_patterns(2)
        for p in built:
            assert p == Pattern(p.n, p.consistency, p.inconsistency)
        assert not list(fully_complete_patterns(0))
        for n in (1, 2, 3):
            assert set(fully_complete_patterns(n)) == set(conftest.fully_complete_patterns(n))


def index_total(p):
    return sum(len(c.pos) + len(c.neg) for c in p.conditions)


class TestOutputBound:
    SMALL = (
        [("op", {"n": n}) for n in range(6)]
        + [(kind, {"n": n}) for kind in ("ip", "cm", "sop") for n in range(1, 7)]
        + [("cooper", {"n": n}) for n in (1, 2, 3)] + [("pmchar", {"n": n}) for n in range(4)]
        + [("tp1", {"b": b, "d": d}) for b in (1, 2, 3) for d in range(4)]
        + [(kind, {"b": b, "d": d, "k": k}) for kind in ("ktp", "ktp2")
           for b in (2, 3, 4) for d in range(4) for k in range(2, b + 1)]
    )
    HUGE = [
        ("ip", {"n": 24}), ("cm", {"n": 24}), ("op", {"n": 200000}), ("sop", {"n": 10**9}),
        ("tp1", {"b": 2, "d": 11}), ("ktp", {"b": 4095, "d": 1, "k": 2}),
        ("ktp2", {"b": 4096, "d": 1, "k": 2}),
    ]

    def test_counts_are_the_emitted_indices(self, monkeypatch):
        counted = []
        check = patterns._require_output
        monkeypatch.setattr(patterns, "_require_output", lambda total: counted.append(total) or check(total))
        for kind, params in self.SMALL:
            counted.clear()
            p = gen_divline(kind, **params)
            assert counted == [index_total(p)], (kind, params)

    @pytest.mark.parametrize("kind, params", HUGE)
    def test_refused_before_enumerating(self, monkeypatch, kind, params):
        monkeypatch.delenv(ENV_VAR, raising=False)

        def enumerated(*args):
            raise AssertionError("enumerated before the output bound was checked")

        for name in ("Condition", "complete_conditions", "_tree_paths"):
            monkeypatch.setattr(patterns, name, enumerated)
        if kind not in ("tp1", "ktp"):  # these build their bounded node lists first
            # op, sop and ktp2 enumerate raw tuples over ranges, so shadow range
            monkeypatch.setattr(patterns, "range", enumerated, raising=False)
        with pytest.raises(BoundExceeded, match="exceed the pattern output bound 2\\*\\*20"):
            gen_divline(kind, **params)

    def test_defaults_keep_the_largest_subset_patterns(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert index_total(cooper_pattern(4)) == 2**20
        assert index_total(ip_pattern(16)) == 2**20

    def test_env_sets_the_exponent(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "5")
        assert index_total(op_pattern(5)) == 25
        for kind, params in (("op", {"n": 6}), ("cooper", {"n": 5}), ("pmchar", {"n": 5})):
            with pytest.raises(BoundExceeded, match="2\\*\\*5"):
                gen_divline(kind, **params)


class TestPatternFromCnf:
    def test_contradiction(self):
        f = CnfFormula(1, ((Literal(0),), (Literal(0, True),)))
        p = pattern_from_cnf(f)
        assert p == Pattern(2, (cond([1]),), (cond([], [0]), cond([0])))
        assert not decide_exhibitable(p).exhibitable

    def test_single_clause(self):
        f = CnfFormula(2, ((Literal(0), Literal(1)),))
        p = pattern_from_cnf(f)
        assert p == Pattern(3, (cond([2]),), (cond([], [0, 1]),))
        assert decide_exhibitable(p).exhibitable

    def test_empty_formula(self):
        p = pattern_from_cnf(CnfFormula(0, ()))
        assert p == Pattern(1, (cond([0]),))
        assert decide_exhibitable(p).exhibitable

    def test_empty_clause_flagged(self):
        f = CnfFormula(1, ((),))
        with pytest.warns(UserWarning):
            p = pattern_from_cnf(f)
        assert cond([1]) in p.inconsistency
        assert not decide_exhibitable(p).exhibitable

    def test_reasonable_without_empty_clauses(self):
        rng = random.Random(7)
        for _ in range(60):
            f = random_cnf(rng, rng.randint(1, 5), rng.randint(0, 6))
            assert classify(pattern_from_cnf(f)).reasonable


class TestDoublePositive:
    def test_single_condition(self):
        p = Pattern(2, (cond([0], [1]),))
        assert double_positive(p) == Pattern(4, (cond([0, 3]),), (cond([0, 2]), cond([1, 3])))

    def test_no_negatives(self):
        p = Pattern(1, (cond([0]),))
        assert double_positive(p) == Pattern(2, (cond([0]),), (cond([0, 1]),))

    def test_two_conditions(self):
        p = Pattern(2, (cond([0], [1]), cond([1], [0])))
        d = double_positive(p)
        assert set(c.pos for c in d.consistency) == {(0, 3), (1, 2)}
        assert set(c.pos for c in d.inconsistency) == {(0, 2), (1, 3)}

    def test_rejects_inconsistency_side(self):
        with pytest.raises(NotConsistencyPattern):
            double_positive(Pattern(1, (), (cond([0]),)))

    def test_output_reasonable_positive(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_consistency_pattern(rng, rng.randint(0, 5), 5)
            flags = classify(double_positive(p))
            assert flags.reasonable and flags.positive
