import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from patterna import CnfFormula, Literal, export_dimacs, import_dimacs, sat_solve
from patterna.errors import IndexOutOfRange, ParseError
from patterna.sat import CompiledCnf, _Marks, _search

from conftest import dpll_reference, random_cnf, truth_table_sat


def lit(v, neg=False):
    return Literal(v, neg)


class TestNormalization:
    def test_tautology_dropped(self):
        f = CnfFormula(1, ((lit(0), lit(0, True)),))
        assert f.clauses == ()

    def test_duplicate_literals_and_clauses_collapse(self):
        f = CnfFormula(2, ((lit(0), lit(0), lit(1)), (lit(1), lit(0))))
        assert f.clauses == ((lit(0), lit(1)),)

    def test_variable_range(self):
        with pytest.raises(IndexOutOfRange):
            CnfFormula(1, ((lit(1),),))


class TestSolve:
    def test_unit_propagation(self):
        f = CnfFormula(2, ((lit(0), lit(1)), (lit(0, True),)))
        assert sat_solve(f) == {0: False, 1: True}

    def test_unsat(self):
        assert sat_solve(CnfFormula(1, ((lit(0),), (lit(0, True),)))) is None

    def test_empty_formula_defaults_true(self):
        assert sat_solve(CnfFormula(3, ())) == {0: True, 1: True, 2: True}

    def test_empty_clause_unsat(self):
        assert sat_solve(CnfFormula(2, ((),))) is None

    def test_deterministic(self):
        rng = random.Random(0)
        formulas = [random_cnf(rng, 6, 8) for _ in range(20)]
        first = [sat_solve(f) for f in formulas]
        second = [sat_solve(f) for f in formulas]
        assert first == second

    def test_agrees_with_truth_table(self):
        rng = random.Random(42)
        for _ in range(300):
            f = random_cnf(rng, rng.randint(1, 7), rng.randint(0, 9))
            assignment = sat_solve(f)
            assert (assignment is not None) == truth_table_sat(f)
            if assignment is not None:
                assert all(
                    any(assignment[l.variable] != l.negated for l in clause)
                    for clause in f.clauses
                )

    def test_same_assignment_as_recursive_reference(self):
        rng = random.Random(2003)
        for _ in range(400):
            variables = rng.randint(0, 12)
            f = random_cnf(rng, variables, rng.randint(0, 3 * variables + 3), rng.randint(1, 4))
            assert sat_solve(f) == dpll_reference(f), f

    def test_same_assignment_as_recursive_reference_on_3_sat_under_assumptions(self):
        # three distinct variables per clause and 3-5 clauses per variable
        # reach deep undo chains with many clauses satisfied twice over, which
        # is where a count kept wrong through an undo changes the next pure
        # literal or unit
        rng = random.Random(2104)
        for _ in range(300):
            variables = rng.randint(10, 24)
            clauses = tuple(
                tuple(lit(v, rng.random() < 0.5) for v in rng.sample(range(variables), 3))
                for _ in range(round(variables * rng.uniform(3, 5)))
            )
            f = CnfFormula(variables, clauses)
            assumptions = [
                lit(rng.randrange(variables), rng.random() < 0.5) for _ in range(rng.randint(0, 2))
            ]
            with_units = CnfFormula(variables, clauses + tuple((a,) for a in assumptions))
            assert sat_solve(f, assumptions=assumptions) == dpll_reference(with_units), (f, assumptions)

    def test_search_does_not_depend_on_clause_or_literal_order(self):
        # decide compiles its clauses in the pattern's order, not in
        # CnfFormula's normal form, so the search must give the same values
        # whatever the order of the clauses and of the literals in each
        rng = random.Random(2201)
        for _ in range(300):
            variables = rng.randint(1, 12)
            f = random_cnf(rng, variables, rng.randint(0, 3 * variables + 3), rng.randint(1, 4))
            codes = [[2 * l.variable + l.negated for l in c] for c in f.clauses]
            assumptions = [rng.randrange(2 * variables) for _ in range(rng.randint(0, 2))]
            shuffled = [rng.sample(c, len(c)) for c in codes]
            rng.shuffle(shuffled)
            expected = _search(CompiledCnf(variables, codes), assumptions)
            assert _search(CompiledCnf(variables, shuffled), assumptions) == expected, (f, assumptions)

    def test_same_assignment_as_recursive_reference_where_residuals_repeat(self):
        # PHP(h + 1, h) reaches one residual formula in many orders, which
        # random 3-SAT rarely does, so the search prunes states whose residual
        # formula already failed.  Its clauses are widened by not-s, where s is
        # variable 0 and so tried True first; (s, p, q) and (s, -p, -q) keep s
        # from being pure, and padding clauses true under a planted assignment
        # with s False leave a model.  The other variables are relabelled.
        rng = random.Random(2301)
        for _ in range(300):
            holes = rng.choice((2, 3, 4, 4))
            pigeon_count = (holes + 1) * holes
            variables = pigeon_count + 1 + rng.randint(0, 6)
            label = rng.sample(range(1, variables), variables - 1)
            clauses = [tuple(lit(label[i * holes + j]) for j in range(holes)) + (lit(0, True),)
                       for i in range(holes + 1)]
            clauses += [(lit(label[a * holes + j], True), lit(label[b * holes + j], True), lit(0, True))
                        for j in range(holes) for a, b in itertools.combinations(range(holes + 1), 2)]
            p, q = rng.sample(range(1, variables), 2)
            clauses += [(lit(0), lit(p), lit(q)), (lit(0), lit(p, True), lit(q, True))]
            planted = [False] + [rng.random() < 0.5 for _ in range(variables - 1)]
            planted[q] = not planted[p]
            for _ in range(rng.randint(0, variables // 2)):
                padding = tuple(lit(v, rng.random() < 0.5) for v in rng.sample(range(variables), 3))
                if any(planted[l.variable] != l.negated for l in padding):
                    clauses.append(padding)
            f = CnfFormula(variables, tuple(clauses))
            assumptions = [
                lit(rng.randrange(variables), rng.random() < 0.5) for _ in range(rng.randint(0, 2))
            ]
            with_units = CnfFormula(variables, f.clauses + tuple((a,) for a in assumptions))
            assert sat_solve(f, assumptions=assumptions) == dpll_reference(with_units), (f, assumptions)

    def test_key_bits_name_satisfied_clauses_and_occurring_variables(self):
        # clauses (x0 or x1) and (x1): bits 0 and 1, then one bit per variable
        # from bit 2 on; x2 occurs in no clause, so neither literal has a bit
        marks = _Marks(CompiledCnf(3, [[0, 2], [2]]))
        assert [marks[code] for code in range(6)] == [0b101, 0b100, 0b1011, 0b1000, 0, 0]

    def test_assumptions_act_as_unit_clauses(self):
        rng = random.Random(5)
        for _ in range(300):
            variables = rng.randint(1, 8)
            f = random_cnf(rng, variables, rng.randint(0, 12))
            assumptions = [
                lit(rng.randrange(variables), rng.random() < 0.5) for _ in range(rng.randint(0, 3))
            ]
            with_units = CnfFormula(variables, f.clauses + tuple((a,) for a in assumptions))
            assert sat_solve(f, assumptions=assumptions) == sat_solve(with_units)

    def test_compiled_formula_is_reused_unchanged(self):
        # one CompiledCnf solved under many assumption sets, contradictory
        # ones included, answers each as a fresh formula with unit clauses
        rng = random.Random(6)
        for _ in range(100):
            variables = rng.randint(1, 8)
            f = random_cnf(rng, variables, rng.randint(0, 12))
            compiled = CompiledCnf(
                variables, [[2 * l.variable + l.negated for l in c] for c in f.clauses]
            )
            for _ in range(6):
                v = rng.randrange(variables)
                assumptions = [lit(rng.randrange(variables), rng.random() < 0.5) for _ in range(2)]
                assumptions += rng.choice([[], [lit(v), lit(v, True)], [lit(v), lit(v)]])
                with_units = CnfFormula(variables, f.clauses + tuple((a,) for a in assumptions))
                assert sat_solve(compiled, assumptions=assumptions) == sat_solve(with_units)

    def test_assumption_range(self):
        with pytest.raises(IndexOutOfRange):
            sat_solve(CnfFormula(1, ()), assumptions=[lit(1)])

    def test_long_chain_needs_no_recursion(self):
        # 2000 independent pairs x_i xor x_{i+1}: one decision per pair
        clauses = []
        for i in range(0, 4000, 2):
            clauses += [(lit(i), lit(i + 1)), (lit(i, True), lit(i + 1, True))]
        assignment = sat_solve(CnfFormula(4000, tuple(clauses)))
        assert assignment == {v: v % 2 == 0 for v in range(4000)}


class TestDimacs:
    def test_format_example(self):
        f = CnfFormula(1, ((lit(0),), (lit(0, True),)))
        assert export_dimacs(f) == "p cnf 1 2\n1 0\n-1 0\n"

    def test_round_trip_identity(self):
        rng = random.Random(1)
        for _ in range(60):
            f = random_cnf(rng, rng.randint(0, 6), rng.randint(0, 8))
            assert import_dimacs(export_dimacs(f)) == f

    @settings(max_examples=60)
    @given(
        st.integers(1, 5),
        st.lists(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=4), max_size=6),
    )
    def test_round_trip_property(self, nvars, raw):
        clauses = tuple(
            tuple(Literal(v % nvars, neg) for v, neg in clause) for clause in raw
        )
        f = CnfFormula(nvars, clauses)
        assert import_dimacs(export_dimacs(f)) == f

    def test_multi_line_clause(self):
        f = import_dimacs("p cnf 3 1\n1 2\n-3 0\n")
        assert f == CnfFormula(3, ((lit(0), lit(1), lit(2, True)),))

    def test_comments_ignored(self):
        f = import_dimacs("c hello\np cnf 1 1\nc mid\n1 0\n")
        assert f == CnfFormula(1, ((lit(0),),))

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            import_dimacs("p dnf 1 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            import_dimacs("1 0\n")

    def test_variable_exceeds_header(self):
        with pytest.raises(ParseError) as info:
            import_dimacs("p cnf 1 1\n2 0\n")
        assert info.value.line == 2

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            import_dimacs("p cnf 1 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            import_dimacs("p cnf 1 1\n1\n")
