import random

import pytest
from hypothesis import given, settings, strategies as st

from patterna import CnfFormula, Literal, export_dimacs, import_dimacs, sat_solve
from patterna.errors import IndexOutOfRange, ParseError
from patterna.rand import random_cnf

from conftest import dpll_reference, truth_table_sat


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
