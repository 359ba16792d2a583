"""Input refusals that no other test reaches, one row each: the call, the
error it must raise and the message it must carry."""

import io
import json
import random
import re

import pytest

import patterna.cli
from patterna import Condition, Pattern, SetFamily, check_exhibits, jsonio
from patterna.cli import run
from patterna.constructions import (
    canonical_char_family,
    check_char_property,
    ip_family,
    membership_structure,
    pm_char_reduction,
)
from patterna.decide import Decision
from patterna.errors import (
    ArityMismatch,
    IndexOutOfRange,
    MalformedUnionMap,
    NotConsistencyPattern,
    NotReasonablePositive,
    ParseError,
    UnsupportedParams,
)
from patterna.hypergraphs import (
    UNIFORM_FLAVOR,
    Embedding,
    Hypergraph,
    WitnessStructure,
    build_witness_structure,
    check_axioms,
)
from patterna.patterns import double_positive, ip_pattern, validate_pattern
from patterna.rand import random_condition
from patterna.sat import CnfFormula, Literal, import_dimacs, sat_solve
from patterna.semantics import UnionClosedFamily, check_one_n

from conftest import UNION_SPLIT


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


#: the union-closed family over one index: B_∅ = ∅ and B_{0} = {0}
ONE_INDEX = SetFamily(1, [(), (0,)])

REFUSALS = [
    ("cnf negative variable count", lambda: CnfFormula(-1, ()),
     IndexOutOfRange, "variable count must be nonnegative"),
    ("dimacs bad literal", lambda: import_dimacs("p cnf 1 1\n1 x 0\n"),
     ParseError, "bad literal 'x'"),
    ("dimacs no header", lambda: import_dimacs("c a comment and nothing else\n"),
     ParseError, "missing 'p cnf' header"),
    ("set family point out of range", lambda: SetFamily(2, [(2,)]),
     IndexOutOfRange, "point 2 outside universe [0, 2)"),
    ("union family point labels", lambda: UnionClosedFamily(1, ONE_INDEX, point_labels=("a", "b")),
     MalformedUnionMap, "one label per universe point required"),
    ("union family set labels", lambda: UnionClosedFamily(1, ONE_INDEX, set_labels=("a",)),
     MalformedUnionMap, "one label per set required"),
    ("union family base set out of range", lambda: UnionClosedFamily(1, ONE_INDEX).base_set(1),
     IndexOutOfRange, "base index 1 outside [0, 1)"),
    ("one-n threshold 0", lambda: check_one_n(UnionClosedFamily(1, ONE_INDEX), 0),
     MalformedUnionMap, "threshold must be at least 1"),
    ("hypergraph vertex out of range", lambda: Hypergraph(2, 2, [(0, 2)]),
     IndexOutOfRange, "vertex 2 outside [0, 2)"),
    # each index is checked as written, before frozenset() merges a True or a
    # 1.0 into the 1 beside it
    ("set family point a bool beside its int", lambda: SetFamily(3, [[1, True]]),
     IndexOutOfRange, "point True is not an integer"),
    ("set family point a float beside its int", lambda: SetFamily(3, [[1, 1.0]]),
     IndexOutOfRange, "point 1.0 is not an integer"),
    ("hypergraph edge of a bool beside an edge", lambda: Hypergraph(2, 3, [[0, 1], [True, 0]]),
     IndexOutOfRange, "vertex True is not an integer"),
    ("hypergraph edge of a bool beside its int", lambda: Hypergraph(2, 3, [[1, True]]),
     IndexOutOfRange, "vertex True is not an integer"),
    ("witness structure hyperedge entry a float", lambda: WitnessStructure(("w",), ("p", "q"), (), [[0, 0.5]]),
     IndexOutOfRange, "hyperedge entry 0.5 is not an integer"),
    ("witness structure hyperedge entry a whole float",
     lambda: WitnessStructure(("w",), ("p", "q"), (), [[0.0, 1]]),
     IndexOutOfRange, "hyperedge entry 0.0 is not an integer"),
    ("witness structure hyperedge entry a bool", lambda: WitnessStructure(("w",), ("p", "q"), (), [[0, True]]),
     IndexOutOfRange, "hyperedge entry True is not an integer"),
    ("cnf variable count a bool", lambda: CnfFormula(True, ((Literal(0),),)),
     IndexOutOfRange, "variable count True is not an integer"),
    ("cnf literal variable a bool", lambda: CnfFormula(2, ((Literal(True),),)),
     IndexOutOfRange, "variable True is not an integer"),
    ("cnf literal variable a float", lambda: CnfFormula(2, ((Literal(1.0),),)),
     IndexOutOfRange, "variable 1.0 is not an integer"),
    ("assumption variable a bool", lambda: sat_solve(CnfFormula(2, ()), [Literal(True)]),
     IndexOutOfRange, "assumption variable True is not an integer"),
    ("assumption variable a float", lambda: sat_solve(CnfFormula(2, ()), [Literal(1.0)]),
     IndexOutOfRange, "assumption variable 1.0 is not an integer"),
    ("union family base index a bool", lambda: UnionClosedFamily(1, ONE_INDEX).base_set(True),
     IndexOutOfRange, "base index True is not an integer"),
    ("witness structure relation entry a float", lambda: WitnessStructure(("w",), ("p",), {(0.7, 0)}, ()),
     IndexOutOfRange, "relation entry 0.7 is not an integer"),
    ("witness structure relation entry a bool", lambda: WitnessStructure(("w",), ("p",), [(0, 1), (0, True)], ()),
     IndexOutOfRange, "relation entry True is not an integer"),
    ("embedding witness map entry a float", lambda: Embedding((0.7, True), ("1",)),
     IndexOutOfRange, "witness map entry 0.7 is not an integer"),
    ("embedding witness map entry a bool", lambda: Embedding((0, True), ()),
     IndexOutOfRange, "witness map entry True is not an integer"),
    ("embedding parameter map entry a str", lambda: Embedding(range(2), ("1",)),
     IndexOutOfRange, "parameter map entry '1' is not an integer"),
    ("embedding parameter map entry a float", lambda: Embedding((), (0, 1.0)),
     IndexOutOfRange, "parameter map entry 1.0 is not an integer"),
    ("witness structure from an int", lambda: build_witness_structure(42),
     UnsupportedParams, "cannot build a witness structure from int"),
    ("pattern data a list", lambda: validate_pattern([]),
     IndexOutOfRange, "pattern data must provide n/consistency/inconsistency"),
    ("double an unreasonable pattern", lambda: double_positive(Pattern(1, (cond([0], [0]),))),
     NotConsistencyPattern, "input must be reasonable (disjoint pos/neg parts)"),
    ("char family k -1", lambda: canonical_char_family(-1),
     UnsupportedParams, "k must be nonnegative"),
    ("char property family size", lambda: check_char_property(SetFamily(1, [()]), 1),
     ArityMismatch, "need 2 sets for k=1, got 1"),
    ("pm char reduction of a non-positive pattern",
     lambda: pm_char_reduction(canonical_char_family(1), Pattern(1, (cond([], [0]),))),
     NotReasonablePositive, "input pattern must be reasonable and positive"),
    ("pm char reduction family size",
     lambda: pm_char_reduction(SetFamily(1, [()]), Pattern(1, (cond([0]),))),
     ArityMismatch, "characterizing family needs 2 sets, got 1"),
    ("ip family n -1", lambda: ip_family(-1),
     UnsupportedParams, "n must be nonnegative"),
    ("membership structure n 0", lambda: membership_structure(0),
     UnsupportedParams, "n must be at least 1"),
    ("random condition over no index", lambda: random_condition(random.Random(0), 0),
     ValueError, "no nonempty condition exists over an empty index set"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_mixed_arities_in_a_uniform_structure_are_a_violation():
    edges = frozenset({frozenset({0, 1}), frozenset({0, 1, 2})})
    s = WitnessStructure(("w",), ("a", "b", "c"), frozenset(), edges, UNIFORM_FLAVOR)
    report = check_axioms(s)
    assert not report and "uniform structure carries mixed arities [2, 3]" in report.violations


def test_ip_pattern_of_no_index_is_the_empty_pattern():
    assert ip_pattern(0) == Pattern(0)


def test_reports_are_true_iff_ok():
    fam = SetFamily(1, [()])
    assert check_exhibits(fam, Pattern(1, (cond([], [0]),)))
    assert not check_exhibits(fam, Pattern(1, (cond([0]),)))
    assert check_axioms(build_witness_structure(Pattern(1, (cond([0]),))))


def test_oracle_disagreement_exits_two(tmp_path, monkeypatch):
    path = tmp_path / "union_split.json"
    path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(UNION_SPLIT)))
    monkeypatch.setattr(patterna.cli, "brute_force_exhibitable", lambda p: Decision(False))
    out, err = io.StringIO(), io.StringIO()
    assert run(["decide", str(path), "--oracle"], stdout=out, stderr=err) == 2
    payload = json.loads(out.getvalue())
    assert payload["exhibitable"] and not payload["oracle_exhibitable"]
    assert payload["oracle_agreement"] is False
    assert err.getvalue() == "oracle disagreement: decision procedure is buggy\n"
