import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from patterna import jsonio
from patterna.decide import decide_exhibitable
from patterna.errors import DuplicateCondition, EmptyCondition, IndexOutOfRange, ParseError, PatternaError
from patterna.hypergraphs import Embedding, build_witness_structure
from patterna.rand import random_hypergraph, random_reasonable_positive

from conftest import assert_parsed_as, family_from_dict, random_pattern, reference_maps, reference_pattern


def test_pattern_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(0, 5), 6)
        assert jsonio.pattern_from_dict(jsonio.pattern_to_dict(p)) == p


_payload_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f aé\u2028中😀') | st.characters())
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _payload_text,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(-5, 2**40), max_size=5)
        | st.dictionaries(_payload_text, children, max_size=5)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_payloads)
@example({"b": [[0, 1], [], (2,)], "a": {"": [True, False, None, -1]}, "c": ()})
def test_dumps_canonical_matches_json_dumps(payload):
    assert jsonio.dumps_canonical(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_pattern_serialization_byte_stable():
    rng = random.Random(3)
    p = random_pattern(rng, 5, 6)
    once = jsonio.dumps_canonical(jsonio.pattern_to_dict(p))
    again = jsonio.dumps_canonical(
        jsonio.pattern_to_dict(jsonio.pattern_from_dict(jsonio.pattern_to_dict(p)))
    )
    assert once == again


def test_family_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        p = random_pattern(rng, rng.randint(1, 4), 4)
        d = decide_exhibitable(p)
        if d.witness is None:
            continue
        assert family_from_dict(jsonio.family_to_dict(d.witness)) == d.witness


def test_hypergraph_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(0, 6), 0.5)
        assert jsonio.hypergraph_from_dict(jsonio.hypergraph_to_dict(h)) == h


def test_structure_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        p = random_reasonable_positive(rng, rng.randint(0, 4), 3, 3)
        s = build_witness_structure(p)
        assert jsonio.structure_from_dict(jsonio.structure_to_dict(s)) == s


@pytest.mark.parametrize("key, value", [
    ("witness_points", "w0"),  # read as the two points "w" and "0"
    ("witness_points", [["w0"]]),
    ("parameter_points", [{"p": 0}]),
    ("parameter_points", [None]),
    ("parameter_points", [0]),
    ("flavor", "graph"),
    ("flavor", None),
])
def test_structure_labels_and_flavor(key, value):
    doc = {"witness_points": ["w0"], "parameter_points": ["p0"], "r": [[0, 0]], "hyperedges": []}
    with pytest.raises(ParseError, match=f"^{key} must be "):
        jsonio.structure_from_dict({**doc, key: value})


def test_embedding_round_trip():
    e = Embedding((2, 0), (1,))
    assert jsonio.embedding_from_dict(jsonio.embedding_to_dict(e)) == e


def test_malformed_documents():
    with pytest.raises(ParseError):
        jsonio.pattern_from_dict({"consistency": []})
    with pytest.raises(ParseError):
        jsonio.hypergraph_from_dict({"vertices": 1})
    with pytest.raises(ParseError):
        jsonio.hypergraph_from_dict([1, 2])
    with pytest.raises(ParseError):
        jsonio.structure_from_dict(
            {"witness_points": ["w0"], "parameter_points": ["p0"], "r": [[0, True]],
             "hyperedges": []}
        )
    with pytest.raises(ParseError):
        jsonio.embedding_from_dict({"witness": [0.0], "parameter": []})
    embedding = {"witness": [], "parameter": [0]}
    for maps in ([1], {"e0": embedding}, {"e0": embedding, "e1": [1]}):
        with pytest.raises(ParseError):
            jsonio.maps_from_dict(maps)


#: Malformed pattern documents with one fault each, and the exact
#: (exception class, message) pattern_from_dict raises for them.  A
#: non-integer leaf is reported before any other fault of the document.
PATTERN_FAULTS = [
    ([1, 2], ParseError, "pattern document must be an object with an 'n' key"),
    (None, ParseError, "pattern document must be an object with an 'n' key"),
    ({"consistency": []}, ParseError, "pattern document must be an object with an 'n' key"),
    ({"n": -1}, IndexOutOfRange, "index count must be a nonnegative integer, got -1"),
    ({"n": [3]}, IndexOutOfRange, "index count must be a nonnegative integer, got [3]"),
    ({"n": 1.5}, ParseError, "n must hold integers, got 1.5"),
    ({"n": True}, ParseError, "n must hold integers, got true"),
    ({"n": 2, "consistency": [[[0.5], []]]}, ParseError, "consistency must hold integers, got 0.5"),
    ({"n": 2, "consistency": [[[1.0], []]]}, ParseError, "consistency must hold integers, got 1.0"),
    ({"n": 2, "inconsistency": [[[], [False]]]}, ParseError,
     "inconsistency must hold integers, got false"),
    ({"n": 2, "consistency": [[["a", 0], []]]}, ParseError, 'consistency must hold integers, got "a"'),
    ({"n": 2, "consistency": [[[None], []]]}, ParseError, "consistency must hold integers, got null"),
    ({"n": 2, "consistency": [[[[0]], []]]}, ParseError,
     "malformed pattern document: unhashable type: 'list'"),
    ({"n": 2, "consistency": None}, ParseError, "consistency must hold integers, got null"),
    ({"n": 2, "consistency": {}}, ParseError, "consistency must hold integers, got {}"),
    ({"n": 2, "consistency": [["", [0]]]}, ParseError, 'consistency must hold integers, got ""'),
    ({"n": 2, "consistency": [[{}, [0]]]}, ParseError, "consistency must hold integers, got {}"),
    ({"n": 2, "consistency": 5}, ParseError,
     "malformed pattern document: 'int' object is not iterable"),
    ({"n": 2, "consistency": [5]}, ParseError,
     "malformed pattern document: cannot unpack non-iterable int object"),
    ({"n": 2, "consistency": [[0, []]]}, ParseError,
     "malformed pattern document: 'int' object is not iterable"),
    ({"n": 2, "consistency": [[[0]]]}, ParseError,
     "malformed pattern document: not enough values to unpack (expected 2, got 1)"),
    ({"n": 2, "consistency": [[[0], [], [1]]]}, ParseError,
     "malformed pattern document: too many values to unpack (expected 2)"),
    ({"n": 2, "consistency": [[[], []]]}, EmptyCondition,
     "consistency contains the empty condition (∅, ∅)"),
    ({"n": 2, "inconsistency": [[[], []]]}, EmptyCondition,
     "inconsistency contains the empty condition (∅, ∅)"),
    ({"n": 2, "consistency": [[[2], []]]}, IndexOutOfRange, "index 2 in consistency outside [0, 2)"),
    ({"n": 2, "inconsistency": [[[], [-1]]]}, IndexOutOfRange,
     "index -1 in inconsistency outside [0, 2)"),
    ({"n": 2, "consistency": [[[0], []], [[0], []]]}, DuplicateCondition,
     "duplicate consistency condition (0,)/()"),
    ({"n": 2, "inconsistency": [[[1], [0]], [[1], [0]]]}, DuplicateCondition,
     "duplicate inconsistency condition (1,)/(0,)"),
    ({"n": 2, "consistency": [[[1, 0], []], [[0, 1, 1], []]]}, DuplicateCondition,
     "duplicate consistency condition (0, 1)/()"),
]


@pytest.mark.parametrize("doc, error, message", PATTERN_FAULTS)
def test_pattern_fault_contract(doc, error, message):
    with pytest.raises(error) as caught:
        jsonio.pattern_from_dict(doc)
    assert type(caught.value) is error and str(caught.value) == message
    if error is not DuplicateCondition:  # lenient parsing only forgives repeats
        with pytest.raises(error, match=re.escape(message)):
            jsonio.pattern_from_dict(doc, strict=False)


#: Documents with two faults.  A non-integer leaf comes first wherever it is;
#: then n; then each side in order, each condition in order, its own faults
#: in the order shape, empty, index type and range, repeat.
PATTERN_MULTI_FAULTS = [
    ({"n": -1, "consistency": [[[0.5], []]]}, ParseError, "consistency must hold integers, got 0.5"),
    ({"n": 2, "consistency": [[[0], []], [[0], []]], "inconsistency": [[[0.5], []]]}, ParseError,
     "inconsistency must hold integers, got 0.5"),
    ({"n": -1, "consistency": [[[0], []], [[0], []]]}, IndexOutOfRange,
     "index count must be a nonnegative integer, got -1"),
    ({"n": 2, "consistency": [[[7], []]], "inconsistency": [[[0], []], [[0], []]]}, IndexOutOfRange,
     "index 7 in consistency outside [0, 2)"),
    ({"n": 2, "consistency": [[[5], []], [[0], []], [[0], []]]}, IndexOutOfRange,
     "index 5 in consistency outside [0, 2)"),
    ({"n": 2, "consistency": [[[0], []], [[0], []], [[5], []]]}, DuplicateCondition,
     "duplicate consistency condition (0,)/()"),
    ({"n": 2, "consistency": [[[0], []], [[0], []], [[1]]]}, DuplicateCondition,
     "duplicate consistency condition (0,)/()"),
    ({"n": 2, "consistency": [[[], []], [[7], []]]}, EmptyCondition,
     "consistency contains the empty condition (∅, ∅)"),
    ({"n": 2, "consistency": [[[9], [-3]]]}, IndexOutOfRange, "index 9 in consistency outside [0, 2)"),
]


@pytest.mark.parametrize("doc, error, message", PATTERN_MULTI_FAULTS)
def test_pattern_fault_precedence(doc, error, message):
    with pytest.raises(error) as caught:
        jsonio.pattern_from_dict(doc)
    assert type(caught.value) is error and str(caught.value) == message


_leaf = (st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=1)
         | st.floats(allow_nan=False, allow_infinity=False))
_json = st.recursive(
    _leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=1), inner, max_size=2),
    max_leaves=6,
)
_part = st.lists(st.integers(0, 4), max_size=3)
_side = st.lists(st.lists(_part, min_size=2, max_size=2), max_size=4)
_well_formed = st.fixed_dictionaries(
    {"n": st.integers(3, 6)}, optional={"consistency": _side, "inconsistency": _side})


def _corrupt(doc, junk, rnd):
    """doc with one value, chosen by rnd, replaced by junk."""
    spots = [(doc, "n")]
    for name in ("consistency", "inconsistency"):
        spots += [(doc, name)] if name in doc else []
        for cond in doc.get(name, ()):
            spots += [(cond, 0), (cond, 1)] + [(part, i) for part in cond for i in range(len(part))]
    holder, key = rnd.choice(spots)
    holder[key] = junk
    return doc


_document = _well_formed | st.builds(_corrupt, _well_formed, _json, st.randoms()) | _json


@settings(max_examples=150, deadline=None)
@given(_document, st.booleans())
# a bool or a float beside the int it equals, which deduplication would drop
@example({"n": 3, "consistency": [[[1, True], []]]}, False)
@example({"n": 3, "consistency": [[[0, 0.0], []]]}, False)
@example({"n": 3, "consistency": [[[], [0, False]]]}, False)
def test_pattern_from_dict_matches_reference(doc, strict):
    # either the reference pattern or a library error, never anything else
    reference = reference_pattern(doc, strict=strict)
    try:
        p = jsonio.pattern_from_dict(doc, strict=strict)
    except PatternaError:
        assert reference is None
    else:
        assert reference is not None
        assert_parsed_as(p, reference)


# index entries as a maps document may hold them: ints (negatives too),
# bools, floats equal to ints, strings and nested lists
_map_entry = (st.integers(-2, 4) | st.booleans() | st.integers(-2, 4).map(float) | st.text(max_size=1)
              | st.lists(st.integers(0, 2), max_size=1))
_index_map = st.lists(st.integers(-2, 4), max_size=3) | st.lists(_map_entry, max_size=3) | _json
_embedding_doc = st.dictionaries(st.sampled_from(("witness", "parameter", "w")), _index_map) | _json
_maps_doc = st.dictionaries(st.sampled_from(("e0", "e1", "e")), _embedding_doc) | _json


@settings(max_examples=300, deadline=None)
@given(_maps_doc)
@example({"e0": {"witness": [0, -1], "parameter": []}, "e1": {"witness": [1], "parameter": [2], "w": 0}})
@example({"e0": {"witness": [0, True], "parameter": []}, "e1": {"witness": [], "parameter": []}})
@example({"e0": {"witness": [], "parameter": []}, "e1": {"witness": [], "parameter": [1.0]}})
@example({"e0": {"witness": [], "parameter": []}, "e1": {"witness": ["1"], "parameter": []}})
@example({"e0": {"witness": [[0]], "parameter": []}, "e1": {"witness": [], "parameter": []}})
@example({"e0": {"witness": []}, "e1": {"witness": [], "parameter": []}})
def test_maps_from_dict_matches_reference(doc):
    # either the reference's index tuples or a ParseError, never anything else
    reference = reference_maps(doc)
    try:
        maps = jsonio.maps_from_dict(doc)
    except ParseError:
        assert reference is None
    else:
        assert reference is not None
        assert all(type(e) is Embedding for e in maps)
        assert tuple((e.witness_map, e.parameter_map) for e in maps) == reference
