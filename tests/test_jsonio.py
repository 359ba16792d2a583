import random

import pytest

from patterna import jsonio
from patterna.decide import decide_exhibitable
from patterna.errors import ParseError
from patterna.hypergraphs import Embedding, build_witness_structure
from patterna.rand import random_hypergraph, random_pattern, random_reasonable_positive


def test_pattern_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(0, 5), 6)
        assert jsonio.pattern_from_dict(jsonio.pattern_to_dict(p)) == p


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
        assert jsonio.family_from_dict(jsonio.family_to_dict(d.witness)) == d.witness


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


def test_embedding_round_trip():
    e = Embedding((2, 0), (1,))
    assert jsonio.embedding_from_dict(jsonio.embedding_to_dict(e)) == e


def test_malformed_documents():
    with pytest.raises(ParseError):
        jsonio.pattern_from_dict({"consistency": []})
    with pytest.raises(ParseError):
        jsonio.family_from_dict({"universe": 2})
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
