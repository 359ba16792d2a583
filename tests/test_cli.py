import inspect
import io
import json

import pytest

from patterna import CnfFormula, Condition, Literal, Pattern, check_exhibits, jsonio
from patterna.bounds import ENV_VAR
from patterna.cli import run
from patterna.errors import ParseError
from patterna.patterns import pattern_from_cnf

from conftest import NO_POINT, UNION_SPLIT


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def corpus(tmp_path):
    files = {}
    for name, pattern in (("no_point", NO_POINT), ("union_split", UNION_SPLIT)):
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(pattern)))
        files[name] = str(path)
    hpath = tmp_path / "path_graph.json"
    hpath.write_text(jsonio.dumps_canonical({"k": 2, "vertices": 3, "edges": [[0, 1], [1, 2]]}))
    files["graph"] = str(hpath)
    return files


class TestDecideCommand:
    def test_not_exhibitable_exits_one(self, corpus):
        code, out, _ = invoke(["decide", corpus["no_point"]])
        assert code == 1
        assert json.loads(out) == {"exhibitable": False, "witness": None, "failing": [[], []]}

    def test_exhibitable_exits_zero(self, corpus):
        code, out, _ = invoke(["decide", corpus["union_split"], "--witness"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exhibitable"] and payload["witness"]["universe"] == 2

    def test_oracle_agreement(self, corpus):
        code, out, _ = invoke(["decide", corpus["union_split"], "--oracle"])
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_exhibitable"] and payload["oracle_agreement"]

    def test_missing_file_exits_two(self):
        code, _, err = invoke(["decide", "/nonexistent/p.json"])
        assert code == 2 and "error:" in err

    def test_xor_chain_3000_variables(self, tmp_path):
        # one decision per pair: a solver that recursed per branch overflowed
        # the stack here and the uncaught RecursionError exited 1
        m = 3000
        clauses = []
        for i in range(0, m - 1, 2):
            clauses += [(Literal(i), Literal(i + 1)), (Literal(i, True), Literal(i + 1, True))]
        pattern = pattern_from_cnf(CnfFormula(m, tuple(clauses)))
        path = tmp_path / "xor.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(pattern)))
        code, out, _ = invoke(["decide", str(path), "--witness"])
        assert code == 0
        witness = jsonio.family_from_dict(json.loads(out)["witness"])
        assert check_exhibits(witness, pattern).ok

    def test_pigeonhole_8_7_fails_its_condition(self, tmp_path):
        pigeons, holes = 8, 7

        def var(i, j, negated=False):
            return Literal(i * holes + j, negated)

        clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
        clauses += [
            (var(a, j, True), var(b, j, True))
            for j in range(holes) for a in range(pigeons) for b in range(a + 1, pigeons)
        ]
        pattern = pattern_from_cnf(CnfFormula(pigeons * holes, tuple(clauses)))
        path = tmp_path / "php.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(pattern)))
        code, out, _ = invoke(["decide", str(path), "--witness"])
        assert code == 1
        assert json.loads(out) == {
            "exhibitable": False, "witness": None, "failing": [[pigeons * holes], []],
        }

    def test_unexpected_exception_exits_two(self, corpus, monkeypatch):
        import patterna.cli

        def broken(pattern):
            raise TypeError("unsupported operand\nsecond line")

        monkeypatch.setattr(patterna.cli, "decide_exhibitable", broken)
        code, out, err = invoke(["decide", corpus["union_split"]])
        assert code == 2 and not out
        assert err == "error: unexpected TypeError: unsupported operand second line\n"


class TestGenerateCommand:
    def test_ip(self):
        code, out, _ = invoke(["generate", "ip", "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and len(payload["consistency"]) == 4

    def test_ktp(self):
        code, out, _ = invoke(["generate", "ktp", "--b", "2", "--d", "2", "--k", "2"])
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_missing_params_exit_two(self):
        code, _, err = invoke(["generate", "op"])
        assert code == 2 and "error:" in err


class TestClassifyCommand:
    def test_flags(self, corpus):
        code, out, _ = invoke(["classify", corpus["union_split"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["reasonable"] and not payload["positive"]


class TestDimacsCommand:
    def test_sentinel(self, corpus):
        code, out, _ = invoke(["dimacs", corpus["no_point"]])
        assert code == 0
        assert json.loads(out)["dimacs"] == "p cnf 1 2\n1 0\n-1 0\n"

    def test_condition_index(self, corpus):
        code, out, _ = invoke(["dimacs", corpus["union_split"], "--condition", "0"])
        assert code == 0
        assert json.loads(out)["condition"] == [[0], []]

    def test_out_of_range_index(self, corpus):
        code, _, _ = invoke(["dimacs", corpus["union_split"], "--condition", "9"])
        assert code == 2

    def test_round_trip(self, corpus):
        from patterna.sat import import_dimacs
        from patterna.decide import condition_cnf

        _, out, _ = invoke(["dimacs", corpus["union_split"], "--condition", "0"])
        text = json.loads(out)["dimacs"]
        assert import_dimacs(text) == condition_cnf(UNION_SPLIT, UNION_SPLIT.consistency[0])


class TestHypergraphCommand:
    def test_pattern(self, corpus):
        code, out, _ = invoke(["hypergraph", "pattern", corpus["graph"]])
        assert code == 0
        assert json.loads(out)["inconsistency"] == [[[0, 2], []]]

    def test_blowup(self, corpus):
        code, out, _ = invoke(["hypergraph", "blowup", corpus["graph"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["hypergraph"]["vertices"] == 9
        assert payload["grouping"][0] == [0, 1, 2]

    def test_double(self, corpus):
        code, out, _ = invoke(["hypergraph", "double", corpus["graph"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"]["vertices"] == 6 + len(payload["clique_witnesses"])

    def test_witness_structure_from_graph(self, corpus):
        code, out, _ = invoke(["hypergraph", "witness-structure", corpus["graph"]])
        assert code == 0
        assert json.loads(out)["flavor"] == "k-uniform"

    def test_witness_structure_from_pattern(self, tmp_path):
        p = Pattern(2, (Condition((0, 1), ()),), ())
        path = tmp_path / "p.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(p)))
        code, out, _ = invoke(["hypergraph", "witness-structure", str(path)])
        assert code == 0
        assert json.loads(out)["flavor"] == "positive"


class TestVerifyCommand:
    def test_powerset_sm(self):
        code, out, err = invoke(["verify", "powerset-sm", "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and "15/15" in payload["checks"][0]["detail"]
        assert "PASS" in err

    def test_every_construction_wired(self):
        from patterna.verify import VERIFIERS

        for name in VERIFIERS:
            code, out, _ = invoke(["verify", name])
            assert code == 0 and json.loads(out)["ok"], name

    def test_forwarded_flags_are_the_verifier_parameters(self, monkeypatch):
        from patterna.verify import VERIFIERS, Report

        every_flag = ["--n", "1", "--k", "1", "--vertices", "1", "--samples", "1",
                      "--seed", "1", "--arity", "1", "--exhaustive"]
        for name, procedure in list(VERIFIERS.items()):
            parameters = set(inspect.signature(procedure).parameters)
            for flags, expected in (([], set()), (every_flag, parameters)):
                seen = {}

                def record(**kwargs):
                    seen.update(kwargs)
                    return Report(name)

                record.__signature__ = inspect.signature(procedure)
                monkeypatch.setitem(VERIFIERS, name, record)
                code, _, _ = invoke(["verify", name, *flags])
                assert code == 0 and set(seen) == expected, (name, flags)

    def test_unbounded_sweeps_rejected(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        for argv in (
            ["verify", "powerset-sm", "--n", "5"],
            ["verify", "triangle-free", "--vertices", "8"],
            ["verify", "one1", "--n", "40"],
        ):
            code, out, err = invoke(argv)
            assert code == 2 and not out and "exceed" in err, argv


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_line_error(argv):
    code, out, err = invoke(argv)
    assert code == 2 and not out, argv
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestNonIntegerFields:
    def test_pattern_n_and_indices(self, tmp_path):
        for doc in (
            {"n": True, "consistency": [[[0], []]], "inconsistency": []},
            {"n": 2, "consistency": [[[True], []]], "inconsistency": []},
            {"n": 2, "consistency": [[[0], []]], "inconsistency": [[[], [False]]]},
            {"n": 2, "consistency": [[[1.0], []]], "inconsistency": []},
        ):
            path = write_doc(tmp_path, doc)
            for command in ("classify", "decide", "dimacs"):
                assert_one_line_error([command, path])

    def test_hypergraph_k_vertices_edges(self, tmp_path):
        for doc in (
            {"k": True, "vertices": 3, "edges": []},
            {"k": 2, "vertices": True, "edges": []},
            {"k": 2, "vertices": 2.0, "edges": []},
            {"k": 2, "vertices": 3, "edges": [[0, True]]},
        ):
            path = write_doc(tmp_path, doc)
            for action in ("pattern", "blowup", "double", "witness-structure"):
                assert_one_line_error(["hypergraph", action, path])

    def test_family_universe_and_points(self):
        # no subcommand reads a set family, so the parse boundary is checked directly
        for doc in ({"universe": True, "sets": [[0]]}, {"universe": 2, "sets": [[0, True]]}):
            with pytest.raises(ParseError, match="integers"):
                jsonio.family_from_dict(doc)


class TestGoldenPayloads:
    def test_decide_no_point_bytes(self, corpus):
        _, out, _ = invoke(["decide", corpus["no_point"]])
        assert out == (
            '{\n  "exhibitable": false,\n  "failing": [\n    [],\n    []\n  ],\n'
            '  "witness": null\n}\n'
        )

    def test_generate_cooper_one_bytes(self):
        _, out, _ = invoke(["generate", "cooper", "--n", "1"])
        assert json.loads(out) == {
            "n": 2,
            "consistency": [[[1], [0]]],
            "inconsistency": [[[], [0, 1]], [[0], [1]], [[0, 1], []]],
        }


class TestAmalgamCommand:
    @pytest.fixture
    def structures(self, tmp_path):
        from patterna.hypergraphs import WitnessStructure

        base = WitnessStructure((), ("p0",), frozenset(), frozenset())
        b0 = WitnessStructure(("w0",), ("p0", "p1"), frozenset({(0, 0)}), frozenset())
        b1 = WitnessStructure((), ("p0", "q1"), frozenset(), frozenset({frozenset({0, 1})}))
        paths = []
        for name, s in (("a", base), ("b0", b0), ("b1", b1)):
            (tmp_path / f"{name}.json").write_text(
                jsonio.dumps_canonical(jsonio.structure_to_dict(s))
            )
            paths.append(str(tmp_path / f"{name}.json"))
        return paths

    def test_round_trip(self, tmp_path, structures):
        (tmp_path / "maps.json").write_text(
            jsonio.dumps_canonical(
                {"e0": {"witness": [], "parameter": [0]}, "e1": {"witness": [], "parameter": [0]}}
            )
        )
        code, out, _ = invoke(["amalgam", *structures, str(tmp_path / "maps.json")])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["structure"]["parameter_points"]) == 3

    def test_malformed_maps(self, tmp_path, structures):
        embedding = {"witness": [], "parameter": [0]}
        for maps in ([1], {}, {"e0": embedding}, {"e0": [1], "e1": embedding}, {"e0": 1, "e1": 1}):
            assert_one_line_error(["amalgam", *structures, write_doc(tmp_path, maps)])


class TestDeterminism:
    def test_byte_identical_repeats(self, corpus):
        commands = [
            ["decide", corpus["no_point"]],
            ["decide", corpus["union_split"], "--witness"],
            ["generate", "cooper", "--n", "2"],
            ["verify", "cooper-claim", "--n", "2"],
            ["hypergraph", "pattern", corpus["graph"]],
        ]
        for argv in commands:
            outputs = {invoke(argv)[1] for _ in range(3)}
            assert len(outputs) == 1, argv
