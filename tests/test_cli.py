import inspect
import io
import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from patterna import CnfFormula, Condition, Literal, Pattern, check_exhibits, jsonio
from patterna.cli import run
from patterna.patterns import GEN_KINDS
from patterna.verify import VERIFIERS
from patterna.patterns import pattern_from_cnf

from conftest import NO_POINT, UNION_SPLIT, family_from_dict, run_capped


#: One integer flag per verifier parameter, as the verify subparser builds them.
VERIFY_FLAGS = sorted({f"--{name}" for procedure in VERIFIERS.values()
                       for name in inspect.signature(procedure).parameters})


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

    def test_oracle_scan_refused_before_it_starts(self, tmp_path):
        # n = 16 passes the brute-force index bound, but 2 targets x 2**16 types
        # x (1 + 128 clauses) is just over the step bound: the 8.8 KB document
        # of 4 targets and 514 clauses scanned for 1.3 s before it was bounded
        pairs = [[[i], [j]] for i, j in itertools.permutations(range(16), 2)][:128]
        path = write_doc(tmp_path, {"n": 16, "consistency": [[[0], []], [[1], []]], "inconsistency": pairs})
        assert assert_one_line_error(["decide", path, "--oracle"]) == (
            "error: a brute-force scan of 16908288 steps exceeds the brute-force step bound 2**24\n")
        assert invoke(["decide", path])[0] == 0

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
        witness = family_from_dict(json.loads(out)["witness"])
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

    def test_output_bound(self):
        for argv in (["ip", "--n", "24"], ["tp1", "--b", "2", "--d", "11"], ["op", "--n", "200000"]):
            code, out, err = invoke(["generate", *argv])
            assert code == 2 and not out and "exceed the pattern output bound" in err, argv


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

    def test_negative_index_rejected(self, corpus):
        # Python indexing would take -1 as the last condition
        for index in ("-1", "-2", "-3"):
            code, out, err = invoke(["dimacs", corpus["union_split"], "--condition", index])
            assert code == 2 and not out
            assert err == f"condition index {index} out of range (pattern has 2 consistency conditions)\n"

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

    def test_blowup_edges_bounded(self, tmp_path):
        # 924 edges on 12 vertices pass the vertex bound; the blowup's
        # 5,461,512 edges were built before they were refused
        path = write_doc(tmp_path, {"k": 4, "vertices": 12,
                                    "edges": [list(e) for e in itertools.combinations(range(12), 4)]})
        assert assert_one_line_error(["hypergraph", "blowup", path]) == (
            "error: a blowup of 5461512 edges exceeds the output bound 2**20\n")

    @pytest.mark.parametrize("document", [-1, 3.5, None])
    def test_non_object_document(self, tmp_path, document):
        # witness-structure tested the document for a "consistency" key first:
        # "unexpected TypeError: argument of type 'int' is not iterable"
        path = write_doc(tmp_path, document)
        for action in ("pattern", "blowup", "double", "witness-structure"):
            assert assert_one_line_error(["hypergraph", action, path]).startswith(
                "error: malformed hypergraph document")

    def test_witness_structure_from_pattern(self, tmp_path):
        p = Pattern(2, (Condition((0, 1), ()),), ())
        path = tmp_path / "p.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(p)))
        code, out, _ = invoke(["hypergraph", "witness-structure", str(path)])
        assert code == 0
        assert json.loads(out)["flavor"] == "positive"


#: Inputs whose declared size once set the cost, none over 64 bytes: the
#: arity-25 blowup of one vertex walked every subset of its block (17 s and
#: 1.08 GB for one edge), two vertices at arity 10**5 ended in a count too
#: wide to print and at arity 10**7 in a binomial that ran past 100 s, and a
#: pattern on 10**7 indices built a label for each until MemoryError (exit 1).
#: One vertex at arity 10**7 grew its one edge bit by bit for hours, and the
#: random trials of `verify` walked every arity-subset of up to 10**5
#: vertices before any bound saw them, or drew patterns on up to 10**6
#: indices (each still running after 20 s).  Each is the argv after
#: `patterna`, with {doc} for the path of its document, and the exit code,
#: stdout and stderr it must give.
ONE_BLOCK = list(range(25))
WIDE_INPUTS = {
    "blowup of one vertex at arity 25": (
        ["hypergraph", "blowup", "{doc}"], {"k": 24, "vertices": 1, "edges": []}, 0,
        jsonio.dumps_canonical({"hypergraph": {"k": 25, "vertices": 25, "edges": [ONE_BLOCK]},
                                "grouping": [ONE_BLOCK]}), ""),
    "blowup of one vertex at arity 10000000": (
        ["hypergraph", "blowup", "{doc}"], {"k": 10**7, "vertices": 1, "edges": []}, 2, "",
        "error: a blowup of 10000001 vertices exceeds the output bound 2**20\n"),
    **{f"blowup of two vertices at arity {k}": (
        ["hypergraph", "blowup", "{doc}"], {"k": k, "vertices": 2, "edges": []}, 2, "",
        f"error: a blowup of at least 2**{k + 1} - 2 edges exceeds the output bound 2**20\n")
       for k in (10**5, 10**7)},
    "witness structure on 10**7 indices": (
        ["hypergraph", "witness-structure", "{doc}"],
        {"n": 10**7, "consistency": [[[0], []]], "inconsistency": []}, 2, "",
        "error: n=10000000 exceeds the pattern index bound 2**20\n"),
    **{f"verify {' '.join(argv)}": (
        ["verify", *argv], None, 2, "", f"error: {vertices} vertices exceed the clique-enumeration bound 12\n")
       for argv, vertices in ((["blowup-roundtrip", "--vertices", "100000"], 100000),
                              (["hypergraph-dictionary", "--vertices", "100000"], 100000),
                              (["blowup-roundtrip", "--k", "40", "--vertices", "60"], 60))},
    **{f"verify {verifier} --n 1000000": (
        ["verify", verifier, "--n", "1000000", "--samples", "1"], None, 2, "",
        "error: n=1000000 exceeds the sampled-pattern bound 1024\n")
       for verifier in ("atomless-pm", "pm-char", "cm-doubling")},
}


def run_child(argv, env=None):
    """cli.run(argv) in a child process capped at 512 MB of address space
    and 20 s, with environment env: (exit code, stdout, stderr)."""
    done = run_capped("import sys\nfrom patterna import cli\nsys.exit(cli.run(sys.argv[1:]))\n", argv,
                      cap=512 * 2**20, timeout=20, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("name", sorted(WIDE_INPUTS))
def test_declared_size_sets_no_cost(tmp_path, name):
    argv, doc, *expected = WIDE_INPUTS[name]
    path = write_doc(tmp_path, doc) if doc is not None else None
    assert run_child([arg.format(doc=path) for arg in argv]) == tuple(expected)


#: The environment variable that once overrode every bound at once.
RETIRED_OVERRIDE = "PATTERNA_MAX_N"


def test_no_environment_sets_a_bound(tmp_path):
    # set to 17, the retired override refused these generators as over "tree
    # bound 17" and "output bound 2**17", refused the oracle's two-target scan
    # on 17 indices as over "step bound 2**17", and let the triangle-free sweep
    # walk all 2**C(v, 2) graphs up to 17 vertices
    document = write_doc(tmp_path, {"n": 17, "consistency": [[[0], []], [[1], []]]})
    for argv in (["generate", "tp1", "--b", "2", "--d", "4"], ["generate", "ip", "--n", "15"],
                 ["decide", "--oracle", document], ["verify", "triangle-free", "--vertices", "4"]):
        plain = run_child(argv, {k: v for k, v in os.environ.items() if k != RETIRED_OVERRIDE})
        assert plain[0] == 0 and run_child(argv, {**os.environ, RETIRED_OVERRIDE: "17"}) == plain, argv
        if argv[0] == "decide":
            assert json.loads(plain[1])["oracle_agreement"]


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

        every_flag = [word for flag in VERIFY_FLAGS for word in (flag, "1")]
        for name, procedure in list(VERIFIERS.items()):
            signature = inspect.signature(procedure)
            parameters = set(signature.parameters)
            # the subparser parses every flag as an int
            assert all(type(p.default) is int for p in signature.parameters.values()), name
            for flags, expected in (([], set()), (every_flag, parameters)):
                seen = {}

                def record(**kwargs):
                    seen.update(kwargs)
                    return Report(name)

                record.__signature__ = signature
                monkeypatch.setitem(VERIFIERS, name, record)
                code, _, _ = invoke(["verify", name, *flags])
                assert code == 0 and set(seen) == expected, (name, flags)

    def test_reports_name_their_arguments(self):
        from patterna.verify import VERIFIERS

        for name, procedure in VERIFIERS.items():
            defaults = {key: p.default for key, p in inspect.signature(procedure).parameters.items()}
            code, out, _ = invoke(["verify", name])
            assert code == 0 and json.loads(out)["parameters"] == defaults, name
        code, out, _ = invoke(["verify", "blowup-roundtrip", "--k", "3", "--samples", "2"])
        assert code == 0
        assert json.loads(out)["parameters"] == {"k": 3, "vertices": 4, "samples": 2, "seed": 0}

    def test_ip_family_samples_above_two(self):
        code, out, err = invoke(["verify", "ip-family", "--n", "3", "--samples", "10"])
        assert code == 0, err
        assert json.loads(out)["checks"][0]["detail"] == "10/10 random consistency 3-patterns exhibited"

    def test_ip_family_answers_at_fifteen(self):
        # 3**15 - 1 conditions: the size rule picks sampling before any is built
        code, out, err = invoke(["verify", "ip-family", "--n", "15"])
        assert code == 0 and json.loads(out)["ok"], err

    def test_unbounded_sweeps_rejected(self):
        for argv in (
            ["verify", "powerset-sm", "--n", "5"],
            ["verify", "triangle-free", "--vertices", "8"],
            ["verify", "one1", "--n", "40"],
        ):
            code, out, err = invoke(argv)
            assert code == 2 and not out and "exceed" in err, argv

    @pytest.mark.parametrize("verifier", ["blowup-roundtrip", "hypergraph-dictionary"])
    def test_vertex_bound_reads_the_argument(self, verifier):
        # the bound once saw each trial's drawn vertex count, so --vertices 13
        # passed for seeds 1 and 3-9 and was refused for seeds 0 and 2
        for seed in range(10):
            assert invoke(["verify", verifier, "--vertices", "13", "--samples", "1", "--seed", str(seed)]) == (
                2, "", "error: 13 vertices exceed the clique-enumeration bound 12\n"), seed


@pytest.mark.parametrize("argv, name", [
    (["powerset-sm", "--n", "-2"], "n"),
    (["powerset-sm", "--n", "0"], "n"),
    (["triangle-free", "--vertices", "-1"], "vertices"),
    (["hypergraph-dictionary", "--samples", "0"], "samples"),
    (["blowup-roundtrip", "--samples", "-1"], "samples"),
    (["atomless-pm", "--samples", "-3"], "samples"),
    (["cm-doubling", "--n", "-1"], "n"),
    (["pm-char", "--n", "-1"], "n"),
    (["hypergraph-dictionary", "--vertices", "-1"], "vertices"),
    (["blowup-roundtrip", "--k", "-1"], "k"),
    (["free-amalgam", "--samples", "0"], "samples"),
    (["ip-family", "--samples", "0"], "samples"),
    (["ip-family", "--n", "3", "--samples", "0"], "samples"),
])
def test_verify_rejects_senseless_sizes(argv, name):
    # a vacuous 0/0 PASS, a FAIL on 0/-1 or a raw Python message before;
    # ip-family sweeps every pattern for n <= 2, but refuses no sample there too
    code, out, err = invoke(["verify", *argv])
    assert code == 2 and not out
    assert err.startswith(f"error: {name} must be at least "), err


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_line_error(argv):
    code, out, err = invoke(argv)
    assert code == 2 and not out, argv
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


def test_truncated_json_names_its_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,\n  "consistency": ')
    for argv in (["classify"], ["decide"], ["dimacs"], ["hypergraph", "pattern"]):
        assert assert_one_line_error([*argv, str(path)]) == (
            f"error: line 2: {path}: Expecting value: line 2 column 18 (char 26)\n")


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

    def test_bool_or_float_beside_its_int(self, tmp_path):
        for part, shown in (([[1, True], []], "true"), ([[0, 0.0], []], "0.0"), ([[], [0, False]], "false")):
            path = write_doc(tmp_path, {"n": 3, "consistency": [part]})
            assert assert_one_line_error(["decide", path, "--witness"]) == (
                f"error: consistency must hold integers, got {shown}\n")

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

    @pytest.mark.parametrize("key, value, message", [
        # B1's pair (0, 5) has neither its witness nor its parameter: "unexpected IndexError" before
        ("r", [[0, 5]], "error: B1 violates the axioms: ("),
        # a list label: "unexpected TypeError: unhashable type: 'list'" before
        ("parameter_points", [["p0"], "q1"], "error: parameter_points must be an array of strings"),
    ])
    def test_malformed_side(self, tmp_path, structures, key, value, message):
        side = json.loads((tmp_path / "b1.json").read_text())
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"e0": {"witness": [], "parameter": [0]}, "e1": {"witness": [], "parameter": [0]}}))
        argv = ["amalgam", *structures[:2], write_doc(tmp_path, {**side, key: value}), str(maps)]
        assert assert_one_line_error(argv).startswith(message)

    def test_malformed_maps(self, tmp_path, structures):
        embedding = {"witness": [], "parameter": [0]}
        for maps in ([1], {}, {"e0": embedding}, {"e0": [1], "e1": embedding}, {"e0": 1, "e1": 1}):
            assert_one_line_error(["amalgam", *structures, write_doc(tmp_path, maps)])


class TestDeterminism:
    def test_repeat_runs_in_one_process(self, corpus):
        # the parser is built once per process; a usage error in between
        # must leave later runs unchanged
        commands = [
            ["decide", corpus["union_split"], "--witness"],
            ["verify", "cooper-claim", "--n", "2"],
            ["decide", "--no-such-flag"],
        ]
        first = [invoke(argv)[:2] for argv in commands]
        assert [code for code, _ in first] == [0, 0, 2]
        assert [invoke(argv)[:2] for argv in commands + commands[:1]] == first + first[:1]

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


# -- contract fuzzing -------------------------------------------------------

SMALL = st.integers(-2, 4)
INDEX_LIST = st.lists(SMALL, max_size=3)
LEAF = st.one_of(st.none(), st.booleans(), SMALL, st.floats(-2, 4), st.text("ab0", max_size=2))
KEYS = st.sampled_from([
    "n", "consistency", "inconsistency", "k", "vertices", "edges", "universe", "sets",
    "witness_points", "parameter_points", "r", "hyperedges", "flavor", "e0", "e1",
    "witness", "parameter",
])
STRUCTURE = st.fixed_dictionaries({
    "witness_points": st.lists(st.text("w0", max_size=2), max_size=2),
    "parameter_points": st.lists(st.text("p0", max_size=2), max_size=3),
    "r": st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=3),
    "hyperedges": st.lists(INDEX_LIST, max_size=2),
})
EMBEDDING = st.fixed_dictionaries({"witness": INDEX_LIST, "parameter": INDEX_LIST})
DOCUMENT = st.one_of(
    st.recursive(LEAF, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=4),
                 max_leaves=8),
    st.fixed_dictionaries({
        "n": SMALL,
        "consistency": st.lists(st.lists(INDEX_LIST, min_size=2, max_size=2), max_size=4),
        "inconsistency": st.lists(st.lists(INDEX_LIST, min_size=2, max_size=2), max_size=4),
    }),
    st.fixed_dictionaries({"k": SMALL, "vertices": SMALL, "edges": st.lists(INDEX_LIST, max_size=4)}),
    STRUCTURE,
)
#: Positional words, the flags that take a small integer, and the
#: well-formed document each input file is drawn as in half the runs (an
#: arbitrary DOCUMENT otherwise), by subcommand.  The integers stay small so
#: every run is quick; the bounds themselves are tested on their own.
FUZZ = {
    "classify": ([], [], [DOCUMENT]),
    "decide": ([], ["--witness", "--oracle"], [DOCUMENT]),
    "dimacs": ([], ["--condition"], [DOCUMENT]),
    "hypergraph": (["pattern", "blowup", "double", "witness-structure"], [], [DOCUMENT]),
    "generate": (sorted(GEN_KINDS), ["--n", "--b", "--d", "--k"], []),
    "verify": (sorted(VERIFIERS), VERIFY_FLAGS, []),
    "amalgam": ([], [], [STRUCTURE] * 3 + [st.fixed_dictionaries({"e0": EMBEDDING, "e1": EMBEDDING})]),
}
SWITCHES = {"--witness", "--oracle"}


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_contract_on_arbitrary_input(tmp_path, command, data):
    # exit 0, 1 or 2; stdout empty or exactly one JSON document; no traceback
    # and no unexpected fault: every input ends in an answer or a named error
    words, flags, files = FUZZ[command]
    argv = [command] + ([data.draw(st.sampled_from(words))] if words else [])
    well_formed = data.draw(st.booleans())
    for i, shape in enumerate(files):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(data.draw(shape if well_formed else DOCUMENT)))
        argv.append(str(path))
    for flag in data.draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)) if flags else []:
        argv += [flag] if flag in SWITCHES else [flag, str(data.draw(st.integers(-2, 3)))]
    code, out, err = invoke(argv)
    assert code in (0, 1, 2), (argv, err)
    if out:
        json.loads(out)  # one document: a second would be "Extra data"
    assert "Traceback" not in err and "error: unexpected" not in err, (argv, err)
