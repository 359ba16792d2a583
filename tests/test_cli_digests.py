"""Pinned CLI output: the sha256 of stdout and the exit code of a fixed
command corpus.

The digests were recorded from the frozenset implementation of the trace
checks, and those of the CNF-encoded decide commands from the solver that
rebuilt its arrays on every call, so a change in the set representation or
the SAT path that alters a single output byte fails here.  Regenerate them
only for a deliberate, documented output change.
"""

import hashlib
import io
import json

import itertools
import random

import pytest

from patterna import CnfFormula, Literal, gen_divline, jsonio, pattern_from_cnf
from patterna.cli import run
from patterna.hypergraphs import Embedding, WitnessStructure
from patterna.rand import random_amalgam_problem
from patterna.verify import VERIFIERS

HYPERGRAPHS = {
    "path3": {"k": 2, "vertices": 3, "edges": [[0, 1], [1, 2]]},
    "paw4": {"k": 2, "vertices": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]},
    "c5": {"k": 2, "vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
    "empty3": {"k": 2, "vertices": 3, "edges": []},
    "k3tri4": {"k": 3, "vertices": 4, "edges": [[0, 1, 2], [0, 1, 3], [1, 2, 3]]},
    "k3pair5": {"k": 3, "vertices": 5, "edges": [[0, 1, 2], [2, 3, 4]]},
}

#: Pinned for blowup only: the complete 3-uniform hypergraph on 4 vertices,
#: whose blowup is a single 16-vertex clique.
K3_FULL4 = {"k": 3, "vertices": 4, "edges": [list(t) for t in itertools.combinations(range(4), 3)]}

PATTERNS = {
    "op4": ("op", {"n": 4}),
    "sop4": ("sop", {"n": 4}),
    "ip3": ("ip", {"n": 3}),
    "ktp222": ("ktp", {"b": 2, "d": 2, "k": 2}),
    "tp1-22": ("tp1", {"b": 2, "d": 2}),
    "cooper2": ("cooper", {"n": 2}),
    "pmchar2": ("pmchar", {"n": 2}),
}


#: generate arguments pinned by their output bytes
GENERATED = ("cooper --n 2", "pmchar --n 2", "pmchar --n 3", "ip --n 3")


def _pigeonhole(holes):
    """PHP(holes + 1, holes), unsatisfiable; variable i * holes + j + 1 puts
    pigeon i in hole j."""
    pigeons = holes + 1
    clauses = [[i * holes + j + 1 for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-(a * holes + j + 1), -(b * holes + j + 1)])
    return pigeons * holes, clauses


def _xor_chain(variables):
    clauses = []
    for i in range(0, variables - 1, 2):
        clauses += [[i + 1, i + 2], [-(i + 1), -(i + 2)]]
    return variables, clauses


def _implication_chain(variables):
    return variables, [[-(i + 1), i + 2] for i in range(variables - 1)]


def _planted_3sat(seed, variables, clause_count):
    """Random 3-clauses, each satisfied by one hidden assignment."""
    rng = random.Random(seed)
    hidden = [rng.random() < 0.5 for _ in range(variables)]
    clauses = set()
    while len(clauses) < clause_count:
        lits = [v + 1 if rng.random() < 0.5 else -(v + 1) for v in rng.sample(range(variables), 3)]
        if any(hidden[abs(lit) - 1] == (lit > 0) for lit in lits):
            clauses.add(tuple(sorted(lits, key=abs)))
    return variables, sorted(clauses)


#: CNF formulas (variable count, signed 1-based clauses), decided through
#: pattern_from_cnf, so the pins cover the SAT path itself.
CNFS = {
    "php6-5": _pigeonhole(5),
    "xor200": _xor_chain(200),
    "implies150": _implication_chain(150),
    "planted40": _planted_3sat(7, 40, 160),
}


#: Pattern documents decided as written.  Their witnesses list the points in
#: choice order, which is not the lexicographic order of the types' index
#: lists: choice2's first solve chooses {1} and its second {0, 1};
#: choice-pool5 is a random-small pattern of the decide benchmark pool of
#: seed 22102.
DOCUMENTS = {
    "choice2": {"n": 2, "consistency": [[[], [0]], [[0], []]], "inconsistency": []},
    "choice-pool5": {"n": 5, "consistency": [[[], [0, 2]], [[0, 1, 3], [4]], [[1], [3, 4]]],
                     "inconsistency": []},
}


def _cnf_document(variables, clauses):
    formula = CnfFormula(
        variables, tuple(tuple(Literal(abs(lit) - 1, lit < 0) for lit in c) for c in clauses)
    )
    return jsonio.dumps_canonical(jsonio.pattern_to_dict(pattern_from_cnf(formula)))


#: B1 adds a witness and a parameter that share the new label "x"; the
#: witness sort is relabelled first, so the parameter becomes "x#1".
_SHARED = WitnessStructure(("w0",), ("p0",), frozenset({(0, 0)}), frozenset())
LABEL_CLASH = (
    _SHARED,
    WitnessStructure(("w0", "v"), ("p0", "q"), frozenset({(0, 0), (1, 1)}), frozenset()),
    WitnessStructure(("w0", "x"), ("p0", "x"), frozenset({(0, 0), (1, 1)}),
                     frozenset({frozenset({0, 1})})),
    Embedding((0,), (0,)),
    Embedding((0,), (0,)),
)

#: amalgamation problems by name: seeds 0 and 5 relabel p3+#1 and w2+#1
AMALGAMS = {**{f"random{s}": random_amalgam_problem(random.Random(s)) for s in range(6)},
            "label-clash": LABEL_CLASH}


def _amalgam_files(directory, name, problem):
    a, b0, b1, e0, e1 = problem
    paths = []
    for part, s in (("a", a), ("b0", b0), ("b1", b1)):
        path = directory / f"{name}-{part}.json"
        path.write_text(jsonio.dumps_canonical(jsonio.structure_to_dict(s)))
        paths.append(str(path))
    path = directory / f"{name}-maps.json"
    path.write_text(jsonio.dumps_canonical(
        {"e0": jsonio.embedding_to_dict(e0), "e1": jsonio.embedding_to_dict(e1)}))
    return paths + [str(path)]


def corpus(directory):
    """(name, argv) for every pinned command; input files go to directory."""
    commands = [(f"verify {name}", ["verify", name]) for name in sorted(VERIFIERS)]
    commands.append(("verify blowup-roundtrip --k 3", ["verify", "blowup-roundtrip", "--k", "3"]))
    for name, doc in HYPERGRAPHS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        for action in ("pattern", "blowup", "double", "witness-structure"):
            commands.append((f"hypergraph {action} {name}", ["hypergraph", action, str(path)]))
    path = directory / "k3full4.json"
    path.write_text(json.dumps(K3_FULL4))
    commands.append(("hypergraph blowup k3full4", ["hypergraph", "blowup", str(path)]))
    for name, (kind, params) in PATTERNS.items():
        path = directory / f"{name}.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(gen_divline(kind, **params))))
        commands.append((f"decide {name}", ["decide", str(path), "--witness"]))
        commands.append((f"classify {name}", ["classify", str(path)]))
    for name, (variables, clauses) in CNFS.items():
        path = directory / f"{name}.json"
        path.write_text(_cnf_document(variables, clauses))
        commands.append((f"decide {name}", ["decide", str(path), "--witness"]))
    for name, doc in DOCUMENTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        commands.append((f"decide {name}", ["decide", str(path), "--witness"]))
    for args in GENERATED:
        commands.append((f"generate {args}", ["generate", *args.split()]))
    for name, problem in AMALGAMS.items():
        commands.append((f"amalgam {name}", ["amalgam", *_amalgam_files(directory, name, problem)]))
    return commands


def digest(argv):
    out = io.StringIO()
    code = run(argv, stdout=out, stderr=io.StringIO())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


#: name -> [exit code, sha256 of stdout]
PINNED = {
    "verify atomless-pm": [0, "4b0d023c7becff408015d60e39b70f2f80119ad033564412aac8850f440ae252"],
    "verify blowup-roundtrip": [0, "cef7bfbf6abbd7442a0d83eb42277e6d7ce2897fe7f9edfb4852edc4ab8e93ba"],
    "verify cm-doubling": [0, "1f71b4542d6309c08631f5f2de1a1a9d0f90229950cee6bc2baabb4727c9597b"],
    "verify cooper-claim": [0, "26243183b0bfb18dadd38a90e9d77f45fa72bc53cb4f2271da115e54a8c88259"],
    "verify free-amalgam": [0, "0dc1571d2a0d198494f926fe7005561ded4d48a71bbe53afb986416489f348fd"],
    "verify hypergraph-dictionary": [0, "b236762fcccb66bdca497c114450b80cce8ee28f053eddc06fcd63a208678fd3"],
    "verify ip-family": [0, "9894bcb7834e5a080809546ee34e3116eac7de3c02b7c8f602808e2f94bde85e"],
    "verify membership": [0, "0d774524bbb618cd8f8d1a109b908752eace3000f3c98d54e63aa225889ff660"],
    "verify one1": [0, "bd7eb62e7bfd24d3cd880c12865cc6ef1e0132cf592fd44c96fec3a6cc0d97c4"],
    "verify pm-char": [0, "0d49ad89bb33e6179d838c513da3518b85060b37ec4906a5c752ac179464aed1"],
    "verify powerset-sm": [0, "f5ed42533f57684243954013505f7edbf1aec209b4d7276901f88d1991664745"],
    "verify triangle-free": [0, "374d152efeea74a1069459dfd16f0e62f3d0a1b9b9bec8ad06cdc1c1877964cc"],
    "verify blowup-roundtrip --k 3": [0, "2441746ca6e7535d8c8759d172a8ba73b3db99ecfa0283ea0cfd87de6e946cb3"],
    "hypergraph pattern path3": [0, "2064564b4ddb26ddad152f37bd3dd37450f9322f7ba9f53e007ae6d3dd23a447"],
    "hypergraph blowup path3": [0, "0d9fe59f65b221ff6e4bc2211d009b1e15e0edc99ee764c0d6803b881a8d9be6"],
    "hypergraph double path3": [0, "8bfae0e6314952b7f6a44cfebf089e9e4c30631849ccde4877dbb648abbcb73b"],
    "hypergraph witness-structure path3": [0, "55a97b7385cb007e82bcb4f4fc91a75f12df76ea307ccadc4dc2401a1f8f3ae2"],
    "hypergraph pattern paw4": [0, "6451c057829c28aed3bf6c8f8306920a9157994a93d950e5bebacdcc635581eb"],
    "hypergraph blowup paw4": [0, "61203e09c63ed0043906a1cf135b2403e9f4bdf0a23636645fa29a24e6ec612c"],
    "hypergraph double paw4": [0, "24952628470912e2c7859887cf1d9ecc718f23bb628938fb6fd0722d800c2e7c"],
    "hypergraph witness-structure paw4": [0, "6faa2f5f7af62e4062962b352036a51d16a7678a930d7c994ccd143656cd703b"],
    "hypergraph pattern c5": [0, "5e5431e65c5517e3f6c606f7c48be43f67cbe3df1c91a219bec10a7ec21d2e86"],
    "hypergraph blowup c5": [0, "187da9fce52135851ef5cdf3dcc849b2473de5f53992d21f6591153690c53277"],
    "hypergraph double c5": [0, "77da7b09433c69637388939f21542aab42e218fc4f3acdf9b514f3e1d8908005"],
    "hypergraph witness-structure c5": [0, "480a39856d63c6e37b009a8054c8f102915ba68c246c99b35f9e9ca086887249"],
    "hypergraph pattern empty3": [0, "704fd21b695ed1ad8c4f6d6c7b606cf515fc5cbad3c9a69cb4cdc91cec92585e"],
    "hypergraph blowup empty3": [0, "54d6133d7f8c8029d35eed4a8c950540c81a861bd44a1729e91f6d85152493f0"],
    "hypergraph double empty3": [0, "17a7ccde220ced0a5a8e942a98c836797e77e4c523c80bf411d167f3080e5579"],
    "hypergraph witness-structure empty3": [0, "3a17b0c88296bc172d82331ab2b8d3ecc109dc8dbdc3939a21456e731728423e"],
    "hypergraph pattern k3tri4": [0, "7cd2c3e40449ea78cddd93ccc46608567c309912df97ce9fbd075f4176490cba"],
    "hypergraph blowup k3tri4": [0, "45b6501ba982e4ca30f9bf00a2ffe246dcae6639ba14129f446c3b1abac175e5"],
    "hypergraph double k3tri4": [2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "hypergraph witness-structure k3tri4": [0, "0c8cd0b9f49307044b478b14b3de3cf053946607273bf7c4b170e7512e97c4b5"],
    "hypergraph pattern k3pair5": [0, "ad7f2695ff9dc969f2895afeb6c8d78da80168a0585cddefd2a2ffc426084ef6"],
    "hypergraph blowup k3pair5": [0, "6c5ae9a85c40f833b1eb2b5d565f8219b96c7e07bdbc842d14dc8263becdfc98"],
    "hypergraph double k3pair5": [2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "hypergraph witness-structure k3pair5": [0, "c7c6cb82ea2bb9e2b0e5210694310263e285c6354ff4eb231fe0c00cc4581b5e"],
    "hypergraph blowup k3full4": [0, "c50d03fdfd951d9912c1c62dcc9712f7a62549488aa0bd671f4ff89967686552"],
    "decide op4": [0, "d35cacf253d2de4e0ec4a02c9a8e70ad1feb98bacdc58e5d5d89c975b4ad2b75"],
    "classify op4": [0, "cf20464291c986b1819035b3a2c2f85d3b47821625ed5a3e06c624a8f9a42cc5"],
    "decide sop4": [0, "48b3b5b08d8e7bb3c2aa6c880167afe95c061601fffe5a59b4efcf46c1e443df"],
    "classify sop4": [0, "70bcfb18527b532dce59a63dacdd6c512ef21960b53965b97118063a8ba74b67"],
    "decide ip3": [0, "c54523b9659ef8c7278bbf7c873d6f9c154d5340d303604c720bca2cd274c5b7"],
    "classify ip3": [0, "1fcc94327e474ea68f8cfe3c1695a4a83a2e4c5eb877b4e4e44e75ca7aa4a4ca"],
    "decide ktp222": [0, "dfcaa6ebee6d9f5fc21cea9a0f728bd57d5998e83c7df76312c4ed4b1e307aed"],
    "classify ktp222": [0, "cb0c1e300a6c0bc0f579ae1928b4b01ce41d2387c244a329a96a7301b089db20"],
    "decide tp1-22": [0, "dfcaa6ebee6d9f5fc21cea9a0f728bd57d5998e83c7df76312c4ed4b1e307aed"],
    "classify tp1-22": [0, "cb0c1e300a6c0bc0f579ae1928b4b01ce41d2387c244a329a96a7301b089db20"],
    "decide cooper2": [0, "c47db77d7e729ec81841f71058e44e8a21db14d0100ebd4dc1bacd6423912ce2"],
    "classify cooper2": [0, "1fcc94327e474ea68f8cfe3c1695a4a83a2e4c5eb877b4e4e44e75ca7aa4a4ca"],
    "decide pmchar2": [0, "c47db77d7e729ec81841f71058e44e8a21db14d0100ebd4dc1bacd6423912ce2"],
    "classify pmchar2": [0, "ab00077a13e4f82ae5dc9173fae6d4edae21633c08a00f109539eb054646bb25"],
    "decide php6-5": [1, "9e6e722a8be06fb6657e24baa3ecbc4c129a5e0bc5a7e19797dbb3eabf008398"],
    "decide xor200": [0, "ce418cfb1915458669596faf2b9804596d06dadda782c51bbfc7669f732509a0"],
    "decide implies150": [0, "0b1732a6f4686fb4508edcb9ea58059be2425d2b7a09254bef437036d2bcecc5"],
    "decide planted40": [0, "7d26894a9501a1e3bff9cdb10c0649e9b90f452ecc61921ed06babae34c5497e"],
    "decide choice2": [0, "7e48fc6c34dc8366bb8e653b02b28c90d48d982363d87f25a88464d5ef96e6a2"],
    "decide choice-pool5": [0, "cebfd04369ce5b8dc7b64ce511c717767654e857a3ece4f09e72a689b201a9c6"],
    "generate cooper --n 2": [0, "7a0dfa91ee174fca3e25c6528d30b46c0edeee856a30641daef16f999c80526a"],
    "generate pmchar --n 2": [0, "b4e9dad1c8f0c964a49aaf60932cbce7016c1efeb95550c618d41e88c47f477a"],
    "generate pmchar --n 3": [0, "f4485e5c7a5ef4d2440c454e20690770427b901441488679e6b73b2e1ae6cbb0"],
    "generate ip --n 3": [0, "d1345d0d465da76e646dd7dbf63f6688cfde6a5cda771e57a3c0255469240661"],
    "amalgam random0": [0, "b0341b1f627c5e5349bef8f9319c893e8295a93d8df0f62ebd7bbc35c28566c4"],
    "amalgam random1": [0, "8c11a97e60bffb94c37ab52c76a1d1aa4178ed78c5da3bbae5166fcd457ccb28"],
    "amalgam random2": [0, "68365cee4b185d31d303d798b0b76591522b8e9015b160c735c30cda39c1099d"],
    "amalgam random3": [0, "404f2c4d17b3c8fef39cab8a491f929a4b1347b496c139db476c7635d265e1eb"],
    "amalgam random4": [0, "2f709331e1a7d00150168ad3b4cbd6c5267cc91a00664f3f53bbb0b0efdcf25f"],
    "amalgam random5": [0, "a7928ad2d8f383884b7e1dc0893b64d74208e034f825cdad329d8f498d64a02b"],
    "amalgam label-clash": [0, "5a05a46d3d42fd30b1e2e1e123ae510f410703e1869a5cf3398359340fc09f7b"],
}


def test_verify_reports_differ_by_their_arguments():
    # each verify report names its arguments, so a non-default flag shows
    assert PINNED["verify blowup-roundtrip --k 3"] != PINNED["verify blowup-roundtrip"]


def test_corpus_matches_pins(tmp_path):
    commands = corpus(tmp_path)
    assert [name for name, _ in commands] == list(PINNED)
    mismatched = [name for name, argv in commands if list(digest(argv)) != PINNED[name]]
    assert not mismatched
