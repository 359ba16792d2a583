"""Acceptance suite.

One test per criterion, at the criterion's stated size and tolerance (all
exact: 100% agreement, zero failures allowed).  Each test prints one
PASS/FAIL line; run with `pytest tests/test_acceptance.py -s` to see them.
"""

import io
import itertools
import random

from patterna import (
    Condition,
    Pattern,
    UnionClosedFamily,
    atomless_pm_witness,
    brute_force_exhibitable,
    build_witness_structure,
    check_axioms,
    check_exhibits,
    check_one_n,
    classify,
    cooper_pattern,
    decide_exhibitable,
    disjoint_one1_family,
    double_positive,
    cm_from_doubled_witness,
    free_amalgam,
    fully_complete_extension,
    graph,
    ip_family,
    is_k_bounded,
    jsonio,
    membership_column_family,
    membership_structure,
    pattern_from_cnf,
    pattern_from_hypergraph,
    powerset_sm_witness,
    realization_witness,
    realize_check,
    blowup,
    blowup_pullback,
    triangle_free_double,
    witness_trace_family,
)
from patterna.cli import run as cli_run
from patterna.decide import condition_cnf
from patterna.rand import (
    random_amalgam_problem,
    random_consistency_pattern,
    random_hypergraph,
    random_reasonable_positive,
)
from patterna.sat import import_dimacs

from conftest import (
    NO_POINT,
    UNION_SPLIT,
    all_conditions,
    disjoint_conditions,
    encodes_by_scan,
    fully_complete_patterns,
    random_cnf,
    random_pattern,
    truth_table_sat,
)


def report(number, name, failures, total):
    status = "PASS" if failures == 0 else "FAIL"
    print(f"{status} criterion {number}: {name} ({total - failures}/{total})")
    assert failures == 0, f"criterion {number}: {failures}/{total} cases failed"


def test_criterion_01_oracle_agreement():
    failures = total = 0
    conditions = all_conditions(3)
    exhaustive = [Pattern(3)]
    exhaustive += [Pattern(3, (c,), ()) for c in conditions]
    exhaustive += [Pattern(3, (), (c,)) for c in conditions]
    exhaustive += [Pattern(3, pair, ()) for pair in itertools.combinations(conditions, 2)]
    exhaustive += [Pattern(3, (), pair) for pair in itertools.combinations(conditions, 2)]
    exhaustive += [Pattern(3, (a,), (b,)) for a in conditions for b in conditions]
    for p in exhaustive:
        total += 1
        if decide_exhibitable(p).exhibitable != brute_force_exhibitable(p).exhibitable:
            failures += 1
    rng = random.Random(101)
    for _ in range(10_000):
        total += 1
        p = random_pattern(rng, rng.randint(0, 5), 8)
        if decide_exhibitable(p).exhibitable != brute_force_exhibitable(p).exhibitable:
            failures += 1
    report(1, "oracle agreement", failures, total)


def test_criterion_02_labeled_instances():
    failures = 0
    failures += decide_exhibitable(NO_POINT).exhibitable  # must be False
    failures += not decide_exhibitable(UNION_SPLIT).exhibitable  # must be True
    failures += brute_force_exhibitable(NO_POINT).exhibitable
    failures += not brute_force_exhibitable(UNION_SPLIT).exhibitable
    report(2, "labeled instances decide correctly", failures, 4)


def test_criterion_03_fully_complete_exhibitable():
    failures = total = 0
    for n in (2, 3):
        for p in fully_complete_patterns(n):
            total += 1
            ok = decide_exhibitable(p).exhibitable
            witness = powerset_sm_witness(p)  # raises on self-check failure
            if not (ok and check_exhibits(witness, p).ok):
                failures += 1
    assert total == 15 + 255
    report(3, "fully complete patterns exhibitable", failures, total)


def test_criterion_04_positive_exhibitable():
    failures = 0
    rng = random.Random(104)
    for _ in range(1_000):
        p = random_reasonable_positive(rng, rng.randint(0, 6), 6, 6)
        witness = atomless_pm_witness(p)
        if not (decide_exhibitable(p).exhibitable and check_exhibits(witness, p).ok):
            failures += 1
    report(4, "reasonable positive patterns exhibitable", failures, 1_000)


def test_criterion_05_psat_equals_sat():
    failures = 0
    rng = random.Random(105)
    for _ in range(500):
        f = random_cnf(rng, rng.randint(1, 8), rng.randint(0, 10), width=3)
        if decide_exhibitable(pattern_from_cnf(f)).exhibitable != truth_table_sat(f):
            failures += 1
    report(5, "CNF reduction matches truth-table satisfiability", failures, 500)


def test_criterion_06_extension_refinement():
    failures = found = 0
    rng = random.Random(106)
    while found < 500:
        p = random_pattern(rng, rng.randint(1, 5), 6)
        decision = decide_exhibitable(p)
        if not decision.exhibitable:
            continue
        found += 1
        extension = fully_complete_extension(decision.witness)
        synthesized = [decide_exhibitable(extension).witness, powerset_sm_witness(extension)]
        if not all(w is not None and check_exhibits(w, p).ok for w in synthesized):
            failures += 1
    report(6, "fully complete extension refines the original", failures, 500)


def test_criterion_07_doubling():
    failures = 0
    rng = random.Random(107)
    for _ in range(200):
        p = random_consistency_pattern(rng, rng.randint(0, 5), 6)
        decision = decide_exhibitable(double_positive(p))
        truncated = cm_from_doubled_witness(decision.witness, p)
        if not (decision.exhibitable and check_exhibits(truncated, p).ok):
            failures += 1
    report(7, "doubling + truncation witnesses the original", failures, 200)


def test_criterion_08_independence_family():
    failures = total = 0
    fam2 = ip_family(2)
    conditions = disjoint_conditions(2)
    for mask in range(1 << len(conditions)):
        total += 1
        p = Pattern(2, tuple(c for i, c in enumerate(conditions) if mask >> i & 1))
        if not check_exhibits(fam2, p).ok:
            failures += 1
    assert total == 256
    rng = random.Random(108)
    for _ in range(200):
        total += 1
        n = rng.choice((3, 4))
        p = random_consistency_pattern(rng, n, 6)
        if not check_exhibits(ip_family(n), p).ok:
            failures += 1
    report(8, "independence family exhibits consistency patterns", failures, total)


def _dictionary_case(h):
    p = pattern_from_hypergraph(h)
    flags = classify(p)
    if not (flags.reasonable and flags.positive and is_k_bounded(p, h.arity)):
        return False
    decision = decide_exhibitable(p)
    if not (decision.exhibitable and realize_check(decision.witness, h)):
        return False
    structure = build_witness_structure(h)
    return check_axioms(structure).ok and realize_check(witness_trace_family(structure), h)


def test_criterion_09_hypergraph_dictionary():
    failures = total = 0
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        total += 1
        g = graph(5, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        if not _dictionary_case(g):
            failures += 1
    assert total == 1024
    rng = random.Random(109)
    for _ in range(200):
        total += 1
        h = random_hypergraph(rng, 3, rng.randint(0, 6), rng.choice((0.3, 0.5, 0.7)))
        if not _dictionary_case(h):
            failures += 1
    report(9, "hypergraph pattern dictionary round trip", failures, total)


def test_criterion_10_blowup():
    failures = 0
    rng = random.Random(110)
    for i in range(200):
        k = 2 if i % 2 == 0 else 3
        h = random_hypergraph(rng, k, rng.randint(0, 5), rng.choice((0.3, 0.5, 0.7)))
        blown, grouping = blowup(h)
        witness = realization_witness(blown)
        pulled = blowup_pullback(witness, h, grouping)
        if not realize_check(pulled, h):
            failures += 1
    report(10, "blowup pullback realizes the original", failures, 200)


def test_criterion_11_triangle_free_doubling():
    failures = total = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            total += 1
            g = graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
            result = triangle_free_double(g)  # raises TriangleFound internally
            triangles = [
                t
                for t in itertools.combinations(range(result.graph.vertex_count), 3)
                if all(frozenset(e) in result.graph.edges for e in itertools.combinations(t, 2))
            ]
            if triangles or not realize_check(result.family, g):
                failures += 1
    report(11, "triangle-free doubling on all graphs up to 5 vertices", failures, total)


def test_criterion_12_free_amalgamation():
    failures = 0
    rng = random.Random(112)
    for _ in range(200):
        a, b0, b1, e0, e1 = random_amalgam_problem(rng)
        result = free_amalgam(a, b0, b1, e0, e1)
        commutes = all(
            result.embed0.witness_map[e0.witness_map[i]]
            == result.embed1.witness_map[e1.witness_map[i]]
            for i in range(len(a.witness_points))
        ) and all(
            result.embed0.parameter_map[e0.parameter_map[i]]
            == result.embed1.parameter_map[e1.parameter_map[i]]
            for i in range(len(a.parameter_points))
        )
        if not (check_axioms(result.structure).ok and commutes):
            failures += 1
    report(12, "free amalgams satisfy axioms with commuting embeddings", failures, 200)


def test_criterion_13_cooper_and_threshold_families():
    failures = total = 0
    for n in (1, 2, 3):
        total += 1
        decision = decide_exhibitable(cooper_pattern(n))
        ufam = UnionClosedFamily(n, decision.witness)
        base = [ufam.base_set(i) for i in range(n)]
        disjoint = all(
            not (base[i] & base[j]) for i in range(n) for j in range(i + 1, n)
        )
        if not (decision.exhibitable and disjoint and check_one_n(ufam, 1)):
            failures += 1
    for n in range(1, 7):
        for flavor in ("atoms", "skolem"):
            total += 1
            if not check_one_n(disjoint_one1_family(n, flavor), 1):
                failures += 1
    for n in range(1, 5):
        total += 1
        structure = membership_structure(n)  # raises if its own checks fail
        if not check_one_n(membership_column_family(structure), 1):
            failures += 1
    report(13, "principal-up-set witnesses and threshold families", failures, total)


def test_criterion_14_encoding():
    failures = 0
    rng = random.Random(114)
    for i in range(100):
        arity = 2 if i % 2 == 0 else 3
        h = random_hypergraph(rng, arity, rng.randint(arity, 6), rng.choice((0.3, 0.5, 0.7)))
        decision = decide_exhibitable(pattern_from_hypergraph(h))
        if not (decision.exhibitable and encodes_by_scan(decision.witness, h)):
            failures += 1
    report(14, "synthesized witnesses encode their hypergraphs", failures, 100)


def test_criterion_15_determinism(tmp_path):
    corpus = {}
    instances = {
        "no_point": NO_POINT,
        "union_split": UNION_SPLIT,
        "op4": Pattern(4, tuple(Condition(range(i, 4), range(0, i)) for i in range(4))),
        "cnf": pattern_from_cnf(random_cnf(random.Random(115), 4, 5)),
    }
    for name, p in instances.items():
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps_canonical(jsonio.pattern_to_dict(p)))
        corpus[name] = str(path)

    failures = total = 0
    commands = [["decide", corpus[name], "--witness"] for name in corpus]
    commands += [
        ["verify", "cooper-claim", "--n", "2"],
        ["verify", "powerset-sm", "--n", "2"],
        ["verify", "one1", "--n", "3"],
        ["verify", "ip-family", "--n", "2"],
    ]
    for argv in commands:
        total += 1
        outputs = set()
        for _ in range(3):
            out = io.StringIO()
            cli_run(argv, stdout=out, stderr=io.StringIO())
            outputs.add(out.getvalue())
        if len(outputs) != 1:
            failures += 1
    for name, p in instances.items():
        for target in list(p.consistency) + [None]:
            total += 1
            f = condition_cnf(p) if target is None else condition_cnf(p, target)
            out = io.StringIO()
            args = ["dimacs", corpus[name]]
            if target is not None:
                args += ["--condition", str(p.consistency.index(target))]
            cli_run(args, stdout=out, stderr=io.StringIO())
            import json

            text = json.loads(out.getvalue())["dimacs"]
            if import_dimacs(text) != f:
                failures += 1
    report(15, "CLI determinism and DIMACS round trip", failures, total)
