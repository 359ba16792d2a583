"""Seeded input generators and operations for the two benchmark workloads.

Every input is drawn by this module's own generators from
``random.Random(f"{part}:{seed}")``, one stream per part of a workload
(``WORKLOADS``); ``patterna.rand`` is never used, so
an edit to the library's generators cannot change the workload.  The library
is only reached through public constructors (``Condition``, ``Pattern``,
``CnfFormula``, ``Hypergraph``, ``SetFamily``, ``gen_divline``,
``pattern_from_hypergraph``) and, inside an operation, through the calls the
operation measures.

Each part's share of the pool is a fixed number of *cycles* of input kinds, each
cycle with fresh random draws: the mix of kinds and sizes is the same in
every run and only the instances change with the seed.  Kinds whose cost
swings with the instance (dense clique searches, pigeonhole formulas,
divline families) are either enumerated in full or kept at one labelling,
so that the seed moves the pool's total cost by a few percent at most.

Inputs that are the same for every seed carry ``"fixed": true`` in their
spec; witness_points_mean is taken over them alone (see run.py).

An input's *spec* is plain JSON data in this module's own canonical form; it
is what the fingerprint hashes and what the oracle checks against.  A
pattern spec is ``{"n", "consistency", "inconsistency"}`` with conditions
``[pos, neg]`` as sorted index lists, deduplicated and sorted, which is also
the CLI's pattern file format.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

#: Each workload is made of two parts, each a run of cycles of one input mix.
#: decide runs the CLI's ``decide --witness`` on CNF encodings, where the SAT
#: search does the work, and on structured patterns, where per-condition
#: overhead does.  construct runs library round trips on small hypergraphs,
#: where the clique search does the work, and trace checks on large
#: families, where semantics and constructions do.  Two workloads rather
#: than one per part leave room for long runs (see run.py).
WORKLOADS = {
    "decide": ("decide-cnf", "decide-structured"),
    "construct": ("construct-hypergraph", "verify-family"),
}

@dataclass
class Op:
    """One prepared operation: ``run`` is timed; ``plain`` turns its raw result
    into JSON data for the oracle, outside the timed region."""

    kind: str
    spec: dict
    run: Callable[[], object]
    plain: Callable[[object], object]


# -- canonical forms ---------------------------------------------------------


def canon_pattern(n, consistency, inconsistency) -> dict:
    def side(conds):
        unique = {(tuple(sorted(set(p))), tuple(sorted(set(q)))) for p, q in conds}
        return [[list(p), list(q)] for p, q in sorted(unique)]

    return {"n": n, "consistency": side(consistency), "inconsistency": side(inconsistency)}


def spec_of_pattern(pattern) -> dict:
    """Canonical spec of a library Pattern."""
    return canon_pattern(
        pattern.n,
        [(c.pos, c.neg) for c in pattern.consistency],
        [(c.pos, c.neg) for c in pattern.inconsistency],
    )


def cnf_pattern(variables: int, clauses) -> dict:
    """The pattern_from_cnf encoding: one consistency condition ({m}, {}) and,
    per clause, the inconsistency condition (negated vars, positive vars).
    Clauses are lists of signed 1-based literals."""
    incons = [
        ([abs(lit) - 1 for lit in clause if lit < 0], [lit - 1 for lit in clause if lit > 0])
        for clause in clauses
    ]
    return canon_pattern(variables + 1, [([variables], [])], incons)


def _edges(rng, arity, vertices, probability):
    return [
        list(combo)
        for combo in itertools.combinations(range(vertices), arity)
        if rng.random() < probability
    ]


# -- decide-cnf --------------------------------------------------------------


def planted_3sat(rng, variables, ratio):
    """Random 3-clauses satisfied by a hidden assignment, so always SAT."""
    hidden = [rng.random() < 0.5 for _ in range(variables)]
    clauses = set()
    while len(clauses) < round(ratio * variables):
        chosen = rng.sample(range(variables), 3)
        lits = [(v + 1) if rng.random() < 0.5 else -(v + 1) for v in chosen]
        if any(hidden[abs(lit) - 1] == (lit > 0) for lit in lits):
            clauses.add(tuple(sorted(lits, key=abs)))
    return sorted(clauses)


def pigeonhole(holes):
    """PHP(holes + 1, holes): unsatisfiable."""
    pigeons = holes + 1

    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(a, j), -var(b, j)])
    return pigeons * holes, clauses


def xor_chain(variables):
    """x_i xor x_{i+1} for even i: satisfiable, one branch per pair."""
    clauses = []
    for i in range(0, variables - 1, 2):
        clauses += [[i + 1, i + 2], [-(i + 1), -(i + 2)]]
    return clauses


def implication_chain(variables):
    return [[-(i + 1), i + 2] for i in range(variables - 1)]


def _cnf_spec(kind, variables, clauses, expect, **extra):
    return {"kind": kind, "pattern": cnf_pattern(variables, clauses), "expect": expect, **extra}


#: Planted 3-SAT sizes and clause ratios, each drawn three times per cycle.
#: The recursive DPLL's cost is heavy-tailed near the threshold ratio and
#: grows steeply with size (at 150 variables one instance took 26 s, at 50
#: and ratio 4.26 one in four takes over 60 ms), so 4.26 stops at 35
#: variables, 3.9 at 40, and the cheap, steady instances at 3.5 are doubled:
#: the planted bulk holds the median, whatever the seed, and stays below the
#: chains that hold the 90th percentile.
PLANTED = (
    (30, 3.5), (30, 3.5), (30, 3.9), (30, 4.26), (35, 3.5), (35, 3.5), (35, 3.9),
    (35, 4.26), (40, 3.5), (40, 3.5), (40, 3.9), (40, 3.9), (45, 3.5), (50, 3.5),
)
PLANTED_DRAWS = 3

#: Chain lengths, one of each per cycle; the kind alternates with the cycle,
#: so two cycles hold every length as both an XOR and an implication chain.
#: The longest chains set the 90th percentile.  Chains keep their natural
#: labelling: a relabelling moves their cost by up to a fifth.
CHAIN_SIZES = tuple(range(150, 651, 50))

#: The 3000-variable chain that the recursive DPLL cannot solve (ROADMAP
#: item 4).  It is run once per decide-cnf run, outside the timed loop, and
#: reported by outcome; see run.py.
PROBE_VARIABLES = 3000


def gen_decide_cnf(rng, cycle):
    """42 planted 3-SAT instances, eleven chains and PHP(7, 6) or PHP(8, 7).
    The seed draws the planted formulas; chains and pigeonhole formulas are
    the same in every run, because their cost moves with the labelling (by
    half, for the pigeonhole formulas)."""
    specs = []
    for v, r in PLANTED * PLANTED_DRAWS:
        specs.append(_cnf_spec("planted-3sat", v, planted_3sat(rng, v, r), True, ratio=r))
    for j, v in enumerate(CHAIN_SIZES):
        kind, build = (("xor-chain", xor_chain), ("implication-chain", implication_chain))[(cycle + j) % 2]
        specs.append(_cnf_spec(kind, v, build(v), True, fixed=True))
    variables, clauses = pigeonhole(6 + cycle % 2)
    specs.append(_cnf_spec("pigeonhole", variables, clauses, False, fixed=True))
    return specs


def probe_spec():
    return _cnf_spec("xor-chain", PROBE_VARIABLES, xor_chain(PROBE_VARIABLES), True)


# -- decide-structured -------------------------------------------------------


_DIVLINE_CYCLE = (
    ("pmchar", {"n": 3}),
    ("tp1", {"b": 3, "d": 2}),
    ("ktp", {"b": 3, "d": 2, "k": 2}),
    ("ktp2", {"b": 3, "d": 3, "k": 2}),
    ("ip", {"n": 6}),
    ("op", {"n": 12}),
    ("sop", {"n": 12}),
    ("tp1", {"b": 3, "d": 3}),
    ("ktp", {"b": 3, "d": 3, "k": 3}),
    ("ktp2", {"b": 3, "d": 2, "k": 3}),
    ("cm", {"n": 7}),
    ("ip", {"n": 4}),
)


def random_small_pattern(rng):
    """Arbitrary small pattern in the style of acceptance criterion 01."""
    n = rng.randint(1, 5)
    total = rng.randint(0, 8)
    split = rng.randint(0, total)

    def condition():
        while True:
            pos = [i for i in range(n) if rng.random() < 0.4]
            neg = [i for i in range(n) if rng.random() < 0.4]
            if pos or neg:
                return pos, neg

    return canon_pattern(
        n, [condition() for _ in range(split)], [condition() for _ in range(total - split)]
    )


def gen_decide_structured(rng, cycle, pa):
    """Three dictionary patterns of graphs and one of a 3-uniform hypergraph,
    two divline families and four small random patterns.  Graphs have
    exactly round(p * pairs) edges, the seed choosing which.  The divline
    families keep their natural labelling: relabelling moves the cost of
    tp1 and pmchar, the slowest ops here, by up to half."""
    specs = []
    for j, p in enumerate((0.3, 0.5, 0.8)):
        n = 8 + (cycle * 3 + j) % 5
        edges = _edges_exact(rng, 2, n, round(p * n * (n - 1) / 2))
        h = pa.Hypergraph(2, n, frozenset(frozenset(e) for e in edges))
        specs.append({"kind": "graph-pattern", "pattern": spec_of_pattern(pa.pattern_from_hypergraph(h)),
                      "expect": True})
    n = 5 + cycle % 3
    h = pa.Hypergraph(3, n, frozenset(frozenset(e) for e in _edges(rng, 3, n, DENSITIES[cycle // 3 % 3])))
    specs.append({"kind": "3-uniform-pattern", "pattern": spec_of_pattern(pa.pattern_from_hypergraph(h)),
                  "expect": True})
    for family, params in (_DIVLINE_CYCLE[(2 * cycle) % 12], _DIVLINE_CYCLE[(2 * cycle + 1) % 12]):
        specs.append({"kind": f"divline-{family}", "fixed": True,
                      "pattern": spec_of_pattern(pa.gen_divline(family, **params)), "expect": True})
    for _ in range(4):
        specs.append({"kind": "random-small", "pattern": random_small_pattern(rng), "expect": None})
    return specs


# -- construct-hypergraph ----------------------------------------------------


def _edges_exact(rng, arity, vertices, count):
    return sorted(list(e) for e in rng.sample(list(itertools.combinations(range(vertices), arity)), count))


#: Criterion 10's edge densities, cycled rather than drawn so that every run
#: has the same mix.
DENSITIES = (0.3, 0.5, 0.7)

#: Edge counts of the seeded k=2, 5-vertex blowups, one per cycle; the seed
#: picks the edges.  Denser graphs are not drawn: with 8 edges a round trip
#: takes 10 ms to 0.2 s, with 9 edges 10 ms to 1 s, depending on which.
K2N5_COUNTS = (5, 3, 7, 4, 6, 2, 7, 5)

#: Every 3-uniform hypergraph on 4 vertices (16, as edge-subset masks) and
#: every 9-edge graph on 5 vertices (10, by the missing edge).  Each pool
#: holds all of them once, in a seeded order, so that their cost, 10 ms to
#: 1 s apiece with the edges and their labelling, is the same in every run.
#: They are the slow cases of acceptance criterion 10 and carry most of the
#: workload's time.
K3N4_TRIPLES = list(itertools.combinations(range(4), 3))
K2N5_PAIRS = list(itertools.combinations(range(5), 2))


def gen_construct_hypergraph(rng, cycle):
    """Blowup round trips like acceptance criterion 10, dictionary round
    trips like criterion 09, and triangle-free doublings like 11.

    The k=3, 5-vertex blowups, criterion 10's slowest dense cases (ROADMAP
    item 3), are not in the loop: one round trip takes 0.3 s to over 30 s
    with the edges and their labelling, so the one or two a run has time for
    would decide its throughput.  The traced run times the densest of them
    as a probe (dense_probe_spec).
    """
    specs = []
    for j, (k, n) in enumerate(((2, 2), (2, 3), (2, 4))):
        specs.append({"kind": "blowup-roundtrip", "k": k, "vertices": n,
                      "edges": _edges(rng, k, n, DENSITIES[(cycle + j) % 3])})
    specs.append({"kind": "blowup-roundtrip", "k": 3, "vertices": 3, "edges": [[0, 1, 2]][: cycle % 2]})
    specs.append({"kind": "blowup-roundtrip", "k": 2, "vertices": 5,
                  "edges": _edges_exact(rng, 2, 5, K2N5_COUNTS[cycle % len(K2N5_COUNTS)])})
    for j, (k, n) in enumerate(((2, 5), (2, 6), (3, 6))):
        specs.append({"kind": "dictionary-roundtrip", "k": k, "vertices": n,
                      "edges": _edges(rng, k, n, DENSITIES[(cycle + j) % 3])})
    for n in (5, 6):
        specs.append({"kind": "triangle-free-double", "k": 2, "vertices": n,
                      "edges": _edges(rng, 2, n, 0.5)})
    return specs


def construct_fixed(rng):
    """All 4-vertex 3-uniform and all 9-edge 5-vertex blowups, seeded order."""
    specs = [
        {"kind": "blowup-roundtrip", "k": 3, "vertices": 4, "fixed": True,
         "edges": [list(t) for i, t in enumerate(K3N4_TRIPLES) if mask >> i & 1]}
        for mask in range(16)
    ] + [
        {"kind": "blowup-roundtrip", "k": 2, "vertices": 5, "fixed": True,
         "edges": [list(e) for e in K2N5_PAIRS if e != missing]}
        for missing in K2N5_PAIRS
    ]
    rng.shuffle(specs)
    return specs


def dense_probe_spec(rng):
    """A k=3, 5-vertex hypergraph with 9 of its 10 edges, the seed choosing
    the missing one: the slowest blowup round trip (0.3 s to about 40 s)."""
    return {"kind": "blowup-roundtrip", "k": 3, "vertices": 5, "edges": _edges_exact(rng, 3, 5, 9)}


# -- verify-family -----------------------------------------------------------


def random_consistency_conditions(rng, n, count):
    """Reasonable consistency conditions: disjoint pos/neg, not both empty."""
    out = []
    while len(out) < count:
        roles = [rng.random() for _ in range(n)]
        pos = [i for i in range(n) if roles[i] < 0.3]
        neg = [i for i in range(n) if 0.3 <= roles[i] < 0.6]
        if pos or neg:
            out.append((pos, neg))
    return out


@functools.cache
def ip_pattern_spec(n):
    """ip_pattern(n): every complete split consistent.  Shared, never mutated."""
    splits = [list(pos) for size in range(n + 1) for pos in itertools.combinations(range(n), size)]
    return canon_pattern(n, [(pos, sorted(set(range(n)) - set(pos))) for pos in splits], [])


def gen_verify_family(rng, cycle):
    """Independence-family checks against ip_pattern(n) and against a random
    consistency pattern (plus one violated inconsistency condition), fully
    complete extensions of random families with their powerset witnesses,
    and the disjoint singleton family's threshold check.  Sizes stop at
    n=10, 9 sets and 600 points, where single calls take 0.1 s to 0.3 s
    (n=12 took 2.3 s)."""
    n = 8 + cycle % 3
    specs = [{"kind": "ip-check", "n": n, "pattern": ip_pattern_spec(n), "expect": True, "fixed": True}]
    cons = random_consistency_conditions(rng, n, (200, 400, 600)[cycle // 3 % 3])
    specs.append({"kind": "ip-check", "n": n, "pattern": canon_pattern(n, cons, []), "expect": True})
    violated = random_consistency_conditions(rng, n, 1)
    specs.append({"kind": "ip-check-violated", "n": n, "pattern": canon_pattern(n, cons, violated),
                  "expect": False})
    for j, n in enumerate((7, 8, 9)):
        m = (200, 400, 600)[(cycle + j) % 3]
        density = DENSITIES[(cycle // 3 + j) % 3]
        sets = [[x for x in range(m) if rng.random() < density] for _ in range(n)]
        specs.append({"kind": "complete-extension", "universe": m, "sets": sets})
    specs.append({"kind": "one1", "n": 8 + cycle % 5, "fixed": True})
    return specs


# -- operations --------------------------------------------------------------


def _family(fam):
    return {"universe": fam.universe_size, "sets": [sorted(s) for s in fam.sets]}


def _pattern_obj(pa, spec):
    return pa.Pattern(
        spec["n"],
        tuple(pa.Condition(tuple(p), tuple(q)) for p, q in spec["consistency"]),
        tuple(pa.Condition(tuple(p), tuple(q)) for p, q in spec["inconsistency"]),
    )


def _cli_decide(pa, path):
    out, err = io.StringIO(), io.StringIO()
    code = pa.cli.run(["decide", path, "--witness"], stdout=out, stderr=err)
    return code, out.getvalue()


def _plain_cli(result):
    code, text = result
    return {"exit": code, "stdout": text}


def _blowup_roundtrip(pa, h):
    blown, grouping = pa.blowup(h)
    witness = pa.realization_witness(blown)
    pulled = pa.blowup_pullback(witness, h, grouping)
    return pa.realize_check(pulled, h), pulled


def _plain_blowup(result):
    realized, pulled = result
    return {"realized": realized, "family": _family(pulled)}


def _dictionary_roundtrip(pa, h):
    pattern = pa.pattern_from_hypergraph(h)
    flags = pa.classify(pattern)
    decision = pa.decide_exhibitable(pattern)
    realized = pa.realize_check(decision.witness, h)
    structure = pa.build_witness_structure(h)
    return flags, decision, realized, structure, pa.check_axioms(structure)


def _plain_dictionary(result):
    flags, decision, realized, structure, axioms = result
    return {
        "reasonable": flags.reasonable,
        "positive": flags.positive,
        "exhibitable": decision.exhibitable,
        "witness": _family(decision.witness),
        "realized": realized,
        "witnesses": len(structure.witness_points),
        "parameters": len(structure.parameter_points),
        "r": sorted([w, p] for w, p in structure.r),
        "hyperedges": sorted(sorted(e) for e in structure.hyperedges),
        "axioms_ok": axioms.ok,
    }


def _plain_double(result):
    return {
        "vertices": result.graph.vertex_count,
        "edges": sorted(sorted(e) for e in result.graph.edges),
        "pairs": [list(pair) for pair in result.pairs],
        "family": _family(result.family),
    }


def _ip_check(pa, n, pattern):
    fam = pa.ip_family(n)
    return fam, pa.check_exhibits(fam, pattern)


def _plain_report(result):
    fam, report = result

    def conds(cs):
        return [[list(c.pos), list(c.neg)] for c in cs]

    return {
        "universe": fam.universe_size,
        "ok": report.ok,
        "failing_consistency": conds(report.failing_consistency),
        "failing_inconsistency": conds(report.failing_inconsistency),
    }


def _complete_extension(pa, fam):
    ext = pa.fully_complete_extension(fam)
    return ext, pa.check_exhibits(fam, ext), pa.powerset_sm_witness(ext)


def _plain_extension(result):
    ext, report, witness = result
    return {"extension": spec_of_pattern(ext), "ok": report.ok, "witness": _family(witness)}


def _one1(pa, n):
    ufam = pa.disjoint_one1_family(n)
    return ufam, pa.check_one_n(ufam, 1)


def _plain_one1(result):
    ufam, ok = result
    return {"universe": ufam.family.universe_size, "index_count": ufam.index_count, "ok": ok}


def prepare(pa, specs, workdir):
    """Build the runnable Ops for specs; decide ops read pattern files that
    this writes into workdir."""
    os.makedirs(workdir, exist_ok=True)
    patterns = {}  # id of a shared pattern spec -> library Pattern
    return [_prepare(pa, spec, f"{workdir}/{i}.json", patterns) for i, spec in enumerate(specs)]


def _prepare(pa, spec, path, patterns):
    kind = spec["kind"]
    if kind in ("ip-check", "ip-check-violated"):
        key = id(spec["pattern"])
        if key not in patterns:
            patterns[key] = _pattern_obj(pa, spec["pattern"])
        return Op(kind, spec, functools.partial(_ip_check, pa, spec["n"], patterns[key]), _plain_report)
    if "pattern" in spec:
        # A seed always writes the same file here, so a later set-up of the
        # same run reuses it: set-up time is the program's, not the disk's.
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec["pattern"], handle)
        return Op(kind, spec, functools.partial(_cli_decide, pa, path), _plain_cli)
    if kind in ("blowup-roundtrip", "dictionary-roundtrip", "triangle-free-double"):
        h = pa.Hypergraph(spec["k"], spec["vertices"], frozenset(frozenset(e) for e in spec["edges"]))
        if kind == "blowup-roundtrip":
            return Op(kind, spec, functools.partial(_blowup_roundtrip, pa, h), _plain_blowup)
        if kind == "dictionary-roundtrip":
            return Op(kind, spec, functools.partial(_dictionary_roundtrip, pa, h), _plain_dictionary)
        return Op(kind, spec, functools.partial(pa.triangle_free_double, h), _plain_double)
    if kind == "complete-extension":
        fam = pa.SetFamily(spec["universe"], tuple(frozenset(s) for s in spec["sets"]))
        return Op(kind, spec, functools.partial(_complete_extension, pa, fam), _plain_extension)
    if kind == "one1":
        return Op(kind, spec, functools.partial(_one1, pa, spec["n"]), _plain_one1)
    raise ValueError(f"unknown op kind {kind!r}")


#: Cycles of each part per pool, sized so that one pass over a part takes
#: 2 s to 4 s at the parent commit on a 2-vCPU VM; a run passes over its
#: pool again and again.
POOL_CYCLES = {
    "decide-cnf": 2,
    "decide-structured": 16,
    "construct-hypergraph": 8,
    "verify-family": 16,
}


def generate_cycles(part, rng, count, pa):
    """`count` cycles of one part's inputs, each a list of specs."""
    if part == "decide-cnf":
        return [gen_decide_cnf(rng, c) for c in range(count)]
    if part == "decide-structured":
        return [gen_decide_structured(rng, c, pa) for c in range(count)]
    if part == "construct-hypergraph":
        return [gen_construct_hypergraph(rng, c) for c in range(count)]
    return [gen_verify_family(rng, c) for c in range(count)]


def generate(workload, seed, pa):
    """The workload's input pool, a list of specs: each part's cycles, drawn
    from the part's own seeded stream."""
    specs = []
    for part in WORKLOADS[workload]:
        rng = random.Random(f"{part}:{seed}")
        specs += [spec for cycle in generate_cycles(part, rng, POOL_CYCLES[part], pa) for spec in cycle]
        if part == "construct-hypergraph":
            specs += construct_fixed(rng)
    return specs
