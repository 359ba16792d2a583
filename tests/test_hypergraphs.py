import collections
import hashlib
import itertools
import random
import re

import pytest

from patterna import (
    Condition,
    Embedding,
    Hypergraph,
    Pattern,
    SetFamily,
    WitnessStructure,
    blowup,
    blowup_pullback,
    build_witness_structure,
    check_axioms,
    check_exhibits,
    classify,
    decide_exhibitable,
    free_amalgam,
    graph,
    hypergraphs,
    is_k_bounded,
    maximal_cliques,
    pattern_from_hypergraph,
    realization_witness,
    realize_check,
    triangle_free_double,
    witness_trace_family,
)
from patterna.errors import (
    ArityMismatch,
    BoundExceeded,
    IndexOutOfRange,
    NotAnEmbedding,
    NotReasonablePositive,
    PreconditionFailure,
    UnsupportedParams,
)
from patterna.patterns import _canonical, subset_index
from patterna.rand import random_amalgam_problem, random_hypergraph

from conftest import clique_masks_by_scan, encodes_by_scan


def cond(pos, neg=()):
    return Condition(tuple(pos), tuple(neg))


def fam(universe, *sets):
    return SetFamily(universe, tuple(frozenset(s) for s in sets))


@pytest.mark.parametrize("arity, vertex_count", [(2, 3.0), (2.0, 3), (2, True), (2, None)])
def test_non_integer_sizes_rejected(arity, vertex_count):
    with pytest.raises(UnsupportedParams):
        Hypergraph(arity, vertex_count, frozenset())


@pytest.mark.parametrize("vertex", [0.5, 1.0, True])
def test_non_integer_vertices_rejected(vertex):
    with pytest.raises(IndexOutOfRange, match=re.escape(f"vertex {vertex!r} is not an integer")):
        Hypergraph(2, 3, frozenset({frozenset({vertex, 2})}))


class TestPatternFromHypergraph:
    def test_path_graph(self):
        p = pattern_from_hypergraph(graph(3, [(0, 1), (1, 2)]))
        assert set(p.consistency) == {
            cond([0]), cond([1]), cond([2]), cond([0, 1]), cond([1, 2])
        }
        assert p.inconsistency == (cond([0, 2]),)

    def test_complete_graph(self):
        p = pattern_from_hypergraph(graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert len(p.consistency) == 7 and not p.inconsistency

    def test_edgeless(self):
        p = pattern_from_hypergraph(graph(2, []))
        assert set(p.consistency) == {cond([0]), cond([1])}
        assert p.inconsistency == (cond([0, 1]),)

    def test_classification_contract(self):
        rng = random.Random(3)
        for _ in range(60):
            h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(0, 6), 0.5)
            p = pattern_from_hypergraph(h)
            flags = classify(p)
            assert flags.reasonable and flags.positive and is_k_bounded(p, h.arity)
            assert set(p.consistency) == {
                cond(v for v in range(h.vertex_count) if mask >> v & 1)
                for mask in clique_masks_by_scan(h)
            }

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            pattern_from_hypergraph(Hypergraph(2, 13, frozenset()))


class TestRealizeCheck:
    def test_example(self):
        h = graph(3, [(0, 1), (1, 2)])
        assert realize_check(fam(2, {0}, {0, 1}, {1}), h)

    def test_identical_sets_fail_edgeless(self):
        h = graph(2, [])
        assert not realize_check(fam(1, {0}, {0}), h)

    def test_single_vertex(self):
        h = Hypergraph(2, 1, frozenset())
        assert realize_check(fam(1, {0}), h)
        assert not realize_check(fam(1, set()), h)

    def test_matches_pattern_route(self):
        rng = random.Random(19)
        for _ in range(80):
            h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(0, 5), 0.5)
            n = h.vertex_count
            f = fam(3, *({x for x in range(3) if rng.random() < 0.5} for _ in range(n)))
            expected = check_exhibits(f, pattern_from_hypergraph(h)).ok
            assert realize_check(f, h) == expected

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            realize_check(fam(1, {0}), graph(2, []))


class TestMaximalCliques:
    def test_path_graph(self):
        assert maximal_cliques(graph(3, [(0, 1), (1, 2)])) == [
            frozenset({0, 1}), frozenset({1, 2})
        ]

    def test_edgeless(self):
        assert maximal_cliques(graph(3, [])) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]

    def test_three_uniform_small(self):
        h = Hypergraph(3, 4, frozenset({frozenset({0, 1, 2})}))
        cliques = maximal_cliques(h)
        assert frozenset({0, 1, 2}) in cliques
        # pairs with 3 form maximal cliques (no 3-subset inside them fails)
        assert frozenset({0, 3}) in cliques

    def test_realization_witness_random(self):
        rng = random.Random(23)
        for _ in range(60):
            h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(0, 6), 0.4)
            assert realize_check(realization_witness(h), h)

    def test_matches_subset_table_route(self):
        # independent route: scan every vertex subset, keep the cliques with
        # no one-vertex clique extension
        rng = random.Random(53)
        inputs = [
            random_hypergraph(rng, rng.choice((2, 3, 4)), rng.randint(0, 9), rng.random())
            for _ in range(80)
        ]
        for n in range(4):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
                inputs.append(blowup(g)[0])
        for _ in range(30):
            h = skewed_hypergraph(rng, rng.choice((2, 3, 4)), rng.randint(5, 10))
            # the search's ascending-degree order is not the identity here
            vertices = range(h.vertex_count)
            degree = [sum(v in e for e in h.edges) for v in vertices]
            assert sorted(vertices, key=degree.__getitem__) != list(vertices)
            inputs.append(h)
        for h in inputs:
            cliques = set(clique_masks_by_scan(h))
            expected = sorted(
                (
                    frozenset(v for v in range(h.vertex_count) if mask >> v & 1)
                    for mask in cliques
                    if not any(mask | 1 << v in cliques and not mask >> v & 1
                               for v in range(h.vertex_count))
                ),
                key=sorted,
            )
            assert maximal_cliques(h) == expected

    def test_blowups_relabel_invariant(self):
        # every 3-uniform hypergraph on 4 vertices and every 9-edge graph on
        # 5 vertices, blown up: the cliques found under a random relabelling
        # map back to the cliques found directly, and each is a clique that
        # no vertex extends
        rng = random.Random(59)
        for source in fixed_blowup_sources():
            h = blowup(source)[0]
            cliques = maximal_cliques(h)
            perm = rng.sample(range(h.vertex_count), h.vertex_count)
            moved = Hypergraph(
                h.arity, h.vertex_count, frozenset(frozenset(perm[v] for v in e) for e in h.edges)
            )
            back = {perm[v]: v for v in range(h.vertex_count)}
            assert sorted((frozenset(back[v] for v in c) for c in maximal_cliques(moved)),
                          key=sorted) == cliques
            for clique in cliques:
                assert all(frozenset(sub) in h.edges
                           for sub in itertools.combinations(clique, h.arity))
                for v in set(range(h.vertex_count)) - clique:
                    assert not all(frozenset((v, *sub)) in h.edges
                                   for sub in itertools.combinations(clique, h.arity - 1))


def fixed_blowup_sources():
    """The construct benchmark's fixed blowup sources: every 3-uniform
    hypergraph on 4 vertices and every 9-edge graph on 5 vertices."""
    triples = list(itertools.combinations(range(4), 3))
    pairs = list(itertools.combinations(range(5), 2))
    return [
        Hypergraph(3, 4, frozenset(frozenset(t) for i, t in enumerate(triples) if mask >> i & 1))
        for mask in range(16)
    ] + [graph(5, (e for e in pairs if e != missing)) for missing in pairs]


def maximal_masks_by_scan(h):
    """The maximal cliques as ascending masks: the scanned cliques that no
    single vertex extends."""
    cliques = set(clique_masks_by_scan(h))
    return sorted(m for m in cliques if not any(m | 1 << v in cliques and not m >> v & 1
                                                for v in range(h.vertex_count)))


def skewed_hypergraph(rng, arity, vertices):
    """A dense core on the lowest vertices plus pendant vertices, each in one
    edge with the core: the low labels carry the high degrees."""
    core = rng.randint(arity, vertices - 1)
    edges = {
        frozenset(combo)
        for combo in itertools.combinations(range(core), arity)
        if rng.random() < 0.9
    }
    for v in range(core, vertices):
        edges.add(frozenset((v, *rng.sample(range(core), arity - 1))))
    return Hypergraph(arity, vertices, frozenset(edges))


class TestBlowup:
    def test_edgeless_pair(self):
        blown, grouping = blowup(graph(2, []))
        assert blown.vertex_count == 6
        assert blown.edges == frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})})
        assert grouping == ((0, 1, 2), (3, 4, 5))

    def test_single_edge_full(self):
        blown, _ = blowup(graph(2, [(0, 1)]))
        assert len(blown.edges) == 20

    def test_empty(self):
        blown, grouping = blowup(Hypergraph(2, 0, frozenset()))
        assert blown.vertex_count == 0 and not blown.edges and grouping == ()

    def test_triangle_blocks_stay_cliques(self):
        # the union of all three blocks of a triangle must be a clique
        blown, grouping = blowup(graph(3, [(0, 1), (0, 2), (1, 2)]))
        transversal = frozenset({grouping[0][0], grouping[1][0], grouping[2][0]})
        assert transversal in blown.edges

    def test_roundtrip_examples(self):
        for edges in ([], [(0, 1)]):
            h = graph(2, edges)
            blown, grouping = blowup(h)
            witness = realization_witness(blown)
            pulled = blowup_pullback(witness, h, grouping)
            assert realize_check(pulled, h)

    def test_roundtrip_via_decide(self):
        h = graph(2, [(0, 1)])
        blown, grouping = blowup(h)
        decision = decide_exhibitable(pattern_from_hypergraph(blown))
        pulled = blowup_pullback(decision.witness, h, grouping)
        assert realize_check(pulled, h)

    def test_pullback_searches_each_hypergraph_once(self, monkeypatch):
        # a round trip searches the source alone: the blowup carries the
        # cliques it derived, which the witness takes, and the pullback
        # derives them again; the last search is the realize_check
        rng = random.Random(67)
        sources = fixed_blowup_sources() + [
            random_hypergraph(rng, arity, rng.randint(0, most), rng.random())
            for arity, most in ((2, 5), (3, 4), (4, 4)) for _ in range(8)
        ]
        searched = []
        engine = hypergraphs._maximal_clique_masks
        monkeypatch.setattr(hypergraphs, "_maximal_clique_masks",
                            lambda g: searched.append(g) or engine(g))
        for h in sources:
            searched.clear()
            blown, grouping = blowup(h)
            witness = realization_witness(blown)
            assert realize_check(blowup_pullback(witness, h, grouping), h)
            assert searched == [h, h, h]
            # a caller-built copy carries no cliques and is searched
            assert realization_witness(Hypergraph(blown.arity, blown.vertex_count, blown.edges)) == witness

    def test_pullback_builds_no_blowup_edges(self, monkeypatch):
        # the pullback checks its precondition on the blowup's maximal cliques,
        # derived from the source's: it enumerates no clique's submasks, which
        # the blowup's edges are grown from, and builds no hypergraph
        rng = random.Random(71)
        sources = fixed_blowup_sources()[::3] + [
            random_hypergraph(rng, arity, rng.randint(0, most), rng.random())
            for arity, most in ((2, 5), (3, 4), (4, 4)) for _ in range(4)
        ]
        built = []
        canonical, submasks = hypergraphs._canonical, hypergraphs._submasks
        monkeypatch.setattr(hypergraphs, "_canonical", lambda cls, *values: built.append(cls) or canonical(cls, *values))
        monkeypatch.setattr(hypergraphs, "_submasks", lambda maximal: built.append("submasks") or submasks(maximal))
        for h in sources:
            blown, grouping = blowup(h)
            assert Hypergraph in built and "submasks" in built
            witness = realization_witness(blown)
            built.clear()
            assert realize_check(blowup_pullback(witness, h, grouping), h)
            assert built == [], h

    def test_derived_cliques_are_the_blowups_maximal_cliques(self):
        # the block unions of h's maximal cliques plus the transversals of
        # its non-edges, as vertex masks: against the subset scan where the
        # blowup has at most 12 vertices, and against the clique search on a
        # caller-built copy of the larger ones; the edges are the (k+1)-sets
        # whose blocks form a scanned clique of h
        rng = random.Random(61)
        sources = fixed_blowup_sources()
        for arity, most in ((2, 5), (3, 4), (4, 4)):
            for vertices in range(most + 1):
                every = itertools.combinations(range(vertices), arity)
                sources.append(Hypergraph(arity, vertices, frozenset()))
                sources.append(Hypergraph(arity, vertices, frozenset(map(frozenset, every))))
                if vertices > arity:
                    sources += [random_hypergraph(rng, arity, vertices, rng.random()) for _ in range(4)]
        for h in sources:
            blown, _ = blowup(h)
            derived = sorted(blown._cliques())
            if blown.vertex_count <= 12:
                assert derived == maximal_masks_by_scan(blown), h
            else:
                copy = Hypergraph(blown.arity, blown.vertex_count, blown.edges)
                assert derived == sorted(hypergraphs._maximal_clique_masks(copy)), h
            cliques = set(clique_masks_by_scan(h))
            width = h.arity + 1
            assert blown.edges == {
                frozenset(combo)
                for combo in itertools.combinations(range(blown.vertex_count), width)
                if sum({1 << v // width for v in combo}) in cliques
            }, h

    def test_pullback_accepts_exactly_the_blowups_realizers(self):
        # witnesses of blowups with 0-3 points toggled: the pullback takes
        # exactly the families that realize_check finds realizing a
        # caller-built copy of the blowup, whose cliques are searched
        rng = random.Random(3)
        seen = collections.Counter()
        for _ in range(120):
            h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(0, 4), rng.random())
            blown, grouping = blowup(h)
            copy = Hypergraph(blown.arity, blown.vertex_count, blown.edges)
            cliques = maximal_cliques(copy)
            witness = realization_witness(blown)
            for _ in range(6):
                sets = [set(s) for s in witness.sets]
                for _ in range(rng.randint(0, 3) if sets else 0):
                    sets[rng.randrange(len(sets))] ^= {rng.randrange(witness.universe_size)}
                family = SetFamily(witness.universe_size, sets)
                realizes = realize_check(family, copy)
                try:
                    blowup_pullback(family, h, grouping)
                except PreconditionFailure:
                    assert not realizes, (h, family)
                else:
                    assert realizes, (h, family)
                meets = all(frozenset.intersection(*(family.sets[v] for v in c)) for c in cliques)
                seen[realizes, encodes_by_scan(family, copy), meets] += 1
        # refused families that encode the blowup but leave a clique without
        # a common point, and ones whose cliques all meet but that do not encode it
        assert seen[True, True, True] and seen[False, True, False] and seen[False, False, True], seen

    def test_pullback_precondition(self):
        h = graph(2, [])
        _, grouping = blowup(h)
        bogus = fam(1, *[{0}] * 6)
        with pytest.raises(PreconditionFailure):
            blowup_pullback(bogus, h, grouping)


class TestHypergraphState:
    """Edge masks are the state; edges is a view, filled at once by the public
    constructor and on first read for a hypergraph the library builds."""

    def test_mask_built_equals_public_built(self):
        public = graph(3, [(0, 1), (1, 2)])
        built = _canonical(Hypergraph, 2, 3, frozenset({0b11, 0b110}))
        assert built == public and hash(built) == hash(public)
        assert built.edges == public.edges and built.masks == public.masks == {3, 6}
        assert built != _canonical(Hypergraph, 2, 4, frozenset({0b11, 0b110}))
        assert built != _canonical(Hypergraph, 3, 3, frozenset({0b11, 0b110}))
        assert built != _canonical(Hypergraph, 2, 3, frozenset({0b11}))

    @pytest.mark.parametrize("name", ["arity", "vertex_count", "masks", "edges"])
    def test_fields_cannot_be_assigned(self, name):
        for h in (graph(2, [(0, 1)]), _canonical(Hypergraph, 2, 2, frozenset({3})), blowup(graph(2, []))[0]):
            for _ in range(2):  # before and after the view is read
                with pytest.raises(AttributeError):
                    setattr(h, name, frozenset())
                assert h.edges

    def test_round_trip_leaves_the_blowups_view_unbuilt(self):
        for source in fixed_blowup_sources()[::4] + [graph(2, [(0, 1)])]:
            blown, grouping = blowup(source)
            pulled = blowup_pullback(realization_witness(blown), source, grouping)
            assert realize_check(pulled, source)
            assert "edges" not in vars(blown)
            assert {subset_index(e) for e in blown.edges} == blown.masks

    def test_library_built_views_list_the_masks(self):
        # blowups and doublings may list their edges in another order than a
        # public-built copy; the edge sets are equal, and the cliques a
        # blowup carries are not part of its state
        rng = random.Random(73)
        for _ in range(20):
            h = random_hypergraph(rng, 2, rng.randint(0, 4), rng.random())
            for built in (blowup(h)[0], triangle_free_double(h).graph):
                copy = Hypergraph(built.arity, built.vertex_count, built.edges)
                assert copy == built and hash(copy) == hash(built) and copy.edges == built.edges
                assert {subset_index(e) for e in built.edges} == built.masks

    @pytest.mark.parametrize("build, text", [
        (lambda: graph(3, [(0, 1), (1, 2)]),
         "Hypergraph(arity=2, vertex_count=3, edges=frozenset({frozenset({0, 1}), frozenset({1, 2})}))"),
        (lambda: Hypergraph(3, 4, frozenset({frozenset({0, 1, 2}), frozenset({1, 2, 3})})),
         "Hypergraph(arity=3, vertex_count=4, edges=frozenset({frozenset({1, 2, 3}), frozenset({0, 1, 2})}))"),
        (lambda: Hypergraph(2, 0, frozenset()), "Hypergraph(arity=2, vertex_count=0, edges=frozenset())"),
        # 1 and 9 share a slot in a small frozenset's table: the edge keeps the caller's order
        (lambda: graph(12, [(9, 1)]),
         "Hypergraph(arity=2, vertex_count=12, edges=frozenset({frozenset({9, 1})}))"),
        (lambda: graph(12, [(1, 9), (9, 10), (0, 11)]),
         "Hypergraph(arity=2, vertex_count=12, edges=frozenset({frozenset({1, 9}), frozenset({0, 11}), "
         "frozenset({9, 10})}))"),
    ])
    def test_repr_unchanged(self, build, text):
        # the strings were printed by the frozenset-state Hypergraph
        assert repr(build()) == text

    def test_random_reprs_unchanged(self):
        rng = random.Random(71)
        text = "\n".join(
            repr(random_hypergraph(rng, rng.choice((2, 3, 4)), rng.randint(0, 7), rng.random()))
            for _ in range(200)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7413aad9f6a0cb2ec6dc72c23eab1dad31c32eda93df6438d4ff3a075afce3b2"
        )


class TestWitnessStructures:
    def test_example(self):
        p = Pattern(3, (cond([0, 1]),), (cond([1, 2]),))
        s = build_witness_structure(p)
        assert s.witness_points == ("w0",) and len(s.parameter_points) == 3
        assert s.r == {(0, 0), (0, 1)}
        assert s.hyperedges == {frozenset({1, 2})}
        assert check_axioms(s).ok

    def test_empty_pattern(self):
        s = build_witness_structure(Pattern(0))
        assert not s.witness_points and not s.parameter_points
        assert check_axioms(s).ok

    def test_axiom_violation_detected(self):
        p = Pattern(3, (cond([0, 1]),), (cond([1, 2]),))
        s = build_witness_structure(p)
        broken = WitnessStructure(
            s.witness_points, s.parameter_points, s.r | {(0, 2)}, s.hyperedges, s.flavor
        )
        report = check_axioms(broken)
        assert not report.ok and any("related to all" in v for v in report.violations)

    def test_rejects_non_positive(self):
        with pytest.raises(NotReasonablePositive):
            build_witness_structure(Pattern(2, (cond([0], [1]),)))

    def test_trace_family_skips_pairs_outside_the_sorts(self):
        # structures are not validated on construction: a pair naming no
        # witness or no parameter, negative ones included, adds no point
        stray = {(2, 0), (-1, 1), (0, 5), (1, -1)}
        s = WitnessStructure(("w0", "w1"), ("p0", "p1"), frozenset({(0, 0), (1, 1)} | stray), ())
        assert witness_trace_family(s) == SetFamily(2, ({0}, {1}))
        none = WitnessStructure((), ("p0", "p1"), frozenset({(0, 0), (-1, 1)}), ())
        assert witness_trace_family(none) == SetFamily(1, ((), ()))

    def test_axioms_read_the_relation_as_given(self):
        # a pair outside the sorts is reported, and still counts towards a
        # witness being related to all of a hyperedge that leaves the sorts
        s = WitnessStructure(("w0", "w1"), ("p0", "p1"), frozenset({(0, 0), (0, 3), (2, 0), (1, 1), (-1, 0)}),
                             frozenset({frozenset({0, 3}), frozenset(), frozenset({1})}))
        assert check_axioms(s).violations == (
            "relation pair (-1,0) has no witness point -1",
            "relation pair (0,3) has no parameter point 3",
            "relation pair (2,0) has no witness point 2",
            "empty hyperedge",
            "hyperedge [0, 3] leaves the parameter sort",
            "witness 0 is related to all of hyperedge []",
            "witness 1 is related to all of hyperedge []",
            "witness 0 is related to all of hyperedge [0, 3]",
            "witness 1 is related to all of hyperedge [1]",
        )

    def test_hypergraph_flavor(self):
        h = graph(3, [(0, 1)])
        s = build_witness_structure(h)
        assert s.flavor == "k-uniform"
        assert s.hyperedges == {frozenset({0, 2}), frozenset({1, 2})}
        assert realize_check(witness_trace_family(s), h)

    def test_trace_family_exhibits_pattern(self):
        rng = random.Random(29)
        from patterna.rand import random_reasonable_positive

        for _ in range(50):
            p = random_reasonable_positive(rng, rng.randint(0, 5), 4, 4)
            s = build_witness_structure(p)
            assert check_exhibits(witness_trace_family(s), p).ok


class TestEmbeddingProblems:
    # messages pinned before the relation comparison moved to type masks
    A = WitnessStructure(
        ("w0", "w1", "w2"), ("p0", "p1", "p2", "p3"),
        frozenset({(0, 1), (0, 3), (1, 0), (2, 2), (2, 3), (3, 1), (1, 4), (-2, 0), (0, -3)}),
        frozenset({frozenset({0, 3})}),
    )
    B = WitnessStructure(
        ("x0", "x1", "x2", "x3"), ("q0", "q1", "q2", "q3", "q4"),
        frozenset({(1, 4), (1, 0), (3, 2), (3, 1), (0, 3), (0, 0), (0, 4), (4, 4), (0, 7)}),
        frozenset({frozenset({1, 2}), frozenset({4, 3})}),
    )

    def test_pinned_messages(self):
        # (1,2) and (2,1) are related in B's image only, (2,2) in A only;
        # the pairs outside either structure's sorts are never compared
        assert hypergraphs.embedding_problems(self.A, self.B, Embedding((1, 3, 0), (2, 4, 1, 0))) == [
            "relation not preserved/reflected at (1,2)",
            "relation not preserved/reflected at (2,1)",
            "relation not preserved/reflected at (2,2)",
            "hyperedge [0, 3] not preserved",
            "hyperedge [1, 2] not reflected",
        ]
        assert hypergraphs.embedding_problems(self.A, self.B, Embedding((1, 3, 0), (2, 4, 1, 5))) == [
            "parameter map leaves the target sort"]
        assert hypergraphs.embedding_problems(self.A, self.B, Embedding((1, 1, 0), (2, 4, 1, 0))) == [
            "witness map is not injective"]
        assert hypergraphs.embedding_problems(self.A, self.B, Embedding((1, 3), (2, 4, 1, 0))) == [
            "witness map length differs from source witness sort"]
        empty = WitnessStructure((), (), frozenset(), frozenset(), hypergraphs.UNIFORM_FLAVOR)
        assert hypergraphs.embedding_problems(self.A, empty, Embedding((), ())) == [
            "flavor mismatch: positive vs k-uniform",
            "witness map length differs from source witness sort",
            "parameter map length differs from source parameter sort",
        ]

    def test_pinned_preserved_one_way_reflected_the_other(self):
        a = WitnessStructure(
            ("w0", "w1", "w2"), ("p0", "p1", "p2"),
            frozenset({(0, 0), (0, 2), (1, 1), (2, 0), (2, 1), (3, 0), (0, 3), (-1, 1), (1, -1)}),
            frozenset({frozenset({0, 1})}),
        )
        b = WitnessStructure(
            ("x0", "x1", "x2", "x3"), ("q0", "q1", "q2", "q3"),
            frozenset({(3, 3), (3, 0), (0, 1), (0, 2), (2, 3), (2, 1), (2, 0), (1, 1), (4, 0), (1, 9)}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        )
        # (0,0) is in a and not in b's image; (0,1) is in b's image and not in a
        assert hypergraphs.embedding_problems(a, b, Embedding((0, 1, 2), (3, 1, 2))) == [
            "relation not preserved/reflected at (0,0)",
            "relation not preserved/reflected at (0,1)",
        ]
        assert hypergraphs.embedding_problems(a, b, Embedding((3, 0, 2), (3, 1, 0))) == [
            "relation not preserved/reflected at (2,2)"]
        assert hypergraphs.embedding_problems(b, b, Embedding((0, 1, 2, 3), (0, 1, 2, 3))) == []

    def test_relation_messages_match_pair_lookups(self):
        rng = random.Random(1301)

        def structure(nw, np_):
            pairs = {(rng.randint(-1, nw), rng.randint(-1, np_)) for _ in range(rng.randint(0, 3 * nw + 2))}
            return WitnessStructure(tuple(map(str, range(nw))), tuple(map(str, range(np_))),
                                    frozenset(pairs), frozenset())

        for _ in range(300):
            a = structure(rng.randint(0, 4), rng.randint(0, 5))
            b = structure(len(a.witness_points) + rng.randint(0, 2), len(a.parameter_points) + rng.randint(0, 2))
            e = Embedding(rng.sample(range(len(b.witness_points)), len(a.witness_points)),
                          rng.sample(range(len(b.parameter_points)), len(a.parameter_points)))
            expected = [
                f"relation not preserved/reflected at ({w},{p})"
                for w in range(len(a.witness_points)) for p in range(len(a.parameter_points))
                if ((w, p) in a.r) != ((e.witness_map[w], e.parameter_map[p]) in b.r)
            ]
            assert hypergraphs.embedding_problems(a, b, e) == expected


class TestFreeAmalgam:
    def small(self):
        p = Pattern(2, (cond([0, 1]),), ())
        return build_witness_structure(p)

    def test_empty_base_disjoint_union(self):
        b0 = self.small()
        b1 = self.small()
        empty = build_witness_structure(Pattern(0))
        e = Embedding((), ())
        result = free_amalgam(empty, b0, b1, e, e)
        assert len(result.structure.witness_points) == 2
        assert len(result.structure.parameter_points) == 4
        assert len(result.structure.r) == 4
        assert check_axioms(result.structure).ok

    def test_shared_parameter_point(self):
        base = WitnessStructure((), ("p0",), frozenset(), frozenset())
        b0 = WitnessStructure(("w0",), ("p0", "p1"), frozenset({(0, 0), (0, 1)}), frozenset())
        b1 = WitnessStructure((), ("p0", "q1"), frozenset(), frozenset({frozenset({0, 1})}))
        e = Embedding((), (0,))
        result = free_amalgam(base, b0, b1, e, e)
        s = result.structure
        assert len(s.parameter_points) == 3
        # the glued point keeps its b0 index; no relations were added across sides
        assert s.hyperedges == {frozenset({0, result.embed1.parameter_map[1]})}
        assert check_axioms(s).ok

    def test_non_injective_rejected(self):
        base = WitnessStructure((), ("p0", "p1"), frozenset(), frozenset())
        b = WitnessStructure((), ("p0", "p1"), frozenset(), frozenset())
        bad = Embedding((), (0, 0))
        with pytest.raises(NotAnEmbedding):
            free_amalgam(base, b, b, bad, Embedding((), (0, 1)))

    def test_non_reflecting_rejected(self):
        base = WitnessStructure((), ("p0", "p1"), frozenset(), frozenset())
        b = WitnessStructure((), ("p0", "p1"), frozenset(), frozenset({frozenset({0, 1})}))
        identity = Embedding((), (0, 1))
        with pytest.raises(NotAnEmbedding):
            free_amalgam(base, b, b, identity, identity)

    def test_non_identity_embeddings(self):
        # A's only parameter sits at different indices in the two sides
        base = WitnessStructure(("wa",), ("pa",), frozenset({(0, 0)}), frozenset())
        b0 = WitnessStructure(
            ("x", "wa"), ("y", "pa"), frozenset({(1, 1), (0, 0)}), frozenset()
        )
        b1 = WitnessStructure(
            ("wa", "z"), ("pa", "q"), frozenset({(0, 0), (1, 1)}), frozenset()
        )
        e0 = Embedding((1,), (1,))
        e1 = Embedding((0,), (0,))
        result = free_amalgam(base, b0, b1, e0, e1)
        s = result.structure
        assert len(s.witness_points) == 3 and len(s.parameter_points) == 3
        # shared pair present once, side pairs kept, nothing across sides
        assert (result.embed1.witness_map[0], result.embed1.parameter_map[0]) == (1, 1)
        assert len(s.r) == 3
        assert check_axioms(s).ok

    def test_relation_mismatch_rejected(self):
        base = WitnessStructure(("wa",), ("pa",), frozenset({(0, 0)}), frozenset())
        side = WitnessStructure(("wa",), ("pa",), frozenset(), frozenset())
        identity = Embedding((0,), (0,))
        with pytest.raises(NotAnEmbedding):
            free_amalgam(base, side, side, identity, identity)

    # A side that extends A = (w0 | p0) by the witness v related to the parameter q
    A = WitnessStructure(("w0",), ("p0",), frozenset({(0, 0)}), frozenset())
    SIDE = WitnessStructure(("w0", "v"), ("p0", "q"), frozenset({(0, 0), (1, 1)}), frozenset())

    @pytest.mark.parametrize("broken, part, r, hyperedges", [
        # B1's relabelling read past its maps: unexpected IndexError
        ("B1", "b1", {(1, 2)}, ()),
        ("B1", "b1", (), {frozenset({0, 2})}),
        # B0's stray pair reached the amalgam: "amalgam violates the axioms"
        ("B0", "b0", {(0, 9)}, ()),
        # B1's -1 read as its last parameter: "B1 does not embed into the amalgam"
        ("B1", "b1", (), {frozenset({0, -1})}),
        # ... or folded silently into (1,1): exit 0
        ("B1", "b1", {(1, -1)}, ()),
        # a pair of A outside its sorts is never compared: exit 0
        ("A", "a", {(0, 9)}, ()),
    ], ids=["b1-pair", "b1-hyperedge", "b0-pair", "b1-negative-hyperedge", "b1-negative-pair", "a-pair"])
    def test_inputs_checked_against_the_axioms(self, broken, part, r, hyperedges):
        parts = {"a": self.A, "b0": self.SIDE, "b1": self.SIDE}
        s = parts[part]
        parts[part] = WitnessStructure(s.witness_points, s.parameter_points, s.r | frozenset(r),
                                       s.hyperedges | frozenset(hyperedges))
        identity = Embedding((0,), (0,))
        with pytest.raises(PreconditionFailure, match=rf"^{broken} violates the axioms: \("):
            free_amalgam(parts["a"], parts["b0"], parts["b1"], identity, identity)

    def test_uniform_sides_share_their_arity(self):
        # "amalgam violates the axioms" before: the glued sides mixed arities 2 and 3
        base = WitnessStructure((), (), frozenset(), frozenset(), hypergraphs.UNIFORM_FLAVOR)
        b0 = WitnessStructure((), ("p", "q"), frozenset(), frozenset({frozenset({0, 1})}),
                              hypergraphs.UNIFORM_FLAVOR)
        b1 = WitnessStructure((), ("p", "q", "r"), frozenset(), frozenset({frozenset({0, 1, 2})}),
                              hypergraphs.UNIFORM_FLAVOR)
        with pytest.raises(PreconditionFailure, match="different arities"):
            free_amalgam(base, b0, b1, Embedding((), ()), Embedding((), ()))

    def test_random_problems(self):
        rng = random.Random(37)
        for _ in range(40):
            a, b0, b1, e0, e1 = random_amalgam_problem(rng)
            result = free_amalgam(a, b0, b1, e0, e1)
            assert check_axioms(result.structure).ok
            for i in range(len(a.witness_points)):
                assert (
                    result.embed0.witness_map[e0.witness_map[i]]
                    == result.embed1.witness_map[e1.witness_map[i]]
                )
            for i in range(len(a.parameter_points)):
                assert (
                    result.embed0.parameter_map[e0.parameter_map[i]]
                    == result.embed1.parameter_map[e1.parameter_map[i]]
                )


def triangle_count(h: Hypergraph) -> int:
    count = 0
    for a, b, c in itertools.combinations(range(h.vertex_count), 3):
        if (
            frozenset({a, b}) in h.edges
            and frozenset({a, c}) in h.edges
            and frozenset({b, c}) in h.edges
        ):
            count += 1
    return count


class TestTriangleFreeDoubling:
    def test_edgeless_pair(self):
        result = triangle_free_double(graph(2, []))
        doubled_part = {e for e in result.graph.edges if max(e) < 4}
        assert doubled_part == {frozenset({0, 3}), frozenset({1, 2})}
        assert {s for _, s in result.clique_witnesses} == {frozenset({0}), frozenset({1})}
        assert triangle_count(result.graph) == 0

    def test_single_edge(self):
        result = triangle_free_double(graph(2, [(0, 1)]))
        assert not {e for e in result.graph.edges if max(e) < 4}
        pair_witness = [v for v, s in result.clique_witnesses if s == {0, 1}]
        assert len(pair_witness) == 1
        assert result.family.sets[0] & result.family.sets[1] == {pair_witness[0]}
        assert triangle_count(result.graph) == 0

    def test_empty(self):
        result = triangle_free_double(graph(0, []))
        assert result.graph.vertex_count == 0 and not result.pairs

    def test_random_graphs_triangle_free_and_realizing(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_hypergraph(rng, 2, rng.randint(0, 5), rng.choice((0.3, 0.6)))
            result = triangle_free_double(g)
            assert triangle_count(result.graph) == 0
            assert realize_check(result.family, g)

    def test_doubling_searches_the_graph_once(self, monkeypatch):
        # the maximal cliques found for the witness vertices also serve the
        # self-check, which searches nothing again
        rng = random.Random(71)
        searched = []
        engine = hypergraphs._maximal_clique_masks
        monkeypatch.setattr(hypergraphs, "_maximal_clique_masks",
                            lambda g: searched.append(g) or engine(g))
        for _ in range(40):
            g = random_hypergraph(rng, 2, rng.randint(0, 6), rng.random())
            searched.clear()
            triangle_free_double(g)
            assert searched == [g]


class TestEncoding:
    def test_synthesized_witness_encodes(self):
        rng = random.Random(47)
        for _ in range(40):
            h = random_hypergraph(rng, rng.choice((2, 3)), rng.randint(2, 5), 0.5)
            decision = decide_exhibitable(pattern_from_hypergraph(h))
            assert decision.exhibitable
            assert encodes_by_scan(decision.witness, h)
