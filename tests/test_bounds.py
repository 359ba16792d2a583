import random
from math import comb

import pytest

import patterna.constructions
import patterna.decide
import patterna.hypergraphs
import patterna.patterns
import patterna.rand
import patterna.verify
from patterna import (
    Hypergraph,
    Pattern,
    SetFamily,
    blowup,
    blowup_pullback,
    classify,
    brute_force_exhibitable,
    build_witness_structure,
    condition_cnf,
    cooper_pattern,
    decide_exhibitable,
    disjoint_one1_family,
    graph,
    ip_family,
    ip_pattern,
    ktp2_pattern,
    ktp_pattern,
    membership_structure,
    pattern_from_hypergraph,
    pmchar_pattern,
    realization_witness,
    tp1_pattern,
    triangle_free_double,
)
from patterna import bounds
from patterna.errors import BoundExceeded
from patterna.rand import random_hypergraph
from patterna.verify import fully_complete_patterns, verify_atomless_pm, verify_triangle_free


def test_defaults_without_env():
    # every bound is a fixed constant, the value README gives
    assert {name: value for name, value in vars(bounds).items() if name.isupper()} == {
        "BRUTE_FORCE_STEPS_LOG2": 24, "IP_FAMILY_N": 16, "CLIQUE_VERTICES": 12, "SUBSET_PATTERN_N": 4,
        "MEMBERSHIP_N": 8, "TREE_NODES": 4096, "DOUBLING_VERTICES": 10, "GRAPH_SWEEP_VERTICES": 6,
        "PATTERN_INDICES_LOG2": 20, "SAMPLED_PATTERN_N": 1024}


def edgeless(vertices):
    return Hypergraph(2, vertices, frozenset())


def pullback_input(h):
    """blowup_pullback's arguments for h: a witness of h's blowup, h and its
    grouping, built under the default bounds."""
    blown, grouping = blowup(h)
    return realization_witness(blown), h, grouping


#: Every bounded entry point: the module whose call reads the bound, the
#: constant lowered there and its lowered value, the call, an input exactly at
#: the limit, the first input over it, and the limit as the message names it.
BOUNDED = {
    "decide_exhibitable": (patterna.decide, "PATTERN_INDICES_LOG2", 3, decide_exhibitable,
                           Pattern(8), Pattern(9), "2**3"),
    "build_witness_structure": (patterna.hypergraphs, "PATTERN_INDICES_LOG2", 3, build_witness_structure,
                                Pattern(8), Pattern(9), "2**3"),
    "classify": (patterna.patterns, "PATTERN_INDICES_LOG2", 3, classify,
                 Pattern(8, (((7,), ()),)), Pattern(9, (((8,), ()),)), "2**3"),
    "brute_force_exhibitable": (patterna.decide, "BRUTE_FORCE_STEPS_LOG2", 3, brute_force_exhibitable,
                                Pattern(3), Pattern(4), "3"),
    "brute_force_steps": (patterna.decide, "BRUTE_FORCE_STEPS_LOG2", 6, brute_force_exhibitable,
                          Pattern(5, (((0,), ()),), (((1,), ()),)),
                          Pattern(5, (((0,), ()),), (((1,), ()), ((2,), ()))), "2**6"),
    "condition_cnf": (patterna.decide, "PATTERN_INDICES_LOG2", 3, condition_cnf, Pattern(8), Pattern(9), "2**3"),
    "tree_nodes": (patterna.patterns, "TREE_NODES", 3, lambda bd: tp1_pattern(*bd), (2, 1), (2, 2), "3"),
    "ktp2_choice_functions": (patterna.patterns, "TREE_NODES", 3, lambda bdk: ktp2_pattern(*bdk),
                              (3, 1, 3), (2, 2, 2), "3"),
    "cooper_pattern": (patterna.patterns, "SUBSET_PATTERN_N", 2, cooper_pattern, 2, 3, "2"),
    "pmchar_pattern": (patterna.patterns, "SUBSET_PATTERN_N", 2, pmchar_pattern, 2, 3, "2"),
    "pattern_output": (patterna.patterns, "PATTERN_INDICES_LOG2", 3, ip_pattern, 2, 3, "2**3"),
    "pattern_from_hypergraph": (patterna.hypergraphs, "CLIQUE_VERTICES", 3, pattern_from_hypergraph,
                                edgeless(3), edgeless(4), "3"),
    "random_hypergraph": (patterna.rand, "CLIQUE_VERTICES", 3,
                          lambda v: random_hypergraph(random.Random(0), 2, v, 0.5), 3, 4, "3"),
    "blowup": (patterna.hypergraphs, "CLIQUE_VERTICES", 3, blowup, edgeless(3), edgeless(4), "3"),
    "blowup_edges": (patterna.hypergraphs, "PATTERN_INDICES_LOG2", 5, blowup,
                     graph(2, [(0, 1)]), graph(3, [(0, 1), (1, 2)]), "2**5"),
    "blowup_vertices": (patterna.hypergraphs, "PATTERN_INDICES_LOG2", 3, blowup,
                        Hypergraph(7, 1, ()), Hypergraph(8, 1, ()), "2**3"),
    "blowup_pullback": (patterna.hypergraphs, "PATTERN_INDICES_LOG2", 5, lambda args: blowup_pullback(*args),
                        pullback_input(edgeless(3)), pullback_input(edgeless(4)), "2**5"),
    "triangle_free_double": (patterna.hypergraphs, "DOUBLING_VERTICES", 3, triangle_free_double,
                             edgeless(3), edgeless(4), "3"),
    "ip_family": (patterna.constructions, "IP_FAMILY_N", 3, ip_family, 3, 4, "3"),
    "disjoint_one1_family": (patterna.constructions, "IP_FAMILY_N", 3, disjoint_one1_family, 3, 4, "3"),
    "membership_structure": (patterna.constructions, "MEMBERSHIP_N", 3, membership_structure, 3, 4, "3"),
    "fully_complete_patterns": (patterna.verify, "SUBSET_PATTERN_N", 3, lambda n: list(fully_complete_patterns(n)),
                                3, 4, "3"),
    "verify_triangle_free": (patterna.verify, "GRAPH_SWEEP_VERTICES", 3, verify_triangle_free, 3, 4, "3"),
    "verify_atomless_pm": (patterna.verify, "SAMPLED_PATTERN_N", 3, lambda n: verify_atomless_pm(n, samples=1),
                           3, 4, "3"),
}


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_every_bound_refuses_over_and_accepts_at_its_limit(monkeypatch, name):
    module, constant, value, call, at_limit, over, limit = BOUNDED[name]
    monkeypatch.setattr(module, constant, value)
    with pytest.raises(BoundExceeded) as refused:
        call(over)
    assert f"bound {limit}" in str(refused.value)
    call(at_limit)


def test_every_bound_constant_is_lowered_by_a_row():
    constants = {name for name, value in vars(bounds).items() if name.isupper() and type(value) is int}
    assert constants == {constant for _, constant, *_ in BOUNDED.values()}


def test_trees_refused_level_by_level():
    # a tree is refused at the first level that takes it over the bound, and
    # ktp2's choice functions at the first row, so a huge depth or branching
    # costs no more than a tree at the bound
    with pytest.raises(BoundExceeded, match="tree of at least 8191 nodes exceeds the tree bound 4096"):
        tp1_pattern(2, 10**6)
    with pytest.raises(BoundExceeded, match=f"tree of at least {2**40 + 1} nodes"):
        ktp_pattern(2**40, 1, 2)
    with pytest.raises(BoundExceeded, match="at least 6561 choice functions exceed the tree bound 4096"):
        ktp2_pattern(3, 10**8, 2)


def test_blowup_refused_exactly_over_its_edge_bound(monkeypatch):
    # a blowup's vertices and edges are counted before they are built: under
    # an output bound 2**N it is refused exactly when the blowup built under
    # the default bound has more than 2**N vertices, or else more than 2**N
    # edges, and the refusal names them
    rng = random.Random(83)
    for _ in range(60):
        arity = rng.choice((2, 3, 4))
        h = random_hypergraph(rng, arity, rng.randint(0, 5 - arity // 2), rng.random())
        vertices, edges = (arity + 1) * h.vertex_count, len(blowup(h)[0].masks)
        for bound in range(max(vertices, edges).bit_length() + 1):
            monkeypatch.setattr(patterna.hypergraphs, "PATTERN_INDICES_LOG2", bound)
            for size, what in ((vertices, "vertices"), (edges, "edges")):
                if size > 2**bound:
                    with pytest.raises(BoundExceeded, match=f"^a blowup of {size} {what} exceeds the output "
                                                            f"bound 2\\*\\*{bound}$"):
                        blowup(h)
                    break
            else:
                assert len(blowup(h)[0].masks) == edges
        monkeypatch.undo()


def test_blowup_above_arity_64_bounded_before_its_count(monkeypatch):
    # two vertices of arity k form one clique, whose blowup has C(2(k+1), k+1)
    # edges; above arity 64 the cheap lower bound 2**(k+1) - 2 refuses it
    # first, and only what the exact count would refuse too
    for limit, arity, edges in ((20, 63, comb(128, 64)), (20, 64, "at least 2**65 - 2"), (70, 64, comb(130, 65))):
        monkeypatch.setattr(patterna.hypergraphs, "PATTERN_INDICES_LOG2", limit)
        with pytest.raises(BoundExceeded) as refused:
            blowup(Hypergraph(arity, 2, ()))
        assert str(refused.value) == f"a blowup of {edges} edges exceeds the output bound 2**{limit}"
    monkeypatch.undo()
    blown, grouping = blowup(Hypergraph(100, 1, ()))  # one vertex: its block is the one edge
    assert blown.masks == {(1 << 101) - 1} and grouping == (tuple(range(101)),)
    with pytest.raises(BoundExceeded, match=f"^a blowup of {2**20 + 1} vertices exceeds the output bound 2\\*\\*20$"):
        blowup(Hypergraph(2**20, 1, ()))


def test_pullback_refused_before_deriving_cliques():
    # the pullback counts the blowup's maximal cliques before it derives them:
    # the edgeless 5-uniform hypergraph on 10 vertices passes the vertex bound,
    # but its blowup would have C(10, 4) + C(10, 5) * 6**5 = 1,959,762 maximal
    # cliques: the block unions of its 4-sets and the transversals of its non-edges;
    # few enough that a pullback which lost the bound fails here in seconds
    h = Hypergraph(5, 10, frozenset())
    grouping = tuple(tuple(range(6 * i, 6 * i + 6)) for i in range(10))
    with pytest.raises(BoundExceeded, match="^a blowup of 1959762 maximal cliques exceeds the output bound 2\\*\\*20$"):
        blowup_pullback(SetFamily(1, (frozenset(),) * 60), h, grouping)
