import random

import pytest

from patterna import (
    Hypergraph,
    Pattern,
    SetFamily,
    blowup,
    blowup_pullback,
    classify,
    brute_force_exhibitable,
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
from patterna.bounds import ENV_VAR, enumeration_bound
from patterna.errors import BoundExceeded
from patterna.rand import random_hypergraph
from patterna.verify import fully_complete_patterns, verify_triangle_free


def test_defaults_without_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert enumeration_bound(12) == 12


def test_env_overrides(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "20")
    assert enumeration_bound(12) == 20
    assert brute_force_exhibitable(Pattern(18)).exhibitable
    assert ip_family(17).universe_size == 1 << 17


def test_env_garbage_ignored(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "many")
    assert enumeration_bound(12) == 12


def test_env_can_tighten(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "3")
    with pytest.raises(BoundExceeded):
        brute_force_exhibitable(Pattern(4))


def edgeless(vertices):
    return Hypergraph(2, vertices, frozenset())


def pullback_input(h):
    """blowup_pullback's arguments for h: a witness of h's blowup, h and its
    grouping, built under the default bounds."""
    blown, grouping = blowup(h)
    return realization_witness(blown), h, grouping


#: Every bounded entry point: PATTERNA_MAX_N, the call, an input exactly at the
#: limit, the first input over it, and the limit as the message names it.
#: cooper and pmchar run at the defaults: PATTERNA_MAX_N sets both their
#: subset bound and the exponent of their output bound, and no n at a common
#: value of the two passes both.
BOUNDED = {
    "decide_exhibitable": ("3", decide_exhibitable, Pattern(8), Pattern(9), "2**3"),
    "classify": ("3", classify, Pattern(8, (((7,), ()),)), Pattern(9, (((8,), ()),)), "2**3"),
    "brute_force_exhibitable": ("3", brute_force_exhibitable, Pattern(3), Pattern(4), "3"),
    "brute_force_steps": ("6", brute_force_exhibitable, Pattern(5, (((0,), ()),), (((1,), ()),)),
                          Pattern(5, (((0,), ()),), (((1,), ()), ((2,), ()))), "2**6"),
    "condition_cnf": ("3", condition_cnf, Pattern(8), Pattern(9), "2**3"),
    "tree_nodes": ("3", lambda bd: tp1_pattern(*bd), (2, 1), (2, 2), "3"),
    "ktp2_choice_functions": ("3", lambda bdk: ktp2_pattern(*bdk), (3, 1, 3), (2, 2, 2), "3"),
    "cooper_pattern": (None, cooper_pattern, 4, 5, "4"),
    "pmchar_pattern": (None, pmchar_pattern, 4, 5, "4"),
    "pattern_output": ("3", ip_pattern, 2, 3, "2**3"),
    "pattern_from_hypergraph": ("3", pattern_from_hypergraph, edgeless(3), edgeless(4), "3"),
    "blowup": ("3", blowup, edgeless(3), edgeless(4), "3"),
    "blowup_edges": ("5", blowup, graph(2, [(0, 1)]), graph(3, [(0, 1), (1, 2)]), "2**5"),
    "blowup_pullback": ("5", lambda args: blowup_pullback(*args), pullback_input(edgeless(3)),
                        pullback_input(edgeless(4)), "2**5"),
    "triangle_free_double": ("3", triangle_free_double, edgeless(3), edgeless(4), "3"),
    "ip_family": ("3", ip_family, 3, 4, "3"),
    "disjoint_one1_family": ("3", disjoint_one1_family, 3, 4, "3"),
    "membership_structure": ("3", membership_structure, 3, 4, "3"),
    "fully_complete_patterns": ("3", lambda n: list(fully_complete_patterns(n)), 3, 4, "3"),
    "verify_triangle_free": ("3", verify_triangle_free, 3, 4, "3"),
}


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_every_bound_refuses_over_and_accepts_at_its_limit(monkeypatch, name):
    env, call, at_limit, over, limit = BOUNDED[name]
    if env is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, env)
    with pytest.raises(BoundExceeded) as refused:
        call(over)
    assert f"bound {limit}" in str(refused.value)
    call(at_limit)


def test_trees_refused_level_by_level(monkeypatch):
    # a tree is refused at the first level that takes it over the bound, and
    # ktp2's choice functions at the first row, so a huge depth or branching
    # costs no more than a tree at the bound
    monkeypatch.delenv(ENV_VAR, raising=False)
    with pytest.raises(BoundExceeded, match="tree of at least 8191 nodes exceeds the tree bound 4096"):
        tp1_pattern(2, 10**6)
    with pytest.raises(BoundExceeded, match=f"tree of at least {2**40 + 1} nodes"):
        ktp_pattern(2**40, 1, 2)
    with pytest.raises(BoundExceeded, match="at least 6561 choice functions exceed the tree bound 4096"):
        ktp2_pattern(3, 10**8, 2)


def test_blowup_refused_exactly_over_its_edge_bound(monkeypatch):
    # a blowup's edges are counted before they are built: under a bound N at
    # least the vertex count, it is refused exactly when the blowup built under
    # the default bound has more than 2**N edges, and the refusal names them
    rng = random.Random(83)
    for _ in range(60):
        arity = rng.choice((2, 3, 4))
        h = random_hypergraph(rng, arity, rng.randint(0, 5 - arity // 2), rng.random())
        monkeypatch.delenv(ENV_VAR, raising=False)
        edges = len(blowup(h)[0].masks)
        for bound in range(h.vertex_count, max(h.vertex_count, edges.bit_length()) + 1):
            monkeypatch.setenv(ENV_VAR, str(bound))
            if edges > 2**bound:
                with pytest.raises(BoundExceeded, match=f"^a blowup of {edges} edges exceeds the output "
                                                        f"bound 2\\*\\*{bound}$"):
                    blowup(h)
            else:
                assert len(blowup(h)[0].masks) == edges


def test_pullback_refused_before_deriving_cliques(monkeypatch):
    # the pullback counts the blowup's maximal cliques before it derives them:
    # the edgeless 5-uniform hypergraph on 10 vertices passes the vertex bound,
    # but its blowup would have C(10, 4) + C(10, 5) * 6**5 = 1,959,762 maximal
    # cliques: the block unions of its 4-sets and the transversals of its non-edges;
    # few enough that a pullback which lost the bound fails here in seconds
    monkeypatch.delenv(ENV_VAR, raising=False)
    h = Hypergraph(5, 10, frozenset())
    grouping = tuple(tuple(range(6 * i, 6 * i + 6)) for i in range(10))
    with pytest.raises(BoundExceeded, match="^a blowup of 1959762 maximal cliques exceeds the output bound 2\\*\\*20$"):
        blowup_pullback(SetFamily(1, (frozenset(),) * 60), h, grouping)
