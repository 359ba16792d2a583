"""Seeded random instance generators for the verification suites.

Everything takes an explicit random.Random so the CLI and the acceptance
suite stay reproducible run to run.
"""

from __future__ import annotations

import itertools
import random

from .bounds import CLIQUE_VERTICES, check_bound
from .hypergraphs import Embedding, Hypergraph, WitnessStructure, build_witness_structure, check_axioms
from .patterns import Condition, Pattern


def random_condition(rng: random.Random, n: int, *, positive=False, disjoint=False) -> Condition:
    """A random nonempty condition over [0, n).  `disjoint` forces pos/neg
    apart; `positive` empties neg.  Needs n >= 1 (no condition exists at n=0)."""
    if n < 1:
        raise ValueError("no nonempty condition exists over an empty index set")
    while True:
        pos = tuple(i for i in range(n) if rng.random() < 0.4)
        if positive:
            neg = ()
        else:
            pool = (i for i in range(n) if not disjoint or i not in pos)
            neg = tuple(i for i in pool if rng.random() < 0.4)
        if pos or neg:
            return Condition(pos, neg)


def random_consistency_pattern(rng: random.Random, n: int, max_conditions: int) -> Pattern:
    """A reasonable pattern with empty inconsistency side."""
    if n == 0:
        return Pattern(0)
    cons = [
        random_condition(rng, n, disjoint=True)
        for _ in range(rng.randint(0, max_conditions))
    ]
    return Pattern(n, tuple(cons), ())


def random_reasonable_positive(rng: random.Random, n: int, max_consistency: int,
                               max_inconsistency: int) -> Pattern:
    """A reasonable positive pattern.  Inconsistency candidates landing inside
    a consistency condition are discarded (bounded retries), so the output may
    have fewer inconsistency conditions than asked."""
    if n == 0:
        return Pattern(0)
    cons = [
        random_condition(rng, n, positive=True)
        for _ in range(rng.randint(0, max_consistency))
    ]
    cone = [c.pos_mask for c in cons]
    incons = []
    want = rng.randint(0, max_inconsistency)
    attempts = 0
    while len(incons) < want and attempts < 20 * (want + 1):
        attempts += 1
        z = random_condition(rng, n, positive=True)
        mask = z.pos_mask
        if any(mask & big == mask for big in cone):
            continue
        incons.append(z)
    return Pattern(n, tuple(cons), tuple(incons))


def random_hypergraph(rng: random.Random, arity: int, vertex_count: int, edge_probability: float) -> Hypergraph:
    """Each arity-subset of the vertices an edge with edge_probability; the
    vertex count is bounded as for a clique search, before the subsets are walked."""
    check_bound(vertex_count, CLIQUE_VERTICES, "{size} vertices exceed the clique-enumeration bound {limit}")
    edges = frozenset(
        frozenset(combo)
        for combo in itertools.combinations(range(vertex_count), arity)
        if rng.random() < edge_probability
    )
    return Hypergraph(arity, vertex_count, edges)


def _grow_structure(rng: random.Random, base: WitnessStructure, extra_witnesses: int,
                    extra_parameters: int, tries: int) -> WitnessStructure:
    """Extend a structure with fresh points and random relations touching at
    least one fresh point, keeping the axioms; the base stays induced."""
    nw, np_ = len(base.witness_points), len(base.parameter_points)
    witnesses = tuple(base.witness_points) + tuple(f"w{nw + i}+" for i in range(extra_witnesses))
    parameters = tuple(base.parameter_points) + tuple(f"p{np_ + i}+" for i in range(extra_parameters))
    relation = set(base.r)
    hyperedges = set(base.hyperedges)
    arities = sorted({len(e) for e in hyperedges}) or [2]

    def snapshot():
        return WitnessStructure(witnesses, parameters, frozenset(relation),
                                frozenset(hyperedges), base.flavor)

    for _ in range(tries):
        if rng.random() < 0.5 and witnesses and parameters:
            w = rng.randrange(len(witnesses))
            p = rng.randrange(len(parameters))
            if w < nw and p < np_:
                continue  # never touch the induced base
            relation.add((w, p))
            if not check_axioms(snapshot()).ok:
                relation.discard((w, p))
        elif parameters:
            arity = rng.choice(arities) if base.flavor == "k-uniform" else rng.randint(1, len(parameters))
            edge = frozenset(rng.sample(range(len(parameters)), min(arity, len(parameters))))
            if all(p < np_ for p in edge):
                continue
            hyperedges.add(edge)
            if not check_axioms(snapshot()).ok:
                hyperedges.discard(edge)
    return snapshot()


def random_amalgam_problem(rng: random.Random, max_base_points: int = 3):
    """A random valid amalgamation problem (A, B0, B1, e0, e1) with identity
    embeddings of A into both extensions."""
    n = rng.randint(0, max_base_points)
    base_pattern = random_reasonable_positive(rng, n, 3, 3)
    a = build_witness_structure(base_pattern)
    identity = Embedding(
        tuple(range(len(a.witness_points))), tuple(range(len(a.parameter_points)))
    )
    b0 = _grow_structure(rng, a, rng.randint(0, 2), rng.randint(0, 2), tries=6)
    b1 = _grow_structure(rng, a, rng.randint(0, 2), rng.randint(0, 2), tries=6)
    return a, b0, b1, identity, identity
