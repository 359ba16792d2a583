"""k-uniform hypergraphs, their pattern dictionary, and finite witness
structures.

A k-hypergraph is realized by a set family when every k-subset of vertices has
intersecting sets exactly when it is a hyperedge and every clique's sets have
a common point.  This module provides the hypergraph <-> pattern translation,
a scalable realization checker and witness builder, the clique blowup that
reduces arity k+1 to arity k, two-sorted witness structures with their
universal-axiom checker and free amalgamation, and the triangle-free doubling
construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import comb

from .bounds import CLIQUE_VERTICES, DOUBLING_VERTICES, PATTERN_INDICES_LOG2, check_bound, check_indices
from .errors import (
    ArityMismatch,
    AxiomViolation,
    NotAnEmbedding,
    NotReasonablePositive,
    PreconditionFailure,
    TriangleFound,
    UnsupportedParams,
    VerificationFailure,
)
from .patterns import Pattern, _bits, _canonical, classify, subset_index
from .semantics import SetFamily, _columns, _tracer, _type_classes, check_exhibits


@dataclass(frozen=True, init=False, repr=False)
class Hypergraph:
    """A k-uniform hypergraph on vertices [0, vertex_count).  Its state, with equality and
    hashing, is (arity, vertex_count, masks), one vertex mask per edge.  `edges` is a read-only
    view: Hypergraph(k, n, edges) checks every edge and fills it at once, and unchecked _canonical
    builds leave it to the first read.  Only `blowup` sets `_cliques`, which derives its maximal
    cliques as vertex masks when called."""

    arity: int
    vertex_count: int
    masks: frozenset[int]
    _cliques: Callable[[], frozenset[int]] | None = field(init=False, compare=False, repr=False, default=None)

    def __init__(self, arity: int, vertex_count: int, edges):
        if type(arity) is not int or arity < 2:
            raise UnsupportedParams(f"arity {arity!r} is not an int of at least 2")
        if type(vertex_count) is not int or vertex_count < 0:
            raise UnsupportedParams(f"vertex count {vertex_count!r} is not a nonnegative int")
        coerced = frozenset(frozenset(check_indices(edge, "vertex", vertex_count)) for edge in edges)
        for edge in coerced:
            if len(edge) != arity:
                raise ArityMismatch(f"edge {sorted(edge)} is not a {arity}-subset")
        masks = frozenset(map(subset_index, coerced))
        self.__dict__.update(arity=arity, vertex_count=vertex_count, masks=masks, edges=coerced)

    @cached_property
    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(_bits(mask)) for mask in self.masks)

    def __repr__(self) -> str:
        return f"Hypergraph(arity={self.arity!r}, vertex_count={self.vertex_count!r}, edges={self.edges!r})"


def graph(vertex_count: int, edges) -> Hypergraph:
    """An ordinary graph is the arity-2 case."""
    return Hypergraph(2, vertex_count, edges)


def _maximal_clique_masks(h: Hypergraph) -> list[int]:
    """The maximal cliques as vertex masks, by Bron–Kerbosch search
    (Bron & Kerbosch, CACM 1973, Alg. 457) without pivoting.

    Edges are stored as link[(k-1)-subset mask] = mask of the vertices
    completing it to an edge.  Adding a vertex to a clique narrows the
    candidates and the excluded vertices to those that also complete every
    (k-2)-subset of the clique plus the new vertex; for graphs this is plain
    adjacency.  Dense regions collapse: when the members plus all candidates
    already form a clique, it is the node's unique maximal extension,
    reported unless an excluded vertex still fits.  The search runs on the
    vertices relabelled by ascending (degree, vertex), a cheap stand-in for
    the degeneracy order of Eppstein, Löffler & Strash (ISAAC 2010).
    """
    k, n = h.arity, h.vertex_count
    degree = [0] * n
    edges = list(map(_bits, h.masks))
    for v in itertools.chain.from_iterable(edges):
        degree[v] += 1
    label = dict(zip(sorted(range(n), key=degree.__getitem__), (1 << i for i in range(n))))
    unlabel = {bit: 1 << v for v, bit in label.items()}
    link: dict[int, int] = {}
    for edge in edges:
        mask = sum(map(label.__getitem__, edge))
        for v in edge:
            link[mask ^ label[v]] = link.get(mask ^ label[v], 0) | label[v]

    def narrow(members, bit):
        # members are single-bit masks, so a sum of them is a union
        allowed = -1
        for rest in itertools.combinations(members, k - 2):
            allowed &= link.get(sum(rest) | bit, 0)
        return allowed

    out: list[int] = []

    def extend(members, candidates, excluded):
        grown, pool, outside = members, candidates, excluded
        while pool:
            bit = pool & -pool
            pool ^= bit
            allowed = narrow(grown, bit)
            if pool & ~allowed:
                break
            outside &= allowed
            grown += (bit,)
        else:
            if grown and not outside:
                out.append(sum(map(unlabel.__getitem__, grown)))
            return
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            allowed = narrow(members, bit)
            extend(members + (bit,), candidates & allowed, excluded & allowed)
            excluded |= bit

    extend((), (1 << n) - 1, 0)
    return out


def maximal_cliques(h: Hypergraph) -> list[frozenset[int]]:
    """All maximal cliques (vertex sets whose arity-subsets are all edges and
    that no vertex extends), sorted by their sorted members."""
    return [frozenset(c) for c in sorted(map(_bits, _maximal_clique_masks(h)))]


def _submasks(maximal) -> list[int]:
    """Every nonempty clique as a vertex mask, ascending, from the maximal
    cliques' masks: their nonempty submasks."""
    found = set()
    for top in maximal:
        sub = top
        while sub:
            found.add(sub)
            sub = (sub - 1) & top
    return sorted(found)


def _non_edges(h: Hypergraph):
    """The arity-subsets of h's vertices that are not edges, as ascending
    tuples in lexicographic order."""
    return (c for c in itertools.combinations(range(h.vertex_count), h.arity)
            if subset_index(c) not in h.masks)


def pattern_from_hypergraph(h: Hypergraph) -> Pattern:
    """The realization pattern: every nonempty clique is consistent, every
    non-edge arity-subset is inconsistent.  Reasonable (a non-edge is never
    inside a clique), positive, and arity-bounded."""
    check_bound(h.vertex_count, CLIQUE_VERTICES,
                "{size} vertices exceed the clique-enumeration bound {limit}")
    consistency = tuple((_bits(mask), ()) for mask in _submasks(_maximal_clique_masks(h)))
    inconsistency = tuple((c, ()) for c in _non_edges(h))
    return Pattern(h.vertex_count, consistency, inconsistency)


def _realizes(fam: SetFamily, k: int, n: int, maximal: frozenset[int]) -> bool:
    """Does fam realize a k-uniform hypergraph on n vertices whose maximal cliques, as vertex
    masks, are `maximal`?  A k-set meets iff it lies inside a realised type, it is an edge iff it
    is a clique, and every edge lies inside a maximal clique.  So fam realizes it iff every
    realised type of at least k indices lies inside a maximal clique and every maximal clique
    has a common point; no k-set is walked.  A type that is not itself a maximal clique is traced
    in the family with one point per maximal clique, so no type is compared clique by clique."""
    if fam.n != n:
        raise ArityMismatch(f"family has {fam.n} sets, hypergraph has {n} vertices")
    types = _type_classes(fam)
    trace = _tracer(fam)
    if not all(c in types or trace(_bits(c), ()) for c in maximal):
        return False
    strays = [t for t in types if t not in maximal and t.bit_count() >= k]
    if not strays:
        return True
    inside = _tracer(SetFamily._of_types(n, map(_bits, maximal)))  # a point per maximal clique
    return all(inside(_bits(t), ()) for t in strays)


def realize_check(fam: SetFamily, h: Hypergraph) -> bool:
    """Does fam realize h?  Equivalent to exhibiting pattern_from_hypergraph(h):
    arity-subsets intersect iff they are edges, and every maximal clique has a
    common point (which covers all sub-cliques); checked on fam's realised types
    and h's maximal cliques."""
    return _realizes(fam, h.arity, h.vertex_count, frozenset(_maximal_clique_masks(h)))


def realization_witness(h: Hypergraph) -> SetFamily:
    """A family realizing h: one point per maximal clique (ordered by sorted
    members), set v = the maximal cliques through v.  Sub-cliques inherit the
    point of any maximal extension; a non-edge lies in no clique at all.  A
    blowup's cliques are derived from its source's, others searched;
    self-verified on them."""
    cliques = frozenset(_maximal_clique_masks(h)) if h._cliques is None else h._cliques()
    fam = SetFamily._of_types(h.vertex_count, sorted(map(_bits, cliques)))
    if not _realizes(fam, h.arity, h.vertex_count, cliques):
        raise VerificationFailure("maximal-clique witness failed realization check")
    return fam


# ---------------------------------------------------------------------------
# Blowup: arity k realization from arity k+1
# ---------------------------------------------------------------------------


def _grouping(h: Hypergraph):
    """The blowup's blocks, built as they are iterated: vertex i becomes k+1 consecutive new
    vertices.  The vertex bound is checked on the call, and the blowup's (k+1) * n vertices
    against the output bound before the first block."""
    check_bound(h.vertex_count, CLIQUE_VERTICES, "{size} vertices exceed the clique-enumeration bound {limit}")
    width = h.arity + 1

    def blocks():
        check_bound(width * h.vertex_count, PATTERN_INDICES_LOG2,
                    "a blowup of {size} vertices exceeds the output bound {limit}", log2=True)
        for i in range(h.vertex_count):
            yield tuple(range(i * width, (i + 1) * width))
    return blocks()


def _blown_cliques(h: Hypergraph, maximal) -> frozenset[int]:
    """blowup(h)'s maximal cliques as vertex masks, from h's maximal cliques as masks: the block
    unions of h's maximal cliques, and the k-sets (cliques vacuously) taking one vertex from each
    block of a non-edge of h, which no vertex extends.  Their number is bounded before any is
    derived."""
    width = h.arity + 1
    size = len(maximal) + (comb(h.vertex_count, h.arity) - len(h.masks)) * width ** h.arity
    check_bound(size, PATTERN_INDICES_LOG2, "a blowup of {size} maximal cliques exceeds the output bound {limit}",
                log2=True)
    block = (1 << width) - 1
    derived = {sum(block << i * width for i in _bits(m)) for m in maximal}
    for combo in _non_edges(h):
        choices = ([1 << i * width + j for j in range(width)] for i in combo)
        derived.update(map(sum, itertools.product(*choices)))
    return frozenset(derived)


def blowup(h: Hypergraph):
    """Replace each vertex by a block of k+1 vertices; a (k+1)-subset of the
    new vertex set is an edge exactly when the blocks it touches form a clique
    of h.  In particular each block is an edge, and the union of the blocks of
    any h-clique is a clique of the blowup.  Returns (blown, grouping).

    The edges whose blocks are a clique of s vertices number
    sum_j (-1)**j C(s, j) C((s-j)(k+1), k+1), by inclusion-exclusion over the blocks missed;
    their total is bounded before each edge grows vertex by vertex while its blocks form a
    clique of h, and a prefix grows only while enough vertices are left to finish it.  Above
    arity 64 a clique of two vertices alone gives C(2(k+1), k+1) - 2 >= 2**(k+1) - 2 edges, which
    is bounded first, so no wide binomial is taken.  The blowup's (k+1) * n vertices are bounded
    next, which only a one-vertex blowup reaches with too many.  blown can derive its maximal
    cliques from h's (_blown_cliques) when realization_witness asks for them."""
    grouping = _grouping(h)
    k = h.arity
    maximal = _maximal_clique_masks(h)
    # exponents compared: 2**(k+1) - 2 > 2**limit iff k+1 > limit, for a limit of 2 or more
    if k + 1 > 64 and any(c.bit_count() > 1 for c in maximal):
        check_bound(k + 1, PATTERN_INDICES_LOG2,
                    "a blowup of at least 2**{size} - 2 edges exceeds the output bound 2**{limit}")
    grouping = tuple(grouping)  # its vertex count is checked here, before any edge grows
    cliques = set(_submasks(maximal))
    size = sum(sum((-1) ** j * comb(s, j) * comb((s - j) * (k + 1), k + 1) for j in range(s + 1))
               for s in (c.bit_count() for c in cliques))
    check_bound(size, PATTERN_INDICES_LOG2, "a blowup of {size} edges exceeds the output bound {limit}", log2=True)
    prefixes = [(0, 0, 0)]  # (mask of new vertices, mask of their blocks, next new vertex)
    for left in reversed(range(k + 1)):  # vertices still to add after this one
        prefixes = [(edge | 1 << v, span, v + 1) for edge, spanned, start in prefixes
                    for v in range(start, (k + 1) * h.vertex_count - left)
                    if (span := spanned | 1 << v // (k + 1)) in cliques]
    blown = _canonical(Hypergraph, k + 1, (k + 1) * h.vertex_count,
                       frozenset(edge for edge, _, _ in prefixes), partial(_blown_cliques, h, maximal))
    return blown, grouping


def blowup_pullback(fam: SetFamily, original: Hypergraph, grouping) -> SetFamily:
    """Collapse a family realizing blowup(original) back to the original: the set
    of vertex i is the intersection over its block.  The precondition is checked on
    the blowup's maximal cliques, derived from the original's, so no blowup edge is
    built.  Re-verified."""
    expected = tuple(_grouping(original))
    if tuple(tuple(b) for b in grouping) != expected:
        raise PreconditionFailure("grouping does not match the deterministic blowup grouping")
    k, n = original.arity, original.vertex_count
    maximal = frozenset(_maximal_clique_masks(original))
    if not (fam.n == (k + 1) * n and _realizes(fam, k + 1, fam.n, _blown_cliques(original, maximal))):
        raise PreconditionFailure("family does not realize the blowup")
    trace = _tracer(fam)
    result = SetFamily._of_masks(fam.universe_size, (trace(block, ()) for block in expected))
    if not _realizes(result, k, n, maximal):
        raise VerificationFailure("pullback failed to realize the original hypergraph")
    return result


# ---------------------------------------------------------------------------
# Two-sorted witness structures
# ---------------------------------------------------------------------------

POSITIVE_FLAVOR = "positive"
UNIFORM_FLAVOR = "k-uniform"


@dataclass(frozen=True)
class WitnessStructure:
    """Two disjoint sorts — witness points and parameter points — a relation r
    from witnesses to parameters, and hyperedges on the parameter sort only.

    The defining universal axiom: for every hyperedge E and witness x, not all
    of r(x, p), p in E, hold.  Construction refuses only a relation or
    hyperedge entry that is not an int; structures are not otherwise
    validated on construction (deliberately, so broken ones, out-of-range
    pairs included, can be fed to check_axioms); the builders below always
    validate their output.
    """

    witness_points: tuple[str, ...]
    parameter_points: tuple[str, ...]
    r: frozenset[tuple[int, int]]
    hyperedges: frozenset[frozenset[int]]
    flavor: str = POSITIVE_FLAVOR

    def __post_init__(self):
        object.__setattr__(self, "witness_points", tuple(self.witness_points))
        object.__setattr__(self, "parameter_points", tuple(self.parameter_points))
        pairs, edges = [(w, p) for w, p in self.r], list(map(tuple, self.hyperedges))
        check_indices(itertools.chain.from_iterable(pairs), "relation entry")
        check_indices(itertools.chain.from_iterable(edges), "hyperedge entry")
        object.__setattr__(self, "r", frozenset(pairs))
        object.__setattr__(self, "hyperedges", frozenset(map(frozenset, edges)))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_axioms(s: WitnessStructure) -> AxiomReport:
    """Full enumeration check of the sort/relation discipline and the
    no-witness-over-a-hyperedge axiom."""
    problems = []
    nw, np_ = len(s.witness_points), len(s.parameter_points)
    for w, p in sorted(s.r):
        if not 0 <= w < nw:
            problems.append(f"relation pair ({w},{p}) has no witness point {w}")
        if not 0 <= p < np_:
            problems.append(f"relation pair ({w},{p}) has no parameter point {p}")
    arities = set()
    for edge in sorted(s.hyperedges, key=sorted):
        if not edge:
            problems.append("empty hyperedge")
        arities.add(len(edge))
        for p in edge:
            if not 0 <= p < np_:
                problems.append(f"hyperedge {sorted(edge)} leaves the parameter sort")
    if s.flavor == UNIFORM_FLAVOR and len(arities) > 1:
        problems.append(f"uniform structure carries mixed arities {sorted(arities)}")
    related = [set() for _ in range(nw)]  # each witness's type, out-of-sort parameters kept
    for w, p in s.r:
        if 0 <= w < nw:
            related[w].add(p)
    for edge in sorted(s.hyperedges, key=sorted):
        for w in range(nw):
            if edge <= related[w]:
                problems.append(
                    f"witness {w} is related to all of hyperedge {sorted(edge)}"
                )
    return AxiomReport(not problems, tuple(problems))


def witness_trace_family(s: WitnessStructure) -> SetFamily:
    """The relation's columns over the witness sort: one set per parameter
    point, built from each witness's type.  A dummy one-point universe stands
    in when there are no witnesses (set families must have nonempty
    universes).  Pairs outside the two sorts are skipped."""
    return _columns(len(s.witness_points), len(s.parameter_points), s.r)


def build_witness_structure(source) -> WitnessStructure:
    """Build the finite witness structure for a reasonable positive pattern or
    a hypergraph.

    A pattern builds the positive flavor: one witness point per consistency
    condition, related to exactly the parameters of its positive part; one
    hyperedge per inconsistency condition.  A hypergraph builds the k-uniform
    flavor: the same applied to the realization pattern — witnesses are the
    nonempty cliques and hyperedges are the non-edges; all hyperedges share
    the hypergraph's arity.
    Reasonableness is exactly what makes the universal axiom hold; the output
    is checked and its relation columns must exhibit the source pattern.
    A pattern on more than 2**20 indices is refused before any label is built.
    """
    if isinstance(source, Hypergraph):
        pattern = pattern_from_hypergraph(source)
        flavor = UNIFORM_FLAVOR
    elif isinstance(source, Pattern):
        pattern = source
        flavor = POSITIVE_FLAVOR
    else:
        raise UnsupportedParams(f"cannot build a witness structure from {type(source).__name__}")
    check_bound(pattern.n, PATTERN_INDICES_LOG2, "n={size} exceeds the pattern index bound {limit}", log2=True)
    flags = classify(pattern)
    if not (flags.reasonable and flags.positive):
        raise NotReasonablePositive("witness structures need a reasonable positive pattern")
    witnesses = tuple(f"w{i}" for i in range(len(pattern.consistency)))
    parameters = tuple(f"p{j}" for j in range(pattern.n))
    relation = frozenset(
        (i, j) for i, cond in enumerate(pattern.consistency) for j in cond.pos
    )
    hyperedges = frozenset(frozenset(z.pos) for z in pattern.inconsistency)
    structure = WitnessStructure(witnesses, parameters, relation, hyperedges, flavor)
    report = check_axioms(structure)
    if not report.ok:
        raise AxiomViolation(f"built structure violates its axioms: {report.violations}")
    exhibits = check_exhibits(witness_trace_family(structure), pattern)
    if not exhibits.ok:
        raise AxiomViolation(f"built structure's trace family misses its pattern: {exhibits}")
    return structure


# ---------------------------------------------------------------------------
# Embeddings and free amalgamation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Index maps (position = source index, value = target index), one per
    sort.  Each map is taken as a tuple; an entry that is not an int is
    refused, not coerced, so 0.7 or True cannot stand for an index."""

    witness_map: tuple[int, ...]
    parameter_map: tuple[int, ...]

    def __post_init__(self):
        for name in ("witness", "parameter"):
            entries = check_indices(getattr(self, f"{name}_map"), f"{name} map entry")
            object.__setattr__(self, f"{name}_map", entries)


def embedding_problems(a: WitnessStructure, b: WitnessStructure, e: Embedding) -> list[str]:
    """Why e: a -> b is not an embedding; empty means it is one.

    Embeddings are injective, sort-preserving, and relation preserving and
    reflecting (the image carries exactly the induced structure).
    """
    problems = [f"flavor mismatch: {a.flavor} vs {b.flavor}"] if a.flavor != b.flavor else []
    lengths, ranges = [], []  # a length fault hides the range faults
    for name, mapping, source, target in (
        ("witness", e.witness_map, a.witness_points, b.witness_points),
        ("parameter", e.parameter_map, a.parameter_points, b.parameter_points),
    ):
        if len(mapping) != len(source):
            lengths.append(f"{name} map length differs from source {name} sort")
        if any(not 0 <= v < len(target) for v in mapping):
            ranges.append(f"{name} map leaves the target sort")
        if len(set(mapping)) != len(mapping):
            ranges.append(f"{name} map is not injective")
    problems += lengths or ranges
    if problems:
        return problems
    # each source pair (w, p) against its image's, one bit of the two structures' columns
    param_image = {v: i for i, v in enumerate(e.parameter_map)}
    ca, cb = witness_trace_family(a).masks, witness_trace_family(b).masks
    for w, image in enumerate(e.witness_map):
        problems.extend(f"relation not preserved/reflected at ({w},{p})"
                        for p, q in enumerate(e.parameter_map) if (ca[p] >> w ^ cb[q] >> image) & 1)
    for edge in a.hyperedges:
        if frozenset(e.parameter_map[p] for p in edge) not in b.hyperedges:
            problems.append(f"hyperedge {sorted(edge)} not preserved")
    for edge in b.hyperedges:
        if all(v in param_image for v in edge):
            if frozenset(param_image[v] for v in edge) not in a.hyperedges:
                problems.append(f"hyperedge {sorted(edge)} not reflected")
    return problems


@dataclass(frozen=True)
class FreeAmalgam:
    structure: WitnessStructure
    embed0: Embedding  # B0 into the amalgam
    embed1: Embedding  # B1 into the amalgam


def _uniquify(label: str, taken: set[str]) -> str:
    candidate = label
    suffix = 1
    while candidate in taken:
        candidate = f"{label}#{suffix}"
        suffix += 1
    taken.add(candidate)
    return candidate


def free_amalgam(
    a: WitnessStructure,
    b0: WitnessStructure,
    b1: WitnessStructure,
    e0: Embedding,
    e1: Embedding,
) -> FreeAmalgam:
    """Glue b0 and b1 along a, adding no relations across the two sides.

    The universe is b0 plus the b1-points outside the image of a; relations
    are exactly the images of the two sides' relations.  Every hyperedge of
    the result lives inside one side, so the universal axiom survives: a
    witness from the other side is related to the edge's parameters only where
    they are shared, i.e. inside a, where the edge is reflected anyway.
    A, B0 and B1 must satisfy the axioms, and k-uniform sides must share
    their k; otherwise PreconditionFailure.
    """
    for name, s in (("A", a), ("B0", b0), ("B1", b1)):
        report = check_axioms(s)
        if not report.ok:
            raise PreconditionFailure(f"{name} violates the axioms: {report.violations}")
    for name, b, e in (("e0", b0, e0), ("e1", b1, e1)):
        problems = embedding_problems(a, b, e)
        if problems:
            raise NotAnEmbedding(f"{name}: " + "; ".join(problems))
    if a.flavor == UNIFORM_FLAVOR and len({len(edge) for edge in b0.hyperedges | b1.hyperedges}) > 1:
        raise PreconditionFailure("B0 and B1 carry hyperedges of different arities")

    # witnesses first: the sorts share one set of taken labels
    taken = set(b0.witness_points) | set(b0.parameter_points)
    sorts = []
    for points0, points1, a_in0, a_in1 in (
        (b0.witness_points, b1.witness_points, e0.witness_map, e1.witness_map),
        (b0.parameter_points, b1.parameter_points, e0.parameter_map, e1.parameter_map),
    ):
        image = dict(zip(a_in1, a_in0))  # b1 index -> amalgam index; A's points keep their b0 index
        sort_labels = list(points0)
        for idx, label in enumerate(points1):
            if idx not in image:
                image[idx] = len(sort_labels)
                sort_labels.append(_uniquify(label, taken))
        sorts.append((sort_labels, [image[idx] for idx in range(len(points1))]))
    (witness_labels, w1map), (parameter_labels, p1map) = sorts

    relation = b0.r | {(w1map[w], p1map[p]) for w, p in b1.r}
    hyperedges = b0.hyperedges | {frozenset(p1map[p] for p in edge) for edge in b1.hyperedges}
    amalgam = WitnessStructure(witness_labels, parameter_labels, relation, hyperedges, a.flavor)
    embed0 = Embedding(range(len(b0.witness_points)), range(len(b0.parameter_points)))
    embed1 = Embedding(w1map, p1map)

    report = check_axioms(amalgam)
    if not report.ok:
        raise AxiomViolation(f"amalgam violates the axioms: {report.violations}")
    for name, b, e in (("B0", b0, embed0), ("B1", b1, embed1)):
        problems = embedding_problems(b, amalgam, e)
        if problems:
            raise AxiomViolation(f"{name} does not embed into the amalgam: {problems}")
    for name, a_in0, into0, a_in1, into1 in (
        ("witness", e0.witness_map, embed0.witness_map, e1.witness_map, embed1.witness_map),
        ("parameter", e0.parameter_map, embed0.parameter_map, e1.parameter_map, embed1.parameter_map),
    ):
        if any(into0[i0] != into1[i1] for i0, i1 in zip(a_in0, a_in1)):
            raise AxiomViolation(f"amalgam square does not commute on the {name} sort")
    return FreeAmalgam(amalgam, embed0, embed1)


# ---------------------------------------------------------------------------
# Triangle-free doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleFreeDoubling:
    graph: Hypergraph
    pairs: tuple[tuple[int, int], ...]
    clique_witnesses: tuple[tuple[int, frozenset[int]], ...]
    family: SetFamily


def triangle_free_double(g: Hypergraph) -> TriangleFreeDoubling:
    """Realize a graph inside a triangle-free one.

    Each vertex v becomes a non-adjacent pair (b_v, c_v); each non-edge {v,w}
    contributes the cross edges {b_v,c_w} and {b_w,c_v}; each nonempty clique
    S gets a fresh witness vertex adjacent to exactly {b_v, c_v : v in S}
    (an independent set, because clique members' cross edges were not added).
    The result is scanned for triangles and the derived family
    B_v = {x : x adjacent to both b_v and c_v} must realize g.
    """
    if g.arity != 2:
        raise ArityMismatch("doubling is defined for graphs (arity 2)")
    check_bound(g.vertex_count, DOUBLING_VERTICES, "{size} vertices exceed the doubling bound {limit}")
    n = g.vertex_count
    maximal = _maximal_clique_masks(g)
    cliques = list(map(_bits, _submasks(maximal)))
    total = 2 * n + len(cliques)

    edges = []  # as (lower, higher) vertex pairs
    for v, w in _non_edges(g):
        edges += (v, n + w), (w, n + v)
    for t, clique in enumerate(cliques):
        for v in clique:
            edges += (v, 2 * n + t), (n + v, 2 * n + t)
    doubled = _canonical(Hypergraph, 2, total, frozenset(1 << u | 1 << v for u, v in edges))

    adjacency = [0] * total
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    for u, v in edges:
        if adjacency[u] & adjacency[v]:
            common = (adjacency[u] & adjacency[v]).bit_length() - 1
            raise TriangleFound(f"triangle on {u}, {v}, {common}")

    family = SetFamily._of_masks(total or 1, (adjacency[v] & adjacency[n + v] for v in range(n)))
    if not _realizes(family, 2, n, frozenset(maximal)):
        raise VerificationFailure("doubling's derived family fails to realize the graph")
    return TriangleFreeDoubling(
        doubled,
        tuple((v, n + v) for v in range(n)),
        tuple((2 * n + t, frozenset(clique)) for t, clique in enumerate(cliques)),
        family,
    )
