"""patterna: a calculus of consistency/inconsistency patterns.

Combinatorial patterns over a finite index set, their classification, a
SAT-backed exhibitability decision with verified witness synthesis, finite
trace semantics, the classical dividing-line pattern families, and executable
finite witness constructions (atomic-algebra witnesses, disjoint-piece
witnesses, hypergraph realization, clique blowups, two-sorted witness
structures with free amalgamation, triangle-free doubling).
"""

from .constructions import (
    MembershipStructure,
    atomless_pm_witness,
    canonical_char_family,
    check_char_property,
    check_membership_structure,
    cm_from_doubled_witness,
    disjoint_one1_family,
    ip_family,
    membership_column_family,
    membership_structure,
    pm_char_reduction,
    powerset_sm_witness,
)
from .decide import (
    EMPTY_CONDITION,
    Decision,
    brute_force_exhibitable,
    condition_cnf,
    decide_exhibitable,
)
from .errors import PatternaError
from .hypergraphs import (
    Embedding,
    FreeAmalgam,
    Hypergraph,
    TriangleFreeDoubling,
    WitnessStructure,
    blowup,
    blowup_pullback,
    build_witness_structure,
    check_axioms,
    free_amalgam,
    graph,
    maximal_cliques,
    pattern_from_hypergraph,
    realization_witness,
    realize_check,
    triangle_free_double,
    witness_trace_family,
)
from .patterns import (
    Condition,
    Pattern,
    PatternFlags,
    classify,
    cm_pattern,
    cooper_pattern,
    double_positive,
    gen_divline,
    ip_pattern,
    is_k_bounded,
    ktp2_pattern,
    ktp_pattern,
    op_pattern,
    pattern_from_cnf,
    pmchar_pattern,
    sop_pattern,
    subset_index,
    tp1_pattern,
    validate_pattern,
)
from .sat import CnfFormula, Literal, export_dimacs, import_dimacs, sat_solve
from .semantics import (
    SetFamily,
    UnionClosedFamily,
    check_exhibits,
    check_one_n,
    condition_trace,
    fully_complete_extension,
    realized_types,
    union_representable,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
