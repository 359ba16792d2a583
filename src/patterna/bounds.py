"""Enumeration bounds.

Every exhaustive enumeration in the library is guarded by a size bound so a
typo'd CLI argument cannot wedge the process.  The environment variable
PATTERNA_MAX_N, when set to an integer, overrides all per-operation defaults;
it is the only override.  check_bound is the one place that applies them.
"""

import os

from .errors import BoundExceeded

ENV_VAR = "PATTERNA_MAX_N"

# Per-operation defaults, overridable via PATTERNA_MAX_N.
BRUTE_FORCE_N = 16
IP_FAMILY_N = 16
CLIQUE_VERTICES = 12
SUBSET_PATTERN_N = 4  # Cooper / PMchar live on 2**n indices
MEMBERSHIP_N = 8
TREE_NODES = 4096
DOUBLING_VERTICES = 10
GRAPH_SWEEP_VERTICES = 6  # sweeps over all 2**C(v, 2) graphs on v vertices
PATTERN_INDICES_LOG2 = 20  # a generated pattern's conditions hold <= 2**this indices in all


def enumeration_bound(default: int) -> int:
    """Return the effective bound: PATTERNA_MAX_N if set and parseable, else default."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def check_bound(size: int, default: int, message: str, *, log2: bool = False) -> None:
    """Refuse an enumeration of `size` larger than its bound.

    The bound is enumeration_bound(default), or 2 to that power when log2 (an
    output bound kept as an exponent, so PATTERNA_MAX_N scales it as it scales
    the other bounds' exponential enumerations).  Over it, raise BoundExceeded
    with `message` formatted by the fields {size} and {limit}.
    """
    limit = enumeration_bound(default)
    if size > (2**limit if log2 else limit):
        raise BoundExceeded(message.format(size=size, limit=f"2**{limit}" if log2 else limit))
