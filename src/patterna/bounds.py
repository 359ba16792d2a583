"""Enumeration bounds.

Every exhaustive enumeration in the library is guarded by a size bound so a
typo'd CLI argument cannot wedge the process.  The environment variable
PATTERNA_MAX_N, when set to an integer, overrides all per-operation defaults;
it is the only override.  check_bound is the one place that applies them.
check_indices is the one check that index data is index data.
"""

import os

from .errors import BoundExceeded, IndexOutOfRange

ENV_VAR = "PATTERNA_MAX_N"

# Per-operation defaults, overridable via PATTERNA_MAX_N.
BRUTE_FORCE_N = 16
BRUTE_FORCE_STEPS_LOG2 = 24  # targets x 2**n types x (1 + |I|) steps in all
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


def check_indices(values, what: str, limit: int | None = None, where: str | None = None) -> tuple:
    """values as a tuple, each checked as written, before any set() merges a
    True or a 1.0 into the 1 beside it.  A value that is not an int (a bool
    is not one) raises IndexOutOfRange "{what} {value!r} is not an integer";
    with a limit, so does one outside [0, limit): "{what} {value} {where}",
    where defaults to "outside [0, {limit})"."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise IndexOutOfRange(f"{what} {v!r} is not an integer")
        if limit is not None and not 0 <= v < limit:
            raise IndexOutOfRange(f"{what} {v} {where or f'outside [0, {limit})'}")
    return values
