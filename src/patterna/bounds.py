"""Enumeration bounds.

Every exhaustive enumeration in the library is guarded by a size bound so a
typo'd CLI argument cannot wedge the process.  Each bound is a fixed module
constant, and check_bound is the one place that applies them.  A test lowers
a bound by patching the constant in the module whose call reads it.
check_indices is the one check that index data is index data.
"""

from .errors import BoundExceeded, IndexOutOfRange

BRUTE_FORCE_STEPS_LOG2 = 24  # targets x 2**n types x (1 + |I|) steps in all, so n <= 24
IP_FAMILY_N = 16
CLIQUE_VERTICES = 12
SUBSET_PATTERN_N = 4  # Cooper / PMchar live on 2**n indices
MEMBERSHIP_N = 8
TREE_NODES = 4096
DOUBLING_VERTICES = 10
GRAPH_SWEEP_VERTICES = 6  # sweeps over all 2**C(v, 2) graphs on v vertices
PATTERN_INDICES_LOG2 = 20  # a generated pattern's conditions hold <= 2**this indices in all
SAMPLED_PATTERN_N = 1024  # verify's random patterns draw up to n indices


def check_bound(size: int, limit: int, message: str, *, log2: bool = False) -> None:
    """Refuse an enumeration of `size` larger than `limit`, or than 2**limit
    when log2 (an output bound kept as an exponent).  Over it, raise
    BoundExceeded with `message` formatted by the fields {size} and {limit}.
    """
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
