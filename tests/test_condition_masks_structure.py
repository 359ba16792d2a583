"""A condition's parts become masks in one place: Condition's builders in
patterns.py.  Elsewhere in the package, code reads pos_mask and neg_mask, so
no subset_index or set() call is applied to a .pos or .neg attribute.  Two
exceptions: the brute-force oracle builds its own masks, so that it stays
independent of the path it checks, and decide's clause encoding tests each
inconsistency condition's parts for overlap once, where a set is cheaper
than masks that nothing reads again."""

import ast
import pathlib

import patterna

SOURCES = sorted(pathlib.Path(patterna.__file__).parent.glob("*.py"))

#: (module, top-level function or None for the whole module) allowed to build masks.
EXEMPT = {("patterns.py", None), ("decide.py", "brute_force_exhibitable"), ("decide.py", "_clause_codes")}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def part_conversions(path):
    """(function, line) of each subset_index(...) or set(...) call in path
    whose arguments read a .pos or .neg attribute; function is the enclosing
    top-level definition, or None."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _called_name(node) in ("subset_index", "set"):
                if any(isinstance(sub, ast.Attribute) and sub.attr in ("pos", "neg")
                       for arg in node.args for sub in ast.walk(arg)):
                    found.append((owner, node.lineno))
    return found


def test_parts_become_masks_only_in_condition_builders():
    assert SOURCES
    offending, exempt = [], []
    for path in SOURCES:
        for owner, line in part_conversions(path):
            allowed = (path.name, None) in EXEMPT or (path.name, owner) in EXEMPT
            (exempt if allowed else offending).append(f"{path.name}:{line}")
    assert not offending
    # the walk does see the oracle's own conversions
    assert any(entry.startswith("decide.py:") for entry in exempt)
