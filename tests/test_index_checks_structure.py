"""Index data is checked in one place: bounds.check_indices, which every
public constructor calls on its input as written.  So `type(...) is not int`
and `type(...) is int` appear nowhere else in the package, except in the
scalar checks on a size (n, universe_size, arity, vertex_count), in
jsonio._require_integers, which turns a document's non-integer leaf into its
ParseError, and in jsonio._write, which picks how to print a value."""

import ast
import pathlib

import patterna

SOURCES = sorted(pathlib.Path(patterna.__file__).parent.glob("*.py"))

#: (module, innermost enclosing function) allowed to test values for int.
EXEMPT_FUNCTIONS = {("bounds.py", "check_indices"), ("jsonio.py", "_require_integers"), ("jsonio.py", "_write")}

#: sizes, each one scalar checked where it is taken
EXEMPT_SCALARS = {"n", "universe_size", "arity", "vertex_count"}


def int_tests(path):
    """(function, argument, line) of each `type(x) is not int` or
    `type(x) is int` in path, with the innermost enclosing function (None at
    module level) and x's source."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id == "int"):
            found.append((owner, ast.unparse(node.left.args[0]), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_indices_are_checked_only_in_check_indices():
    assert SOURCES
    offending, exempt = [], []
    for path in SOURCES:
        for owner, argument, line in int_tests(path):
            allowed = (path.name, owner) in EXEMPT_FUNCTIONS or argument in EXEMPT_SCALARS
            (exempt if allowed else offending).append((path.name, owner, argument, line))
    assert not offending
    # the walk does see the one check and every exemption it names
    seen = {(name, owner) for name, owner, _, _ in exempt} | {argument for _, _, argument, _ in exempt}
    assert EXEMPT_FUNCTIONS | EXEMPT_SCALARS <= seen
