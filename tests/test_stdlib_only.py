"""The runtime is stdlib-only: every absolute import in the package names a
standard-library module."""

import ast
import pathlib
import sys

import patterna

SOURCES = sorted(pathlib.Path(patterna.__file__).parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside
