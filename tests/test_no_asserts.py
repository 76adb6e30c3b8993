"""The library behaves the same under ``python -O``: its internal
cross-checks raise ``exactlin.CrossCheckError`` explicitly instead of using
``assert`` statements, which ``-O`` strips."""

import ast
from pathlib import Path

import minksmooth

SOURCES = sorted(Path(minksmooth.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
