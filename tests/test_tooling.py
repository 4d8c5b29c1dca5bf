"""Checks over the library source itself."""
import ast
from pathlib import Path

import cohprop

SOURCES = sorted(Path(cohprop.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and library invariants must hold
    # there too, so the library raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
