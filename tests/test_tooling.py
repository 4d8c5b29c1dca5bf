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


def test_only_the_cli_prints():
    # library progress goes through the cohprop logger, not stdout
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert SOURCES and not found, found
