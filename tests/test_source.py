"""Checks on the program's source text."""

import ast
from pathlib import Path

import k2local


def test_no_assert_statements():
    # python -O strips assert statements, so a check made by one vanishes
    # there; the program raises a typed error instead
    sources = sorted(Path(k2local.__file__).parent.glob("*.py"))
    assert "ff.py" in [path.name for path in sources]
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
