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


def test_series_internals_stay_in_series():
    # the coefficient codes live behind series.py: no other module imports
    # an underscore name from it
    sources = sorted(Path(k2local.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in sources
             if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and node.module in ("series", "k2local.series")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found
