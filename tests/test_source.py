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


def test_only_with_box_retries_a_short_box():
    # one function grows every working box: besides with_box, only the
    # residue catches PrecisionTooLow, to re-type it with its shortfall
    caught = {"PrecisionTooLow", "CoefficientOutsidePrecision"}
    found = []
    for path in sorted(Path(k2local.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and node.type:
                    names = {n.id for n in ast.walk(node.type)
                             if isinstance(n, ast.Name)}
                else:
                    continue
                if names & caught:
                    found.append(f"{path.stem}.{func.name}")
    assert sorted(set(found)) == ["forms.residue", "symbols.with_box"]


def _uses(paths):
    """Every name the sources refer to: Name and Attribute nodes, and string
    constants, since perfbench/tracer.py names the functions it wraps."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    return used


def test_every_module_level_definition_is_used():
    # a function or class that only the tests call belongs in the tests
    package = Path(k2local.__file__).parent
    bench = package.parent.parent / "perfbench"
    sources = sorted(package.glob("*.py"))
    assert (bench / "tracer.py").is_file()
    used = _uses(sources + sorted(bench.glob("*.py")))
    found = [f"{path.stem}.{node.name}" for path in sources
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and node.name not in used]
    assert not found, found
