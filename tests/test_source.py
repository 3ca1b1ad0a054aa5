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
    # the coefficient codes live in ff.py, and only series.py, the layer of
    # series and polynomials on them, imports an underscore name from ff or
    # from series
    sources = sorted(Path(k2local.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in sources
             if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and node.module in ("series", "k2local.series", "ff",
                                 "k2local.ff")
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


def test_one_key_type_serves_both_sums():
    # every key of the curve and point sums is a Chart, the local field at
    # a point on a curve: it is the one class in globalfield with a sort
    # order, and no code dispatches on it outside its own __eq__
    package = Path(k2local.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    keys = [node for node in trees["globalfield.py"].body
            if isinstance(node, ast.ClassDef)
            and "sort_key" in {f.name for f in node.body
                               if isinstance(f, ast.FunctionDef)}]
    assert [key.name for key in keys] == ["Chart"]
    eq, = [f for f in keys[0].body
           if isinstance(f, ast.FunctionDef) and f.name == "__eq__"]
    inside = {id(node) for node in ast.walk(eq)}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called(node) == "isinstance"
             and id(node) not in inside
             and "Chart" in {n.id for n in ast.walk(node.args[1])
                             if isinstance(n, ast.Name)}]
    assert not found, found


def test_poly2_ring_operations_are_laurent2s():
    # Laurent2.__mul__ is the one product loop on codes, and Laurent2's
    # constructor the one element-to-code encoder: Poly2's constructor and
    # ring operations adopt the codes of the exact Laurent2 result, so none
    # of them loops over terms itself
    path = Path(k2local.__file__).parent / "series.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    poly2, = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Poly2"]
    ops = {"__init__", "__add__", "__neg__", "__mul__"}
    funcs = [f for f in poly2.body
             if isinstance(f, ast.FunctionDef) and f.name in ops]
    assert sorted(f.name for f in funcs) == sorted(ops)
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = [f"{f.name}:{node.lineno}" for f in funcs
             for node in ast.walk(f) if isinstance(node, loops)]
    assert not found, found


def test_poly1_ring_operations_are_the_row_kernels():
    # _row_dot and _row_divmod are the one univariate arithmetic on codes,
    # Poly2's rows and Poly1 alike: Poly1's ring operations call them and
    # hold no loop of their own
    path = Path(k2local.__file__).parent / "ff.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    poly1, = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Poly1"]
    ops = {"__add__", "__neg__", "__mul__", "divmod", "monic"}
    funcs = [f for f in poly1.body
             if isinstance(f, ast.FunctionDef) and f.name in ops]
    assert sorted(f.name for f in funcs) == sorted(ops)
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = [f"{f.name}:{node.lineno}" for f in funcs
             for node in ast.walk(f) if isinstance(node, loops)]
    assert not found, found
    kernels = {f.name: {_called(node) for node in ast.walk(f)
                        if isinstance(node, ast.Call)} for f in funcs}
    assert all(names & {"_row_dot", "_row_divmod"}
               for names in kernels.values()), kernels


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


def _called(node):
    """The name a call is made through: f(...) or module.f(...)."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def test_every_box_is_the_callers():
    # the library has no default box: every inverse is given its caller's
    # box, only series.py (where they are set) and cli.py (the command
    # line's default box) name DEFAULT_T_PREC or DEFAULT_U_PREC, and every
    # PrecisionTooLow raised names its side, so that with_box knows which
    # side to grow; only the guards of a nonpositive box name none
    defaults = {"DEFAULT_T_PREC", "DEFAULT_U_PREC"}
    short = {"PrecisionTooLow", "CoefficientOutsidePrecision"}
    guards = {("series", "invert"), ("globalfield", "_param_series")}
    unboxed, named, sideless = [], set(), []
    for path in sorted(Path(k2local.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guarded = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and (path.stem, func.name) in guards
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and _called(node) == "invert" \
                    and len(node.args) + len(node.keywords) < 3 \
                    and not any(isinstance(a, ast.Starred)
                                for a in node.args):
                unboxed.append(where)
            if {getattr(node, "id", None), getattr(node, "attr", None)} \
                    & defaults or isinstance(node, ast.ImportFrom) \
                    and {a.name for a in node.names} & defaults:
                named.add(path.name)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and _called(node.exc) in short \
                    and len(node.exc.args) < 2 \
                    and "side" not in {k.arg for k in node.exc.keywords} \
                    and id(node.exc) not in guarded:
                sideless.append(where)
    assert not unboxed, unboxed
    assert named <= {"series.py", "cli.py"}, named
    assert not sideless, sideless


def test_only_boundary_evaluates_in_the_box():
    # boundary is the one verb whose output is the flags' box; every other
    # verb evaluates its operands exactly, and a with_box loop, if any,
    # grows the box
    path = Path(k2local.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = {func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and _called(node) == "eval_local"}
    assert callers == {"_cmd_boundary"}, callers
