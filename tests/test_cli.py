"""Expression language and command-line front end."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from k2local import cli, errors
from k2local.cli import (evaluate, main, parse_expr, print_expr, run,
                         GOLDEN_COMMANDS)
from k2local.errors import (DivisionByZero, ExprSyntaxError, UndefinedSymbol)
from k2local.ff import make_field
from k2local.globalfield import Poly2, RatFunc

DATA = pathlib.Path(__file__).parent / "data"


class TestParser:
    def test_add_mul(self):
        assert parse_expr("1+u*t") == \
            ("add", ("int", 1), ("mul", ("var", "u"), ("var", "t")))

    def test_negative_power(self):
        assert parse_expr("u^-1") == ("pow", ("var", "u"), -1)

    def test_div_grouping(self):
        e = parse_expr("(1+u*t)/(1-u*t)")
        assert e[0] == "div"
        assert e[1] == ("add", ("int", 1), ("mul", ("var", "u"), ("var", "t")))

    def test_whitespace_insensitive(self):
        assert parse_expr(" 1 + u * t ") == parse_expr("1+u*t")

    def test_left_associative(self):
        assert parse_expr("1-2-3") == \
            ("sub", ("sub", ("int", 1), ("int", 2)), ("int", 3))

    def test_unary_minus(self):
        assert parse_expr("-u") == ("neg", ("var", "u"))

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("u+")
        assert ei.value.offset == 2

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("u + %t")
        assert ei.value.offset == 4

    def test_undefined_symbol(self):
        with pytest.raises(UndefinedSymbol):
            parse_expr("u + w")

    def test_roundtrip_random(self):
        rng = random.Random(3)

        def rand_ast(depth):
            if depth == 0:
                return rng.choice([("int", rng.randrange(0, 5)),
                                   ("var", rng.choice("zut"))])
            kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow",
                               "leaf"])
            if kind == "leaf":
                return rand_ast(0)
            if kind == "neg":
                return ("neg", rand_ast(depth - 1))
            if kind == "pow":
                return ("pow", rand_ast(depth - 1), rng.randrange(-3, 4))
            return (kind, rand_ast(depth - 1), rand_ast(depth - 1))

        for _ in range(300):
            e = rand_ast(3)
            assert parse_expr(print_expr(e)) == e

    def test_nesting_limit(self):
        deep = "(" * cli.MAX_NESTING + "u" + ")" * cli.MAX_NESTING
        assert parse_expr(deep) == ("var", "u")
        assert parse_expr("u*" + "-" * cli.MAX_NESTING + "u")[0] == "mul"
        for text in ("(" + deep + ")", "u*-" + "-" * cli.MAX_NESTING + "u"):
            with pytest.raises(ExprSyntaxError):
                parse_expr(text)


class TestEvaluate:
    def test_generator_square(self):
        F4 = make_field(2, 2)
        v = evaluate(parse_expr("z^2"), F4)
        assert v == RatFunc.const(F4, F4.gen * F4.gen)

    def test_exact_rational_form(self):
        F2 = make_field(2, 1)
        v = evaluate(parse_expr("1/(1-u)"), F2)
        assert v.den == Poly2(F2, {(0, 0): F2.one, (1, 0): F2.one})

    def test_t_over_t(self):
        F2 = make_field(2, 1)
        assert evaluate(parse_expr("t/t"), F2) == RatFunc.const(F2, F2.one)

    def test_division_by_zero(self):
        F2 = make_field(2, 1)
        with pytest.raises(DivisionByZero):
            evaluate(parse_expr("1/(t-t)"), F2)


class TestRun:
    def test_tame_example(self):
        code, rep = run(["tame", "--field", "2^2/1,1,1", "z", "u", "t"])
        assert code == 0
        assert rep["value"] == [0, 1]

    def test_reciprocity_curve_example(self):
        code, rep = run(["reciprocity-curve", "--field", "3^1", "--m", "1",
                         "u", "t", "u^-1"])
        assert code == 0
        assert rep["witt"]["sum"] == [[0]]
        assert rep["verdict"] is True

    def test_reciprocity_curve_needs_a_larger_box(self):
        # a fixed box from the input degrees leaves a residue unknown here
        code, rep = run(["reciprocity-curve", "--field", "3^1", "--m", "2",
                         "(1+u)^9+t", "u+t^2", "(1+u)^-2*t^-1"])
        assert code == 0, rep
        assert rep["verdict"] is True

    def test_reciprocity_point_graph_u_of_t(self):
        code, rep = run(["reciprocity-point", "--field", "3^1",
                         "--curves", "t,u,u=t^2", "u*(u-t^2)", "t", "1+u*t"])
        assert code == 0, rep
        assert rep["curves"] == ["t = 0", "u = 0", "u = [1]*t^2"]
        assert rep["verdict"] is True

    def test_graph_u_of_t_must_be_a_polynomial_in_t(self):
        code, rep = run(["reciprocity-point", "--field", "3^1",
                         "--curves", "t,u,u=u", "u*(u-t^2)", "t", "1+u*t"])
        assert code == 2
        assert rep["error"] == "UsageError"

    def test_reciprocity_sweep_redraws_zero_entries(self):
        # at seed 9 the sweep's generator draws f = t + t = 0 over F_2
        code, rep = run(["reciprocity-curve", "--field", "2^1", "--m", "1",
                         "--sweep", "6", "--seed", "9"])
        assert code == 0, rep
        assert len(rep["sweep"]) == 6
        assert rep["verdict"] is True

    def test_witt_pair_steinberg(self):
        code, rep = run(["witt-pair", "--field", "2^1", "--m", "3",
                         "u+t", "1-(u+t)", "u^-1"])
        assert code == 0
        assert rep["value"] == [[0], [0], [0]]

    def test_input_error_exit_2(self):
        for argv in (["nope"], ["tame", "--field", "2^1", "u+", "u", "t"],
                     ["tame", "--field", "banana", "u", "u", "t"],
                     ["witt-pair", "--field", "2^1", "u"],
                     ["tame", "--field", "2^1", "1/(t-t)", "u", "t"]):
            code, rep = run(argv)
            assert code == 2, argv
            assert "error" in rep

    @pytest.mark.parametrize("argv", [
        ["witt-pair", "--m", "0", "u", "t", "u^-1"],
        ["witt-pair", "--m", "-1", "u", "t", "u^-1"],
        ["reciprocity-curve", "--m", "0", "u", "t", "u^-1"],
        ["reciprocity-curve", "--m", "-2", "u", "t", "u^-1"],
        ["reciprocity-point", "--m", "0", "u", "t", "u^-1"]])
    def test_length_below_one_exit_2(self, argv):
        code, rep = run(argv)
        assert code == 2
        assert rep["error"] == "UnsupportedLength"

    @pytest.mark.parametrize("argv, error", [
        (["duality-curve", "--field", "2^1", "-1"], "ZeroArgument"),
        (["duality-curve", "--field", "2^1", "x"], "UsageError"),
        (["duality-point", "--field", "2^1", "a", "1"], "UsageError")])
    def test_duality_operands(self, argv, error):
        code, rep = run(argv)
        assert code == 2
        assert rep["error"] == error

    @pytest.mark.parametrize("argv, error", [
        (["tame", "--field", "2^1", "u", "t"], "UsageError"),
        (["boundary", "--field", "2^1", "u"], "UsageError"),
        (["decompose", "--field", "2^1", "u", "t", "t"], "UsageError"),
        (["reciprocity-curve", "--sweep", "-3"], "UsageError"),
        (["decompose", "--level", "-1", "1+u*t", "t"], "UsageError"),
        (["equiv", "--level", "-1", "1+u*t", "t", "1+u^2*t", "t"],
         "UsageError"),
        (["tame", "--field", "2^-1", "u", "u", "t"], "ReducibleModulus"),
        (["tame", "--field", "2^1", "(" * 250 + "u" + ")" * 250, "u", "t"],
         "ExprSyntaxError")])
    def test_arity_and_range_errors_are_typed(self, argv, error):
        code, rep = run(argv)
        assert code == 2
        assert rep["error"] == error

    def test_huge_negative_power_is_cheap(self):
        # the power of a reduced fraction is built without a gcd, so no
        # dense row of 10^8 coefficients is formed
        start = time.perf_counter()
        code, rep = run(["tame", "--field", "2^1", "u^-99999999", "u", "t"])
        assert code == 0, rep
        assert time.perf_counter() - start < 1.0

    def test_huge_power_of_u_lists_places_cheaply(self):
        # the places are read from sparse rows, so u^200000 is never dense
        start = time.perf_counter()
        code, rep = run(["reciprocity-curve", "--field", "2^1",
                         "u^-200000", "u", "t"])
        assert code == 0, rep
        assert rep["verdict"] is True
        assert time.perf_counter() - start < 1.0

    def test_huge_power_of_u_expands_cheaply(self):
        # the expansions at infinity and at u relabel sparse rows, so
        # u^-2000000 costs one term there, not two million
        start = time.perf_counter()
        code, rep = run(["reciprocity-curve", "--field", "2^1",
                         "u^-2000000", "u", "t"])
        assert code == 0, rep
        assert rep["verdict"] is True
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["witt-pair", "--field", "2^1", "--m", "12", "1+u+t", "t",
         "u^-1*t^-1"],
        ["reciprocity-curve", "--field", "2^1", "--m", "12", "u", "t",
         "u^-1"]])
    def test_length_above_cap_refused_first(self, argv):
        start = time.perf_counter()
        code, rep = run(argv)
        assert code == 2
        assert rep["error"] == "UnsupportedLength"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("op", ["*", "+"])
    def test_long_chain_evaluates(self, op):
        # 2001 factors or terms, each equal to u over F_2
        code, rep = run(["tame", "--field", "2^1", op.join(["u"] * 2001),
                         "u", "t"])
        assert code == 0, rep

    @pytest.mark.parametrize("flags", [[], ["--prec-u", "2"],
                                       ["--prec-t", "2"],
                                       ["--prec-t", "40", "--prec-u", "40"]])
    def test_decompose_does_not_depend_on_precision(self, flags):
        # (1+ut)^-1 is not exact at any box; the decomposer reads rows 0..6
        # up to u^14 at level 3, and the expression is expanded that far
        code, rep = run(["decompose", "--field", "2^1", "--level", "3"]
                        + flags + ["(1+u*t)^-1", "t"])
        assert code == 0, rep
        assert [(e["i"], e["j"]) for e in rep["basis"]["e1_terms"]] == \
            [(1, 1), (2, 2)]

    def test_decompose_refuses_a_box_side_below_one(self):
        # doubling a side below 1 cannot make it positive
        code, rep = run(["decompose", "--field", "2^1", "--prec-t", "0",
                         "(1+u*t)^-1", "t"])
        assert code == 2
        assert rep["error"] == "PrecisionTooLow"

    def test_zero_box_answers_without_an_inverse(self):
        # every denominator is a monomial, so no inverse needs the box
        code, rep = run(["tame", "--field", "2^1", "--prec-t", "0", "u", "t",
                         "1+u"])
        assert code == 0, rep

    @pytest.mark.parametrize("curves, listed", [
        ("t,t,u", ["t = 0", "u = 0"]),
        ("t,u,t=u,u=t", ["t = 0", "u = 0", "t = [1]*u^1"])])
    def test_repeated_curve_is_summed_once(self, curves, listed):
        code, rep = run(["reciprocity-point", "--field", "3^1", "--curves",
                         curves, "(t-u)*(1+t)" if "=" in curves
                         else "u*(1+t)", "t*(1+u)", "2"])
        assert code == 0, rep
        assert rep["verdict"] is True
        assert rep["curves"] == listed
        assert [c["curve"] for c in rep["witt"]["curves"]] == listed

    def test_internal_error_exit_3(self, monkeypatch):
        def broken(args, field):
            return 1 // 0
        monkeypatch.setitem(cli._VERBS, "tame", broken)
        code, rep = run(["tame", "u", "u", "t"])
        assert code == 3
        assert rep["error"] == "InternalError"
        assert rep["message"].startswith("ZeroDivisionError")

    def test_grammar_fuzz_gives_typed_answers(self):
        rng = random.Random(12)

        def rand_ast(depth):
            if depth == 0 or not rng.randrange(4):
                return rng.choice([("int", rng.randrange(0, 5)),
                                   ("var", rng.choice("zut"))])
            kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow"])
            if kind == "neg":
                return ("neg", rand_ast(depth - 1))
            if kind == "pow":
                return ("pow", rand_ast(depth - 1), rng.randrange(-5, 6))
            return (kind, rand_ast(depth - 1), rand_ast(depth - 1))

        verbs = [(["tame"], 3), (["boundary"], 2), (["as-reduce"], 1),
                 (["witt-pair", "--m", "2"], 3)]
        fields = ["2^1", "3^1", "2^2/1,1,1"]
        codes = set()
        for k in range(240):
            verb, n = verbs[k % 4]
            argv = verb + ["--field", fields[k // 4 % 3]] + \
                [print_expr(rand_ast(3)) for _ in range(n)]
            code, rep = run(argv)
            assert code in (0, 1, 2), (argv, rep)
            codes.add(code)
        assert codes >= {0, 2}

    @pytest.mark.parametrize("spec", ["banana", "2^x", "2^2/1,a,1"])
    def test_bad_field_is_usage_error(self, spec):
        code, rep = run(["tame", "--field", spec, "u", "u", "t"])
        assert code == 2
        assert rep["error"] == "UsageError"
        assert cli.UsageError is errors.UsageError

    def test_assertion_failure_exit_1(self):
        code, rep = run(["equiv", "--field", "2^1", "--level", "2",
                         "u", "t", "t", "u"])
        assert code == 1
        assert rep["equal"] is False

    def test_schema_tag(self):
        code, rep = run(["as-reduce", "--field", "2^1", "u^2/t^2"])
        assert code == 0
        assert rep["schema"] == 1
        assert rep["representative"]["terms"] == {"-1": "[1]*u^1"}

    def test_as_reduce_prints_univariate_coefficients(self):
        # each coefficient prints highest power of u first, as it did when
        # the coefficients were univariate fractions
        code, rep = run(["as-reduce", "--field", "3^1",
                         "t^-3*(1+u)/(1+u^2)+2*u^-1*t^-1"])
        assert code == 0
        assert rep["representative"] == {
            "terms": {
                "-1": "([1]*u^2 + [1]*u^1 + [2]) / ([1]*u^3 + [1]*u^1)",
                "-3": "([1]*u^5 + [1]*u^4 + [2]*u^2 + [1]*u^1) / "
                      "([1]*u^6 + [1])"},
            "flags": {"-3": "rational"}}

    def test_main_json_output(self, capsys):
        code = main(["tame", "--field", "2^2/1,1,1", "--json",
                     "z", "u", "t"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["value"] == [0, 1]

    def test_main_text_output(self, capsys):
        code = main(["tame", "--field", "2^2/1,1,1", "z", "u", "t"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: [0, 1]" in out


class TestGolden:
    @pytest.mark.parametrize("idx", range(len(GOLDEN_COMMANDS)))
    def test_golden(self, idx):
        argv = GOLDEN_COMMANDS[idx]
        code, rep = run(argv)
        rendered = json.dumps(rep, sort_keys=True, indent=2) + "\n"
        expected = (DATA / f"golden_{idx:02d}.json").read_text()
        assert rendered == expected
        assert code == 0


def test_goldens_need_no_sympy():
    """A fresh interpreter runs every golden command without importing sympy."""
    script = ("import sys\n"
              "from k2local import cli\n"
              "print([cli.run(list(argv))[0] for argv in cli.GOLDEN_COMMANDS])\n"
              "print('sympy' in sys.modules)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, has_sympy = proc.stdout.split("\n")[:2]
    assert codes == str([0] * len(GOLDEN_COMMANDS))
    assert has_sympy == "False"
