"""Expression language and command-line front end."""

import json
import pathlib
import random

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
