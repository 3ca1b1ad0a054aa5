"""Command-line front end.

A small expression language over F_q (integers, the field generator `z`, the
variables `u` and `t`, and + - * / ^) feeds every public operation through
one verb each.  Reports are plain text or versioned JSON (`schema: 1`) with
all field elements in coefficient-vector form and deterministic ordering.
"""

import json
import random
import sys

from .errors import (DivisionByZero, ExprSyntaxError, K2LocalError,
                     UndefinedSymbol, UsageError)
from .ff import make_field, parse_field
from .globalfield import (AdmissibleCurve, Poly1, Poly2, RatFunc,
                          as_reduce, as_residual_solves, curve_tame_terms,
                          curve_witt_terms, distinct_curves,
                          duality_kernel_point, duality_level_curve,
                          expand_at_place, place_u, point_tame_terms,
                          point_witt_terms, tame_report,
                          to_pointfunc, witt_report)
from .globalfield import _poly2_transpose
from .series import DEFAULT_T_PREC, DEFAULT_U_PREC, Laurent2, laurent_domain
from .symbols import (boundary, k2_decompose, k2_equiv, symbol,
                      tame_symbol_det, with_box, witt_pair_local)
from .witt import WittVec, witt_zero

SCHEMA = 1

# deepest nesting of parentheses and unary minus signs that parse_expr takes
MAX_NESTING = 200


# --------------------------------------------------------------------------
# expression language
# --------------------------------------------------------------------------

def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name not in ("z", "u", "t"):
                raise UndefinedSymbol(
                    f"undefined symbol {name!r} at offset {i}")
            toks.append(("var", name, i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return e

    def expr(self):
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                neg = not neg
        e = self.term()
        if neg:
            e = ("neg", e)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = ("add" if op == "+" else "sub", e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            e = ("mul" if op == "*" else "div", e, rhs)
        return e

    def factor(self):
        e = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            while self.peek()[0] == "-":
                self.take()
                sign = -sign
            tok = self.take("int")
            e = ("pow", e, sign * tok[1])
        return e

    def atom(self):
        tok = self.take()
        if tok[0] in ("int", "var"):
            return tok[:2]
        if tok[0] not in ("(", "-"):
            raise ExprSyntaxError(
                f"expected a value, found {tok[0]!r}", tok[2])
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING}", tok[2])
        if tok[0] == "(":
            e = self.expr()
            self.take(")")
        else:
            e = ("neg", self.atom())
        self.nesting -= 1
        return e


def parse_expr(text):
    """Parse the expression language into an AST."""
    return _Parser(text).parse()


def print_expr(e):
    """Canonical rendering; parse(print_expr(e)) reproduces the tree."""
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind == "var":
        return e[1]
    if kind == "neg":
        return f"(-{print_expr(e[1])})"
    if kind == "pow":
        base = print_expr(e[1])
        if e[1][0] not in ("int", "var"):
            base = f"({base})"
        return f"{base}^{e[2]}" if e[2] >= 0 else f"{base}^-{-e[2]}"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({print_expr(e[1])}{op}{print_expr(e[2])})"


def evaluate(e, field):
    """Evaluate an AST to an exact rational function over the field.

    A chain such as a + b + ... or a * b * ... parses into a left-deep tree;
    its left spine is walked in a loop, so a long chain does not recurse.
    """
    spine = []
    while e[0] in ("add", "sub", "mul", "div"):
        spine.append(e)
        e = e[1]
    acc = _evaluate_operand(e, field)
    for kind, _, rhs in reversed(spine):
        b = evaluate(rhs, field)
        if kind == "add":
            acc = acc + b
        elif kind == "sub":
            acc = acc - b
        elif kind == "mul":
            acc = acc * b
        elif not b:
            raise DivisionByZero("division by the zero expression")
        else:
            acc = acc / b
    return acc


def _evaluate_operand(e, field):
    """Evaluate an AST whose root is not a binary operator."""
    kind = e[0]
    if kind == "int":
        return RatFunc.const(field, field.from_int(e[1]))
    if kind == "var":
        if e[1] == "z":
            return RatFunc.const(field, field.gen)
        if e[1] == "u":
            return RatFunc.from_poly2(Poly2.monomial(field, field.one, 1, 0))
        return RatFunc.from_poly2(Poly2.monomial(field, field.one, 0, 1))
    if kind == "neg":
        return -evaluate(e[1], field)
    return evaluate(e[1], field) ** e[2]


def eval_rational(text, field):
    return evaluate(parse_expr(text), field)


def eval_local(text, field, prec_t, prec_u):
    """Evaluate to a Laurent2 element of F_q((u))((t)): the expansion at the
    place u in the box (prec_t, prec_u)."""
    return expand_at_place(eval_rational(text, field), place_u(field),
                           (prec_t, prec_u))


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _fq_json(c):
    return list(c.coeffs)


def _wv_out(w):
    return [_fq_json(c) for c in w.components]


def _laurent_json(f):
    out = []
    for j in sorted(f.terms):
        for i in sorted(f.terms[j]):
            out.append({"u": i, "t": j, "c": _fq_json(f.terms[j][i])})
    return out


# --------------------------------------------------------------------------
# verbs
# --------------------------------------------------------------------------

def _parse_curveset(spec, field):
    """Curve set syntax: comma-separated 't', 'u', 't=POLY', 'u=POLY'."""
    curves = []
    for item in spec.split(","):
        item = item.strip()
        if item == "t":
            curves.append(AdmissibleCurve(field, "axis_u"))
        elif item == "u":
            curves.append(AdmissibleCurve(field, "axis_t"))
        elif item.startswith("t="):
            curves.append(AdmissibleCurve(
                field, "graph_t_of_u", _graph_poly(item[2:], field, "u")))
        elif item.startswith("u="):
            curves.append(AdmissibleCurve(
                field, "graph_u_of_t", _graph_poly(item[2:], field, "t")))
        else:
            raise UsageError(f"bad curve item {item!r}")
    return curves


def _graph_poly(text, field, var):
    rf = eval_rational(text, field)
    rows = (rf.num if var == "u" else _poly2_transpose(rf.num)).t_coeffs()
    if rf.den != Poly2.one(field) or list(rows) not in ([0], []):
        raise UsageError(f"curve graph {text!r} must be a polynomial "
                         f"in {var}")
    return rows.get(0, Poly1(field, ()))


def _rand_expr(rng, depth=2):
    if depth == 0:
        return rng.choice([("int", rng.randrange(0, 4)),
                           ("var", rng.choice("zut"))])
    kind = rng.choice(["add", "mul", "leaf", "leaf"])
    if kind == "leaf":
        return _rand_expr(rng, 0)
    return (kind, _rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _exprs(args, n, need):
    """The verb's expressions if there are n of them, else UsageError(need)."""
    if len(args["exprs"]) != n:
        raise UsageError(need)
    return args["exprs"]


def _cmd_tame(args, field):
    prec_t, prec_u = args["prec_t"], args["prec_u"]
    f, g, h = (eval_local(x, field, prec_t, prec_u)
               for x in _exprs(args, 3, "tame needs f, g and h"))
    v = tame_symbol_det(f, g, h).value
    return {"verb": "tame", "value": _fq_json(v)}, 0


def _cmd_witt_pair(args, field):
    prec_t, prec_u = args["prec_t"], args["prec_u"]
    m = args["m"]
    exprs = args["exprs"]
    if len(exprs) < 3:
        raise UsageError("witt-pair needs f, g and at least one "
                              "coefficient component")
    f = eval_local(exprs[0], field, prec_t, prec_u)
    g = eval_local(exprs[1], field, prec_t, prec_u)
    comps = [eval_local(x, field, prec_t, prec_u) for x in exprs[2:]]
    while len(comps) < m:
        comps.append(Laurent2.zero(field))
    w = witt_pair_local(symbol(f, g),
                        WittVec(laurent_domain(field), comps[:m]), m)
    return {"verb": "witt-pair", "m": m, "value": _wv_out(w)}, 0


def _cmd_boundary(args, field):
    prec_t, prec_u = args["prec_t"], args["prec_u"]
    f, g = (eval_local(x, field, prec_t, prec_u)
            for x in _exprs(args, 2, "boundary needs f and g"))
    b = boundary(symbol(f, g))
    return {"verb": "boundary", "value": _laurent_json(b)}, 0


def _cmd_decompose(args, field):
    rfs = [eval_rational(x, field)
           for x in _exprs(args, 2, "decompose needs f and g")]

    def run(box):
        f, g = (expand_at_place(rf, place_u(field), box) for rf in rfs)
        return k2_decompose(symbol(f, g), args["level"])
    # the decomposer reads a fixed box of each entry; the expressions are
    # exact, so they are expanded until that box is known
    basis = with_box((args["prec_t"], args["prec_u"]), None, run)
    return {"verb": "decompose", "level": args["level"],
            "basis": basis.to_json()}, 0


def _cmd_equiv(args, field):
    prec_t, prec_u = args["prec_t"], args["prec_u"]
    f1, g1, f2, g2 = (eval_local(x, field, prec_t, prec_u)
                      for x in _exprs(args, 4, "equiv needs f1 g1 f2 g2"))
    same = k2_equiv(symbol(f1, g1), symbol(f2, g2), args["level"])
    return {"verb": "equiv", "level": args["level"], "equal": same}, \
        0 if same else 1


def _cmd_reciprocity_curve(args, field):
    exprs = args["exprs"]
    m = args["m"]
    zero = witt_zero(make_field(field.p, 1), m)
    if args["sweep"]:
        rng = random.Random(args["seed"])
        runs = []
        ok = True
        for _ in range(args["sweep"]):
            f = g = None
            while not (f and g):  # a zero symbol entry has no pairing
                fs = [print_expr(_rand_expr(rng)) for _ in range(3)]
                f = eval_rational(fs[0], field) + eval_rational("t", field)
                g = eval_rational(fs[1], field) + eval_rational("u", field)
            h = eval_rational(fs[2], field)
            rep = witt_report(curve_witt_terms(f, g, h, m), zero, "place")
            runs.append({"inputs": fs, "verdict": rep["verdict"]})
            ok = ok and rep["verdict"]
        return {"verb": "reciprocity-curve", "m": m, "sweep": runs,
                "verdict": ok}, 0 if ok else 1
    if len(exprs) < 3:
        raise UsageError("reciprocity-curve needs f, g and h")
    f = eval_rational(exprs[0], field)
    g = eval_rational(exprs[1], field)
    comps = [eval_rational(x, field) for x in exprs[2:]]
    witt = witt_report(curve_witt_terms(f, g, comps, m), zero, "place")
    out = {"verb": "reciprocity-curve", "m": m, "witt": witt}
    ok = witt["verdict"]
    if len(comps) == 1 and comps[0]:
        tame = tame_report(curve_tame_terms(f, g, comps[0]), field.one,
                           "place")
        out["tame"] = tame
        ok = ok and tame["verdict"]
    out["verdict"] = ok
    return out, 0 if ok else 1


def _cmd_reciprocity_point(args, field):
    exprs = args["exprs"]
    if len(exprs) < 3:
        raise UsageError("reciprocity-point needs f, g and h")
    curves = _parse_curveset(args["curves"] or "t,u", field)
    f = to_pointfunc(eval_rational(exprs[0], field), curves)
    g = to_pointfunc(eval_rational(exprs[1], field), curves)
    comps = [to_pointfunc(eval_rational(x, field), curves)
             for x in exprs[2:]]
    m = args["m"]
    witt = witt_report(point_witt_terms(f, g, comps, m, curves),
                       witt_zero(make_field(field.p, 1), m), "curve")
    out = {"verb": "reciprocity-point", "m": m,
           "curves": [y.serialize() for y in distinct_curves(curves)],
           "witt": witt}
    ok = witt["verdict"]
    if len(comps) == 1 and comps[0]:
        tame = tame_report(point_tame_terms(f, g, comps[0], curves),
                           field.one, "curve")
        out["tame"] = tame
        ok = ok and tame["verdict"]
    out["verdict"] = ok
    return out, 0 if ok else 1


def _cmd_duality_point(args, field):
    i, j = (_int(x, "index") for x in
            _exprs(args, 2, "duality-point needs the indices i and j"))
    rep = duality_kernel_point(i, j, field)
    rep["verb"] = "duality-point"
    return rep, 0 if rep["match"] else 1


def _cmd_duality_curve(args, field):
    D, = _exprs(args, 1, "duality-curve needs the pole bound D")
    rep = duality_level_curve(args["level"], _int(D, "pole bound"), field)
    rep["verb"] = "duality-curve"
    ok = rep["full_column_rank"]
    rep["verdict"] = ok
    return rep, 0 if ok else 1


def _cmd_as_reduce(args, field):
    text, = _exprs(args, 1, "as-reduce needs one expression")
    f = eval_rational(text, field)
    rep = as_reduce(f)
    ok = as_residual_solves(f, rep)
    return {"verb": "as-reduce", "representative": rep.to_json(),
            "residual_ok": ok}, 0 if ok else 1


_VERBS = {
    "tame": _cmd_tame,
    "witt-pair": _cmd_witt_pair,
    "boundary": _cmd_boundary,
    "decompose": _cmd_decompose,
    "equiv": _cmd_equiv,
    "reciprocity-curve": _cmd_reciprocity_curve,
    "reciprocity-point": _cmd_reciprocity_point,
    "duality-point": _cmd_duality_point,
    "duality-curve": _cmd_duality_curve,
    "as-reduce": _cmd_as_reduce,
}

_USAGE = """usage: k2local VERB [options] EXPR...

verbs: %s

options:
  --field p^n[/c0,...,cn]   coefficient field (default 2^1)
  --prec-t N  --prec-u N    working precisions
  --m M                     Witt length (default 1)
  --level N                 filtration level (default 3)
  --curves SPEC             point-mode curve set: t,u,t=EXPR,u=EXPR
  --sweep N  --seed S       randomized sweep for reciprocity-curve
  --json                    JSON output (schema %d)
""" % (", ".join(sorted(_VERBS)), SCHEMA)


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} needs an integer, not {text!r}")


def _parse_args(argv):
    args = {
        "field": "2^1", "prec_t": DEFAULT_T_PREC, "prec_u": DEFAULT_U_PREC,
        "m": 1, "level": 3, "json": False, "seed": 0, "sweep": 0,
        "curves": None, "exprs": [],
    }
    if not argv:
        raise UsageError("missing verb\n" + _USAGE)
    verb = argv[0]
    if verb not in _VERBS:
        raise UsageError(f"unknown verb {verb!r}\n" + _USAGE)
    i = 1
    while i < len(argv):
        a = argv[i]
        if a == "--json":
            args["json"] = True
            i += 1
            continue
        if a in ("--field", "--prec-t", "--prec-u", "--m", "--level",
                 "--seed", "--sweep", "--curves"):
            if i + 1 >= len(argv):
                raise UsageError(f"flag {a} needs a value")
            val = argv[i + 1]
            key = a[2:].replace("-", "_")
            if key in ("prec_t", "prec_u", "m", "level", "seed", "sweep"):
                val = _int(val, f"flag {a}")
            if key in ("level", "sweep") and val < 0:
                raise UsageError(f"flag {a} needs a value >= 0, not {val}")
            args[key] = val
            i += 2
            continue
        if a.startswith("--"):
            raise UsageError(f"unknown flag {a!r}")
        args["exprs"].append(a)
        i += 1
    return verb, args


# Representative command set pinned by golden-file tests; outputs must be
# byte-stable across runs for fixed --seed.
GOLDEN_COMMANDS = [
    ["tame", "--field", "2^2/1,1,1", "z", "u", "t"],
    ["tame", "--field", "5^1", "2*u^2", "3*t", "u*t"],
    ["witt-pair", "--field", "2^1", "--m", "3", "u+t", "1-(u+t)", "u^-1"],
    ["witt-pair", "--field", "3^1", "--m", "2", "1+u*t", "t", "u^-1", "1"],
    ["boundary", "--field", "3^1", "u*t", "t"],
    ["decompose", "--field", "2^1", "--level", "3", "1+u*t", "t"],
    ["equiv", "--field", "2^1", "--level", "2", "1+u*t", "t", "1+u*t", "t"],
    ["reciprocity-curve", "--field", "3^1", "--m", "1", "u", "t", "u^-1"],
    ["reciprocity-curve", "--field", "2^1", "--m", "2", "--sweep", "3",
     "--seed", "9"],
    ["reciprocity-point", "--field", "2^2/1,1,1", "--curves", "t,u",
     "u", "t", "z"],
    ["duality-point", "--field", "3^1", "1", "1"],
    ["duality-curve", "--field", "2^1", "--level", "1", "2"],
]


def run(argv):
    """Execute one command; returns (exit code, report dict).

    The code is 0 or 1 for an answer, 2 for a K2LocalError and 3 for any
    other exception, which is a bug and is reported as InternalError.
    """
    try:
        verb, args = _parse_args(argv)
        field = parse_field(args["field"])
        report, code = _VERBS[verb](args, field)
        report["schema"] = SCHEMA
        report["field"] = field.serialize()
        return code, report
    except K2LocalError as exc:
        return 2, {"schema": SCHEMA, "error": type(exc).__name__,
                   "message": str(exc)}
    except Exception as exc:  # a bug, not bad input: never panic, exit 3
        return 3, {"schema": SCHEMA, "error": "InternalError",
                   "message": f"{type(exc).__name__}: {exc}"}


def _render_text(report, out):
    for key in sorted(report):
        out.write(f"{key}: {json.dumps(report[key], sort_keys=True)}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    code, report = run(argv)
    if "--json" in argv:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
