"""Seeded workloads of the k2local benchmark: inputs, operations, oracles.

Each workload is a fixed population of cases.  Case ``i`` of a workload is
built from its own random stream, ``random.Random("<workload>:<i>")``, so a
case is the same whichever others are built.  A case holds one or more
operations, each a call into the public API of ``k2local`` on inputs built
up front, and an oracle that checks the answers with an identity.  The
answers themselves are also compared with the ones recorded for the case in
``answers/<workload>.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from k2local import cli, ff, globalfield, series, symbols, witt

WORKLOADS = ("local-pairing", "global-reciprocity", "cli-mix")

# cases per workload; one pass over a population takes about half of a
# default run on the reference machine (see README.md)
POPULATION = {"local-pairing": 560, "global-reciprocity": 44, "cli-mix": 400}


@dataclass
class Case:
    """Timed operations on prebuilt inputs plus an exact oracle.

    ``inputs`` is a text rendering of the inputs, for comparison and reports.
    ``ops`` is a list of zero-argument callables, one per timed operation.
    ``answer(i, result)`` renders the result of op ``i`` as canonical text.
    ``check(results)`` returns a list of oracle violations (empty when good).
    """

    index: int
    label: str
    inputs: str
    ops: list
    answer: Callable
    check: Callable


# cases the program at the seed cannot run; left out and disclosed in
# README.md until the program is fixed
SEED_DEFECTS = {
    "local-pairing": {
        23: "{f, 1-f} with f = u^-1 t + t, g = (u^-2 t^-2, t^-1, u), m = 3 "
            "over F_2 raises CoefficientOutsidePrecision",
    },
}


def build_population(workload, count=None):
    """The cases of a workload, in index order, without SEED_DEFECTS."""
    builder = _BUILDERS[workload]
    n = POPULATION[workload] if count is None else count
    skip = SEED_DEFECTS.get(workload, {})
    return [builder(i, random.Random(f"{workload}:{i}")) for i in range(n)
            if i not in skip]


def warm_up(workload):
    """Build the fields, Galois rings and Witt tables a workload uses."""
    for (p, n), lengths in _WARM[workload].items():
        F = ff.make_field(p, n)
        series.laurent_domain(F)
        for m in lengths:
            ff.galois_ring(F, m + 2)
            witt.witt_polynomials_mod_p(p, m, "add")


def _fp_text(c):
    return ",".join(str(x) for x in c.coeffs)


def wv_text(w):
    """Canonical text of a Witt vector over a finite field."""
    return ";".join(_fp_text(c) for c in w.components)


# --------------------------------------------------------------------------
# local-pairing: bimultiplicative triples and Steinberg pairs
# --------------------------------------------------------------------------

_QFIELD = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}

# share of each (q, m) combination, as in the pairing property tests
_LOCAL_COUNTS = {
    (2, 1): 23, (2, 2): 20, (2, 3): 20,
    (3, 1): 20, (3, 2): 20, (3, 3): 20,
    (4, 1): 15, (4, 2): 10, (4, 3): 8,
    (5, 1): 15, (5, 2): 8, (5, 3): 2,
    (9, 1): 10, (9, 2): 6, (9, 3): 3,
}


def _interleave(groups):
    """Flatten [(count, item_fn)] so that every window keeps the shares."""
    keyed = [((k + 0.5) / count, g, item(k))
             for g, (count, item) in enumerate(groups) for k in range(count)]
    return [item for _, _, item in sorted(keyed)]


_LOCAL_MIX = _interleave([(k, lambda _, qm=qm: qm)
                          for qm, k in sorted(_LOCAL_COUNTS.items())])
_HEAVY = {(5, 3), (9, 3)}
_MID = {(5, 2), (9, 2), (4, 3)}


def _rand_unit(F, rng, shift, extra):
    d = {(0, 0): F.elem_by_index(1 + rng.randrange(F.q - 1))}
    for _ in range(extra):
        key = (rng.randrange(0, 3), rng.randrange(0, 3))
        if key != (0, 0):
            d[key] = F.elem_by_index(rng.randrange(F.q))
    f = series.Laurent2.from_dict(F, d)
    return f.monomial_mul(F.one, rng.randrange(-shift, shift + 1),
                          rng.randrange(-shift, shift + 1))


def _rand_monomial(F, rng):
    return series.Laurent2.monomial(
        F, F.elem_by_index(1 + rng.randrange(F.q - 1)),
        rng.randint(-1, 1), rng.randint(-1, 1))


def _rand_g(F, rng, m, depth):
    comps = tuple(series.Laurent2.monomial(
        F, F.elem_by_index(rng.randrange(F.q)),
        rng.randint(-depth, depth), rng.randint(-depth, depth))
        for _ in range(m))
    return witt.WittVec(series.laurent_domain(F), comps)


def _pair_op(f1, f2, g, m):
    return lambda: symbols.witt_pair_local(symbols.symbol(f1, f2), g, m)


def _build_local(index, rng):
    q, m = _LOCAL_MIX[index % len(_LOCAL_MIX)]
    F = ff.make_field(*_QFIELD[q])
    if (q, m) in _HEAVY:
        extra, shift, depth = 1, 0, 1
    elif (q, m) in _MID:
        extra, shift, depth = 2, 1, 1
    else:
        extra, shift, depth = 2, 1, 2
    label = f"q={q} m={m}"
    if index % 4 == 3:
        while True:
            f = _rand_unit(F, rng, shift, extra)
            fc = series.Laurent2.one(F) - f
            if fc.terms:
                break
        g = _rand_g(F, rng, m, depth)
        zero = witt.witt_zero(ff.make_field(F.p, 1), m)

        def check(res):
            return [] if res[0] == zero else ["{f, 1-f} paired to nonzero"]
        return Case(index, label + " steinberg",
                    repr((f, fc, g)), [_pair_op(f, fc, g, m)],
                    lambda i, w: wv_text(w), check)
    if (q, m) in _HEAVY:
        f1, f1b = _rand_monomial(F, rng), _rand_monomial(F, rng)
    else:
        f1 = _rand_unit(F, rng, shift, extra)
        f1b = _rand_unit(F, rng, shift, extra)
    f2 = _rand_unit(F, rng, shift, extra)
    g = _rand_g(F, rng, m, depth)
    f12 = f1 * f1b

    def check(res):
        a, b, ab = res
        if witt.witt_add(a, b) != ab:
            return ["(f1 f1b, f2 | g] != (f1, f2 | g] + (f1b, f2 | g]"]
        return []
    return Case(index, label + " triple",
                repr((f1, f1b, f2, g)),
                [_pair_op(f1, f2, g, m), _pair_op(f1b, f2, g, m),
                 _pair_op(f12, f2, g, m)], lambda i, w: wv_text(w), check)


# --------------------------------------------------------------------------
# global-reciprocity: curve triples and point-mode inputs
# --------------------------------------------------------------------------

def _curve_mix():
    """(p, n, m, quad) per curve case, in the proportions of the tests."""
    def item(p, n):
        def at(idx):
            if p ** n == 2:
                m = 1 + idx % 2
            else:
                m = 2 if idx % 6 == 5 else 1
            return (p, n, m, idx % 3 == 0)
        return at
    return _interleave([(42, item(2, 1)), (36, item(3, 1)),
                        (22, item(2, 2))])


_CURVE_MIX = _curve_mix()
_POINT_MIX = [(pn, cs, m) for pn in ((2, 1), (3, 1), (2, 2))
              for cs in range(3) for m in (1, 2)]


def _rand_poly2(F, rng, deg):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        terms[(rng.randrange(0, deg + 1), rng.randrange(0, deg + 1))] = \
            F.elem_by_index(rng.randrange(F.q))
    return globalfield.Poly2(F, terms)


def _rand_ratfunc(F, rng, deg):
    num = den = None
    while not num:
        num = _rand_poly2(F, rng, deg)
    while not den:
        den = _rand_poly2(F, rng, deg)
    return globalfield.RatFunc(num, den)


def _curve_case(index, k, rng):
    p, n, m, quad = _CURVE_MIX[k % len(_CURVE_MIX)]
    gf = globalfield
    F = ff.make_field(p, n)
    one = gf.RatFunc.const(F, F.one)
    u = gf.RatFunc.from_poly2(gf.Poly2.monomial(F, F.one, 1, 0))
    t = gf.RatFunc.from_poly2(gf.Poly2.monomial(F, F.one, 0, 1))
    deg = 1 if (F.q == 4 or m == 2) else 2
    f = g = None
    while f is None or not f.num:
        f = _rand_ratfunc(F, rng, deg) + t
    while g is None or not g.num:
        g = _rand_ratfunc(F, rng, deg) + u
    h = _rand_ratfunc(F, rng, deg)
    if quad:
        # an irreducible quadratic in u forces a degree-two place
        coeffs = [F.one, F.one, F.one] if p == 2 else [F.one, F.zero, F.one]
        h = h * one / gf.RatFunc.from_poly2(
            gf.Poly2.from_poly1(gf.Poly1(F, coeffs), "u"))
    ht = h + one
    if not ht.num:
        ht = u

    def op():
        return (gf.curve_witt_reciprocity(f, g, h, m),
                gf.curve_tame_reciprocity(f, g, ht))
    label = f"curve q={F.q} m={m}" + (" quad" if quad else "")
    return Case(index, label, repr((f, g, h, ht)),
                [op], _global_answer, _global_check(F))


def _point_case(index, k, rng):
    (p, n), cs, m = _POINT_MIX[k % len(_POINT_MIX)]
    gf = globalfield
    F = ff.make_field(p, n)
    curves = [gf.AdmissibleCurve(F, "axis_u"), gf.AdmissibleCurve(F, "axis_t")]
    if cs:
        graph = [0, 1] if cs == 1 else [0, 0, 1]
        curves.append(gf.AdmissibleCurve(F, "graph_t_of_u",
                                         gf.Poly1.from_ints(F, graph)))

    def rand_pf():
        exps = {c: rng.randint(-1, 1) for c in curves}
        units = []
        if rng.randrange(2):
            eps = gf.Poly2.monomial(F, F.elem_by_index(rng.randrange(F.q)),
                                    rng.randint(0, 1), rng.randint(1, 2))
            if eps:
                units = [eps]
        return gf.PointFunc(F, constant=F.elem_by_index(
            1 + rng.randrange(F.q - 1)), curve_exps=exps, units=units)
    f, g, h = rand_pf(), rand_pf(), rand_pf()

    def op():
        return (gf.point_witt_reciprocity(f, g, [h], m, curves),
                gf.point_tame_reciprocity(f, g, h, curves))
    label = f"point q={F.q} m={m} curves={len(curves)}"
    return Case(index, label, repr((f, g, h)), [op],
                _global_answer, _global_check(F))


def _global_answer(i, res):
    w, v = res
    return wv_text(w) + "|" + _fp_text(v)


def _global_check(F):
    def check(res):
        w, v = res[0]
        bad = []
        if any(w.components):
            bad.append("Witt reciprocity sum is not zero")
        if v != F.one:
            bad.append("tame reciprocity product is not one")
        return bad
    return check


def _build_global(index, rng):
    # a quarter of the cases are point-mode; the rest are curve triples
    if index % 4 == 3:
        return _point_case(index, index // 4, rng)
    return _curve_case(index, 3 * (index // 4) + index % 4, rng)


# --------------------------------------------------------------------------
# cli-mix: in-process cli.run over every verb
# --------------------------------------------------------------------------

CLI_VERBS = ("tame", "witt-pair", "boundary", "decompose", "equiv",
             "reciprocity-curve", "reciprocity-point", "duality-point",
             "duality-curve", "as-reduce")
CLI_FIELDS = ("2^1", "3^1", "2^2/1,1,1", "5^1")
_VERDICT_KEYS = ("verdict", "equal", "match", "residual_ok")


def _coef(rng, q):
    if q == 4:
        return rng.choice(["1", "z", "(z+1)"])
    return str(rng.randrange(1, q))


def _mono(rng, q, lo, hi):
    return f"{_coef(rng, q)}*u^{rng.randint(lo, hi)}*t^{rng.randint(lo, hi)}"


def _unit(rng, q, lo, hi):
    return f"{_mono(rng, q, lo, hi)}*(1+{_mono(rng, q, 0, 2)}*u*t)"


def _rand_expr(rng, q, depth=2):
    """Small rational expression in u, t (and z over F_4)."""
    if depth == 0:
        return rng.choice(["u", "t", _coef(rng, q)] + (["z"] if q == 4 else []))
    kind = rng.choice(["+", "*", "leaf"])
    if kind == "leaf":
        return _rand_expr(rng, q, 0)
    return f"({_rand_expr(rng, q, depth - 1)}{kind}{_rand_expr(rng, q, depth - 1)})"


def _cli_argv(verb, fspec, rng):
    F = ff.parse_field(fspec)
    q, p = F.q, F.p
    base = [verb, "--field", fspec]
    if verb == "tame":
        return base + [_unit(rng, q, -2, 2) for _ in range(3)]
    if verb == "witt-pair":
        m = rng.randint(1, 2)
        comps = [_mono(rng, q, -2, 0) for _ in range(m)]
        return base + ["--m", str(m), _unit(rng, q, -1, 1),
                       _unit(rng, q, -1, 1)] + comps
    if verb == "boundary":
        return base + [_unit(rng, q, -2, 2), _unit(rng, q, -2, 2)]
    if verb == "decompose":
        level = rng.randint(2, 4)
        i = rng.randint(1, level - 1)
        j = rng.randint(1, level - i)
        return base + ["--level", str(level),
                       f"1+{_coef(rng, q)}*u^{i}*t^{j}", rng.choice("ut")]
    if verb == "equiv":
        level = rng.randint(2, 3)
        f = f"(1+{_coef(rng, q)}*u^{rng.randint(1, 2)}*t^{rng.randint(1, 2)})"
        g = rng.choice(["t", "u", "(1+t)", "(1+u*t)",
                        f"(1+{_coef(rng, q)}*u^2*t)"])
        if rng.randrange(2):
            pair = [f, g + "^2", f + "^2", g]      # {f, g^2} = {f^2, g}
        else:
            pair = [f, g, g + "^-1", f]            # {f, g} = {g^-1, f}
        return base + ["--level", str(level)] + pair
    if verb == "reciprocity-curve":
        m = rng.randint(1, 2) if p == 2 else 1
        return base + ["--m", str(m), f"t*(1+{_rand_expr(rng, q, 1)}*u)",
                       f"u*(1+{_rand_expr(rng, q, 1)}*t)",
                       f"{_rand_expr(rng, q)}*u^-1"]
    if verb == "reciprocity-point":
        cs = rng.choice(["t,u", "t,u,t=u", "t,u,t=u^2"])
        eqs = ["t", "u"] + {"t,u": [], "t,u,t=u": ["(t-u)"],
                            "t,u,t=u^2": ["(t-u^2)"]}[cs]

        def pf():
            bits = [_coef(rng, q)] + [f"{y}^{rng.randint(-1, 1)}"
                                      for y in eqs]
            if rng.randrange(2):
                bits.append(f"(1+{_coef(rng, q)}*u^{rng.randint(0, 1)}"
                            f"*t^{rng.randint(1, 2)})")
            return "*".join(bits)
        return base + ["--curves", cs, pf(), pf(), pf()]
    if verb == "duality-point":
        i = j = p
        while i % p == 0 and j % p == 0:   # the point pairing needs p∤i or p∤j
            i = rng.randint(1, 3)
            j = rng.randint(1, 4 - i)
        return base + [str(i), str(j)]
    if verb == "duality-curve":
        return base + ["--level", "1", str(rng.randint(1, 2))]
    k = rng.randint(1, 3)
    return base + [f"t^-{k}*({_coef(rng, q)}+u^{rng.randint(0, 2)})"
                   f"+{_coef(rng, q)}*u^-{rng.randint(1, 2)}*t^-1"]


def report_text(code, report):
    """Exit code plus a digest of the report's canonical JSON bytes."""
    blob = json.dumps(report, sort_keys=True).encode()
    return f"{code}:{hashlib.sha256(blob).hexdigest()[:24]}"


def _cli_check(argv):
    verb = argv[0]

    def check(res):
        code, report = res[0]
        if code != 0 or "error" in report:
            return [f"exit {code}: {report.get('message', '')}"]
        bad = [f"{k} is false" for k in _VERDICT_KEYS
               if k in report and report[k] is not True]
        if verb in ("decompose", "tame"):
            bad += _cli_recompute(argv, report)
        return bad
    return check


def _cli_recompute(argv, report):
    """Check decompose and tame reports against the library directly."""
    field = ff.parse_field(argv[2])
    opts = {argv[k]: argv[k + 1] for k in range(3, len(argv) - 1)
            if argv[k].startswith("--")}
    exprs = [a for k, a in enumerate(argv[3:], 3)
             if not a.startswith("--") and not argv[k - 1].startswith("--")]
    vals = [cli.eval_local(x, field, series.DEFAULT_T_PREC,
                           series.DEFAULT_U_PREC) for x in exprs]
    if argv[0] == "tame":
        want = symbols.tame_symbol_signed(*vals).value
        return [] if report["value"] == list(want.coeffs) else \
            ["tame value differs from the signed form"]
    level = int(opts["--level"])
    e = symbols.symbol(*vals)
    basis = symbols.k2_decompose(e, level)
    bad = []
    if basis.to_json() != report["basis"]:
        bad.append("decompose report differs from k2_decompose")
    if not symbols.k2_equiv(e, basis.recompose(), level):
        bad.append("recomposed basis is not equivalent to the input")
    return bad


def _build_cli(index, rng):
    verb = CLI_VERBS[index % len(CLI_VERBS)]
    fspec = CLI_FIELDS[(index // len(CLI_VERBS)) % len(CLI_FIELDS)]
    argv = _cli_argv(verb, fspec, rng)
    return Case(index, " ".join(argv[:3]), " ".join(argv),
                [lambda: cli.run(argv)],
                lambda i, res: report_text(*res), _cli_check(argv))


_BUILDERS = {"local-pairing": _build_local,
             "global-reciprocity": _build_global,
             "cli-mix": _build_cli}

_WARM = {
    "local-pairing": {(2, 1): (1, 2, 3), (3, 1): (1, 2, 3),
                      (2, 2): (1, 2, 3), (5, 1): (1, 2, 3),
                      (3, 2): (1, 2, 3)},
    "global-reciprocity": {(2, 1): (1, 2), (3, 1): (1, 2), (2, 2): (1, 2),
                           (3, 2): (1, 2), (2, 4): (1, 2)},
    "cli-mix": {(2, 1): (1, 2), (3, 1): (1, 2), (2, 2): (1, 2),
                (5, 1): (1, 2)},
}
