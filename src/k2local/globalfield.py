"""Semi-global objects at desk scale.

Curve side: the projective u-line over F_q, places (monic irreducible
polynomials in u plus infinity, found by ff.factor_poly1, whose splitting
routine also serves first_root and the modulus check), and coefficientwise
local expansion of rational data.  Point side: admissible curves through
the origin of the (u, t)-plane, branch expansions, canonical
Artin-Schreier representatives, and the finite-level duality kernel
reports.

A global function has one shape, the reduced RatFunc num / den of Poly2s
on integer codes.  Its t-coefficients, u-only RatFuncs, are what as_reduce
works on.  A PointFunc multiplies its factors out once into a num and a den.
Each key of either side is a Chart of the local field K_{x,C} at a point x
on a curve C: a place of the u-line on t = 0, or the origin on a declared
curve.  It holds the change of coordinates from the plane to its (s, t):
u and t swap if C is solved for u; s = 1/u at infinity, u = root + s at a
rational point; then t = phi(s) + t, phi = 0 at a place.  _chart maps a
polynomial's codes by it, and an expansion divides the charts of num and
den, as exact Laurent2s, in a working box (t_prec, u_prec).  A leading term
reads the codes of the least t-rows of num and den, charted on graphs only.
At a place of degree d >= 2, the one inexact case, the expansion is over
k(x) = F_{q^d}, and u is a power series in s = pi(u), by Newton iteration.

Reciprocity: the Witt and tame sums over the places of the u-line, or over a
declared set of curves through the origin, share their pieces: per-key terms
(expand f, g and h at the key and pair them, or read their exact leading
terms for the tame symbol) and one running fold over them.  The
*_reciprocity functions return the fold's last value; witt_report and
tame_report build the JSON reports, keyed by "place" or "curve".  Every
residue of a two-form is read through forms.residue.

Finite-level duality: on the curve, the one-variable residues that pair
functions with the generators s^a of a place are single coefficients of the
exact expansions; at a point, the basis pairings are Witt pairings.
"""

import operator
from functools import lru_cache

from .errors import (BadIndexPair, DivisionByZero, InvariantViolation,
                     NotReducible, PrecisionTooLow, StepBudgetExceeded,
                     UndeclaredCurveFactor, ZeroArgument, ZeroDivisor)
# poly1_gcd is not called here: perfbench/tracer.py wraps this name
from .ff import (Poly1, factor_poly1, first_root, get_embedding, make_field,
                 norm_rel, poly1_gcd, rank_and_left_kernel)
from .series import Laurent2, Poly2, invert, laurent_domain
from .symbols import (MAX_TERMS, WittPairer, check_length, symbol,
                      tame_symbol_det, witt_pair_local, with_box)
from .witt import WittVec, witt_add, witt_zero


# --------------------------------------------------------------------------
# Rational functions in u and t: Poly2 fractions and their gcd
# --------------------------------------------------------------------------

def _tpoly_gcd(A, B):
    """A gcd of nonzero A and B in F_q[u][t], up to a unit of F_q.

    When one side is a monomial u^i t^j the gcd is u^min t^min, the least
    exponents of both sides; otherwise it is _prs_gcd's.
    """
    for M, P in ((A, B), (B, A)):
        (j, row), *more = M.codes.items()
        if not more and len(row) == 1:
            i, = row
            return Poly2.monomial(A.field, A.field.one,
                                  min(i, *map(min, P.codes.values())),
                                  min(j, *P.codes))
    return _prs_gcd(A, B)


def _prs_gcd(A, B):
    """A gcd of nonzero A and B in F_q[u][t], up to a unit of F_q.

    By Gauss's lemma it is the gcd of the u-contents times the primitive part
    of the last nonzero term of the primitive remainder sequence (Knuth,
    TAOCP Vol. 2, 4.6.1; Brown, JACM 18, 1971).
    """
    c = B.content_u(A)
    if A.deg_t() < B.deg_t():
        A, B = B, A
    while B.deg_t() > 0:
        A, B = B, A.prem(B)
        if B:
            B = _divexact(B, B.content_u())
    if B:
        return c
    return _divexact(A, A.content_u()) * c


def _common(A, B):
    """A nonconstant gcd of nonzero A and B, or None if they are coprime.
    No gcd is taken when either side is the one polynomial."""
    if A.is_one() or B.is_one():
        return None
    G = _tpoly_gcd(A, B)
    return G if G.deg_t() or G.deg_u() else None


def _divexact(P, G):
    Q = P.tdiv(G)
    if Q is None:
        raise InvariantViolation("exact division left a remainder")
    return Q


def _normalize(num, den):
    """Coprime num and den scaled so that den's lead is 1; zero is 0 / 1."""
    if not num:
        return num, Poly2.one(num.field)
    inv = den.lead_inverse()
    if inv.is_one():
        return num, den
    return num * inv, den * inv


class RatFunc:
    """Reduced fraction of bivariate polynomials.

    The normal form is num / den with gcd(num, den) = 1 in F_q[u, t] and the
    lead coefficient of den, by the (t, u) order, equal to 1; zero is 0 / 1.
    It is unique, so equal functions have equal num and den.

    RatFunc(num, den) reduces any fraction by the full gcd, _tpoly_gcd's.
    The arithmetic keeps reduced operands reduced with gcds of their factors
    only (Knuth, TAOCP Vol. 2, 4.5.1; Henrici, JACM 3, 1956):
      a/b * c/d = (a/g1 * c/g2) / (b/g2 * d/g1),
                  g1 = gcd(a, d), g2 = gcd(c, b);
      a/b + c/d = (s/g2) / (b/g1 * d/g2),
                  g1 = gcd(b, d), s = a * d/g1 + c * b/g1, g2 = gcd(s, g1),
    the sum being reduced as it stands when g1 = 1.  No gcd is taken against
    the one polynomial, and only den's lead is rescaled.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisor("rational function with zero denominator")
        if num:
            G = _tpoly_gcd(num, den)
            if G.deg_t() or G.deg_u():
                num, den = _divexact(num, G), _divexact(den, G)
        self.field = num.field
        self.num, self.den = _normalize(num, den)

    @classmethod
    def _adopt(cls, num, den):
        """Adopt num / den that is already in normal form, without a gcd."""
        self = object.__new__(cls)
        self.field = num.field
        self.num = num
        self.den = den
        return self

    @staticmethod
    def from_poly2(p):
        return RatFunc._adopt(p, Poly2.one(p.field))

    @staticmethod
    def const(field, c):
        return RatFunc._adopt(Poly2.const(field, c), Poly2.one(field))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c:
            return self
        if not a:
            return other
        if b.is_one() and d.is_one():
            return RatFunc._adopt(a + c, b)
        g1 = _common(b, d)
        if g1 is None:
            return RatFunc._adopt(a * d + c * b, b * d)
        b1, d1 = _divexact(b, g1), _divexact(d, g1)
        s = a * d1 + c * b1
        if s and (g2 := _common(s, g1)) is not None:
            s, d = _divexact(s, g2), _divexact(d, g2)
        return RatFunc._adopt(*_normalize(s, b1 * d))

    def __neg__(self):
        return RatFunc._adopt(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return self
        if not c:
            return other
        if b.is_one() and d.is_one():
            return RatFunc._adopt(a * c, b)
        if (g1 := _common(a, d)) is not None:
            a, d = _divexact(a, g1), _divexact(d, g1)
        if (g2 := _common(c, b)) is not None:
            c, b = _divexact(c, g2), _divexact(b, g2)
        return RatFunc._adopt(*_normalize(a * c, b * d))

    def inv(self):
        return self ** -1

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        """The power in normal form, without a gcd.

        num and den are coprime, so their powers are, and the lead of a
        power is the power of the lead, since the (t, u) order is a
        monomial order.  Only a negative e rescales, by the lead of num^-e.
        """
        if e < 0 and not self.num:
            raise DivisionByZero("inverse of the zero rational function")
        num, den = self.num ** abs(e), self.den ** abs(e)
        if e < 0:
            inv = num.lead_inverse()
            num, den = den * inv, num * inv
        return RatFunc._adopt(num, den)

    def serialize(self):
        if self.den.is_one():
            return self.num.serialize()
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def __repr__(self):
        return f"RatFunc({self.serialize()})"


# --------------------------------------------------------------------------
# Keys, the places of the projective u-line, and local expansion
# --------------------------------------------------------------------------

class Chart:
    """A key of the reciprocity sums: the local field K_{x,C} at a point x
    on a curve C, as the exact change of coordinates from the plane to its
    (s, t) that _chart applies.  Chart.place and Chart.curve build the keys
    of the two sums and fix their labels and sort order.  Two charts are
    equal when they name the same x on the same C: the same minimal
    polynomial (None at infinity) and curve equations that agree up to a
    nonzero constant, as t = c*u and u = t/c do.
    """

    KINDS = {"axis_u": "t", "axis_t": "u",
             "graph_t_of_u": "t", "graph_u_of_t": "u"}

    __slots__ = ("field", "minimal_poly", "residue_degree", "root", "swap",
                 "phi", "_equation", "_label", "_order", "_ident", "_hash")

    def __init__(self, field, minimal_poly, swap, phi, label, order):
        self.field = field
        self.minimal_poly = minimal_poly
        self.residue_degree = minimal_poly.deg if minimal_poly else 1
        # the root of a rational point, in F_q, from -pi(0); None at infinity
        self.root = field.elem([-d for d in minimal_poly.digits()[0]]) \
            if minimal_poly and minimal_poly.deg == 1 else None
        self.swap = swap
        self.phi = phi
        eq = Poly2.monomial(field, field.one, *((1, 0) if swap else (0, 1)))
        if phi:
            eq = eq - Poly2.from_poly1(phi, "t" if swap else "u")
        self._equation = eq
        self._label = label  # None for pi.serialize(), made on first use
        self._order = order
        # the monic equation: t - phi(u) leads with t, u - phi(t) is scaled
        self._ident = (minimal_poly, eq * eq.lead_inverse() if swap else eq)
        self._hash = None  # set on first use: the sums hash few places

    @classmethod
    def place(cls, field, pi=None):
        """The place pi(u) = 0 of the u-line on the curve t = 0: u = root + s,
        or s = pi(u) if pi has degree >= 2, or s = 1/u if pi is None."""
        zero = Poly1(field, ())
        if pi is None:
            return cls(field, None, False, zero, "infinity", (1,))
        return cls(field, pi, False, zero, None, (0, pi.deg, pi.digits()))

    @classmethod
    def curve(cls, field, kind, graph_poly=None):
        """The origin on var = phi(other), phi with no constant term: swap
        if var is u, then t = phi(s) + t.  kind is var or one of the KINDS
        names; graph_poly is phi (None for 0, an axis).  Axes sort before
        graphs, t = ... before u = ..., then by phi."""
        var = cls.KINDS.get(kind, kind)
        if var not in ("t", "u"):
            raise ZeroArgument(f"unknown curve kind {kind!r}")
        phi = graph_poly if graph_poly is not None else Poly1(field, ())
        if phi and phi.codes[0]:
            raise ZeroArgument("a curve through the origin needs a "
                               "polynomial with zero constant term")
        swap = var == "u"
        return cls(field, Poly1(field, (field.zero, field.one)), swap, phi,
                   f"{var} = {phi.serialize('t' if swap else 'u')}",
                   (bool(phi), swap, phi.digits()))

    def equation(self):
        """The curve's equation var - phi(other) in the plane, built once:
        Poly2 values are never changed in place."""
        return self._equation

    def __eq__(self, other):
        return isinstance(other, Chart) and self._ident == other._ident

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._ident)
        return self._hash

    def sort_key(self):
        return self._order

    def serialize(self):
        if self._label is None:
            self._label = self.minimal_poly.serialize()
        return self._label

    def __repr__(self):
        return f"Chart({self.serialize()})"


AdmissibleCurve = Chart.curve  # the name the point side builds curves by


@lru_cache(maxsize=None)
def place_u(field):
    """The place u = 0, where the expansion is the series in u and t."""
    return Chart.place(field, Poly1(field, (field.zero, field.one)))


def list_places(fs):
    """Finite places dividing any t-coefficient of the RatFuncs fs, plus
    infinity.

    Each t-row of a numerator or denominator is read as u^e·w: e > 0 adds
    the place u, and each distinct w is factored once, so a large power of u
    is never made dense.
    """
    if not fs:
        raise ZeroArgument("no rational data supplied")
    field = fs[0].field
    finite, rests, u = set(), set(), Poly1(field, (field.zero, field.one))
    for f in fs:
        for P in (f.num, f.den):
            for e, w in P.row_polys():
                if e:
                    finite.add(u)
                rests.add(w)
    for w in rests:
        if w.deg > 0:
            finite.update(factor_poly1(w))
    places = sorted((Chart.place(field, pi) for pi in finite),
                    key=Chart.sort_key)
    places.append(Chart.place(field))
    return places


@lru_cache(maxsize=None)
def place_field(place):
    """(k(x), embed: F_q -> k(x), root of the minimal polynomial)."""
    field = place.field
    if place.residue_degree == 1:
        return field, (lambda c: c), place.root
    kx = make_field(field.p, field.n * place.residue_degree)
    emb = get_embedding(field, kx)
    return (kx, emb.apply,
            first_root([emb.apply(c) for c in place.minimal_poly.coeffs], kx))


_param_cache = {}


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, for nonempty coeffs and x all
    Poly2 or all Laurent2."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _chart(P, key):
    """P in the local coordinates (s, t) of a key whose parameter is exact,
    as a Poly2 over F_q in s and t (Laurent in s at infinity).

    u and t swap first if the key says so.  Then s = 1/u at infinity
    relabels the codes of P, so a large power of u costs one term, and
    u = root + s shifts each t-row (a root 0 leaves P as it is).  Last,
    t = phi(s) + t by Horner's rule over the t-rows.
    """
    if key.swap:
        P = P.transpose()
    if key.minimal_poly is None:
        P = P.reflect_u()
    else:
        P = P.shift_u(key.root)
    if not key.phi:
        return P
    field, rows = P.field, P.t_rows()
    zero = Poly2(field, {})
    return _horner([rows.get(b, zero) for b in range(max(P.deg_t(), 0) + 1)],
                   Poly2.from_poly1(key.phi)
                   + Poly2.monomial(field, field.one, 0, 1))


def _param_series(place, prec):
    """u as a power series in the local parameter s = pi(u), over k(x).

    Newton's iteration U <- U - (pi(U) - s)/pi'(U) from the root of pi
    doubles the number of correct digits each round (Brent & Kung, JACM
    1978).  U comes back known to s^prec and exact in t, so that Horner's
    rule in _expand_poly2 keeps every t-row of a polynomial.
    """
    if prec < 1:
        raise PrecisionTooLow(f"parameter series to {prec} digits")
    key = (place, prec)
    if key in _param_cache:
        return _param_cache[key]
    kx, emb, root = place_field(place)
    pihat = [emb(c) for c in place.minimal_poly.coeffs]
    pi = [Laurent2.monomial(kx, c) for c in pihat]
    dpi = [Laurent2.monomial(kx, c)
           for c in Poly1(kx, pihat).derivative().coeffs]
    s = Laurent2.monomial(kx, kx.one, 1)
    U = Laurent2.monomial(kx, root)
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        # U is right below the previous n and one step doubles that, which
        # the region calculus cannot see: declare n digits, the new ones
        # zero, so that pi(U) and pi'(U) are computed to s^n.
        U = Laurent2._of_codes(kx, U.codes, None, {0: n})
        U = U - (_horner(pi, U) - s) * invert(_horner(dpi, U), 1, n)
    _param_cache[key] = (kx, Laurent2._of_codes(kx, U.codes, None, {0: prec}))
    return _param_cache[key]


def _expand_poly2(P, key, prec):
    """P in the local coordinates of a key: its chart where the parameter is
    exact.  At a place of degree >= 2 Horner's rule substitutes the parameter
    series for u over k(x), and every t-row is known to s^prec."""
    if key.residue_degree == 1:
        return _chart(P, key).laurent()
    kx, emb, _ = place_field(key)
    cols = [{} for _ in range(max(P.deg_u(), 0) + 1)]
    for (a, b), c in P.terms.items():
        cols[a][b] = {0: emb(c)}
    acc = _horner([Laurent2(kx, col) for col in cols],
                  _param_series(key, prec)[1])
    return Laurent2._of_codes(kx, acc.codes, None,
                              {b: prec for b in P.codes})


def expand_at_place(f, key, box):
    """Coefficientwise expansion of a RatFunc at a key.

    Returns a Laurent2 over k(x) in the key's coordinates (s, t): the inner
    variable s is u - root at rational places, pi(u) at places of degree
    >= 2 and 1/u at infinity.  The box (t_prec, u_prec) is the working box
    of the denominator's inverse; at a place of degree >= 2 the parameter
    series has u_prec digits.
    """
    num = _expand_poly2(f.num, key, box[1])
    return num * invert(_expand_poly2(f.den, key, box[1]), *box)


# --------------------------------------------------------------------------
# Curve-mode reciprocity
# --------------------------------------------------------------------------

def _components(h):
    """The Witt components of h: one item, or a list or tuple of them."""
    return list(h) if isinstance(h, (list, tuple)) else [h]


def curve_witt_terms(f, g, h, m):
    """Per-place traced local Witt pairings of rational data on the u-line.

    f, g and each component of h are RatFuncs; components past the m-th are
    dropped.  Each place sizes its own working box, as _witt_terms says.
    """
    comps = _components(h)[:m]
    places = list_places([f, g] + comps)
    return _witt_terms(places, expand_at_place, f, g, comps, m, (2, 2))


def _row_at_place(P, place):
    """(j, v, c) with c·s^v·t^j the least term of a nonzero P at a place of
    degree >= 2, c a code of k(x): j is P's least t-exponent, v the order of
    pi in its row w, and c = (w / pi^v)(root), read off w / pi^v mod pi."""
    kx, emb, root = place_field(place)
    (j, w), v = P.least_row(), 0
    while not (r := w.divmod(place.minimal_poly))[1]:
        w, v = r[0], v + 1
    return j, v, Poly1(kx, [emb(a) for a in r[1].coeffs]).order_at(root)[1]


def lead_at_place(f, key):
    """The leading term of the expansion of f, a RatFunc or a PointFunc, at
    a key, at every box, as an exact Laurent2 monomial: the least terms of
    num and den, read off the codes of their least t-rows, or, on a graph
    curve, the one key that still charts, of their charts' least t-rows."""
    kx = place_field(key)[0] if key.residue_degree > 1 else key.field
    if not f:
        return Laurent2.zero(kx)

    def least(P):
        if key.residue_degree > 1:
            return _row_at_place(P, key)
        if key.phi:
            P = _chart(P, key)
        elif key.swap:  # the axis u = 0: u and t swap
            P = P.transpose()
        j = min(P.codes)
        row = P.codes[j]
        if key.minimal_poly is None:  # infinity, s = 1/u: the top term
            return j, -max(row), row[max(row)]
        if not key.minimal_poly.codes[0]:  # root 0, as on curves: the bottom
            return j, min(row), row[min(row)]
        return (j,) + P.least_row()[1].order_at(key.root)
    (j, v, a), (k, w, b) = least(f.num), least(f.den)
    return Laurent2.quotient_monomial(kx, a, b, v - w, j - k)


def curve_tame_terms(f, g, h):
    """Per-place (place, local tame symbol, its norm to F_q) on the u-line."""
    return [(x, v, norm_rel(v, f.field)) for x, v in
            _tame_terms(list_places([f, g, h]), lead_at_place, f, g, h)]


# --------------------------------------------------------------------------
# Point mode: admissible curves through the origin
# --------------------------------------------------------------------------

class PointFunc:
    """Element of F_x given in factored form.

    constant * prod(curve equation ^ exponent) * prod((1 + eps) ^ exponent),
    where each eps is a bivariate polynomial vanishing at the origin.
    Unit entries may be given as eps or as (eps, exponent) pairs.  The
    factors are multiplied out once: num is the constant times the factors
    with exponent >= 0, den the others raised to -exponent.
    """

    __slots__ = ("field", "constant", "curve_exps", "units", "num", "den")

    def __init__(self, field, constant=None, curve_exps=None, units=None):
        self.field = field
        self.constant = constant if constant is not None else field.one
        self.curve_exps = dict(curve_exps or {})
        self.units = [up if isinstance(up, tuple) else (up, 1)
                      for up in (units or [])]
        for eps, _ in self.units:
            if eps.laurent().coeff(0, 0):
                raise ZeroArgument("principal unit must vanish at the origin")
        one = Poly2.one(field)
        self.num, self.den = Poly2.const(field, self.constant), one
        if not self.constant:
            return  # zero is 0 / 1, which expands to the exact zero
        factors = [(y.equation(), e) for y, e in self.curve_exps.items()]
        factors += [(one + eps, e) for eps, e in self.units]
        for base, e in factors:
            if e >= 0:
                self.num = self.num * base ** e
            else:
                self.den = self.den * base ** -e

    def __bool__(self):
        return bool(self.constant)

    def serialize(self):
        bits = ["[" + ",".join(str(v) for v in self.constant.coeffs) + "]"]
        for y, e in sorted(self.curve_exps.items(),
                           key=lambda kv: kv[0].sort_key()):
            bits.append(f"({y.serialize()})^{e}")
        for eps, e in self.units:
            bits.append(f"(1 + {eps.serialize()})^{e}")
        return " * ".join(bits)

    def __repr__(self):
        return f"PointFunc({self.serialize()})"


def distinct_curves(curves):
    """The curves in sort order, each once (the first of those equal)."""
    return list(dict.fromkeys(sorted(curves, key=Chart.sort_key)))


def to_pointfunc(f, curves):
    """Factor a rational function over a declared admissible curve set.

    Splits off every declared curve equation from numerator and denominator;
    the remaining part must be a constant times a principal unit, otherwise
    the input has an undeclared branch through the origin.
    """
    field = f.field
    if not f:
        return PointFunc(field, constant=field.zero)
    exps = {}
    parts = [f.num, f.den]
    for y in distinct_curves(curves):
        for k, sign in ((0, 1), (1, -1)):
            while (Q := parts[k].tdiv(y.equation())) is not None:
                parts[k] = Q
                exps[y] = exps.get(y, 0) + sign
    num, den = parts
    c_num, c_den = (P.laurent().coeff(0, 0) for P in (num, den))
    if not c_num or not c_den:
        raise UndeclaredCurveFactor(
            "input vanishes at the origin along an undeclared branch")
    constant = c_num * c_den.inv()
    units = []
    for P, c, sign in ((num, c_num, 1), (den, c_den, -1)):
        scaled = P * c.inv()
        if not scaled.is_one():
            units.append((scaled - Poly2.one(field), sign))
    return PointFunc(field, constant, exps, units)


def _check_declared(pfs, keys):
    """Refuse the first factor curve of the PointFuncs pfs, in order, that
    is not one of the keys."""
    declared = set(keys)
    for pf in pfs:
        for z in pf.curve_exps:
            if z not in declared:
                raise UndeclaredCurveFactor(
                    f"factor curve {z.serialize()} is not declared admissible")


def expand_point(pf, y, box):
    """Local expansion of a factored F_x element at the branch y: num / den
    in branch coordinates, in the working box (t_prec, u_prec)."""
    num = _expand_poly2(pf.num, y, box[1])
    return num * invert(_expand_poly2(pf.den, y, box[1]), *box)


def point_witt_terms(f, g, h, m, curves):
    """Per-curve traced local Witt pairings of F_x data at the origin.

    m is checked first, then that every factor curve is declared; each
    curve sizes its own working box, as _witt_terms says.
    """
    keys, comps = distinct_curves(curves), _components(h)
    check_length(m, traced=True)
    _check_declared([f, g] + comps, keys)
    return _witt_terms(keys, expand_point, f, g, comps, m, (2, 2))


def point_tame_terms(f, g, h, curves):
    """Per-curve (curve, local tame symbol) at the origin, once every
    factor curve is found declared."""
    keys = distinct_curves(curves)
    _check_declared([f, g, h], keys)
    return _tame_terms(keys, lead_at_place, f, g, h)


# --------------------------------------------------------------------------
# Reciprocity sums over places or curves: one fold over (key, value) terms
# --------------------------------------------------------------------------

def _witt_terms(keys, expand, f, g, comps, m, start):
    """(key, traced local Witt pairing of {f, g} with (comps)) per key.

    At each key, expand(c, key, box) expands f, g and comps in the working
    box, and a pairer of {f, g} that inverts fg in that box pairs them.  The
    box starts at start ((2, 2) for the sums) and grows (with_box); exact
    data answers at some box.  The pairer's products grow with the square of
    the operands' terms, so a box whose expansions or two-form hold more
    than MAX_TERMS terms is refused (StepBudgetExceeded).  m is checked first.
    """
    check_length(m, traced=True)

    def pair_at(key, box):
        hats = []
        for c in [f, g] + comps:
            hats.append(expand(c, key, box))
            if sum(len(r) for h in hats for r in h.codes.values()) > MAX_TERMS:
                raise StepBudgetExceeded(
                    f"working box {box} expands past {MAX_TERMS} terms")
        ch = hats[2:] + [Laurent2.zero(hats[0].dom)] * (m - len(comps))
        return WittPairer(symbol(*hats[:2]), m, *box).pair(
            WittVec(laurent_domain(hats[0].dom), ch), m)
    return [(key, with_box(start, lambda box: pair_at(key, box)))
            for key in keys]


def _tame_terms(keys, lead, f, g, h):
    """(key, local tame symbol of f, g, h) per key.  The symbol reads only
    each operand's two valuations and leading coefficient, so tame_symbol_det
    takes lead(c, key), the operand's exact leading monomial: no box."""
    return [(key, tame_symbol_det(*(lead(c, key) for c in (f, g, h))).value)
            for key in keys]


def _fold(terms, add, acc):
    """Fold add over the last entry of each term, starting from acc: the
    (term, running value) rows and the final value."""
    rows = []
    for term in terms:
        acc = add(acc, term[-1])
        rows.append((term, acc))
    return rows, acc


def curve_witt_reciprocity(f, g, h, m):
    """Sum of traced local Witt pairings over all places; zero by reciprocity."""
    return _fold(curve_witt_terms(f, g, h, m), witt_add,
                 witt_zero(make_field(f.field.p, 1), m))[1]


def curve_tame_reciprocity(f, g, h):
    """Product over all places of normed tame symbols; one by reciprocity."""
    terms = curve_tame_terms(f, g, h)
    return _fold(terms, operator.mul, terms[0][2].field.one)[1]


def point_witt_reciprocity(f, g, h, m, curves):
    """Sum of traced local Witt pairings over the declared curves."""
    return _fold(point_witt_terms(f, g, h, m, curves), witt_add,
                 witt_zero(make_field(f.field.p, 1), m))[1]


def point_tame_reciprocity(f, g, h, curves):
    """Product of the local tame symbols over the declared curves."""
    return _fold(point_tame_terms(f, g, h, curves), operator.mul,
                 f.field.one)[1]


def _wv_json(w):
    return [list(c.coeffs) for c in w.components]


def witt_report(terms, zero, label):
    """JSON-ready Witt reciprocity report: per-key values, running sum from
    zero (W_m over F_p), verdict.  label names a key: "place" on the u-line,
    "curve" at a point.
    """
    rows, total = _fold(terms, witt_add, zero)
    return {"pairing": "witt", "m": zero.length,
            label + "s": [{label: key.serialize(), "trace": _wv_json(w),
                           "running_sum": _wv_json(running)}
                          for (key, w), running in rows],
            "sum": _wv_json(total),
            "verdict": all(not c for c in total.components)}


def tame_report(terms, one, label):
    """JSON-ready tame reciprocity report over (key, local) terms, or
    (key, local, norm) terms on the u-line; the last entries multiply up
    from one.  label names a key as in witt_report.
    """
    rows, total = _fold(terms, operator.mul, one)
    out = []
    for term, running in rows:
        row = {label: term[0].serialize()}
        row.update(zip(("local", "norm"),
                       (list(v.coeffs) for v in term[1:])))
        row["running_product"] = list(running.coeffs)
        out.append(row)
    return {"pairing": "tame", label + "s": out,
            "product": list(total.coeffs), "verdict": total == one}


# --------------------------------------------------------------------------
# Canonical Artin-Schreier representatives
# --------------------------------------------------------------------------

def _t_coeffs(f):
    """{k: c_k} with f = sum_k c_k t^k, each c_k a u-only RatFunc.

    f is a RatFunc whose denominator is D(u)*t^k; any other denominator has
    no finite t-expansion.
    """
    rows = f.den.t_rows()
    if len(rows) != 1:
        raise NotReducible(
            "denominator mixes u and t; the t-expansion is not finite")
    (k, den), = rows.items()
    return {b - k: RatFunc(row, den) for b, row in f.num.t_rows().items()}


def _coeff_sum(*parts):
    """The sum of {k: c_k} dicts, zero coefficients dropped."""
    out = {}
    for part in parts:
        for k, c in part.items():
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _coeff_neg(coeffs):
    return {k: -c for k, c in coeffs.items()}


def _u_text(c):
    """A u-only RatFunc in univariate notation, highest power first."""
    num = c.num.t_coeffs()[0].serialize()
    if c.den.is_one():
        return num
    return f"({num}) / ({c.den.t_coeffs()[0].serialize()})"


def _pth_root_coeff(c):
    """The p-th root in F_q (Frobenius is bijective on a perfect field)."""
    field = c.field
    return c ** (field.q // field.p)


def _p_component_zero_part(r):
    """Split the u-only r = g^p + rest along F_q(u) = sum_a u^a F_q(u^p);
    returns g."""
    p = r.field.p
    M = r.num * r.den ** (p - 1)
    g_num = {(a // p, 0): _pth_root_coeff(c)
             for (a, _), c in M.terms.items() if a % p == 0}
    if not g_num:
        return None
    return RatFunc(Poly2(r.field, g_num), r.den)


class CanonicalASRep:
    """Finite representative sum_{k<0} f_k t^k with constrained p|k slots;
    each f_k is a u-only RatFunc."""

    __slots__ = ("field", "terms", "flags")

    def __init__(self, field, terms, flags):
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}
        self.flags = {k: v for k, v in flags.items() if k in self.terms}

    def recompose(self):
        """sum_k f_k t^k as a RatFunc."""
        field = self.field
        t = RatFunc.from_poly2(Poly2.monomial(field, field.one, 0, 1))
        f = RatFunc.const(field, field.zero)
        for k, c in self.terms.items():
            f = f + c * t ** k
        return f

    def to_json(self):
        return {
            "terms": {str(k): _u_text(self.terms[k])
                      for k in sorted(self.terms)},
            "flags": {str(k): self.flags[k] for k in sorted(self.flags)},
        }

    def serialize(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({_u_text(self.terms[k])})*t^{k}"
                          for k in sorted(self.terms))

    def __repr__(self):
        return f"CanonicalASRep({self.serialize()})"


def as_reduce(f):
    """Canonical representative of f modulo (Frob - 1) and constants.

    f is a RatFunc whose denominator is D(u)*t^k (NotReducible otherwise).
    Keeps only negative t-exponents; coefficients at p-divisible exponents
    have their p-th-power component transferred down to exponent k/p until
    every such coefficient lies in the representative set (no p-th-power
    component left).
    """
    return _as_reduce(_t_coeffs(f), f.field)


def _as_reduce(coeffs, field):
    """as_reduce on the t-coefficients {k: c_k} of f."""
    p = field.p
    work = {k: c for k, c in coeffs.items() if k < 0 and c}
    zero = RatFunc.const(field, field.zero)
    one = Poly2.one(field)
    flags = {}
    done = set()
    while True:
        pending = [k for k in work if k < 0 and k not in done]
        if not pending:
            break
        k = min(pending)  # transfers only create keys above k
        done.add(k)
        c = work.get(k, zero)
        if not c or k % p:
            continue
        g = _p_component_zero_part(c)
        if g is not None and g:
            work[k] = c - g ** p
            work[k // p] = work.get(k // p, zero) + g
        if work.get(k, zero):
            flags[k] = "polynomial" if work[k].den == one else "rational"
    return CanonicalASRep(field, work, flags)


def as_residual_solves(f, rep):
    """Check f - recompose(rep) = h^p - h + const for some h.

    The part below t^0 must itself reduce to the empty representative.
    The part above t^0, pos, always solves: h = -(pos + pos^p + pos^(p^2) +
    ...) converges t-adically, with h^p - h = pos, so it needs no check.
    """
    field = f.field
    diff = _coeff_sum(_t_coeffs(f), _coeff_neg(rep.terms))
    return not _as_reduce({k: c for k, c in diff.items() if k < 0},
                          field).terms


# --------------------------------------------------------------------------
# Closed-form basis pairings and duality kernels at a dagger point
# --------------------------------------------------------------------------

def _basis_case(i, j, p):
    if i % p and j % p == 0:
        return "first", ("t", "t")
    if i % p == 0 and j % p:
        return "first-sym", ("u", "u")
    if i % p and j % p:
        return "second", ("t", "u")
    raise BadIndexPair(f"({i}, {j}) are both divisible by {p}")


def point_basis_pair(i, j, a, b, c, k, l, field):
    """Two-branch m = 1 pairing of the standard (i, j) basis element.

    The basis element carries a on the u-t branch and b on the t-u branch;
    it is paired against c*u^k*t^l.  Second symbol slots follow the case
    split on p-divisibility of (i, j).  Each branch value is the untraced
    m = 1 pairing of witt_pair_local, boxed as that pairing is.
    """
    case, (slot1, slot2) = _basis_case(i, j, field.p)
    one = Laurent2.one(field)
    val = field.zero
    # branch F_{u,t} has inner u and outer t, branch F_{t,u} the reverse;
    # inner says whether the second slot is the branch's inner variable
    for coef, ij, kl, inner in ((a, (i, j), (k, l), slot1 == "u"),
                                (b, (j, i), (l, k), slot2 == "t")):
        if not coef:
            continue
        f = one + Laurent2.monomial(field, coef, *ij)
        s = Laurent2.monomial(field, field.one, *((1, 0) if inner else (0, 1)))
        h = WittVec(laurent_domain(field), (Laurent2.monomial(field, c, *kl),))
        val = val + witt_pair_local(symbol(f, s), h, 1,
                                    traced=False).components[0]
    return val


def duality_kernel_point(i, j, field):
    """Kernel sweep for the finite-level duality pairing at a dagger point.

    Pairs every basis element (a, b) at bidegree (i, j) against every
    c*u^{-i}*t^{-j} and compares the computed kernel with the subspace
    predicted by the closed forms.  Each branch is paired once per
    coefficient, against u^{-i}*t^{-j}: the residue is F_q-linear in the
    test form, so pairing against c*u^{-i}*t^{-j} gives c times that value,
    and the value of (a, b) is the sum of its two branch values.  So (a, b)
    is in the kernel exactly when left[a] + right[b] = 0.
    """
    if i < 1 or j < 1:
        raise BadIndexPair("indices must be positive")
    p = field.p
    case, slots = _basis_case(i, j, p)
    ii = field.from_int(i)
    jj = field.from_int(j)
    zero, one = field.zero, field.one
    left = {a: point_basis_pair(i, j, a, zero, one, -i, -j, field)
            for a in field.elements()}
    right = {b: point_basis_pair(i, j, zero, b, one, -i, -j, field)
             for b in field.elements()}
    kernel = []
    predicted = []
    for a in field.elements():
        for b in field.elements():
            if not (left[a] + right[b]):
                kernel.append((a, b))
            if case == "second":
                in_pred = not (ii * a + jj * b)
            else:
                in_pred = a == b
            if in_pred:
                predicted.append((a, b))
    return {
        "i": i,
        "j": j,
        "field": field.serialize(),
        "case": case,
        "slots": list(slots),
        "kernel": [[list(a.coeffs), list(b.coeffs)] for a, b in kernel],
        "kernel_size": len(kernel),
        "predicted_size": len(predicted),
        "match": set(kernel) == set(predicted),
    }


# --------------------------------------------------------------------------
# Finite-level duality report for a fixed curve
# --------------------------------------------------------------------------

def duality_level_curve(k, pole_bound, field):
    """Finite-level pairing matrix for level k on the projective u-line.

    Generators are per-place monomials s^a (|a| <= pole_bound) in the
    parameter s of each rational place, sorted into two component groups:
    the forms d(s^a) for p ∤ a, and, when p ∤ k, -k·s^a·ds/s for p | a.  The
    test functions f are the p-constrained monomial basis of L(pole_bound),
    expanded exactly at each place, so each entry is one coefficient read:
    res(f·d(s^a)) = a·[s^-a]f and res(-k·f·s^a·ds/s) = -k·[s^-a]f.  Reports
    rank and kernel; "diagonal_in_kernel" stays in the report, empty.
    """
    if k < 1:
        raise ZeroArgument("level must be positive")
    if pole_bound < 0:
        raise ZeroArgument("pole bound must be non-negative")
    p = field.p
    D = pole_bound
    places = [Chart.place(field, Poly1(field, (lam, field.one)))
              for lam in field.elements()]
    places.sort(key=Chart.sort_key)
    places.append(Chart.place(field))
    if k % p:
        fexps = list(range(0, D + 1))
    else:
        fexps = [b for b in range(1, D + 1) if b % p]
    # u^b is a polynomial: its expansion at a rational place is exact at
    # any precision
    fhats = {x: [_expand_poly2(Poly2.monomial(field, field.one, b, 0), x, 1)
                 for b in fexps] for x in places}
    gens = []
    for xi, x in enumerate(places):
        for a in range(-D, D + 1):
            if a and a % p:
                gens.append((xi, 1, a))
        if k % p:
            for a in range(-D, D + 1):
                if a % p == 0:
                    gens.append((xi, 2, a))
    rows = [[field.from_int(a if comp == 1 else -k) * fh.coeff(-a, 0)
             for fh in fhats[places[xi]]] for (xi, comp, a) in gens]
    rank, kernel, _ = rank_and_left_kernel(rows, field)
    return {
        "k": k,
        "pole_bound": D,
        "field": field.serialize(),
        "generators": [{"place": places[xi].serialize(),
                        "component": comp, "exponent": a}
                       for (xi, comp, a) in gens],
        "f_basis": [f"u^{b}" for b in fexps],
        "matrix": [[list(c.coeffs) for c in row] for row in rows],
        "place_blocks": {places[xi].serialize(): [
            [list(c.coeffs) for c in rows[r]]
            for r, (xj, _, _) in enumerate(gens) if xj == xi]
            for xi in range(len(places))},
        "rank": rank,
        "kernel_dim": len(kernel),
        "full_column_rank": rank == len(fexps),
        "diagonal_in_kernel": [],
    }
