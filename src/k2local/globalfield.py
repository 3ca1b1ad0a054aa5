"""Semi-global objects at desk scale.

Curve side: the projective u-line over F_q, places (monic irreducible
polynomials in u plus infinity), and coefficientwise local expansion of
rational data.  At a place of degree d >= 2 the expansion is a Laurent2 over
k(x) = F_{q^d}: u is a power series in the parameter pi(u), found by Newton
iteration.

Point side: admissible curves through the origin of the (u, t)-plane, branch
expansions, canonical Artin-Schreier representatives, and the finite-level
duality kernel reports.

A global function has one shape, the reduced RatFunc num / den.  Its
t-coefficients, u-only RatFuncs, are what as_reduce works on.  A PointFunc
multiplies its factors out once into a num and a den.  Every expansion, of a
RatFunc at a place or of a PointFunc at a branch, maps num and den alike: it
relabels sparse rows or substitutes by the one Horner routine (u = root + s,
u = the parameter series, t = phi(u) + T), then divides by the one quotient
step in a working box (t_prec, u_prec).

Reciprocity: the Witt and tame sums over the places of the u-line, or over a
declared set of curves through the origin, share their pieces: per-key terms
(expand f, g and h at the key, then take the local symbol) and one running
fold over them.  The *_reciprocity functions return the fold's last value;
witt_report and tame_report build the JSON reports, keyed by "place" or
"curve".  Every residue is read through forms.residue.
"""

import math
import operator
from functools import lru_cache

from .errors import (BadIndexPair, DivisionByZero, InvariantViolation,
                     NotReducible, PrecisionTooLow, UndeclaredCurveFactor,
                     UnsupportedPlace, ZeroArgument, ZeroDivisor)
from .ff import (FqElem, first_root, get_embedding, make_field, norm_rel,
                 power)
from .forms import d_du
from .series import Laurent2, invert, laurent_domain
from .symbols import (WittPairer, check_length, symbol, tame_symbol_det,
                      witt_pair_local, with_box)
from .witt import WittVec, witt_add, witt_zero

INF = math.inf


# --------------------------------------------------------------------------
# Univariate polynomials over F_q
# --------------------------------------------------------------------------

class Poly1:
    """Polynomial in one variable over F_q; coefficients constant-first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def const(field, c):
        return Poly1(field, (c,))

    @staticmethod
    def from_ints(field, ints):
        return Poly1(field, tuple(field.from_int(k) for k in ints))

    @property
    def deg(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly1) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly1(self.field, out)

    def __neg__(self):
        return Poly1(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return Poly1(self.field, tuple(c * other for c in self.coeffs))
        if not self or not other:
            return Poly1(self.field, ())
        out = [self.field.zero] * (self.deg + other.deg + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly1(self.field, out)

    def __pow__(self, e):
        return power(self, e, Poly1.const(self.field, self.field.one))

    def divmod(self, other):
        if not other:
            raise ZeroDivisor("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [self.field.zero] * max(0, len(rem) - other.deg)
        inv_lead = other.coeffs[-1].inv()
        for k in range(len(rem) - 1, other.deg - 1, -1):
            c = rem[k] * inv_lead
            if not c:
                continue
            quo[k - other.deg] = c
            for j, b in enumerate(other.coeffs):
                rem[k - other.deg + j] = rem[k - other.deg + j] - c * b
        return Poly1(self.field, quo), Poly1(self.field, rem)

    def monic(self):
        if not self:
            return self
        return self * self.coeffs[-1].inv()

    def derivative(self):
        return Poly1(self.field, tuple(c * self.field.from_int(k)
                                       for k, c in enumerate(self.coeffs))
                     [1:])

    def serialize(self, var="u"):
        if not self:
            return "0"
        bits = []
        for k in range(self.deg, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            head = "[" + ",".join(str(v) for v in c.coeffs) + "]"
            bits.append(head + (f"*{var}^{k}" if k else ""))
        return " + ".join(bits)

    def __repr__(self):
        return f"Poly1({self.serialize()})"


def poly1_gcd(a, b):
    while b:
        a, b = b, a.divmod(b)[1]
    return a.monic()


@lru_cache(maxsize=None)
def _irreducibles(field, d):
    """All monic irreducible polynomials of degree d over the field."""
    if d == 1:
        return tuple(Poly1(field, (lam, field.one))
                     for lam in field.elements())
    smaller = []
    for e in range(1, d // 2 + 1):
        smaller.extend(_irreducibles(field, e))
    out = []
    for idx in range(field.q ** d):
        coeffs = []
        k = idx
        for _ in range(d):
            coeffs.append(field.elem_by_index(k % field.q))
            k //= field.q
        f = Poly1(field, tuple(coeffs) + (field.one,))
        if all(f.divmod(g)[1] for g in smaller):
            out.append(f)
    return tuple(out)


def factor_poly1(f):
    """Monic irreducible factors with multiplicities (unit part dropped)."""
    if not f:
        raise ZeroArgument("cannot factor the zero polynomial")
    field = f.field
    g = f.monic()
    out = {}
    d = 1
    while g.deg > 0:
        if d > g.deg // 2:
            out[g] = out.get(g, 0) + 1
            break
        for pi in _irreducibles(field, d):
            while True:
                q, r = g.divmod(pi)
                if r:
                    break
                out[pi] = out.get(pi, 0) + 1
                g = q
        d += 1
    return out


# --------------------------------------------------------------------------
# Bivariate polynomials and rational functions
# --------------------------------------------------------------------------

class Poly2:
    """Polynomial in u and t over F_q; terms {(u_exp, t_exp): coeff}."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {ab: c for ab, c in terms.items() if c}

    @staticmethod
    def const(field, c):
        return Poly2(field, {(0, 0): c})

    @staticmethod
    def one(field):
        return Poly2.const(field, field.one)

    @staticmethod
    def monomial(field, c, a, b):
        return Poly2(field, {(a, b): c})

    @staticmethod
    def from_poly1(p, var="u"):
        if var == "u":
            return Poly2(p.field, {(k, 0): c for k, c in enumerate(p.coeffs)})
        return Poly2(p.field, {(0, k): c for k, c in enumerate(p.coeffs)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly2) and self.field is other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(
            (ab, c.coeffs) for ab, c in self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for ab, c in other.terms.items():
            s = out.get(ab, self.field.zero) + c
            if s:
                out[ab] = s
            else:
                out.pop(ab, None)
        return Poly2(self.field, out)

    def __neg__(self):
        return Poly2(self.field, {ab: -c for ab, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return Poly2(self.field,
                         {ab: c * other for ab, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, self.field.zero) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Poly2(self.field, out)

    def __pow__(self, e):
        return power(self, e, Poly2.one(self.field))

    def rows(self):
        """The sparse t-rows {t_exp: {u_exp: coeff}}."""
        rows = {}
        for (a, b), c in self.terms.items():
            rows.setdefault(b, {})[a] = c
        return rows

    def t_coeffs(self):
        """The polynomial as {t_exp: Poly1-in-u}."""
        zero = self.field.zero
        return {b: Poly1(self.field, [row.get(a, zero)
                                      for a in range(max(row) + 1)])
                for b, row in self.rows().items()}

    def deg_u(self):
        return max((a for a, _ in self.terms), default=-1)

    def deg_t(self):
        return max((b for _, b in self.terms), default=-1)

    def serialize(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms, key=lambda ab: (ab[1], ab[0])):
            c = self.terms[(a, b)]
            head = "[" + ",".join(str(v) for v in c.coeffs) + "]"
            if a:
                head += f"*u^{a}"
            if b:
                head += f"*t^{b}"
            bits.append(head)
        return " + ".join(bits)

    def __repr__(self):
        return f"Poly2({self.serialize()})"


def _poly2_content_u(P):
    """The u-content: the monic gcd of the t-coefficients of P."""
    g = Poly1(P.field, ())
    for poly in P.t_coeffs().values():
        g = poly1_gcd(g, poly)
        if g.deg == 0:
            break
    return g


def _poly2_div_poly1(P, g):
    """Exact division of every t-coefficient by the univariate g."""
    if g.coeffs == (P.field.one,):
        return P
    out = {}
    for b, poly in P.t_coeffs().items():
        q, r = poly.divmod(g)
        if r:
            raise InvariantViolation("u-content division left a remainder")
        for a, c in enumerate(q.coeffs):
            if c:
                out[(a, b)] = c
    return Poly2(P.field, out)


def _rows(P):
    """P as the dense list of its t-coefficients, Poly1s in u."""
    rows = [Poly1(P.field, ())] * (P.deg_t() + 1)
    for b, poly in P.t_coeffs().items():
        rows[b] = poly
    return rows


def _from_rows(rows, field):
    return Poly2(field, {(a, b): c for b, poly in enumerate(rows)
                         for a, c in enumerate(poly.coeffs)})


def _tdiv(P, G):
    """P / G in F_q[u][t] by long division in t, or None if G does not divide.

    Each step divides the leading row exactly by the leading t-coefficient of
    G in F_q[u]; the quotient is unique, so an inexact step or a nonzero
    remainder means G does not divide P.
    """
    rem, div = _rows(P), _rows(G)
    d = len(div) - 1
    quo = [None] * max(0, len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        c, r = rem[k].divmod(div[-1])
        if r:
            return None
        quo[k - d] = c
        if c:
            for j in range(d):
                rem[k - d + j] = rem[k - d + j] - c * div[j]
    if any(rem[:d]):
        return None
    return _from_rows(quo, P.field)


def _prem(A, B):
    """The pseudo-remainder of A by B as polynomials in t over F_q[u]."""
    rem, div = _rows(A), _rows(B)
    d = len(div) - 1
    lead = div[-1]
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem.pop()
        rem = [r * lead for r in rem]
        if c:
            for j in range(d):
                rem[k - d + j] = rem[k - d + j] - c * div[j]
    return _from_rows(rem, A.field)


def _tpoly_gcd(A, B):
    """A gcd of nonzero A and B in F_q[u][t], up to a unit of F_q.

    By Gauss's lemma it is the gcd of the u-contents times the primitive part
    of the last nonzero term of the primitive remainder sequence (Knuth,
    TAOCP Vol. 2, 4.6.1; Brown, JACM 18, 1971).
    """
    cb = _poly2_content_u(B)
    c = poly1_gcd(_poly2_content_u(A), cb) if cb.deg > 0 else cb
    if A.deg_t() < B.deg_t():
        A, B = B, A
    while B.deg_t() > 0:
        A, B = B, _prem(A, B)
        if B:
            B = _poly2_div_poly1(B, _poly2_content_u(B))
    if B:
        return Poly2.from_poly1(c)
    return _poly2_div_poly1(A, _poly2_content_u(A)) * Poly2.from_poly1(c)


def _lead(P):
    """The coefficient of the greatest term of P in the (t, u) order."""
    return P.terms[max(P.terms, key=lambda ab: (ab[1], ab[0]))]


class RatFunc:
    """Reduced fraction of bivariate polynomials.

    The normal form is num / den with gcd(num, den) = 1 in F_q[u, t] and the
    lead coefficient of den, by the (t, u) order, equal to 1; zero is 0 / 1.
    The gcd is _tpoly_gcd's, and num and den are divided by it with _tdiv.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisor("rational function with zero denominator")
        field = num.field
        if num:
            G = _tpoly_gcd(num, den)
            if G.deg_u() > 0 or G.deg_t() > 0:
                num, den = _tdiv(num, G), _tdiv(den, G)
                if num is None or den is None:
                    raise InvariantViolation(
                        "exact division left a remainder")
        else:
            den = Poly2.one(field)
        lead = _lead(den)
        if lead != field.one:
            inv = lead.inv()
            num = num * inv
            den = den * inv
        self.field = field
        self.num = num
        self.den = den

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
        return RatFunc(p, Poly2.one(p.field))

    @staticmethod
    def const(field, c):
        return RatFunc(Poly2.const(field, c), Poly2.one(field))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc._adopt(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

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
            inv = _lead(num).inv()
            num, den = den * inv, num * inv
        return RatFunc._adopt(num, den)

    def serialize(self):
        if self.den == Poly2.one(self.field):
            return self.num.serialize()
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def __repr__(self):
        return f"RatFunc({self.serialize()})"


# --------------------------------------------------------------------------
# Places of the projective u-line and local expansion
# --------------------------------------------------------------------------

class CurvePlace:
    """A closed point of the projective u-line over F_q."""

    __slots__ = ("field", "kind", "minimal_poly", "residue_degree")

    def __init__(self, field, kind, minimal_poly=None):
        self.field = field
        self.kind = kind  # "finite" | "infinity"
        self.minimal_poly = minimal_poly
        self.residue_degree = minimal_poly.deg if kind == "finite" else 1

    def sort_key(self):
        if self.kind == "infinity":
            return (1,)
        return (0, self.minimal_poly.deg,
                tuple(c.coeffs for c in self.minimal_poly.coeffs))

    def __eq__(self, other):
        return (isinstance(other, CurvePlace) and self.kind == other.kind
                and self.field is other.field
                and self.minimal_poly == other.minimal_poly)

    def __hash__(self):
        return hash((id(self.field), self.kind, self.minimal_poly))

    def serialize(self):
        if self.kind == "infinity":
            return "infinity"
        return self.minimal_poly.serialize()

    def __repr__(self):
        return f"CurvePlace({self.serialize()})"


def infinity_place(field):
    return CurvePlace(field, "infinity")


def place_u(field):
    """The place u = 0, where the expansion is the series in u and t."""
    return CurvePlace(field, "finite", Poly1(field, (field.zero, field.one)))


def list_places(fs):
    """Finite places dividing any t-coefficient of the RatFuncs fs, plus
    infinity.

    Each t-row of a numerator or denominator is read from its sparse terms:
    a least u-exponent e > 0 adds the place u, and only the row divided by
    u^e is factored, so a large power of u is never made dense.
    """
    if not fs:
        raise ZeroArgument("no rational data supplied")
    field = fs[0].field
    zero = field.zero
    finite = set()
    for f in fs:
        for P in (f.num, f.den):
            for row in P.rows().values():
                e = min(row)
                if e:
                    finite.add(Poly1(field, (zero, field.one)))
                rest = Poly1(field, [row.get(a, zero)
                                     for a in range(e, max(row) + 1)])
                if rest.deg > 0:
                    finite.update(factor_poly1(rest))
    places = sorted((CurvePlace(field, "finite", pi) for pi in finite),
                    key=CurvePlace.sort_key)
    places.append(infinity_place(field))
    return places


@lru_cache(maxsize=None)
def place_field(place):
    """(k(x), embed: F_q -> k(x), root of the minimal polynomial)."""
    field = place.field
    if place.kind == "infinity":
        return field, (lambda c: c), None
    d = place.residue_degree
    if d == 1:
        root = -place.minimal_poly.coeffs[0]
        return field, (lambda c: c), root
    kx = make_field(field.p, field.n * d)
    emb = get_embedding(field, kx)
    return (kx, emb.apply,
            first_root([emb.apply(c) for c in place.minimal_poly.coeffs], kx))


_param_cache = {}


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule; the coefficients are Laurent2."""
    acc = Laurent2.zero(x.dom)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
        U = Laurent2(kx, U.terms, None, {0: n})
        U = U - (_horner(pi, U) - s) * invert(_horner(dpi, U), 1, n)
    _param_cache[key] = (kx, Laurent2(kx, U.terms, None, {0: prec}))
    return _param_cache[key]


def _expand_poly2(P, place, prec):
    """Expansion of a bivariate polynomial at a place of the u-line.

    At infinity (parameter 1/u) and at the place u the expansion only
    relabels the sparse rows of P, so a large power of u costs one term.
    Elsewhere Horner's rule over the u-columns of P substitutes root + s at
    a rational place, exactly, and the parameter series at a place of
    degree >= 2, where every t-row of P is known to s^prec.
    """
    kx, emb, root = place_field(place)
    if not root:  # infinity has no root, the place u the root 0
        sign = -1 if place.kind == "infinity" else 1
        return Laurent2(kx, {b: {sign * a: c for a, c in row.items()}
                             for b, row in P.rows().items()})
    cols = [{} for _ in range(P.deg_u() + 1)]
    for (a, b), c in P.terms.items():
        cols[a][b] = {0: emb(c)}
    coeffs = [Laurent2(kx, col) for col in cols]
    if place.residue_degree == 1:
        return _horner(coeffs, Laurent2(kx, {0: {0: root, 1: kx.one}}))
    acc = _horner(coeffs, _param_series(place, prec)[1])
    return Laurent2(kx, acc.terms, None, {b: prec for _, b in P.terms})


def _quotient(num, den, box):
    """num / den: a shift when den is an exact monomial, else num times the
    inverse of den in the working box (t_prec, u_prec)."""
    if den.t_prec == INF and not den.u_prec and len(den.terms) == 1:
        (j, row), = den.terms.items()
        if len(row) == 1:
            (i, c), = row.items()
            return num.monomial_mul(c.inv(), -i, -j)
    return num * invert(den, *box)


def expand_at_place(f, place, box):
    """Coefficientwise expansion of a RatFunc at a place of the u-line.

    Returns a Laurent2 over k(x) whose inner variable is the local parameter
    (pi(u) at finite places, 1/u at infinity) and whose outer variable is t.
    The box (t_prec, u_prec) is the working box of the denominator's
    inverse; at a place of degree >= 2 the parameter series has u_prec
    digits.
    """
    num = _expand_poly2(f.num, place, box[1])
    return _quotient(num, _expand_poly2(f.den, place, box[1]), box)


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
    return _witt_terms(places, expand_at_place, f, g, comps, m)


def curve_tame_terms(f, g, h):
    """Per-place (place, local tame symbol, its norm to F_q) on the u-line."""
    return [(x, v, norm_rel(v, f.field)) for x, v in
            _tame_terms(list_places([f, g, h]), expand_at_place, f, g, h)]


# --------------------------------------------------------------------------
# Point mode: admissible curves through the origin
# --------------------------------------------------------------------------

class AdmissibleCurve:
    """A branch through the origin with an algorithmic local equation."""

    KINDS = ("axis_u", "axis_t", "graph_t_of_u", "graph_u_of_t")

    __slots__ = ("field", "kind", "graph_poly", "_monic")

    def __init__(self, field, kind, graph_poly=None):
        if kind not in self.KINDS:
            raise ZeroArgument(f"unknown curve kind {kind!r}")
        if kind.startswith("graph"):
            if graph_poly is None or not graph_poly \
                    or (graph_poly.coeffs and graph_poly.coeffs[0]):
                raise ZeroArgument(
                    "graph curves need a nonzero polynomial with zero "
                    "constant term")
        else:
            graph_poly = None
        self.field = field
        self.kind = kind
        self.graph_poly = graph_poly
        eq = self.equation()
        self._monic = eq * _lead(eq).inv()

    def equation(self):
        """The local equation t_y as a bivariate polynomial."""
        field = self.field
        t = Poly2.monomial(field, field.one, 0, 1)
        u = Poly2.monomial(field, field.one, 1, 0)
        if self.kind == "axis_u":
            return t
        if self.kind == "axis_t":
            return u
        if self.kind == "graph_t_of_u":
            return t - Poly2.from_poly1(self.graph_poly, "u")
        return u - Poly2.from_poly1(self.graph_poly, "t")

    def __eq__(self, other):
        """One curve when the equations agree up to a nonzero constant, as
        t = c*u and u = t/c do."""
        return (isinstance(other, AdmissibleCurve)
                and self._monic == other._monic)

    def __hash__(self):
        return hash(self._monic)

    def sort_key(self):
        idx = self.KINDS.index(self.kind)
        tail = tuple(c.coeffs for c in self.graph_poly.coeffs) \
            if self.graph_poly else ()
        return (idx, tail)

    def serialize(self):
        if self.kind == "axis_u":
            return "t = 0"
        if self.kind == "axis_t":
            return "u = 0"
        if self.kind == "graph_t_of_u":
            return f"t = {self.graph_poly.serialize('u')}"
        return f"u = {self.graph_poly.serialize('t')}"

    def __repr__(self):
        return f"AdmissibleCurve({self.serialize()})"


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
            if eps.terms.get((0, 0)):
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

    def curves(self):
        return set(self.curve_exps)

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
    return list(dict.fromkeys(sorted(curves, key=AdmissibleCurve.sort_key)))


def _poly2_transpose(P):
    return Poly2(P.field, {(b, a): c for (a, b), c in P.terms.items()})


def _try_div_curve(P, y):
    """P divided by the curve equation, or None if not divisible."""
    if not P:
        return None
    return _tdiv(P, y.equation())


def to_pointfunc(f, curves):
    """Factor a rational function over a declared admissible curve set.

    Splits off every declared curve equation from numerator and denominator;
    the remaining part must be a constant times a principal unit, otherwise
    the input has an undeclared branch through the origin.
    """
    field = f.field
    num, den = f.num, f.den
    exps = {}
    for y in distinct_curves(curves):
        while True:
            Q = _try_div_curve(num, y)
            if Q is None:
                break
            num = Q
            exps[y] = exps.get(y, 0) + 1
        while True:
            Q = _try_div_curve(den, y)
            if Q is None:
                break
            den = Q
            exps[y] = exps.get(y, 0) - 1
    if not num:
        return PointFunc(field, constant=field.zero)
    c_num = num.terms.get((0, 0))
    c_den = den.terms.get((0, 0))
    if not c_num or not c_den:
        raise UndeclaredCurveFactor(
            "input vanishes at the origin along an undeclared branch")
    constant = c_num * c_den.inv()
    units = []
    scaled_num = num * c_num.inv()
    if scaled_num != Poly2.one(field):
        units.append((scaled_num - Poly2.one(field), 1))
    scaled_den = den * c_den.inv()
    if scaled_den != Poly2.one(field):
        units.append((scaled_den - Poly2.one(field), -1))
    return PointFunc(field, constant, exps, units)


def _poly2_to_branch(P, y):
    """Map a bivariate polynomial into branch coordinates (u_{x,y}, t_y).

    The axes relabel the sparse rows.  On the graph t = phi(u), Horner's
    rule over the t-rows of P substitutes t = phi(u) + T; on u = phi(t) it
    does the same on the transpose.  The inner variable stays.
    """
    field = P.field
    if y.kind in ("axis_t", "graph_u_of_t"):
        P = _poly2_transpose(P)
    rows = P.rows()
    if y.kind.startswith("axis"):
        return Laurent2(field, rows)
    phi = {k: c for k, c in enumerate(y.graph_poly.coeffs) if c}
    return _horner([Laurent2(field, {0: rows.get(b, {})})
                    for b in range(P.deg_t() + 1)],
                   Laurent2(field, {0: phi, 1: {0: field.one}}))


def expand_point(pf, y, declared, box):
    """Local expansion of a factored F_x element at the branch y: num / den
    in branch coordinates, in the working box (t_prec, u_prec)."""
    for z in pf.curves():
        if z not in declared:
            raise UndeclaredCurveFactor(
                f"factor curve {z.serialize()} is not declared admissible")
    return _quotient(_poly2_to_branch(pf.num, y),
                     _poly2_to_branch(pf.den, y), box)


def _at_curves(curves):
    """The declared curves, each once, in order, and expand(c, y, box) at
    the curve y."""
    keys = distinct_curves(curves)
    declared = set(keys)
    return keys, lambda c, y, box: expand_point(c, y, declared, box)


def point_witt_terms(f, g, h, m, curves):
    """Per-curve traced local Witt pairings of F_x data at the origin.

    Each curve sizes its own working box, as _witt_terms says.
    """
    keys, expand = _at_curves(curves)
    return _witt_terms(keys, expand, f, g, _components(h), m)


def point_tame_terms(f, g, h, curves):
    """Per-curve (curve, local tame symbol) at the origin."""
    keys, expand = _at_curves(curves)
    return _tame_terms(keys, expand, f, g, h)


# --------------------------------------------------------------------------
# Reciprocity sums over places or curves: one fold over (key, value) terms
# --------------------------------------------------------------------------

def _witt_terms(keys, expand, f, g, comps, m):
    """(key, traced local Witt pairing of {f, g} with (comps)) per key.

    At each key, expand(c, key, box) expands f, g and comps in the working
    box, and a pairer of {f, g} in the same box pairs them.  The box starts at
    (2, 2) and doubles while a coefficient falls outside the known region
    (with_box); the data is exact, so some box answers.  m is checked
    first, so an unsupported length is refused before any expansion.
    """
    check_length(m, traced=True)

    def pair_at(key, box):
        fh, gh, *ch = (expand(c, key, box) for c in [f, g] + comps)
        ch += [Laurent2.zero(fh.dom)] * (m - len(ch))
        return WittPairer(symbol(fh, gh), m, *box).pair(
            WittVec(laurent_domain(fh.dom), ch), m)
    return [(key, with_box((2, 2), None, lambda box: pair_at(key, box)))
            for key in keys]


def _tame_terms(keys, expand, f, g, h):
    """(key, local tame symbol of f, g, h) per key, boxed as _witt_terms."""
    def tame_at(key, box):
        return tame_symbol_det(*(expand(c, key, box)
                                 for c in (f, g, h))).value
    return [(key, with_box((2, 2), None, lambda box: tame_at(key, box)))
            for key in keys]


def _fold(terms, add, acc):
    """Fold add over the last entry of each term, starting from acc.

    Returns the (term, running value) rows and the final value.
    """
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
    rows = f.den.rows()
    if len(rows) != 1:
        raise NotReducible(
            "denominator mixes u and t; the t-expansion is not finite")
    (k, den), = rows.items()

    def u_only(row):
        return Poly2(f.field, {(a, 0): c for a, c in row.items()})
    den = u_only(den)
    return {b - k: RatFunc(u_only(row), den)
            for b, row in f.num.rows().items()}


def _coeff_sum(*parts):
    """The sum of {k: c_k} dicts, zero coefficients dropped."""
    out = {}
    for part in parts:
        for k, c in part.items():
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _coeff_neg(coeffs):
    return {k: -c for k, c in coeffs.items()}


def _coeff_pow_p(coeffs, p):
    """(sum c_k t^k)^p = sum c_k^p t^{pk} in characteristic p."""
    return {p * k: c ** p for k, c in coeffs.items()}


def _u_text(c):
    """A u-only RatFunc in univariate notation, highest power first."""
    num = c.num.t_coeffs()[0].serialize()
    if c.den == Poly2.one(c.field):
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


def as_residual_solves(f, rep, t_prec=None):
    """Check f - recompose(rep) = h^p - h + const within the t-precision.

    The nonpositive part must itself reduce to the empty representative;
    the positive part is matched against the explicit geometric series
    h = (-f+) + (-f+)^p + (-f+)^{p^2} + ... truncated at the precision.
    """
    field = f.field
    p = field.p
    diff = _coeff_sum(_t_coeffs(f), _coeff_neg(rep.terms))
    if _as_reduce({k: c for k, c in diff.items() if k < 0}, field).terms:
        return False
    pos = {k: c for k, c in diff.items() if k > 0}
    if not pos:
        return True
    if t_prec is None:
        t_prec = p * (max(pos) + 1) + 1
    h = {}
    term = _coeff_neg(pos)
    while term and min(term) < t_prec:
        h = _coeff_sum(h, {k: c for k, c in term.items() if k < t_prec})
        term = _coeff_pow_p(term, p)
    resid = _coeff_sum(_coeff_pow_p(h, p), _coeff_neg(h), _coeff_neg(pos))
    return all(k >= t_prec for k in resid)


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

def _level_entry(place, phi1, phi2, fhat, k, field):
    """res_x(f * (d phi1 - k phi2 du_x/u_x)) at a rational place."""
    form = Laurent2.zero(field)
    if phi1 is not None:
        form = form + fhat * d_du(phi1)
    if phi2 is not None:
        form = form - (fhat * phi2).monomial_mul(field.from_int(k), -1, 0)
    return form.coeff(-1, 0)


def _rank_and_left_kernel(rows, field):
    """Row rank and a basis for the left kernel over F_q."""
    n = len(rows)
    if n == 0:
        return 0, []
    width = len(rows[0])
    aug = [list(rows[r]) + [field.one if c == r else field.zero
                            for c in range(n)] for r in range(n)]
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = aug[rank][col].inv()
        aug[rank] = [c * inv for c in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [c - f * d for c, d in zip(aug[r], aug[rank])]
        rank += 1
        if rank == n:
            break
    kernel = [row[width:] for row in aug[rank:]]
    return rank, kernel


def duality_level_curve(k, pole_bound, field, diag_samples=None):
    """Finite-level pairing matrix for level k on the projective u-line.

    Generators are per-place monomials u_x^a (|a| <= pole_bound) sorted into
    the two component groups; test functions are the p-constrained monomial
    basis of L(pole_bound).  Reports rank, kernel, and whether sampled
    diagonal elements pair to zero against the whole test space.  The sum
    runs over the rational places, so a sample whose divisor meets a place
    of degree >= 2 raises UnsupportedPlace.
    """
    if k < 1:
        raise ZeroArgument("level must be positive")
    if pole_bound < 0:
        raise ZeroArgument("pole bound must be non-negative")
    p = field.p
    D = pole_bound
    places = [CurvePlace(field, "finite", Poly1(field, (lam, field.one)))
              for lam in field.elements()]
    places.sort(key=CurvePlace.sort_key)
    places.append(infinity_place(field))
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
    rows = []
    for (xi, comp, a) in gens:
        x = places[xi]
        mono = Laurent2.monomial(field, field.one, a, 0)
        phi1 = mono if comp == 1 else None
        phi2 = mono if comp == 2 else None
        rows.append([_level_entry(x, phi1, phi2, fh, k, field)
                     for fh in fhats[x]])
    rank, kernel = _rank_and_left_kernel(rows, field)
    diag_ok = []
    for a_glob, b_glob in diag_samples or []:
        if any(x.residue_degree > 1 for x in list_places([a_glob, b_glob])):
            raise UnsupportedPlace("diagonal sample meets a place of degree "
                                   ">= 2; the sum runs over rational places")
        row = with_box((2, 2), None, lambda box: _diagonal_row(
            a_glob, b_glob, k, places, fhats, box, field))
        diag_ok.append(not any(row))
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
        "diagonal_in_kernel": diag_ok,
    }


def _diagonal_row(a_glob, b_glob, k, places, fhats, box, field):
    """Pairing row of the diagonal element built from {1 + a t^k, b}."""
    p = field.p
    row = None
    for x in places:
        ah = expand_at_place(a_glob, x, box)
        bh = expand_at_place(b_glob, x, box)
        w = _quotient(ah * d_du(bh).monomial_mul(field.one, 1, 0), bh, box)
        # eta kills the non-p-power exponents of w
        eta_terms = {}
        for i2, c in w.terms.get(0, {}).items():
            if i2 % p:
                eta_terms[i2] = -(c * field.from_int(i2).inv())
        eta = Laurent2(field, {0: eta_terms}, INF,
                       dict(w.u_prec) if w.u_prec else {})
        phi1 = eta.monomial_mul(field.from_int(k))
        phi2 = w + d_du(eta).monomial_mul(field.one, 1, 0)
        vals = [_level_entry(x, phi1, phi2 if k % p else None, fh, k, field)
                for fh in fhats[x]]
        row = vals if row is None else [r + v for r, v in zip(row, vals)]
    return row
