"""Semi-global objects at desk scale.

Curve side: the projective u-line over F_q, places (monic irreducible
polynomials in u plus infinity), coefficientwise local expansion of rational
data, and the Witt/tame reciprocity sums over all places.

Point side: admissible curves through the origin of the (u, t)-plane, branch
expansions, the reciprocity sums over a declared curve set, finite-support
adelic K2 vectors, canonical Artin-Schreier representatives, and the
finite-level duality kernel reports.
"""

import math
from functools import lru_cache

from .errors import (BadIndexPair, DivisionByZero, FieldMismatch,
                     InvariantViolation, ModeMismatch, NotReducible,
                     UndeclaredCurveFactor, ZeroArgument, ZeroDivisor)
from .ff import FqElem, make_field, norm_rel, get_embedding
from .forms import d_du, dlog, wedge
from .series import DEFAULT_T_PREC, Laurent2, invert, laurent_domain
from .symbols import symbol, tame_symbol_det, witt_pair_local
from .witt import WittVec, witt_add, witt_zero

INF = math.inf


# --------------------------------------------------------------------------
# Univariate polynomials and rational functions over F_q
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
        out = Poly1.const(self.field, self.field.one)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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

    def shift(self, lam):
        """The polynomial self(u + lam)."""
        out = Poly1(self.field, ())
        for c in reversed(self.coeffs):
            out = out * Poly1(self.field, (lam, self.field.one)) \
                + Poly1.const(self.field, c)
        return out

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


class RatFunc1:
    """Reduced fraction of univariate polynomials, monic denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisor("rational function with zero denominator")
        g = poly1_gcd(num, den) if num else den.monic()
        if g.deg > 0 or g.coeffs[:1] != (num.field.one,):
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != num.field.one:
            inv = lead.inv()
            num = num * inv
            den = den * inv
        self.field = num.field
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p):
        return RatFunc1(p, Poly1.const(p.field, p.field.one))

    @staticmethod
    def const(field, c):
        return RatFunc1(Poly1.const(field, c),
                        Poly1.const(field, field.one))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RatFunc1) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc1(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __neg__(self):
        return RatFunc1(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc1(self.num * other.num, self.den * other.den)

    def inv(self):
        if not self.num:
            raise ZeroDivisor("inverse of zero")
        return RatFunc1(self.den, self.num)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return RatFunc1(self.num ** e, self.den ** e)

    def is_poly(self):
        return self.den.deg == 0

    def serialize(self):
        if self.is_poly():
            return self.num.serialize()
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def __repr__(self):
        return f"RatFunc1({self.serialize()})"


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
        out = Poly2.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def t_coeffs(self):
        """The polynomial as {t_exp: Poly1-in-u}."""
        rows = {}
        for (a, b), c in self.terms.items():
            rows.setdefault(b, {})[a] = c
        out = {}
        for b, row in rows.items():
            coeffs = [self.field.zero] * (max(row) + 1)
            for a, c in row.items():
                coeffs[a] = c
            out[b] = Poly1(self.field, coeffs)
        return out

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
    g = Poly1(P.field, ())
    for poly in P.t_coeffs().values():
        g = poly1_gcd(g, poly)
    return g


def _poly2_div_poly1(P, g):
    """Exact division of every t-coefficient by the univariate g."""
    out = {}
    for b, poly in P.t_coeffs().items():
        q, r = poly.divmod(g)
        if r:
            raise InvariantViolation("u-content division left a remainder")
        for a, c in enumerate(q.coeffs):
            if c:
                out[(a, b)] = c
    return Poly2(P.field, out)


def _tpoly(P):
    """Dense list of RatFunc1 coefficients of P as a polynomial in t."""
    rows = P.t_coeffs()
    out = [RatFunc1.const(P.field, P.field.zero)] * (P.deg_t() + 1)
    for b, poly in rows.items():
        out[b] = RatFunc1.from_poly(poly)
    return out


def _tpoly_trim(A):
    while A and not A[-1]:
        A.pop()
    return A


def _tpoly_divmod(A, B, field):
    A = list(A)
    Q = [RatFunc1.const(field, field.zero)] * max(0, len(A) - len(B) + 1)
    inv = B[-1].inv()
    for k in range(len(A) - 1, len(B) - 2, -1):
        c = A[k] * inv
        if not c:
            continue
        Q[k - (len(B) - 1)] = c
        for j, b in enumerate(B):
            A[k - (len(B) - 1) + j] = A[k - (len(B) - 1) + j] - c * b
    return Q, _tpoly_trim(A[:len(B) - 1])


def _tpoly_gcd(A, B, field):
    A, B = _tpoly_trim(list(A)), _tpoly_trim(list(B))
    while B:
        A, B = B, _tpoly_divmod(A, B, field)[1]
    if A:
        inv = A[-1].inv()
        A = [c * inv for c in A]
    return A


def _tpoly_clear(A, field):
    """Scale a t-polynomial with RatFunc1 coefficients to a primitive Poly2."""
    den = Poly1.const(field, field.one)
    for c in A:
        den = den.divmod(poly1_gcd(den, c.den))[0] * c.den
    terms = {}
    numerators = []
    for b, c in enumerate(A):
        numerators.append((b, c.num * den.divmod(c.den)[0]))
    content = Poly1(field, ())
    for _, poly in numerators:
        content = poly1_gcd(content, poly)
    for b, poly in numerators:
        q = poly.divmod(content)[0] if content.deg >= 0 else poly
        for a, c in enumerate(q.coeffs):
            if c:
                terms[(a, b)] = c
    return Poly2(field, terms)


def _poly2_divexact(P, G):
    """Exact division of bivariate polynomials (as polynomials in t)."""
    field = P.field
    Q, R = _tpoly_divmod(_tpoly(P), _tpoly(G), field)
    if R:
        raise InvariantViolation("exact division left a remainder")
    terms = {}
    for b, c in enumerate(Q):
        if not c.is_poly():
            raise InvariantViolation("exact quotient is not polynomial in u")
        poly = c.num * c.den.coeffs[0].inv() if c.den.deg == 0 else c.num
        for a, cc in enumerate(poly.coeffs):
            if cc:
                terms[(a, b)] = cc
    return Poly2(field, terms)


class RatFunc:
    """Reduced fraction of bivariate polynomials."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisor("rational function with zero denominator")
        field = num.field
        if num:
            cg = poly1_gcd(_poly2_content_u(num), _poly2_content_u(den))
            if cg.deg > 0:
                num = _poly2_div_poly1(num, cg)
                den = _poly2_div_poly1(den, cg)
            G = _tpoly_gcd(_tpoly(num), _tpoly(den), field)
            if len(G) > 1:
                Gp = _tpoly_clear(G, field)
                num = _poly2_divexact(num, Gp)
                den = _poly2_divexact(den, Gp)
        else:
            den = Poly2.one(field)
        lead_key = max(den.terms, key=lambda ab: (ab[1], ab[0]))
        lead = den.terms[lead_key]
        if lead != field.one:
            inv = lead.inv()
            num = num * inv
            den = den * inv
        self.field = field
        self.num = num
        self.den = den

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
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self):
        if not self.num:
            raise DivisionByZero("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return RatFunc(self.num ** e, self.den ** e)

    def serialize(self):
        if self.den == Poly2.one(self.field):
            return self.num.serialize()
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def __repr__(self):
        return f"RatFunc({self.serialize()})"


# --------------------------------------------------------------------------
# Laurent-in-t elements with rational coefficients (F_y at desk scale)
# --------------------------------------------------------------------------

class FyElem:
    """Finite Laurent polynomial in t with RatFunc1-in-u coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}

    @staticmethod
    def zero(field):
        return FyElem(field, {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, FyElem) and self.field is other.field
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        zero = RatFunc1.const(self.field, self.field.zero)
        for k, c in other.terms.items():
            out[k] = out.get(k, zero) + c
        return FyElem(self.field, out)

    def __neg__(self):
        return FyElem(self.field, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        zero = RatFunc1.const(self.field, self.field.zero)
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[k1 + k2] = out.get(k1 + k2, zero) + c1 * c2
        return FyElem(self.field, out)

    def __pow__(self, e):
        out = FyElem(self.field, {0: RatFunc1.const(self.field,
                                                    self.field.one)})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def coeff_pow_p(self):
        """The p-th power, using (sum)^p = sum of p-th powers in char p."""
        p = self.field.p
        return FyElem(self.field, {p * k: c ** p
                                   for k, c in self.terms.items()})

    def truncate_t(self, t_prec):
        return FyElem(self.field,
                      {k: c for k, c in self.terms.items() if k < t_prec})

    def to_ratfunc(self):
        field = self.field
        shift = max(0, -min(self.terms, default=0))
        den1 = Poly1.const(field, field.one)
        for c in self.terms.values():
            den1 = den1.divmod(poly1_gcd(den1, c.den))[0] * c.den
        num = Poly2(field, {})
        for k, c in self.terms.items():
            scaled = c.num * den1.divmod(c.den)[0]
            num = num + Poly2.from_poly1(scaled) * \
                Poly2.monomial(field, field.one, 0, k + shift)
        den = Poly2.from_poly1(den1) * \
            Poly2.monomial(field, field.one, 0, shift)
        return RatFunc(num, den)

    def serialize(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k].serialize()})*t^{k}"
                          for k in sorted(self.terms))

    def __repr__(self):
        return f"FyElem({self.serialize()})"


def ratfunc_to_fy(f):
    """Convert a RatFunc whose denominator is D(u)*t^k into an FyElem."""
    if isinstance(f, FyElem):
        return f
    rows = f.den.t_coeffs()
    if len(rows) != 1:
        raise NotReducible(
            "denominator mixes u and t; the t-expansion is not finite")
    k, den1 = next(iter(rows.items()))
    out = {}
    for b, num1 in f.num.t_coeffs().items():
        out[b - k] = RatFunc1(num1, den1)
    return FyElem(f.field, out)


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


def _gather_poly1s(inputs):
    polys = []
    field = None
    queue = list(inputs)
    while queue:
        f = queue.pop()
        if isinstance(f, WittVec):
            queue.extend(f.components)
            continue
        if isinstance(f, FyElem):
            field = f.field
            for c in f.terms.values():
                polys.extend([c.num, c.den])
            continue
        if isinstance(f, RatFunc):
            field = f.field
            polys.extend(f.num.t_coeffs().values())
            polys.extend(f.den.t_coeffs().values())
            continue
        if isinstance(f, Poly2):
            field = f.field
            polys.extend(f.t_coeffs().values())
            continue
        if isinstance(f, Poly1):
            field = f.field
            polys.append(f)
            continue
        if isinstance(f, RatFunc1):
            field = f.field
            polys.extend([f.num, f.den])
            continue
        raise ZeroArgument(f"unsupported rational input {f!r}")
    return field, [p for p in polys if p]


def list_places(inputs):
    """Finite places dividing any coefficient of the inputs, plus infinity."""
    field, polys = _gather_poly1s(inputs)
    if field is None:
        raise ZeroArgument("no rational data supplied")
    finite = set()
    for poly in polys:
        if poly.deg < 1:
            continue
        finite.update(factor_poly1(poly))
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
    pihat = [emb.apply(c) for c in place.minimal_poly.coeffs]
    for cand in kx.elements():
        acc = kx.zero
        pw = kx.one
        for c in pihat:
            if c:
                acc = acc + pw * c
            pw = pw * cand
        if not acc:
            return kx, emb.apply, cand
    raise FieldMismatch("minimal polynomial has no root in k(x)")


def _ps_mul(a, b, prec, zero):
    out = [zero] * prec
    for i, x in enumerate(a[:prec]):
        if not x:
            continue
        for j, y in enumerate(b[:prec - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _ps_inv(a, prec, one):
    lead = a[0].inv()
    out = [lead] + [a[0] - a[0]] * (prec - 1)
    for k in range(1, prec):
        s = out[k]
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                s = s - a[j] * out[k - j]
        out[k] = s * lead
    return out


_param_cache = {}


def _param_series(place, prec):
    """u as a power series in the local parameter s = pi(u), over k(x)."""
    key = (place, prec)
    if key in _param_cache:
        return _param_cache[key]
    kx, emb, root = place_field(place)
    pihat = [emb(c) for c in place.minimal_poly.coeffs]
    zero, one = kx.zero, kx.one
    U = [root]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        U = U + [zero] * (n - len(U))
        # evaluate pi(U) and pi'(U) to precision n
        val = [zero] * n
        der = [zero] * n
        pw = [one] + [zero] * (n - 1)
        for k, c in enumerate(pihat):
            if c:
                for i, x in enumerate(pw):
                    val[i] = val[i] + c * x
            if k + 1 < len(pihat) and pihat[k + 1]:
                cc = pihat[k + 1] * kx.from_int(k + 1)
                if cc:
                    for i, x in enumerate(pw):
                        der[i] = der[i] + cc * x
            pw = _ps_mul(pw, U, n, zero)
        val[1] = val[1] - one  # subtract s
        U = [U[i] - c for i, c in
             enumerate(_ps_mul(val, _ps_inv(der, n, one), n, zero))]
    _param_cache[key] = (kx, U[:prec])
    return kx, U[:prec]


def _expand_poly1(a, place, prec):
    """Expansion of a univariate polynomial as a Laurent2 row at j = 0."""
    if place.kind == "infinity":
        field = place.field
        return Laurent2(field, {0: {-k: c for k, c in enumerate(a.coeffs)
                                    if c}}, INF, {})
    if place.residue_degree == 1:
        kx, _, root = place_field(place)
        shifted = a.shift(root)
        return Laurent2(kx, {0: {k: c for k, c in enumerate(shifted.coeffs)
                                 if c}}, INF, {})
    kx, U = _param_series(place, prec)
    _, emb, _ = place_field(place)
    zero, one = kx.zero, kx.one
    acc = [zero] * prec
    pw = [one] + [zero] * (prec - 1)
    for c in a.coeffs:
        if c:
            ce = emb(c)
            for i, x in enumerate(pw):
                if x:
                    acc[i] = acc[i] + ce * x
        pw = _ps_mul(pw, U, prec, zero)
    return Laurent2(kx, {0: {k: c for k, c in enumerate(acc) if c}},
                    INF, {0: prec})


def _expand_poly2(P, place, prec):
    kx, _, _ = place_field(place)
    acc = Laurent2.zero(kx)
    for b, poly in P.t_coeffs().items():
        acc = acc + _expand_poly1(poly, place, prec).monomial_mul(
            kx.one, 0, b)
    return acc


def expand_at_place(f, place, precision=DEFAULT_T_PREC):
    """Coefficientwise expansion of rational data at a place of the u-line.

    Returns a Laurent2 over k(x) whose inner variable is the local parameter
    (pi(u) at finite places, 1/u at infinity) and whose outer variable is t.
    """
    if precision <= 0:
        raise ZeroArgument("precision must be positive")
    kx, _, _ = place_field(place)
    if isinstance(f, Poly1):
        return _expand_poly1(f, place, precision)
    if isinstance(f, Poly2):
        return _expand_poly2(f, place, precision)
    if isinstance(f, RatFunc1):
        num = _expand_poly1(f.num, place, precision)
        den = _expand_poly1(f.den, place, precision)
        return num * invert(den, precision, precision)
    if isinstance(f, RatFunc):
        num = _expand_poly2(f.num, place, precision)
        den = _expand_poly2(f.den, place, precision)
        return num * invert(den, precision, precision)
    if isinstance(f, FyElem):
        acc = Laurent2.zero(kx)
        for k, c in f.terms.items():
            acc = acc + expand_at_place(c, place, precision).monomial_mul(
                kx.one, 0, k)
        return acc
    raise ZeroArgument(f"cannot expand {f!r}")


# --------------------------------------------------------------------------
# Curve-mode reciprocity
# --------------------------------------------------------------------------

def _as_ratfunc(f, field=None):
    if isinstance(f, RatFunc):
        return f
    if isinstance(f, FyElem):
        return f.to_ratfunc()
    if isinstance(f, Poly2):
        return RatFunc.from_poly2(f)
    if isinstance(f, Poly1):
        return RatFunc.from_poly2(Poly2.from_poly1(f))
    if isinstance(f, RatFunc1):
        return RatFunc(Poly2.from_poly1(f.num), Poly2.from_poly1(f.den))
    if isinstance(f, FqElem):
        return RatFunc.const(f.field, f)
    raise ZeroArgument(f"not rational data: {f!r}")


def _h_components(h, field, m):
    if isinstance(h, WittVec):
        comps = list(h.components)
    elif isinstance(h, (tuple, list)):
        comps = list(h)
    else:
        comps = [h]
    comps = [_as_ratfunc(c, field) for c in comps]
    zero = RatFunc.const(field, field.zero)
    while len(comps) < m:
        comps.append(zero)
    return comps[:m]


def _rational_degree_bound(fs):
    d = 2
    for f in fs:
        d = max(d, f.num.deg_u(), f.num.deg_t(),
                f.den.deg_u(), f.den.deg_t())
    return d


def curve_witt_terms(f, g, h, m, precision=None):
    """Per-place traced local Witt pairings of rational data on the u-line."""
    f = _as_ratfunc(f)
    g = _as_ratfunc(g)
    field = f.field
    comps = _h_components(h, field, m)
    places = list_places([f, g] + comps)
    d = _rational_degree_bound([f, g] + comps)
    if precision is None:
        precision = (d + 2) * field.p ** (m - 1) + 8
    out = []
    for x in places:
        fh = expand_at_place(f, x, precision)
        gh = expand_at_place(g, x, precision)
        kx = fh.dom
        ch = [expand_at_place(c, x, precision) if c else Laurent2.zero(kx)
              for c in comps]
        e = symbol(fh, gh)
        w = witt_pair_local(e, WittVec(laurent_domain(kx), ch), m)
        out.append((x, w))
    return out


def curve_witt_reciprocity(f, g, h, m, precision=None):
    """Sum of traced local Witt pairings over all places; zero by reciprocity."""
    terms = curve_witt_terms(f, g, h, m, precision)
    fp = terms[0][1].ring
    total = witt_zero(fp, m)
    for _, w in terms:
        total = witt_add(total, w)
    return total


def tame_pair(e, h):
    """Multiplicative extension of the tame symbol to a K2 element."""
    field = h.dom
    acc = field.one
    for f, g, exp in e.factors:
        v = tame_symbol_det(f, g, h).value
        acc = acc * (v ** (exp % (field.q - 1)))
    return acc


def curve_tame_terms(f, g, h, precision=None):
    f = _as_ratfunc(f)
    g = _as_ratfunc(g)
    h = _as_ratfunc(h)
    field = f.field
    if precision is None:
        precision = _rational_degree_bound([f, g, h]) + 6
    out = []
    for x in list_places([f, g, h]):
        fh = expand_at_place(f, x, precision)
        gh = expand_at_place(g, x, precision)
        hh = expand_at_place(h, x, precision)
        local = tame_symbol_det(fh, gh, hh).value
        out.append((x, local, norm_rel(local, field)))
    return out


def curve_tame_reciprocity(f, g, h, precision=None):
    """Product over all places of normed tame symbols; one by reciprocity."""
    terms = curve_tame_terms(f, g, h, precision)
    field = terms[0][2].field
    acc = field.one
    for _, _, normed in terms:
        acc = acc * normed
    return acc


def _wv_json(w):
    return [list(c.coeffs) for c in w.components]


def curve_witt_report(f, g, h, m, precision=None):
    """JSON-ready reciprocity report: per-place values, running sum, verdict."""
    terms = curve_witt_terms(f, g, h, m, precision)
    fp = terms[0][1].ring
    running = witt_zero(fp, m)
    rows = []
    for x, w in terms:
        running = witt_add(running, w)
        rows.append({"place": x.serialize(), "trace": _wv_json(w),
                     "running_sum": _wv_json(running)})
    return {"pairing": "witt", "m": m, "places": rows,
            "sum": _wv_json(running),
            "verdict": all(not c for c in running.components)}


def curve_tame_report(f, g, h, precision=None):
    terms = curve_tame_terms(f, g, h, precision)
    field = terms[0][2].field
    running = field.one
    rows = []
    for x, local, normed in terms:
        running = running * normed
        rows.append({"place": x.serialize(), "local": list(local.coeffs),
                     "norm": list(normed.coeffs),
                     "running_product": list(running.coeffs)})
    return {"pairing": "tame", "places": rows,
            "product": list(running.coeffs),
            "verdict": running == field.one}


# --------------------------------------------------------------------------
# Point mode: admissible curves through the origin
# --------------------------------------------------------------------------

class AdmissibleCurve:
    """A branch through the origin with an algorithmic local equation."""

    KINDS = ("axis_u", "axis_t", "graph_t_of_u", "graph_u_of_t")

    __slots__ = ("field", "kind", "graph_poly")

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
        return (isinstance(other, AdmissibleCurve) and self.kind == other.kind
                and self.graph_poly == other.graph_poly)

    def __hash__(self):
        return hash((self.kind, self.graph_poly))

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
    Unit entries may be given as eps or as (eps, exponent) pairs.
    """

    __slots__ = ("field", "constant", "curve_exps", "units")

    def __init__(self, field, constant=None, curve_exps=None, units=None):
        self.field = field
        self.constant = constant if constant is not None else field.one
        self.curve_exps = dict(curve_exps or {})
        self.units = [up if isinstance(up, tuple) else (up, 1)
                      for up in (units or [])]
        for eps, _ in self.units:
            if eps.terms.get((0, 0)):
                raise ZeroArgument("principal unit must vanish at the origin")

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


def _poly2_transpose(P):
    return Poly2(P.field, {(b, a): c for (a, b), c in P.terms.items()})


def _poly2_from_tpoly(Q, field):
    terms = {}
    for b, c in enumerate(Q):
        if not c:
            continue
        if not c.is_poly():
            raise InvariantViolation("t-coefficient is not polynomial in u")
        poly = c.num * c.den.coeffs[0].inv()
        for a, cc in enumerate(poly.coeffs):
            if cc:
                terms[(a, b)] = cc
    return Poly2(field, terms)


def _try_div_curve(P, y):
    """P divided by the curve equation, or None if not divisible."""
    field = P.field
    if not P:
        return None
    if y.kind == "axis_u":
        if any(b < 1 for (_, b) in P.terms):
            return None
        return Poly2(field, {(a, b - 1): c for (a, b), c in P.terms.items()})
    if y.kind == "axis_t":
        if any(a < 1 for (a, _) in P.terms):
            return None
        return Poly2(field, {(a - 1, b): c for (a, b), c in P.terms.items()})
    if y.kind == "graph_u_of_t":
        flipped = AdmissibleCurve(field, "graph_t_of_u", y.graph_poly)
        Q = _try_div_curve(_poly2_transpose(P), flipped)
        return None if Q is None else _poly2_transpose(Q)
    G = _tpoly(y.equation())
    Q, R = _tpoly_divmod(_tpoly(P), G, field)
    if any(R):
        return None
    return _poly2_from_tpoly(Q, field)


def to_pointfunc(f, curves):
    """Factor a rational function over a declared admissible curve set.

    Splits off every declared curve equation from numerator and denominator;
    the remaining part must be a constant times a principal unit, otherwise
    the input has an undeclared branch through the origin.
    """
    f = _as_ratfunc(f)
    field = f.field
    num, den = f.num, f.den
    exps = {}
    for y in sorted(set(curves), key=AdmissibleCurve.sort_key):
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
    """Map a bivariate polynomial into branch coordinates (u_{x,y}, t_y)."""
    field = P.field
    if y.kind == "axis_u":
        return Laurent2(field, _terms_from(P, lambda a, b: (a, b)), INF, {})
    if y.kind == "axis_t":
        return Laurent2(field, _terms_from(P, lambda a, b: (b, a)), INF, {})
    phi = y.graph_poly
    acc = Laurent2.zero(field)
    if y.kind == "graph_t_of_u":
        # substitute t = phi(u) + T; inner variable stays u
        for (a, b), c in P.terms.items():
            term = Laurent2.monomial(field, c, a, 0)
            for r in range(b + 1):
                binom = field.from_int(math.comb(b, r))
                if not binom:
                    continue
                pw = phi ** (b - r)
                inner = Laurent2(field, {0: {k: cc for k, cc in
                                             enumerate(pw.coeffs) if cc}},
                                 INF, {})
                acc = acc + (term * inner).monomial_mul(binom, 0, r)
        return acc
    # graph_u_of_t: substitute u = phi(t) + U; inner variable is t
    for (a, b), c in P.terms.items():
        term = Laurent2.monomial(field, c, b, 0)
        for r in range(a + 1):
            binom = field.from_int(math.comb(a, r))
            if not binom:
                continue
            pw = phi ** (a - r)
            inner = Laurent2(field, {0: {k: cc for k, cc in
                                         enumerate(pw.coeffs) if cc}},
                             INF, {})
            acc = acc + (term * inner).monomial_mul(binom, 0, r)
    return acc


def _terms_from(P, keyfn):
    rows = {}
    for (a, b), c in P.terms.items():
        i, j = keyfn(a, b)
        rows.setdefault(j, {})[i] = c
    return rows


def expand_point(pf, y, declared, precision=DEFAULT_T_PREC):
    """Local expansion of a factored F_x element at the branch y."""
    field = pf.field
    for z in pf.curves():
        if z not in declared:
            raise UndeclaredCurveFactor(
                f"factor curve {z.serialize()} is not declared admissible")
    if not pf.constant:
        return Laurent2.zero(field)
    acc = Laurent2.monomial(field, pf.constant)
    for z, e in pf.curve_exps.items():
        base = _poly2_to_branch(z.equation(), y)
        if e >= 0:
            acc = acc * base ** e
        else:
            acc = acc * invert(base, precision, precision) ** (-e)
    for eps, e in pf.units:
        unit = Laurent2.one(field) + _poly2_to_branch(eps, y)
        if e >= 0:
            acc = acc * unit ** e
        else:
            acc = acc * invert(unit, precision, precision) ** (-e)
    return acc


def _point_prec(fs, m, p):
    exposure = 2
    for f in fs:
        for e in f.curve_exps.values():
            exposure += max(0, -e)
        for eps, _ in f.units:
            exposure = max(exposure, eps.deg_u(), eps.deg_t())
    return (exposure + 2) * p ** (m - 1) + 8


def point_witt_terms(f, g, h, m, curves, precision=None):
    field = f.field
    if isinstance(h, WittVec):
        comps = list(h.components)
    elif isinstance(h, PointFunc):
        comps = [h]
    else:
        comps = list(h)
    if precision is None:
        precision = _point_prec([f, g] + list(comps), m, field.p)
    declared = set(curves)
    out = []
    for y in sorted(curves, key=AdmissibleCurve.sort_key):
        fh = expand_point(f, y, declared, precision)
        gh = expand_point(g, y, declared, precision)
        ch = [expand_point(c, y, declared, precision) for c in comps]
        while len(ch) < m:
            ch.append(Laurent2.zero(field))
        e = symbol(fh, gh)
        w = witt_pair_local(e, WittVec(laurent_domain(field), ch), m)
        out.append((y, w))
    return out


def point_witt_reciprocity(f, g, h, m, curves, precision=None):
    terms = point_witt_terms(f, g, h, m, curves, precision)
    fp = terms[0][1].ring
    total = witt_zero(fp, m)
    for _, w in terms:
        total = witt_add(total, w)
    return total


def point_tame_terms(f, g, h, curves, precision=None):
    field = f.field
    if precision is None:
        precision = _point_prec([f, g, h], 1, field.p)
    declared = set(curves)
    out = []
    for y in sorted(curves, key=AdmissibleCurve.sort_key):
        fh = expand_point(f, y, declared, precision)
        gh = expand_point(g, y, declared, precision)
        hh = expand_point(h, y, declared, precision)
        out.append((y, tame_symbol_det(fh, gh, hh).value))
    return out


def point_tame_reciprocity(f, g, h, curves, precision=None):
    terms = point_tame_terms(f, g, h, curves, precision)
    field = f.field
    acc = field.one
    for _, v in terms:
        acc = acc * v
    return acc


def point_witt_report(f, g, h, m, curves, precision=None):
    terms = point_witt_terms(f, g, h, m, curves, precision)
    fp = terms[0][1].ring
    running = witt_zero(fp, m)
    rows = []
    for y, w in terms:
        running = witt_add(running, w)
        rows.append({"curve": y.serialize(), "trace": _wv_json(w),
                     "running_sum": _wv_json(running)})
    return {"pairing": "witt", "m": m, "curves": rows,
            "sum": _wv_json(running),
            "verdict": all(not c for c in running.components)}


def point_tame_report(f, g, h, curves, precision=None):
    terms = point_tame_terms(f, g, h, curves, precision)
    field = f.field
    running = field.one
    rows = []
    for y, v in terms:
        running = running * v
        rows.append({"curve": y.serialize(), "local": list(v.coeffs),
                     "running_product": list(running.coeffs)})
    return {"pairing": "tame", "curves": rows,
            "product": list(running.coeffs),
            "verdict": running == field.one}


# --------------------------------------------------------------------------
# Finite-support adelic K2 vectors
# --------------------------------------------------------------------------

class AdeleK2:
    """Finite table of local K2 entries, keyed by place or curve."""

    __slots__ = ("ambient", "entries", "base_field")

    def __init__(self, ambient, entries, base_field=None):
        if ambient not in ("curve", "point"):
            raise ModeMismatch(f"unknown ambient {ambient!r}")
        self.ambient = ambient
        self.entries = dict(entries)
        self.base_field = base_field

    def support(self):
        return set(self.entries)


def adele_pair(e, h, mode, m=1):
    """Global pairing of an adelic K2 vector with a coefficient vector.

    mode "witt": h maps support keys to WittVecs over the local Laurent
    field; returns a length-m Witt vector over F_p.  mode "tame": h maps
    keys to Laurent2 elements; returns the product of normed local symbols
    in the base field.
    """
    if not isinstance(e, AdeleK2) or not isinstance(h, dict):
        raise ModeMismatch("adele_pair needs an AdeleK2 and a support table")
    keys = [k for k in e.entries if k in h]
    if mode == "witt":
        total = None
        for k in keys:
            hk = h[k]
            if not isinstance(hk, WittVec):
                raise ModeMismatch("witt mode needs WittVec coefficients")
            w = witt_pair_local(e.entries[k], hk, m)
            total = w if total is None else witt_add(total, w)
        if total is None:
            if e.base_field is not None:
                return witt_zero(make_field(e.base_field.p, 1), m)
            ref = next(iter(h.values()), None)
            if isinstance(ref, WittVec):
                return witt_zero(make_field(ref.ring.p, 1), m)
            raise ModeMismatch("empty witt pairing with no reference field")
        return total
    if mode == "tame":
        base = None
        acc = None
        for k in keys:
            hk = h[k]
            if not isinstance(hk, Laurent2):
                raise ModeMismatch("tame mode needs Laurent2 coefficients")
            local = tame_pair(e.entries[k], hk)
            if e.base_field is not None and local.field is not e.base_field:
                local = norm_rel(local, e.base_field)
            acc = local if acc is None else acc * local
        if acc is None:
            if e.base_field is not None:
                return e.base_field.one
            if e.entries:
                return next(iter(e.entries.values())).field.one
            raise ModeMismatch("empty tame pairing with no reference field")
        return acc
    raise ModeMismatch(f"unknown mode {mode!r}")


def diagonal_adele(f, g, places=None, precision=None):
    """The image of a rational symbol {f, g} in the curve-mode adeles.

    The support should include every place where the coefficient vector it
    will be paired against is non-integral; pass the full place list of the
    pairing data to make the diagonal pairing exactly the reciprocity sum.
    """
    f = _as_ratfunc(f)
    g = _as_ratfunc(g)
    field = f.field
    if precision is None:
        precision = _rational_degree_bound([f, g]) + 8
    entries = {}
    for x in (places if places is not None else list_places([f, g])):
        fh = expand_at_place(f, x, precision)
        gh = expand_at_place(g, x, precision)
        entries[x] = symbol(fh, gh)
    return AdeleK2("curve", entries, base_field=field)


def diagonal_h(h, places, m, precision=None):
    """Expansion table of a rational Witt vector over the given places."""
    field = places[0].field
    comps = _h_components(h, field, m)
    if precision is None:
        precision = (_rational_degree_bound(comps) + 2) * \
            field.p ** (m - 1) + 8
    out = {}
    for x in places:
        kx, _, _ = place_field(x)
        ch = [expand_at_place(c, x, precision) if c else Laurent2.zero(kx)
              for c in comps]
        out[x] = WittVec(laurent_domain(kx), ch)
    return out


# --------------------------------------------------------------------------
# Canonical Artin-Schreier representatives
# --------------------------------------------------------------------------

def _pth_root_coeff(c):
    """The p-th root in F_q (Frobenius is bijective on a perfect field)."""
    field = c.field
    return c ** (field.q // field.p)


def _p_component_zero_part(r):
    """Split r = g^p + rest along F_q(u) = sum_a u^a F_q(u^p); returns g."""
    field = r.field
    p = field.p
    M = r.num * r.den ** (p - 1)
    m0 = {}
    for k, c in enumerate(M.coeffs):
        if c and k % p == 0:
            m0[k // p] = c
    if not m0:
        return None
    g_num = Poly1(field, [
        _pth_root_coeff(m0.get(k, field.zero))
        for k in range(max(m0) + 1)])
    return RatFunc1(g_num, r.den)


class CanonicalASRep:
    """Finite representative sum_{k<0} f_k t^k with constrained p|k slots."""

    __slots__ = ("field", "terms", "flags")

    def __init__(self, field, terms, flags):
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}
        self.flags = {k: v for k, v in flags.items() if k in self.terms}

    def recompose(self):
        return FyElem(self.field, dict(self.terms))

    def to_json(self):
        return {
            "terms": {str(k): self.terms[k].serialize()
                      for k in sorted(self.terms)},
            "flags": {str(k): self.flags[k] for k in sorted(self.flags)},
        }

    def serialize(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k].serialize()})*t^{k}"
                          for k in sorted(self.terms))

    def __repr__(self):
        return f"CanonicalASRep({self.serialize()})"


def as_reduce(f):
    """Canonical representative of f modulo (Frob - 1) and constants.

    Keeps only negative t-exponents; coefficients at p-divisible exponents
    have their p-th-power component transferred down to exponent k/p until
    every such coefficient lies in the representative set (no p-th-power
    component left).
    """
    if not isinstance(f, FyElem):
        f = ratfunc_to_fy(_as_ratfunc(f))
    field = f.field
    p = field.p
    work = {k: c for k, c in f.terms.items() if k < 0 and c}
    zero = RatFunc1.const(field, field.zero)
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
            flags[k] = "polynomial" if work[k].is_poly() else "rational"
    return CanonicalASRep(field, work, flags)


def as_residual_solves(f, rep, t_prec=None):
    """Check f - recompose(rep) = h^p - h + const within the t-precision.

    The nonpositive part must itself reduce to the empty representative;
    the positive part is matched against the explicit geometric series
    h = (-f+) + (-f+)^p + (-f+)^{p^2} + ... truncated at the precision.
    """
    if not isinstance(f, FyElem):
        f = ratfunc_to_fy(_as_ratfunc(f))
    field = f.field
    p = field.p
    diff = f - rep.recompose()
    neg = FyElem(field, {k: c for k, c in diff.terms.items() if k < 0})
    if as_reduce(neg).terms:
        return False
    pos = FyElem(field, {k: c for k, c in diff.terms.items() if k > 0})
    if not pos:
        return True
    if t_prec is None:
        t_prec = p * (max(pos.terms) + 1) + 1
    h = FyElem.zero(field)
    term = -pos
    while term and min(term.terms) < t_prec:
        h = h + term.truncate_t(t_prec)
        term = term.coeff_pow_p()
    resid = h.coeff_pow_p() - h - pos
    return not resid.truncate_t(t_prec)


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


def point_basis_pair(i, j, a, b, c, k, l, field, precision=None):
    """Two-branch m = 1 pairing of the standard (i, j) basis element.

    The basis element carries a on the u-t branch and b on the t-u branch;
    it is paired against c*u^k*t^l.  Second symbol slots follow the case
    split on p-divisibility of (i, j).
    """
    p = field.p
    case, (slot1, slot2) = _basis_case(i, j, p)
    if precision is None:
        precision = i + j + max(0, -k) + max(0, -l) + 6
    one = Laurent2.one(field)
    val = field.zero
    # branch F_{u,t}: inner u, outer t
    if a:
        f1 = one + Laurent2.monomial(field, a, i, j)
        s1 = Laurent2.monomial(field, field.one, 1, 0) if slot1 == "u" \
            else Laurent2.monomial(field, field.one, 0, 1)
        z1 = Laurent2.monomial(field, c, k, l)
        eta = wedge(dlog(f1, invert(f1, precision, precision)),
                    dlog(s1, invert(s1, precision, precision)))
        val = val + (z1 * eta.a).coeff(-1, -1)
    # branch F_{t,u}: inner t, outer u
    if b:
        f2 = one + Laurent2.monomial(field, b, j, i)
        s2 = Laurent2.monomial(field, field.one, 1, 0) if slot2 == "t" \
            else Laurent2.monomial(field, field.one, 0, 1)
        z2 = Laurent2.monomial(field, c, l, k)
        eta = wedge(dlog(f2, invert(f2, precision, precision)),
                    dlog(s2, invert(s2, precision, precision)))
        val = val + (z2 * eta.a).coeff(-1, -1)
    return val


def duality_kernel_point(i, j, field):
    """Kernel sweep for the finite-level duality pairing at a dagger point.

    Pairs every basis element (a, b) at bidegree (i, j) against every
    c*u^{-i}*t^{-j} and compares the computed kernel with the subspace
    predicted by the closed forms.
    """
    if i < 1 or j < 1:
        raise BadIndexPair("indices must be positive")
    p = field.p
    case, slots = _basis_case(i, j, p)
    ii = field.from_int(i)
    jj = field.from_int(j)
    kernel = []
    predicted = []
    nonzero = [c for c in field.elements() if c]
    for a in field.elements():
        for b in field.elements():
            vals = [point_basis_pair(i, j, a, b, c, -i, -j, field)
                    for c in nonzero]
            if not any(vals):
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

def _expand_ratfunc1_local(r, place, prec):
    num = _expand_poly1(r.num, place, prec)
    den = _expand_poly1(r.den, place, prec)
    return num * invert(den, prec, prec)


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
    diagonal elements pair to zero against the whole test space.
    """
    if k < 1:
        raise ZeroArgument("level must be positive")
    p = field.p
    D = pole_bound
    places = [CurvePlace(field, "finite", Poly1(field, (lam, field.one)))
              for lam in field.elements()]
    places.sort(key=CurvePlace.sort_key)
    places.append(infinity_place(field))
    prec = 2 * D + 8
    if k % p:
        fexps = list(range(0, D + 1))
    else:
        fexps = [b for b in range(1, D + 1) if b % p]
        if not fexps:
            fexps = []
    fhats = {x: [_expand_ratfunc1_local(
        RatFunc1.from_poly(Poly1(field, (field.zero,) * b + (field.one,))),
        x, prec) for b in fexps] for x in places}
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
    for (a_glob, b_glob) in (diag_samples or []):
        row = _diagonal_row(a_glob, b_glob, k, places, fhats, prec, field)
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


def _diagonal_row(a_glob, b_glob, k, places, fhats, prec, field):
    """Pairing row of the diagonal element built from {1 + a t^k, b}."""
    p = field.p
    row = None
    for x in places:
        ah = _expand_ratfunc1_local(a_glob, x, prec)
        bh = _expand_ratfunc1_local(b_glob, x, prec)
        w = ah * d_du(bh).monomial_mul(field.one, 1, 0) * \
            invert(bh, prec, prec)
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
