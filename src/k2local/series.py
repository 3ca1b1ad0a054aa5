"""Precision-tracked Laurent series in two variables, elements of
k((u))((t)), and exact polynomials in u and t on the same codes.

A Laurent2 value stores a finite coefficient table together with a guaranteed
region of knowledge: terms with t-exponent >= t_prec are unknown, and within
each row j, terms with u-exponent >= u_prec(j) are unknown.  Rows without a
finite u_prec entry are completely known, and t_prec=None means every row is
known.  Every operation computes the guaranteed region of its output; callers
that need a coefficient outside it fail loudly.  The coefficient domain is
F_q (Laurent2 proper) or the Galois ring W_s(F_q) of the Witt pairing.

Coefficients are held as ff's integer codes {j: {i: code}}, every code
nonzero and reduced: the coordinate itself when n = 1, else the n coordinates
Kronecker-packed into one int at the domain's one digit width w.  w leaves
room above the largest digit of a product of two codes for 2^HEADROOM - 1
summands, so products, dot products and invert's running sums add codes as
they are and reduce each result once, mod char (p or p^s) and mod the
modulus; an operation that could sum more raises StepBudgetExceeded before
it starts, and no digit ever carries.  FqElem/GRElem values exist only at
the edges: the constructor, from_dict, monomial and monomial_mul take them,
and terms, coeff, leading and mul_coeff return them.  Inverses over n > 1
and Teichmüller lifts go through per-domain code tables filled on demand.

The product makes one sorted pass over each operand's rows, which gives for
each row its u lower bound, its u bound and its (i, code) pairs.  From those
it computes the output region first (the t-window and the per-row
u-bounds), then multiplies only the term pairs that land inside it, walking
each row in sorted u-order and stopping at the row's bound.  mul_coeff reads
one coefficient of a product by the same rule, as a dot product.  An exact
zero operand gives the exact zero, and an exact monomial c·u^i·t^j operand
(one term, no row bounds, t_prec = ∞) makes the product the other operand's
monomial multiple, as the region rule gives.  Sums, negation, monomial
multiples and lifts adopt their result without the validating constructor,
filtering only rows whose bound tightened; code rows and region dicts are
shared between values, since no operation changes one in place.

Poly2, the exact polynomial of globalfield's RatFunc, holds the same codes
with no region.  Its sum, negation and product are those of the exact
Laurent2 on the same codes, laurent(), whose region rule gives the exact
result.  The F_q[u][t] algebra works on dense code rows in u through ff's
row kernels, the u-content is poly1_gcd of the rows as Poly1s, and a
monomial divisor is a shift.

invert writes f = c·u^i0·t^j0·(1 + eps), u^i0·t^j0 its lead, and builds
-eps in one pass (scaled by -c^-1, shifted, the leading 1 dropped); an
exact monomial has an exact inverse.  If f is exact with no term below
u^i0, eps lies in F[[u, t]]: every row of every power of eps starts at u^0
or above, so the geometric loop below would mark every product known in
the whole working box (T, U), and its tail closure would add nothing.  The
region is then the box: t below T, and u below U on the rows from eps's
least row on.  The division recurrence h[j][i] = [i = j = 0] -
Σ eps[dj][di]·h[j - dj][i - di] fills 1/(1 + eps) there on codes, in (j, i)
order and only at the cells reachable from h[0][0].  Any other f sums
1 - eps + eps^2 - ... in the box, imposed on every infinite direction of
-eps; each later power is one product and a truncate.  The sum is kept as
unreduced codes and its region as running minima of t_prec and the
per-row u_prec; it is scaled by c^-1, reduced and shifted back once,
through the validating constructor.  Regions only shrink along the loop, so
that one final filter drops exactly the terms a filter after every
addition would have dropped.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

from .errors import (FieldMismatch, PrecisionTooLow, StepBudgetExceeded,
                     ZeroDivisor, ZeroElement)
from .ff import FieldSpec, GaloisRing, Poly1, galois_ring, poly1_gcd, power
from .ff import (_decode, _dense_row, _digits, _encode, _inverse, _mul_consts,
                 _pack, _reduce, _row_divmod, _row_dot)

INF = math.inf

#: the command line's default box (--prec-t, --prec-u); the library has none
DEFAULT_T_PREC = 12
DEFAULT_U_PREC = 12


class Laurent2:
    """Two-variable Laurent series over a coefficient domain.

    codes: {j: {i: code}} with all codes nonzero and inside the guaranteed
    region; t_prec: int or INF; u_prec: {j: int} for the rows with only
    finitely many known u-digits.  terms gives the same table with the
    codes wrapped as elements.
    """

    __slots__ = ("dom", "codes", "t_prec", "u_prec")

    def __init__(self, dom, terms, t_prec=None, u_prec=None):
        _, n, _, w, _, _ = _mul_consts(dom)
        self._clip(dom, {j: {i: c.coeffs[0] if n == 1 else _pack(c.coeffs, w)
                             for i, c in row.items()}
                         for j, row in terms.items()}, t_prec, u_prec)

    @classmethod
    def _of_codes(cls, dom, codes, t_prec=None, u_prec=None):
        """The validating constructor on codes: zero codes and codes
        outside the region are dropped."""
        self = object.__new__(cls)
        self._clip(dom, codes, t_prec, u_prec)
        return self

    def _clip(self, dom, codes, t_prec, u_prec):
        tp = INF if t_prec is None else t_prec
        up = dict(u_prec) if u_prec else {}
        up = {j: b for j, b in up.items() if j < tp and b != INF}
        clean = {}
        for j, row in codes.items():
            if j >= tp:
                continue
            bound = up.get(j, INF)
            r = {i: c for i, c in row.items() if c and i < bound}
            if r:
                clean[j] = r
        self.dom = dom
        self.codes = clean
        self.t_prec = tp
        self.u_prec = up

    @classmethod
    def _adopt(cls, dom, codes, tp, up):
        """Adopt data that already meets the invariants, without copying."""
        self = object.__new__(cls)
        self.dom = dom
        self.codes = codes
        self.t_prec = tp
        self.u_prec = up
        return self

    @property
    def terms(self):
        """The coefficient table {j: {i: element}}, wrapped on each read."""
        dom = self.dom
        return {j: {i: _decode(dom, v) for i, v in row.items()}
                for j, row in self.codes.items()}

    # -- region helpers ----------------------------------------------------

    def uprec(self, j):
        return self.u_prec.get(j, INF)

    def tlb(self):
        """Lower bound for the t-valuation of any nonzero content."""
        cands = list(self.codes) + list(self.u_prec)
        if cands:
            return min(cands)
        return self.t_prec  # possibly INF: certainly zero

    def is_zero(self):
        """Certainly zero everywhere (exactly the zero element)."""
        return not self.codes and not self.u_prec and self.t_prec == INF

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def zero(dom):
        return Laurent2._adopt(dom, {}, INF, {})

    @staticmethod
    def monomial(dom, c, i=0, j=0, t_prec=None, u_prec=None):
        return Laurent2(dom, {j: {i: c}} if c else {}, t_prec, u_prec)

    @staticmethod
    def one(dom):
        return Laurent2._adopt(dom, {0: {0: 1}}, INF, {})

    @staticmethod
    def quotient_monomial(dom, a, b, i, j):
        """The exact monomial (a/b)·u^i·t^j, a and b codes of field units."""
        char, n, _, w, fold, _ = _mul_consts(dom)
        v = _reduce(a * _inverse(dom, b), w, n, char, fold)
        return Laurent2._adopt(dom, {j: {i: v}}, INF, {})

    @staticmethod
    def from_dict(dom, d, t_prec=None, u_prec=None):
        """d maps (j, i) -> coefficient (or int, coerced via from_int)."""
        rows = {}
        for (j, i), c in d.items():
            if isinstance(c, int):
                c = dom.from_int(c)
            if c:
                rows.setdefault(j, {})[i] = c
        return Laurent2(dom, rows, t_prec, u_prec)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.dom is not other.dom:
            raise FieldMismatch("operands over different coefficient domains")

    def __add__(self, other):
        self._check(other)
        tp = min(self.t_prec, other.t_prec)
        up = {}
        for j in self.u_prec.keys() | other.u_prec.keys():
            b = min(self.uprec(j), other.uprec(j))
            if j < tp and b != INF:
                up[j] = b
        char, n, _, w, fold, _ = _mul_consts(self.dom)
        # each operand's terms lie in its own region: only rows whose bound
        # tightened are filtered, as in truncate; a row of one operand alone
        # is reused as it is
        rows = {}
        for src, sup in ((self.codes, self.u_prec),
                         (other.codes, other.u_prec)):
            for j, row in src.items():
                if j >= tp:
                    continue
                b = up.get(j, INF)
                dst = rows.get(j)
                if dst is None:
                    if b < sup.get(j, INF):
                        row = {i: c for i, c in row.items() if i < b}
                    if row:
                        rows[j] = row
                    continue
                dst = dict(dst)
                for i, c in row.items():
                    if i >= b:
                        continue
                    if i in dst:
                        s = dst[i] + c
                        s = s % char if n == 1 else _reduce(s, w, n, char,
                                                            fold)
                        if s:
                            dst[i] = s
                        else:
                            del dst[i]
                    else:
                        dst[i] = c
                if dst:
                    rows[j] = dst
                else:
                    del rows[j]
        return Laurent2._adopt(self.dom, rows, tp, up)

    def __neg__(self):
        char, n, _, w, fold, _ = _mul_consts(self.dom)
        if char == 2:
            return self  # -1 = 1 in characteristic 2
        rows = {j: {i: char - c if n == 1 else
                    _reduce((char - 1) * c, w, n, char, fold)
                    for i, c in row.items()}
                for j, row in self.codes.items()}
        return Laurent2._adopt(self.dom, rows, self.t_prec, self.u_prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        dom = self.dom
        if self.is_zero() or other.is_zero():
            # the region rule gives t-window ∞ and no row bounds
            return Laurent2._adopt(dom, {}, INF, {})
        fcodes, gcodes = self.codes, other.codes
        # an exact monomial c·u^i·t^j operand: the product is a shift
        for mono, rest in ((other, self), (self, other)):
            codes = mono.codes
            if len(codes) == 1 and not mono.u_prec and mono.t_prec == INF:
                (j, row), = codes.items()
                if len(row) == 1:
                    (i, c), = row.items()
                    return rest._scale(c, i, j)
        char, n, _, w, fold, cap = _mul_consts(dom)
        if n > 1:
            _check_width(fcodes, gcodes, cap)
        frows, grows = _operand_rows(self), _operand_rows(other)
        # the region first: the product's t-window and per-row u-bounds
        ftlb = frows[0][0] if frows else self.t_prec
        gtlb = grows[0][0] if grows else other.t_prec
        tp = min(self.t_prec + gtlb, other.t_prec + ftlb)
        if math.isnan(tp):  # inf + -inf cannot occur: tlb >= min exponent
            tp = INF  # pragma: no cover
        up = {}
        if self.u_prec or other.u_prec:
            for j1, lb1, up1, _ in frows:
                for j2, lb2, up2, _ in grows:
                    j = j1 + j2
                    if j >= tp:
                        break
                    b = up1 + lb2
                    c = up2 + lb1
                    if c < b:
                        b = c
                    if b < up.get(j, INF):
                        up[j] = b
        if not fcodes or not gcodes:
            return Laurent2._adopt(dom, {}, tp, up)
        # accumulate in-region pairs only: rows below tp, u below up[j]
        acc = {}
        for j1, _, _, r1 in frows:
            if not r1:
                continue
            for j2, _, _, r2 in grows:
                j = j1 + j2
                if j >= tp:
                    break
                if not r2:
                    continue
                dst = acc.get(j)
                if dst is None:
                    dst = acc[j] = {}
                bound = up.get(j)
                if bound is None:
                    for i1, a in r1:
                        for i2, b in r2:
                            i = i1 + i2
                            if i in dst:
                                dst[i] += a * b
                            else:
                                dst[i] = a * b
                else:
                    lo2 = r2[0][0]
                    for i1, a in r1:
                        lim = bound - i1
                        if lo2 >= lim:
                            break
                        for i2, b in r2:
                            if i2 >= lim:
                                break
                            i = i1 + i2
                            if i in dst:
                                dst[i] += a * b
                            else:
                                dst[i] = a * b
        # reduce each output coefficient once and keep the nonzero ones
        rows = {}
        for j, dst in acc.items():
            row = {}
            if n == 1:
                for i, v in dst.items():
                    v %= char
                    if v:
                        row[i] = v
            else:
                for i, v in dst.items():
                    v = _reduce(v, w, n, char, fold)
                    if v:
                        row[i] = v
            if row:
                rows[j] = row
        return Laurent2._adopt(dom, rows, tp, up)

    def monomial_mul(self, c, i_shift=0, j_shift=0):
        """Multiply by the exact monomial c·u^{i_shift}·t^{j_shift}."""
        if not c:
            return Laurent2.zero(self.dom)
        return self._scale(_encode(self.dom, c), i_shift, j_shift)

    def _scale(self, c, i_shift=0, j_shift=0):
        """monomial_mul for a nonzero code c."""
        dom = self.dom
        if c == 1:
            if not i_shift and not j_shift:
                return self  # values are never changed in place
            rows = {j + j_shift: {i + i_shift: v for i, v in row.items()}
                    for j, row in self.codes.items()}
        else:
            char, n, _, w, fold, _ = _mul_consts(dom)
            # in a Galois ring c·v is 0 when c is not a unit and p | v
            rows = {}
            for j, row in self.codes.items():
                dst = {}
                for i, v in row.items():
                    v = c * v % char if n == 1 else _reduce(c * v, w, n,
                                                            char, fold)
                    if v:
                        dst[i + i_shift] = v
                if dst:
                    rows[j + j_shift] = dst
        up = {j + j_shift: b + i_shift for j, b in self.u_prec.items()}
        return Laurent2._adopt(dom, rows, self.t_prec + j_shift, up)

    def int_scale(self, k):
        k %= self.dom.char  # the code of k, in the first digit
        if not k:
            return Laurent2.zero(self.dom)
        return self._scale(k)

    def _derivative(self, di, dj):
        """d/du (di, dj = 1, 0) or d/dt (0, 1): each code times its u- or
        t-exponent, shifted down by one, adopted in the shifted region.  In
        a Galois ring k·v can be zero for v nonzero, when p | k."""
        char, n, _, w, fold, _ = _mul_consts(self.dom)
        rows = {}
        for j, row in self.codes.items():
            dst = {}
            for i, v in row.items():
                v = _reduce((i * di + j * dj) % char * v, w, n, char, fold)
                if v:
                    dst[i - di] = v
            if dst:
                rows[j - dj] = dst
        up = {j - dj: b - di for j, b in self.u_prec.items()}
        return Laurent2._adopt(self.dom, rows, self.t_prec - dj, up)

    def truncate(self, t_prec=None, u_prec=None):
        """Intersect the region with the given uniform bounds."""
        tp = self.t_prec
        if t_prec is not None and t_prec < tp:
            tp = t_prec
        up = dict(self.u_prec)
        if u_prec is not None:
            lo = self.tlb()
            if lo != INF and tp != INF:
                for j in range(int(lo), int(tp)):
                    if u_prec < up.get(j, INF):
                        up[j] = u_prec
        up = {j: b for j, b in up.items() if j < tp}
        # the terms already lie in the old region: only rows whose bound
        # tightened are filtered, every other row is reused as it is
        old = self.u_prec
        codes = {}
        for j, row in self.codes.items():
            if j >= tp:
                continue
            b = up.get(j, INF)
            if b < old.get(j, INF):
                row = {i: c for i, c in row.items() if i < b}
                if not row:
                    continue
            codes[j] = row
        return Laurent2._adopt(self.dom, codes, tp, up)

    def __pow__(self, e):
        """self^e for e >= 0: a negative power needs invert's box."""
        return power(self, e, Laurent2.one(self.dom))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Laurent2) and self.dom is other.dom
                and self.codes == other.codes and self.t_prec == other.t_prec
                and self.u_prec == other.u_prec)

    def __hash__(self):
        return hash((id(self.dom), self.t_prec,
                     tuple(sorted((j, tuple(sorted(r.items())))
                                  for j, r in self.codes.items())),
                     tuple(sorted(self.u_prec.items()))))

    def same_known_terms(self, other):
        """Equal coefficient tables on the intersection of known regions."""
        tp = min(self.t_prec, other.t_prec)
        for j in set(self.codes) | set(other.codes):
            if j >= tp:
                continue
            bound = min(self.uprec(j), other.uprec(j))
            r1 = self.codes.get(j, {})
            r2 = other.codes.get(j, {})
            for i in set(r1) | set(r2):
                if i < bound and r1.get(i, 0) != r2.get(i, 0):
                    return False
        return True

    # -- coefficient access ----------------------------------------------------

    def coeff(self, i, j):
        """Coefficient of u^i t^j; raises if outside the known region."""
        if j >= self.t_prec:
            raise _shortfall("t", j, self.t_prec)
        if i >= self.uprec(j):
            raise _shortfall("u", i, self.uprec(j), j)
        v = self.codes.get(j, {}).get(i)
        return self.dom.zero if v is None else _decode(self.dom, v)

    def mul_coeff(self, other, i, j):
        """Coefficient of u^i t^j in self·other, without forming the product.

        It is known exactly where self * other would mark it known: j below
        the product's t-window and i below the u-bound that the region rule
        of __mul__ gives row j, the least min(up1 + lb2, up2 + lb1) over the
        rows j1 + j2 = j that may hold content (lb a row's u lower bound, up
        its u bound); otherwise the shortfall of the operand that fell short.
        The value is the dot product Σ self[j1][i1]·other[j − j1][i − i1]
        over the codes, reduced once as in the product kernel.
        """
        self._check(other)
        fcodes, gcodes = self.codes, other.codes
        for x, y in ((self, other), (other, self)):
            if j >= x.t_prec + y.tlb():
                raise _shortfall("t", j - y.tlb(), x.t_prec)
        fups, gups = self.u_prec, other.u_prec
        if fups or gups:
            bound = INF
            for j1 in fcodes.keys() | fups.keys():
                j2 = j - j1
                row2 = gcodes.get(j2)
                if row2 is None and j2 not in gups:
                    continue
                row1 = fcodes.get(j1)
                lb1 = min(row1) if row1 else fups[j1]
                lb2 = min(row2) if row2 else gups[j2]
                for row, up, lb in ((j1, fups.get(j1, INF), lb2),
                                    (j2, gups.get(j2, INF), lb1)):
                    if up + lb < bound:
                        bound, short = up + lb, (i - lb, up, row)
            if i >= bound:
                raise _shortfall("u", *short)
        dom = self.dom
        char, n, _, w, fold, cap = _mul_consts(dom)
        if n > 1:
            _check_width(fcodes, gcodes, cap)
        v = 0
        for j1, row1 in fcodes.items():
            row2 = gcodes.get(j - j1)
            if row2 is None:
                continue
            if len(row2) < len(row1):
                row1, row2 = row2, row1
            for i1, a in row1.items():
                b = row2.get(i - i1)
                if b is not None:
                    v += a * b
        v = _reduce(v, w, n, char, fold)
        return _decode(dom, v) if v else dom.zero

    def _lead(self):
        """leading() with the coefficient's code, or the shortfall below."""
        if self.is_zero():
            raise ZeroDivisor("zero has no leading term")
        j0 = min(self.codes, default=self.t_prec)
        j = min((j for j in self.u_prec if j < j0), default=None)
        if j is not None:
            raise _shortfall("u", self.u_prec[j], self.u_prec[j], j)
        if not self.codes:
            raise _shortfall("t", j0, j0)
        row = self.codes[j0]
        i0 = min(row)
        return j0, i0, row[i0]

    def leading(self):
        """(j, i, c) of the (t,u)-lexicographically least known term.

        Requires certainty: no possibly-hidden content lex-below it.
        """
        j0, i0, v = self._lead()
        return j0, i0, _decode(self.dom, v)

    def serialize(self):
        _, n, _, w, _, _ = _mul_consts(self.dom)
        bits = []
        for j in sorted(self.codes):
            row = self.codes[j]
            for i in sorted(row):
                term = "[" + ",".join(map(str, _digits(row[i], w, n))) + "]"
                if i:
                    term += f"*u^{i}"
                if j:
                    term += f"*t^{j}"
                bits.append(term)
        s = " + ".join(bits) if bits else "0"
        if self.t_prec != INF:
            s += f" + O_t({int(self.t_prec)})"
        if self.u_prec:
            s += f" + O_u({int(min(self.u_prec.values()))})"
        return s

    def __repr__(self):
        return f"Laurent2({self.serialize()})"


def _shortfall(side, need, edge, row=None):
    """PrecisionTooLow for side^need read at or past edge (in t-row row)."""
    return PrecisionTooLow(f"{side}^{need} outside precision, known below "
                           f"{side}^{edge}", side, need, edge, row)


def _check_width(fcodes, gcodes, cap):
    """Refuse a product whose output coefficients may sum more than cap
    products of codes: their digits could carry at the domain's width."""
    if min(sum(map(len, fcodes.values())),
           sum(map(len, gcodes.values()))) > cap:
        raise StepBudgetExceeded(f"both operands have over {cap} terms")


def _operand_rows(f):
    """One sorted pass over a product operand's rows that may hold content.

    Returns [(j, u lower bound, u bound, code row)] sorted by j.  The code
    row is [(i, code)] sorted by i, so its first u-exponent is the lower
    bound; a row with a bound and no terms has an empty code row and that
    bound as its lower bound.
    """
    codes, ups = f.codes, f.u_prec
    rows = []
    for j in sorted(codes.keys() | ups.keys()) if ups else sorted(codes):
        row = codes.get(j)
        ub = ups.get(j, INF)
        if not row:
            rows.append((j, ub, ub, ()))
            continue
        items = sorted(row.items())
        rows.append((j, items[0][0], ub, items))
    return rows


# --------------------------------------------------------------------------
# exact polynomials on the same codes
# --------------------------------------------------------------------------

class Poly2:
    """Polynomial in u and t over F_q: codes {t_exp: {u_exp: code}} in
    Laurent2.codes' layout, every code nonzero, and no region.

    Poly2(field, terms) takes {(u_exp, t_exp): element}, encoded by
    Laurent2's constructor; terms, rows(), t_coeffs(), row_polys() and
    serialize() decode on each read.  laurent() is the exact Laurent2 on the
    same codes, and every ring operation adopts the codes of its result.
    """

    __slots__ = ("field", "codes")

    def __init__(self, field, terms):
        self.field = field
        self.codes = Laurent2(field, _t_rows(terms)).codes

    @classmethod
    def _adopt(cls, field, codes):
        self = object.__new__(cls)
        self.field = field
        self.codes = codes
        return self

    @staticmethod
    def const(field, c):
        return Poly2.monomial(field, c, 0, 0)

    @staticmethod
    def one(field):
        return Poly2._adopt(field, {0: {0: 1}})

    @staticmethod
    def monomial(field, c, a, b):
        v = _encode(field, c)
        return Poly2._adopt(field, {b: {a: v}} if v else {})

    @staticmethod
    def from_poly1(p, var="u"):
        row = {k: v for k, v in enumerate(p.codes) if v}
        if var == "u":
            return Poly2._adopt(p.field, {0: row} if row else {})
        return Poly2._adopt(p.field, {k: {0: v} for k, v in row.items()})

    def laurent(self):
        """P as an exact Laurent2, sharing the codes."""
        return Laurent2._adopt(self.field, self.codes, INF, {})

    @property
    def terms(self):
        return {(a, b): c for b, row in self.rows().items()
                for a, c in row.items()}

    def rows(self):
        """The sparse t-rows {t_exp: {u_exp: element}}."""
        return self.laurent().terms

    def t_coeffs(self):
        """The polynomial as {t_exp: Poly1-in-u}."""
        return {b: Poly1._adopt(self.field, _dense_row(row))
                for b, row in self.codes.items()}

    def least_row(self):
        """(j, w): the least t-exponent j of a nonzero P, its row w a Poly1."""
        j = min(self.codes)
        return j, Poly1._adopt(self.field, _dense_row(self.codes[j]))

    def row_polys(self):
        """Each t-row as (e, w), the row being u^e·w with w a Poly1 and
        w(0) != 0, so that a large power of u is never made dense."""
        return [(e := min(row), Poly1._adopt(self.field, [
            row.get(a, 0) for a in range(e, max(row) + 1)]))
            for row in self.codes.values()]

    def serialize(self):
        return self.laurent().serialize()

    def __repr__(self):
        return f"Poly2({self.serialize()})"

    def __bool__(self):
        return bool(self.codes)

    def is_one(self):
        return self.codes == {0: {0: 1}}

    def __eq__(self, other):
        return (isinstance(other, Poly2) and self.field is other.field
                and self.codes == other.codes)

    def __hash__(self):
        return hash(self.laurent())

    def deg_u(self):
        return max((max(row) for row in self.codes.values()), default=-1)

    def deg_t(self):
        return max(self.codes, default=-1)

    def t_rows(self):
        """{t_exp: the t-coefficient as a Poly2 in u}."""
        return {b: Poly2._adopt(self.field, {0: row})
                for b, row in self.codes.items()}

    # -- the charts of globalfield: relabellings and a Taylor shift ----------

    def transpose(self):
        """P with u and t swapped."""
        codes = {}
        for b, row in self.codes.items():
            for a, v in row.items():
                codes.setdefault(a, {})[b] = v
        return Poly2._adopt(self.field, codes)

    def reflect_u(self):
        """P(1/u), Laurent in u: every u-exponent negated."""
        return Poly2._adopt(self.field, {b: {-a: v for a, v in row.items()}
                                         for b, row in self.codes.items()})

    def shift_u(self, root):
        """P(u + root): a Taylor shift of each t-row's dense codes."""
        field = self.field
        r = _encode(field, root)
        if not r:
            return self
        char, n, _, w, fold, _ = _mul_consts(field)
        codes = {}
        for b, row in self.codes.items():
            c = _dense_row(row)
            for i in range(len(c) - 1):
                for k in range(len(c) - 2, i - 1, -1):
                    c[k] = _reduce(c[k] + r * c[k + 1], w, n, char, fold)
            codes[b] = {a: v for a, v in enumerate(c) if v}
        return Poly2._adopt(field, codes)

    # -- arithmetic: Laurent2's on the same codes ----------------------------

    def __add__(self, other):
        return Poly2._adopt(self.field,
                            (self.laurent() + other.laurent()).codes)

    def __neg__(self):
        return Poly2._adopt(self.field, (-self.laurent()).codes)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product by a Poly2, or by an element of F_q."""
        field = self.field
        if isinstance(other, Poly2):
            return Poly2._adopt(field,
                                (self.laurent() * other.laurent()).codes)
        c = _encode(field, other)
        return Poly2._adopt(field, self.laurent()._scale(c).codes if c else {})

    def __pow__(self, e):
        return power(self, e, Poly2.one(self.field))

    def lead_inverse(self):
        """The constant inverse of the lead coefficient of a nonzero P, by
        the (t, u) order."""
        row = self.codes[max(self.codes)]
        return Poly2._adopt(self.field,
                            {0: {0: _inverse(self.field, row[max(row)])}})

    # -- F_q[u][t] on dense code rows in u ----------------------------------

    def tdiv(self, G):
        """self / G in F_q[u][t], or None if G does not divide self.

        A monomial c·u^i·t^j divides when every term lies at or above
        (i, j): the quotient is a shift times c^-1.  Otherwise each step of
        the long division in t divides the leading row exactly by G's
        leading t-coefficient; the quotient is unique, so an inexact step or
        a nonzero remainder means G does not divide."""
        field = self.field
        if len(G.codes) == 1:
            (j, row), = G.codes.items()
            if len(row) == 1:
                (i, c), = row.items()
                if any(b < j or min(r) < i for b, r in self.codes.items()):
                    return None
                return Poly2._adopt(field, self.laurent()._scale(
                    _inverse(field, c), -i, -j).codes)
        rem, div = _dense_rows(self.codes), _dense_rows(G.codes)
        d = len(div) - 1
        quo = [[]] * max(0, len(rem) - d)
        neg = [field.char - 1]  # the code of -1
        for k in range(len(rem) - 1, d - 1, -1):
            if not rem[k]:
                continue
            c, r = _row_divmod(field, rem[k], div[-1])
            if r:
                return None
            quo[k - d] = c
            c = _row_dot(field, [(neg, c)])
            for j in range(d):
                rem[k - d + j] = _row_dot(field, [(c, div[j])], rem[k - d + j])
        if any(rem[:d]):
            return None
        return Poly2._adopt(field, _sparse_rows(quo))

    def prem(self, B):
        """The pseudo-remainder of self by B as polynomials in t over
        F_q[u]."""
        field = self.field
        rem, div = _dense_rows(self.codes), _dense_rows(B.codes)
        d = len(div) - 1
        neg = [field.char - 1]
        for k in range(len(rem) - 1, d - 1, -1):
            c = _row_dot(field, [(neg, rem.pop())])
            rem = [_row_dot(field, [(r, div[-1])] + (
                [(c, div[i - k + d])] if c and i >= k - d else []))
                for i, r in enumerate(rem)]
        return Poly2._adopt(field, _sparse_rows(rem))

    def content_u(self, *others):
        """The u-content of self and others together: the monic gcd in
        F_q[u] of all their t-coefficients, as a Poly2 in u."""
        field = self.field
        g = Poly1._adopt(field, ())
        for P in (self,) + others:
            for row in P.codes.values():
                g = poly1_gcd(Poly1._adopt(field, _dense_row(row)), g)
                if not g.deg:
                    return Poly2.one(field)
        return Poly2.from_poly1(g)


def _t_rows(terms):
    """{(u_exp, t_exp): c} grouped into t-rows {t_exp: {u_exp: c}}."""
    rows = {}
    for (a, b), c in terms.items():
        rows.setdefault(b, {})[a] = c
    return rows


def _dense_rows(codes):
    """Codes as a dense list over t of dense code rows in u ([] for 0)."""
    return [_dense_row(codes[b]) if b in codes else []
            for b in range(max(codes, default=-1) + 1)]


def _sparse_rows(rows):
    return {b: {a: v for a, v in enumerate(r) if v}
            for b, r in enumerate(rows) if any(r)}


# --------------------------------------------------------------------------
# valuations, inversion, unit decomposition
# --------------------------------------------------------------------------

def outer_valuation(f):
    """v_t(f): least t-exponent with a nonzero coefficient row."""
    if f.is_zero():
        raise ZeroElement("outer_valuation of zero")
    return f._lead()[0]


def bar_valuation(f):
    """u-valuation of the leading-in-t coefficient series."""
    j0 = outer_valuation(f)
    return min(f.codes[j0])


def invert(f, t_prec, u_prec):
    """Multiplicative inverse at the propagated precision, in the caller's
    working box.

    t_prec and u_prec bound the box in every direction where f's precision
    is infinite, in the exponents of f's principal part; a bound <= 0 is
    refused.  An exact monomial needs no box: its inverse is exact.
    """
    j0, i0, c = f._lead()
    dom = f.dom
    cinv = _inverse(dom, c)
    fcodes = f.codes
    if f.t_prec == INF and not f.u_prec and len(fcodes) == 1 \
            and len(fcodes[j0]) == 1:
        return Laurent2._adopt(dom, {-j0: {-i0: cinv}}, INF, {})
    if min(t_prec, u_prec) <= 0:
        raise PrecisionTooLow(f"working box {t_prec, u_prec} is not positive")
    char, n, _, w, fold, cap = _mul_consts(dom)
    # f = c·u^i0·t^j0·(1 + eps); -eps in one pass: f's other terms scaled by
    # -c^-1 and shifted, in f's shifted region with each infinite direction
    # capped to the working box (t at t_prec, every row from the first that
    # may hold content at u_prec), filtered by the validating constructor
    rows = {}
    ncinv = _reduce((char - 1) * cinv, w, n, char, fold)
    for j, row in fcodes.items():
        dst = {i - i0: _reduce(ncinv * v, w, n, char, fold)
               for i, v in row.items()}
        if j == j0:
            del dst[0]
        if dst:
            rows[j - j0] = dst
    if f.t_prec == INF and not f.u_prec \
            and all(min(row) >= i0 for row in fcodes.values()):
        # eps in F[[u, t]]: the box is the region (see the module docstring)
        up = {j: u_prec for j in range(min(rows), t_prec)}
        h = _unit_inverse(dom, rows, t_prec, u_prec)
        return Laurent2._adopt(dom, h, t_prec, up)._scale(cinv, -i0, -j0)
    t_box = t_prec if f.t_prec == INF else int(f.t_prec) - j0
    up = {j - j0: b - i0 for j, b in f.u_prec.items()}
    for j in range(min(rows.keys() | up.keys(), default=t_box), t_box):
        if j not in up:
            up[j] = u_prec
    neg = Laurent2._of_codes(dom, rows, t_box, up)
    # fixed working box: powers of eps gain precision as they gain valuation,
    # so without a hard cutoff the geometric loop would never terminate
    u_box = max([u_prec] + [int(b) for b in neg.u_prec.values()])
    # the sum of the powers of -eps as unreduced codes, its region as
    # running minima; filtered once at the end (see the module docstring)
    sums = {0: {0: 1}}
    tp = t_box
    up = dict(neg.u_prec)
    # the first power is -eps itself
    pw = neg.truncate(t_box, u_box)
    powers = 0
    while pw.codes:
        powers += 1
        if n > 1 and powers > cap:
            raise StepBudgetExceeded(f"inverse sums over {cap} powers")
        if pw.t_prec < tp:
            tp = pw.t_prec
        for j, b in pw.u_prec.items():
            if b < up.get(j, INF):
                up[j] = b
        for j, row in pw.codes.items():
            dst = sums.get(j)
            if dst is None:
                sums[j] = dict(row)
                continue
            for i, v in row.items():
                dst[i] = dst.get(i, 0) + v
        pw = (pw * neg).truncate(t_box, u_box)
    # The remaining powers of eps contribute no known terms, but their
    # unknown regions still constrain the result.  Close the first empty
    # power's region under multiplication by eps (each eps term shifts a row
    # j1 bound by (j2, row lower bound)) and intersect.
    tail_t = min(pw.t_prec, t_box)
    dist = {j: b for j, b in pw.u_prec.items() if j < tail_t}
    edges = [(j, lb) for j, lb, _, _ in _operand_rows(neg)]
    for _ in range(int(tail_t) - min(dist, default=int(tail_t)) + 1):
        changed = False
        for j, b in list(dist.items()):
            for dj, e in edges:
                jj = j + dj
                if jj >= tail_t:
                    continue
                if b + e < dist.get(jj, INF):
                    dist[jj] = b + e
                    changed = True
        if not changed:
            break
    if tail_t < tp:
        tp = tail_t
    for j, b in dist.items():
        if b < up.get(j, INF):
            up[j] = b
    # each sum scaled by c^-1 and reduced once, shifted back; a digit of
    # c^-1 times a sum of at most cap + 1 codes is below 2^w
    rows = {j - j0: {i - i0: _reduce(cinv * v, w, n, char, fold)
                     for i, v in dst.items()} for j, dst in sums.items()}
    return Laurent2._of_codes(dom, rows, tp - j0,
                              {j - j0: b - i0 for j, b in up.items()})


def _unit_inverse(dom, neg, t_box, u_box):
    """The codes of 1/(1 + eps) below (t_box, u_box), eps in F[[u, t]] with
    no constant term and neg the codes of -eps.  Each nonzero coefficient
    is pushed into the sums of the cells it reaches; over n > 1 a sum holds
    up to one product per term of -eps in the box, so more than cap terms
    are refused, as in _check_width."""
    char, n, _, w, fold, cap = _mul_consts(dom)
    steps = sorted((dj, di, v) for dj, row in neg.items() if dj < t_box
                   for di, v in row.items() if di < u_box)
    if n > 1 and len(steps) > cap:
        raise StepBudgetExceeded(f"an inverse sums over {cap} products")
    acc, out = {0: {0: 1}}, {}
    while acc:
        j = min(acc)
        dst = acc.pop(j)
        row, todo, k = {}, sorted(dst), 0
        while k < len(todo):
            i = todo[k]
            k += 1
            v = dst[i] % char if n == 1 else _reduce(dst[i], w, n, char, fold)
            if not v:
                continue
            row[i] = v
            for dj, di, e in steps:
                jj = j + dj
                if jj >= t_box:
                    break
                ii = i + di
                if ii >= u_box:
                    continue
                tgt = acc.setdefault(jj, {}) if dj else dst
                if ii in tgt:
                    tgt[ii] += e * v
                else:
                    tgt[ii] = e * v
                    if not dj:
                        insort(todo, ii)  # after i: still to come
        if row:
            out[j] = row
    return out


@dataclass(frozen=True)
class UnitDecomposition:
    zeta_exp: int
    u_exp: int
    t_exp: int
    principal: Laurent2


def unit_decompose(f):
    """f = ζ^a · u^i · t^j · ε with ε a principal unit."""
    j0 = outer_valuation(f)
    i0 = min(f.codes[j0])
    c = f.coeff(i0, j0)
    a = f.dom.log(c)
    principal = f.monomial_mul(c.inv(), -i0, -j0)
    return UnitDecomposition(a, i0, j0, principal)


# --------------------------------------------------------------------------
# characteristic-zero lifts
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _teichmuller_codes(ring):
    """The code table field code -> code of its Teichmüller lift in ring,
    filled on demand: at most q entries."""
    return {}


def lift_padic(f, s):
    """Coefficientwise Teichmüller lift into W_s(F_q)-coefficient series."""
    field = f.dom
    ring = galois_ring(field, s)
    table = _teichmuller_codes(ring)
    rows = {}
    for j, row in f.codes.items():
        dst = rows[j] = {}
        for i, v in row.items():
            x = table.get(v)
            if x is None:
                x = table[v] = _encode(ring,
                                       ring.teichmuller(_decode(field, v)))
            dst[i] = x
    # a lift of a nonzero coefficient is a unit: the region carries over
    return Laurent2._adopt(ring, rows, f.t_prec, f.u_prec)


def reduce_mod_p(f, field):
    """Reduce a Galois-ring-coefficient series back to F_q coefficients."""
    ring = f.dom
    p, n = ring.p, ring.n
    wr, wf = _mul_consts(ring)[3], _mul_consts(field)[3]
    rows = {j: {i: _pack([d % p for d in _digits(v, wr, n)], wf)
                for i, v in row.items()} for j, row in f.codes.items()}
    return Laurent2._of_codes(field, rows,
                              None if f.t_prec == INF else int(f.t_prec),
                              f.u_prec)


# --------------------------------------------------------------------------
# ring adapter so Laurent2 values can be Witt-vector components
# --------------------------------------------------------------------------

class LaurentDomain:
    """Presents Laurent2-over-dom as a coefficient ring for WittVec."""

    def __init__(self, dom):
        self.dom = dom
        self.p = dom.p
        self.char_p = isinstance(dom, FieldSpec) or \
            (isinstance(dom, GaloisRing) and dom.s == 1)
        self.zero = Laurent2.zero(dom)
        self.one = Laurent2.one(dom)

    def from_int(self, k):
        return Laurent2.monomial(self.dom, self.dom.from_int(k))


@lru_cache(maxsize=None)
def laurent_domain(dom):
    return LaurentDomain(dom)
