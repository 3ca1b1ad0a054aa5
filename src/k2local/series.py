"""Precision-tracked Laurent series in two variables: elements of k((u))((t)).

A Laurent2 value stores a finite coefficient table together with a guaranteed
region of knowledge: terms with t-exponent >= t_prec are unknown, and within
each row j, terms with u-exponent >= u_prec(j) are unknown.  Rows without a
finite u_prec entry are completely known, and t_prec=None means every row is
known.  Every operation computes the guaranteed region of its output; callers
that need a coefficient outside it fail loudly.

The same machinery runs over F_q coefficients (Laurent2 proper) and over
Galois-ring coefficients W_s(F_q) (the characteristic-zero lift used by the
Witt pairing); the coefficient domain is pluggable.

The product is one integer kernel.  It fixes the Kronecker width from the
term counts, then makes one sorted pass over each operand's rows, which
gives for each row its u lower bound, its u bound and its terms as ints.
From those rows it computes the output region first (the t-window and the
per-row u-bounds), then multiplies only the term pairs that land inside it,
walking each row in sorted u-order and stopping at the row's bound.
Coefficients enter as plain ints: the single coordinate when n = 1, else
the coordinate tuple Kronecker-packed into one int with digits wide enough
that no accumulated sum carries.  Each output coefficient is reduced once,
mod char (p or p^s) and mod the modulus polynomial, and becomes an
FqElem/GRElem only when it is nonzero.  mul_coeff reads one coefficient of
a product by the same region rule, as a dot product, without forming it.

Sums, negation, monomial multiples and the Teichmüller lift adopt their
result without the validating constructor: their terms already lie in the
new region, so a sum filters only the rows whose bound tightened, and a
monomial multiple drops the products that vanish (in a Galois ring c·v is
0 when c is not a unit).  Term rows and region dicts are shared between
values, since no operation changes one in place.

invert sums the geometric series 1 - eps + eps^2 - ... in a fixed working
box.  Every power is one product through the kernel above, followed by a
truncate that trusts its input: the terms already lie in the old region, so
only rows whose bound tightened are filtered and the rest are reused without
re-validation.  The sum is kept as integer coordinates and its region as
running minima of t_prec and the per-row u_prec; it is wrapped into elements
once, through the validating constructor.  Regions only shrink along the
loop, so that one final filter drops exactly the terms a filter after every
addition would have dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (FieldMismatch, PrecisionTooLow, ZeroDivisor, ZeroElement)
from .ff import (FieldSpec, GaloisRing, galois_ring, power,
                 primitive_element)

INF = math.inf

#: default working precision for operations that must truncate exact data
DEFAULT_T_PREC = 12
DEFAULT_U_PREC = 12


class Laurent2:
    """Two-variable Laurent series over a coefficient domain.

    terms: {j: {i: coeff}} with all coefficients nonzero and inside the
    guaranteed region; t_prec: int or None; u_prec: {j: int} for the rows
    with only finitely many known u-digits.
    """

    __slots__ = ("dom", "terms", "t_prec", "u_prec")

    def __init__(self, dom, terms, t_prec=None, u_prec=None):
        self.dom = dom
        tp = INF if t_prec is None else t_prec
        up = dict(u_prec) if u_prec else {}
        up = {j: b for j, b in up.items() if j < tp and b != INF}
        clean = {}
        for j, row in terms.items():
            if j >= tp:
                continue
            bound = up.get(j, INF)
            r = {i: c for i, c in row.items() if c and i < bound}
            if r:
                clean[j] = r
        self.terms = clean
        self.t_prec = tp
        self.u_prec = up

    @classmethod
    def _adopt(cls, dom, terms, tp, up):
        """Adopt data that already meets the invariants, without copying."""
        self = object.__new__(cls)
        self.dom = dom
        self.terms = terms
        self.t_prec = tp
        self.u_prec = up
        return self

    # -- region helpers ----------------------------------------------------

    def uprec(self, j):
        return self.u_prec.get(j, INF)

    def tlb(self):
        """Lower bound for the t-valuation of any nonzero content."""
        cands = list(self.terms) + list(self.u_prec)
        if cands:
            return min(cands)
        return self.t_prec  # possibly INF: certainly zero

    def row_lb(self, j):
        """Lower bound for u-exponents of nonzero content in row j.

        Returns None when the row is certainly zero.
        """
        row = self.terms.get(j)
        if row:
            return min(row)
        b = self.u_prec.get(j)
        return b  # None: exact empty row

    def possible_rows(self):
        return sorted(set(self.terms) | set(self.u_prec))

    def is_zero(self):
        """Certainly zero everywhere (exactly the zero element)."""
        return not self.terms and not self.u_prec and self.t_prec == INF

    def has_no_known_terms(self):
        return not self.terms

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def zero(dom):
        return Laurent2(dom, {})

    @staticmethod
    def monomial(dom, c, i=0, j=0, t_prec=None, u_prec=None):
        return Laurent2(dom, {j: {i: c}} if c else {}, t_prec, u_prec)

    @staticmethod
    def one(dom):
        return Laurent2.monomial(dom, dom.one)

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
        # each operand's terms lie in its own region: only rows whose bound
        # tightened are filtered, as in truncate; a row of one operand alone
        # is reused as it is
        rows = {}
        for src, sup in ((self.terms, self.u_prec),
                         (other.terms, other.u_prec)):
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
        rows = {j: {i: -c for i, c in row.items()}
                for j, row in self.terms.items()}
        return Laurent2._adopt(self.dom, rows, self.t_prec, self.u_prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fterms, gterms = self.terms, other.terms
        dom = self.dom
        char, n, elem, bits, fold = _mul_consts(dom)
        w = None
        if n > 1:
            # Kronecker digits of w bits.  A digit of one packed product is
            # below 2^bits, and an output coefficient sums at most
            # min(#f terms, #g terms) such products, so no digit carries.
            w = bits + min(sum(map(len, fterms.values())),
                           sum(map(len, gterms.values()))).bit_length()
        frows, grows = _operand_rows(self, w), _operand_rows(other, w)
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
        if not fterms or not gterms:
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
        # reduce each output coefficient once and wrap the nonzero ones
        rows = {}
        for j, dst in acc.items():
            row = {}
            if n == 1:
                for i, v in dst.items():
                    v %= char
                    if v:
                        row[i] = elem(dom, (v,))
            else:
                for i, v in dst.items():
                    cs = _unpack(v, w, n, char, fold)
                    if cs:
                        row[i] = elem(dom, cs)
            if row:
                rows[j] = row
        return Laurent2._adopt(dom, rows, tp, up)

    def monomial_mul(self, c, i_shift=0, j_shift=0):
        """Multiply by the exact monomial c·u^{i_shift}·t^{j_shift}."""
        if not c:
            return Laurent2.zero(self.dom)
        # in a Galois ring c·v is 0 when c is not a unit and p | v
        rows = {}
        for j, row in self.terms.items():
            dst = {}
            for i, v in row.items():
                cv = c * v
                if cv:
                    dst[i + i_shift] = cv
            if dst:
                rows[j + j_shift] = dst
        up = {j + j_shift: b + i_shift for j, b in self.u_prec.items()}
        return Laurent2._adopt(self.dom, rows, self.t_prec + j_shift, up)

    def int_scale(self, k):
        c = self.dom.from_int(k)
        if not c:
            return Laurent2.zero(self.dom)
        return self.monomial_mul(c)

    def cap_infinite(self, t_hi=DEFAULT_T_PREC, u_hi=DEFAULT_U_PREC):
        """Impose a finite working box on any infinite precision directions."""
        tp = self.t_prec if self.t_prec != INF else t_hi
        up = dict(self.u_prec)
        lo = self.tlb()
        if lo != INF:
            for j in range(int(lo), int(tp)):
                if self.uprec(j) == INF:
                    up[j] = u_hi
        return Laurent2(self.dom, self.terms, tp, up)

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
        terms = {}
        for j, row in self.terms.items():
            if j >= tp:
                continue
            b = up.get(j, INF)
            if b < old.get(j, INF):
                row = {i: c for i, c in row.items() if i < b}
                if not row:
                    continue
            terms[j] = row
        return Laurent2._adopt(self.dom, terms, tp, up)

    def __pow__(self, e):
        if e < 0:
            return invert(self) ** (-e)
        return power(self, e, Laurent2.one(self.dom))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Laurent2) and self.dom is other.dom
                and self.terms == other.terms and self.t_prec == other.t_prec
                and self.u_prec == other.u_prec)

    def __hash__(self):
        return hash((id(self.dom), self.t_prec,
                     tuple(sorted((j, tuple(sorted(r.items(), key=lambda x: x[0])))
                                  for j, r in self.terms.items())),
                     tuple(sorted(self.u_prec.items()))))

    def same_known_terms(self, other):
        """Equal coefficient tables on the intersection of known regions."""
        tp = min(self.t_prec, other.t_prec)
        for j in set(self.terms) | set(other.terms):
            if j >= tp:
                continue
            bound = min(self.uprec(j), other.uprec(j))
            r1 = self.terms.get(j, {})
            r2 = other.terms.get(j, {})
            for i in set(r1) | set(r2):
                if i >= bound:
                    continue
                if r1.get(i, self.dom.zero) != r2.get(i, self.dom.zero):
                    return False
        return True

    # -- coefficient access ----------------------------------------------------

    def coeff(self, i, j):
        """Coefficient of u^i t^j; raises if outside the known region."""
        if j >= self.t_prec or i >= self.uprec(j):
            raise PrecisionTooLow(f"coefficient ({j},{i}) outside precision")
        return self.terms.get(j, {}).get(i, self.dom.zero)

    def mul_coeff(self, other, i, j):
        """Coefficient of u^i t^j in self·other, without forming the product.

        It is known exactly where self * other would mark it known: j below
        the product's t-window and i below the u-bound that the region rule
        of __mul__ gives row j, the least min(up1 + lb2, up2 + lb1) over the
        rows j1 + j2 = j that may hold content (lb a row's u lower bound, up
        its u bound); otherwise PrecisionTooLow.  The value is the dot
        product Σ self[j1][i1]·other[j − j1][i − i1] over integer
        coordinates, reduced once as in the product kernel.
        """
        self._check(other)
        fterms, gterms = self.terms, other.terms
        tp = min(self.t_prec + other.tlb(), other.t_prec + self.tlb())
        if j >= tp:
            raise PrecisionTooLow(f"coefficient ({j},{i}) outside precision")
        fups, gups = self.u_prec, other.u_prec
        if fups or gups:
            bound = INF
            for j1 in fterms.keys() | fups.keys():
                j2 = j - j1
                row2 = gterms.get(j2)
                if row2 is None and j2 not in gups:
                    continue
                row1 = fterms.get(j1)
                b = fups.get(j1, INF) + (min(row2) if row2 else gups[j2])
                c = gups.get(j2, INF) + (min(row1) if row1 else fups[j1])
                if c < b:
                    b = c
                if b < bound:
                    bound = b
            if i >= bound:
                raise PrecisionTooLow(
                    f"coefficient ({j},{i}) outside precision")
        pairs = []
        for j1, row1 in fterms.items():
            row2 = gterms.get(j - j1)
            if row2 is None:
                continue
            if len(row2) < len(row1):
                row1, row2 = row2, row1
            for i1, a in row1.items():
                b = row2.get(i - i1)
                if b is not None:
                    pairs.append((a.coeffs, b.coeffs))
        dom = self.dom
        char, n, elem, bits, fold = _mul_consts(dom)
        if n == 1:
            v = sum(a[0] * b[0] for a, b in pairs) % char
            return elem(dom, (v,)) if v else dom.zero
        w = bits + len(pairs).bit_length()
        cs = _unpack(sum(_pack(a, w) * _pack(b, w) for a, b in pairs),
                     w, n, char, fold)
        return elem(dom, cs) if cs else dom.zero

    def leading(self):
        """(j, i, c) of the (t,u)-lexicographically least known term.

        Requires certainty: no possibly-hidden content lex-below it.
        """
        if self.is_zero():
            raise ZeroDivisor("zero has no leading term")
        if not self.terms:
            raise PrecisionTooLow("no known nonzero coefficient")
        j0 = min(self.terms)
        hidden = [j for j in self.u_prec if j < j0]
        if hidden:
            raise PrecisionTooLow(
                f"row {min(hidden)} has unknown content below leading row {j0}")
        i0 = min(self.terms[j0])
        return j0, i0, self.terms[j0][i0]

    def serialize(self):
        bits = []
        for j in sorted(self.terms):
            for i in sorted(self.terms[j]):
                c = self.terms[j][i]
                cs = ",".join(str(x) for x in c.coeffs)
                term = f"[{cs}]"
                if i:
                    term += f"*u^{i}"
                if j:
                    term += f"*t^{j}"
                bits.append(term)
        s = " + ".join(bits) if bits else "0"
        if self.t_prec != INF:
            s += f" + O_t({int(self.t_prec)})"
        if self.u_prec:
            lows = min(self.u_prec.values())
            s += f" + O_u({int(lows)})"
        return s

    def __repr__(self):
        return f"Laurent2({self.serialize()})"


@lru_cache(maxsize=None)
def _mul_consts(dom):
    """Constants of the product kernel for one coefficient domain.

    (char, n, element class, bits, fold): every coordinate is an integer
    in [0, char); each digit of the product of two packed elements is
    below 2**bits; fold[k] holds the coordinates of x^(n+k) mod the modulus.
    """
    char, n = dom.char, dom.n
    elem = type(dom.one)
    bits = (n * (char - 1) ** 2).bit_length()
    fold = []
    xk = [(-c) % char for c in dom.modulus[:n]]  # x^n
    for _ in range(n - 1):
        fold.append(tuple(xk))
        top = xk[-1]
        xk = [(a + top * b) % char for a, b in zip([0] + xk[:-1], fold[0])]
    return char, n, elem, bits, tuple(fold)


def _region_rows(f):
    """Rows that may hold content as [(j, u lower bound)], by j.

    A row with terms is bounded below by its least u-exponent, a row with a
    bound and no terms by that bound.  invert's tail closure reads these.
    """
    terms, ups = f.terms, f.u_prec
    return [(j, min(terms[j]) if j in terms else ups[j])
            for j in sorted(terms.keys() | ups.keys())]


def _operand_rows(f, w):
    """One sorted pass over a product operand's rows that may hold content.

    Returns [(j, u lower bound, u bound, int row)] sorted by j.  The int row
    is [(i, int)] sorted by i, so its first u-exponent is the lower bound; a
    row with a bound and no terms has an empty int row and that bound as its
    lower bound.  The int is the single coordinate when w is None, else the
    coordinates Kronecker-packed with w-bit digits.
    """
    terms, ups = f.terms, f.u_prec
    rows = []
    for j in sorted(terms.keys() | ups.keys()) if ups else sorted(terms):
        row = terms.get(j)
        ub = ups.get(j, INF)
        if not row:
            rows.append((j, ub, ub, ()))
            continue
        if w is None:
            ints = [(i, c.coeffs[0]) for i, c in sorted(row.items())]
        else:
            ints = [(i, _pack(c.coeffs, w)) for i, c in sorted(row.items())]
        rows.append((j, ints[0][0], ub, ints))
    return rows


def _pack(coeffs, w):
    """Kronecker packing: sum of coeffs[k] * 2^(w k)."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) | c
    return v


def _unpack(v, w, n, char, fold):
    """Coordinates of a packed sum of products, reduced once; () if zero."""
    mask = (1 << w) - 1
    cs = []
    for _ in range(n):
        cs.append(v & mask)
        v >>= w
    for xk in fold:
        if not v:
            break
        d = v & mask
        v >>= w
        if d:
            cs = [a + d * b for a, b in zip(cs, xk)]
    cs = tuple(a % char for a in cs)
    return cs if any(cs) else ()


# --------------------------------------------------------------------------
# valuations, inversion, unit decomposition
# --------------------------------------------------------------------------

def outer_valuation(f):
    """v_t(f): least t-exponent with a nonzero coefficient row."""
    if f.is_zero():
        raise ZeroElement("outer_valuation of zero")
    if not f.terms:
        raise PrecisionTooLow("no known nonzero coefficient")
    j0 = min(f.terms)
    if any(j < j0 for j in f.u_prec):
        raise PrecisionTooLow("t-valuation not determined at this precision")
    return j0


def bar_valuation(f):
    """u-valuation of the leading-in-t coefficient series."""
    j0 = outer_valuation(f)
    return min(f.terms[j0])


def invert(f, t_prec=None, u_prec=None):
    """Multiplicative inverse at the propagated (possibly capped) precision.

    t_prec and u_prec bound the working box when f's precision is infinite;
    None means DEFAULT_T_PREC / DEFAULT_U_PREC, and a bound <= 0 is refused.
    """
    for bound in (t_prec, u_prec):
        if bound is not None and bound <= 0:
            raise PrecisionTooLow(f"working precision {bound} is not positive")
    if t_prec is None:
        t_prec = DEFAULT_T_PREC
    if u_prec is None:
        u_prec = DEFAULT_U_PREC
    j0, i0, c = f.leading()
    cinv = c.inv()
    fhat = f.monomial_mul(cinv, -i0, -j0)
    dom = f.dom
    one = Laurent2.one(dom)
    eps = fhat - one
    if eps.has_no_known_terms() and not eps.u_prec and eps.t_prec == INF:
        return Laurent2.monomial(dom, cinv, -i0, -j0,
                                 None if f.t_prec == INF else
                                 int(f.t_prec) - 2 * j0, None)
    eps = eps.cap_infinite(t_prec, u_prec)
    # fixed working box: powers of eps gain precision as they gain valuation,
    # so without a hard cutoff the geometric loop would never terminate
    t_box = int(eps.t_prec)
    u_box = max([u_prec]
                + [int(b) for b in eps.u_prec.values()])
    # the sum of the powers of -eps as integer coordinates, its region as
    # running minima; filtered once at the end (see the module docstring)
    sums = {0: {0: list(dom.one.coeffs)}}
    tp = eps.t_prec
    up = dict(eps.u_prec)
    neg = -eps
    pw = one
    while True:
        pw = (pw * neg).truncate(t_box, u_box)
        if pw.has_no_known_terms():
            break
        if pw.t_prec < tp:
            tp = pw.t_prec
        for j, b in pw.u_prec.items():
            if b < up.get(j, INF):
                up[j] = b
        for j, row in pw.terms.items():
            dst = sums.get(j)
            if dst is None:
                dst = sums[j] = {}
            for i, cf in row.items():
                v = dst.get(i)
                if v is None:
                    dst[i] = list(cf.coeffs)
                else:
                    for k, a in enumerate(cf.coeffs):
                        v[k] += a
    # The remaining powers of eps contribute no known terms, but their
    # unknown regions still constrain the result.  Close the first empty
    # power's region under multiplication by eps (each eps term shifts a row
    # j1 bound by (j2, row lower bound)) and intersect.
    if pw.u_prec or pw.t_prec != INF:
        tail_t = min(pw.t_prec, t_box)
        dist = {j: b for j, b in pw.u_prec.items() if j < tail_t}
        edges = _region_rows(eps)
        for _ in range(int(tail_t) - min(dist, default=int(tail_t)) + 1):
            changed = False
            for j, b in list(dist.items()):
                for dj, w in edges:
                    jj = j + dj
                    if jj >= tail_t:
                        continue
                    if b + w < dist.get(jj, INF):
                        dist[jj] = b + w
                        changed = True
            if not changed:
                break
        if tail_t < tp:
            tp = tail_t
        for j, b in dist.items():
            if b < up.get(j, INF):
                up[j] = b
    char, elem = dom.char, type(dom.one)
    rows = {}
    for j, dst in sums.items():
        row = {}
        for i, v in dst.items():
            cs = tuple(a % char for a in v)
            if any(cs):
                row[i] = elem(dom, cs)
        rows[j] = row
    acc = Laurent2(dom, rows, None if tp == INF else tp, up)
    return acc.monomial_mul(cinv, -i0, -j0)


@dataclass(frozen=True)
class UnitDecomposition:
    zeta_exp: int
    u_exp: int
    t_exp: int
    principal: Laurent2


@lru_cache(maxsize=None)
def _dlog_table(field):
    z = primitive_element(field)
    table = {}
    x = field.one
    for e in range(field.q - 1):
        table[x.coeffs] = e
        x = x * z
    return table


def unit_decompose(f):
    """f = ζ^a · u^i · t^j · ε with ε a principal unit."""
    j0 = outer_valuation(f)
    i0 = min(f.terms[j0])
    c = f.terms[j0][i0]
    a = _dlog_table(f.dom)[c.coeffs]
    principal = f.monomial_mul(c.inv(), -i0, -j0)
    return UnitDecomposition(a, i0, j0, principal)


def recompose(dec, dom):
    z = primitive_element(dom)
    lead = (z ** dec.zeta_exp)
    return dec.principal.monomial_mul(lead, dec.u_exp, dec.t_exp)


# --------------------------------------------------------------------------
# characteristic-zero lifts
# --------------------------------------------------------------------------

def lift_padic(f, s):
    """Coefficientwise Teichmüller lift into W_s(F_q)-coefficient series."""
    ring = galois_ring(f.dom, s)
    lift = ring.teichmuller
    # a lift of a nonzero coefficient is a unit: the region carries over
    rows = {j: {i: lift(c) for i, c in row.items()}
            for j, row in f.terms.items()}
    return Laurent2._adopt(ring, rows, f.t_prec, f.u_prec)


def reduce_mod_p(f, field):
    """Reduce a Galois-ring-coefficient series back to F_q coefficients."""
    ring = f.dom
    rows = {j: {i: ring.reduce_mod_p(c) for i, c in row.items()}
            for j, row in f.terms.items()}
    return Laurent2(field, rows,
                    None if f.t_prec == INF else int(f.t_prec), f.u_prec)


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
