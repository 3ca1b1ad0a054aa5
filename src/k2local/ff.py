"""Exact arithmetic in finite fields F_q and truncated Witt rings W_s(F_q).

Fields are F_p[x]/(m(x)) with a monic irreducible modulus stored
constant-term-first.  A field of at most TABLE_MAX elements multiplies,
inverts, raises to powers and takes discrete logs by one log/antilog table
over its primitive element, built on first use; a larger field multiplies and
powers on coordinates and takes discrete logs by baby-step giant-step.
Discrete logs serve only those tables and series.unit_decompose; an
Embedding is F_p-linear, on integer rows that rank_and_left_kernel reduces.
Truncated Witt rings of F_q are modelled as Galois rings (Z/p^s)[x]/(m(x))
against the same polynomial basis, which is all the characteristic-zero
lifting the symbol layer needs.  The integer codes of elements (see series)
live here, with _row_dot and _row_divmod, the one polynomial arithmetic on
dense code rows: Poly2's rows and Poly1, the polynomial type over F_q.  Its
gcd and one splitting routine, distinct-degree then equal-degree
(Cantor–Zassenhaus), are behind factor_poly1, whose degree-1 factors give
first_root, and the modulus check; none of them makes element arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache

from .errors import (CompositeP, FieldMismatch, InvariantViolation,
                     NotASubfield, ReducibleModulus, StepBudgetExceeded,
                     UsageError, ZeroArgument, ZeroDivisor)

TABLE_MAX = 1 << 12  # largest q whose arithmetic goes through the tables

#: bits of room above the largest digit of a product of two codes
HEADROOM = 16


#: as Miller–Rabin bases, the first 13 primes decide primality exactly below
#: PRIME_BOUND (Sorenson & Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p):
    """Is p prime?  A deterministic Miller–Rabin test over _PRIME_BASES,
    exact for p below PRIME_BOUND; a larger p is refused."""
    if p >= PRIME_BOUND:
        raise StepBudgetExceeded(f"{p} is not below {PRIME_BOUND}, the bound "
                                 f"of the exact primality test")
    if p < 2 or any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    d, r = p - 1, 0  # p - 1 = d·2^r, d odd
    while not d & 1:
        d, r = d >> 1, r + 1
    for b in _PRIME_BASES:  # a prime p has b^d = 1 or b^(d·2^i) = -1, i < r
        x = pow(b, d, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(r)):
            return False
    return True


def _poly_mulmod_fp(a, b, modulus, p):
    # a, b: int tuples (constant first), deg < n; modulus: len n+1 monic
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(n):
                prod[k - n + i] = (prod[k - n + i] - c * modulus[i]) % p
    prod = prod[:n]
    prod += [0] * (n - len(prod))
    return tuple(prod)


def power(base, e, one, mul=operator.mul):
    """base^e for an int e >= 0 by binary powering; one only for e = 0.

    The result starts as the base's power at the lowest set bit of e, then
    takes one product per further set bit, after one squaring per bit below
    the top one: popcount(e) + bit_length(e) - 2 products for e >= 1.  The
    loops would give a wrong power for e < 0, so it is refused.
    """
    if e < 0:
        raise InvariantViolation(f"power {e} is negative")
    if not e:
        return one
    while not e & 1:
        base, e = mul(base, base), e >> 1
    result = base
    while e > 1:
        base, e = mul(base, base), e >> 1
        if e & 1:
            result = mul(result, base)
    return result


def _poly_powmod_fp(a, e, modulus, p):
    n = len(modulus) - 1
    base = tuple(a) + (0,) * (n - len(a))
    return power(base, e, tuple([1] + [0] * (n - 1)),
                 lambda x, y: _poly_mulmod_fp(x, y, modulus, p))


class FqElem:
    """Element of F_q, coordinates w.r.t. the modulus basis, constant first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        f = self.field
        if f.n == 1:
            return FqElem(f, ((self.coeffs[0] + other.coeffs[0]) % f.p,))
        return FqElem(f, tuple((a + b) % f.p
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        f = self.field
        if f.n == 1:
            return FqElem(f, ((self.coeffs[0] - other.coeffs[0]) % f.p,))
        return FqElem(f, tuple((a - b) % f.p
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        f = self.field
        return FqElem(f, tuple((-a) % f.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if f.n == 1:
            return FqElem(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        if f.q > TABLE_MAX:
            return FqElem(f, _poly_mulmod_fp(self.coeffs, other.coeffs,
                                             f.modulus, f.p))
        log = f._log or f._tables()
        i, j = log.get(self.coeffs), log.get(other.coeffs)
        if i is None or j is None:
            return f.zero
        return f._exp[i + j]

    def __pow__(self, e):
        """self^e for any int e; a negative e needs a nonzero self."""
        f = self.field
        if not any(self.coeffs):
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return f.zero if e else f.one
        if f.q <= TABLE_MAX:
            k = (f._log or f._tables())[self.coeffs] * e % (f.q - 1)
            return f._exp[k]
        e %= f.q - 1
        return FqElem(f, _poly_powmod_fp(self.coeffs, e, f.modulus, f.p)) \
            if e else f.one

    def inv(self):
        return self ** -1

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.n}){list(self.coeffs)}"


class FieldSpec:
    """A concrete model of F_q = F_p[x]/(modulus)."""

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p ** n
        self.char = p  # every coordinate is an integer mod char
        self.modulus = modulus  # tuple length n+1, constant first, monic
        self.zero = FqElem(self, (0,) * n)
        self.one = FqElem(self, tuple([1] + [0] * (n - 1)))
        self.gen = FqElem(self, tuple([0, 1] + [0] * (n - 2))) if n > 1 \
            else self.one
        self._prim = None
        self._exp = self._log = None  # built on first use by _tables
        self._bsgs = None  # built on first use by log above TABLE_MAX

    def _tables(self):
        """exp[k] = z^k for k < 2(q - 1) and log[z^k.coeffs] = k, over
        z = primitive_element(self); returns log."""
        z = primitive_element(self).coeffs
        exp, log, x = [], {}, self.one
        for k in range(self.q - 1):
            exp.append(x)
            log[x.coeffs] = k
            x = FqElem(self, _poly_mulmod_fp(x.coeffs, z, self.modulus,
                                             self.p))
        self._exp, self._log = exp + exp, log
        return log

    def log(self, a):
        """The k < q - 1 with a = z^k, z = primitive_element(self), for a
        nonzero a.  Up to TABLE_MAX it is read from the tables; above, it is
        Shanks' baby-step giant-step: with m = ceil(sqrt(q - 1)) baby steps
        z^j, j < m, kept per field, k = i m + j for the least i such that
        a z^(-i m) is a baby step."""
        if self.q <= TABLE_MAX:
            return (self._log or self._tables())[a.coeffs]
        if self._bsgs is None:
            z, n = primitive_element(self).coeffs, self.q - 1
            m = math.isqrt(n - 1) + 1
            baby, x = {}, self.one.coeffs
            for j in range(m):
                baby[x] = j
                x = _poly_mulmod_fp(x, z, self.modulus, self.p)
            self._bsgs = baby, _poly_powmod_fp(z, n - m, self.modulus,
                                               self.p)
        baby, giant = self._bsgs
        x = a.coeffs
        for i in range(len(baby)):
            j = baby.get(x)
            if j is not None:
                return i * len(baby) + j
            x = _poly_mulmod_fp(x, giant, self.modulus, self.p)
        raise InvariantViolation("discrete log of a zero or foreign element")

    def elem(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        return FqElem(self, coeffs + (0,) * (self.n - len(coeffs)))

    def from_int(self, k):
        return self.elem((k % self.p,))

    def elem_by_index(self, k):
        """k-th element in base-p little-endian coefficient order."""
        coeffs = []
        for _ in range(self.n):
            coeffs.append(k % self.p)
            k //= self.p
        return FqElem(self, tuple(coeffs))

    def elements(self):
        for k in range(self.q):
            yield self.elem_by_index(k)

    def serialize(self):
        return f"{self.p}^{self.n}/" + ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldSpec({self.serialize()})"


@lru_cache(maxsize=None)
def _default_modulus(p, n):
    """Lexicographically least monic irreducible, constant-term-first order."""
    if n == 1:
        return (0, 1)
    # (a_0, ..., a_{n-1}) in lex order, made one at a time: k's base-p digits
    # from k = p^(n-1), as x divides those with a_0 = 0; one is irreducible
    for k in itertools.count(p ** (n - 1)):
        c = tuple(k // p ** (n - 1 - i) % p for i in range(n)) + (1,)
        if _is_irreducible(c, p):
            return c


def make_field(p, n, modulus=None):
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if n < 1:
        raise ReducibleModulus(f"degree {n} is below 1")
    if modulus is None:
        modulus = _default_modulus(p, n)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree n")
    return _field_instance(p, n, modulus)


@lru_cache(maxsize=None)
def _field_instance(p, n, modulus):
    """The one FieldSpec per modulus, checked for irreducibility when it is
    first built; a refusal raises, so it is not cached and recurs."""
    if n > 1 and not _is_irreducible(modulus, p):
        raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
    return FieldSpec(p, n, modulus)


def parse_field(text):
    """Parse `p^n` or `p^n/c0,c1,...,cn` (constant-term-first)."""
    try:
        if "/" in text:
            head, coeffs = text.split("/", 1)
            modulus = tuple(int(c) for c in coeffs.split(","))
        else:
            head, modulus = text, None
        if "^" in head:
            p, n = (int(s) for s in head.split("^", 1))
        else:
            p, n = int(head), 1
    except ValueError:
        raise UsageError(f"field {text!r} is not p^n or p^n/c0,...,cn") \
            from None
    return make_field(p, n, modulus)


def primitive_element(field):
    """Deterministic generator of F_q^×: least index of full order."""
    if field._prim is not None:
        return field._prim
    q = field.q
    if q == 2:
        field._prim = field.one
        return field.one
    prime_divs, r, l = [], q - 1, 2  # by trial division up to sqrt(q - 1)
    while l * l <= r:
        if r % l == 0:
            prime_divs.append(l)
            while r % l == 0:
                r //= l
        l += 1
    if r > 1:
        prime_divs.append(r)
    for k in range(1, q):
        a = field.elem_by_index(k)
        # orders by coordinates: the tables are built over this element
        if all(_poly_powmod_fp(a.coeffs, (q - 1) // l, field.modulus, field.p)
               != field.one.coeffs for l in prime_divs):
            field._prim = a
            return a
    raise AssertionError("no primitive element found")  # pragma: no cover


# --------------------------------------------------------------------------
# the integer codes of one coefficient domain
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mul_consts(dom):
    """Constants of the codes of one coefficient domain.

    (char, n, element class, w, fold, cap): every coordinate is an integer
    in [0, char); a code of n > 1 coordinates packs them at the digit width
    w; fold[k] holds the coordinates of x^(n+k) mod the modulus.  A digit of
    the product of two codes is below 2**bits, so w = bits + HEADROOM holds
    a sum of up to cap = 2**HEADROOM - 1 such products without a carry.
    """
    char, n = dom.char, dom.n
    bits = (n * (char - 1) ** 2).bit_length()
    fold = []
    xk = [(-c) % char for c in dom.modulus[:n]]  # x^n
    for _ in range(n - 1):
        fold.append(tuple(xk))
        top = xk[-1]
        xk = [(a + top * b) % char for a, b in zip([0] + xk[:-1], fold[0])]
    return (char, n, type(dom.one), bits + HEADROOM, tuple(fold),
            (1 << HEADROOM) - 1)


def _encode(dom, c):
    """The code of the element c."""
    return _pack(c.coeffs, _mul_consts(dom)[3])


def _decode(dom, v):
    """The element of the code v."""
    _, n, elem, w, _, _ = _mul_consts(dom)
    return elem(dom, (v,) if n == 1 else _digits(v, w, n))


def _pack(coeffs, w):
    """Kronecker packing: sum of coeffs[k] * 2^(w k)."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) | c
    return v


def _digits(v, w, n):
    """The n digits of width w of v, least first."""
    mask = (1 << w) - 1
    out = []
    for _ in range(n):
        out.append(v & mask)
        v >>= w
    return tuple(out)


def _reduce(v, w, n, char, fold):
    """The code of a sum of products of codes (up to 2n - 1 digits, none
    carried), reduced once; 0 if it is zero."""
    if n == 1:
        return v % char
    mask = (1 << w) - 1
    cs = []
    for _ in range(n):
        cs.append(v & mask)
        v >>= w
    for xk in fold:  # the digits above the n-th, while any is left
        if not v:
            break
        if d := v & mask:
            cs = [a + d * b for a, b in zip(cs, xk)]
        v >>= w
    for a in reversed(cs):
        v = (v << w) | a % char
    return v


@lru_cache(maxsize=None)
def _inverse(dom, v):
    """The code of the inverse of the unit with code v, kept per domain:
    v^(q - 2) over a field F_q of n > 1 coordinates."""
    char, n, _, w, fold, _ = _mul_consts(dom)
    if n == 1:
        if not v % dom.p:
            raise ZeroDivisionError("non-unit in Galois ring")
        return pow(v, -1, char)
    if isinstance(dom, FieldSpec):
        return power(v, dom.q - 2, 1,
                     lambda x, y: _reduce(x * y, w, n, char, fold))
    return _encode(dom, _decode(dom, v).inv())


def _dense_row(row):
    return [row.get(a, 0) for a in range(max(row) + 1)]


def _row_dot(field, pairs, base=()):
    """base + the sum of a·b over pairs of dense code rows in u, each
    coefficient reduced once, trailing zeros dropped.  Over n > 1 a sum of
    more than cap products of codes is refused, as a product of series is."""
    char, n, _, w, fold, cap = _mul_consts(field)
    if n > 1 and 1 + sum(min(len(a), len(b)) for a, b in pairs) > cap:
        raise StepBudgetExceeded(f"a row sums over {cap} products")
    acc = list(base) + [0] * max(
        [len(a) + len(b) - 1 - len(base) for a, b in pairs] + [0])
    for a, b in pairs:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    acc[k] += x * y
    acc = [v % char for v in acc] if n == 1 else \
        [_reduce(v, w, n, char, fold) for v in acc]
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _row_divmod(field, a, b):
    """(q, r) with a = q·b + r and deg r < deg b in F_q[u], on dense code
    rows, b's lead inverted by _inverse; a remainder coefficient sums its
    products unreduced, as in _row_dot, and is reduced when read."""
    char, n, _, w, fold, cap = _mul_consts(field)
    rem, db = list(a), len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    if n > 1 and 1 + min(len(quo), db) > cap:
        raise StepBudgetExceeded(f"a row sums over {cap} products")
    inv = _inverse(field, b[-1])
    for k in range(len(rem) - 1, db - 1, -1):
        c = _reduce(rem[k], w, n, char, fold)
        if c:
            c = quo[k - db] = _reduce(c * inv, w, n, char, fold)
            c = _reduce((char - 1) * c, w, n, char, fold)
            for j in range(db):
                rem[k - db + j] += c * b[j]
    return quo, _row_dot(field, [], rem[:db])


class Poly1:
    """Polynomial in one variable over F_q: codes, a dense code row, constant
    first, with no trailing zero.  Poly1(field, coeffs) takes elements, and
    coeffs decodes on each read; the ring operations are calls to _row_dot
    and _row_divmod, the kernels of Poly2's rows, and form no element."""

    __slots__ = ("field", "codes")

    def __init__(self, field, coeffs):
        codes = [_encode(field, c) for c in coeffs]
        while codes and not codes[-1]:
            codes.pop()
        self.field, self.codes = field, tuple(codes)

    @classmethod
    def _adopt(cls, field, codes):
        """Adopt a code row that has no trailing zero."""
        self = object.__new__(cls)
        self.field = field
        self.codes = tuple(codes)
        return self

    @staticmethod
    def const(field, c):
        return Poly1(field, (c,))

    @staticmethod
    def from_ints(field, ints):
        return Poly1(field, tuple(field.from_int(k) for k in ints))

    @property
    def coeffs(self):
        """The coefficients as elements, decoded on each read."""
        return tuple(_decode(self.field, v) for v in self.codes)

    @property
    def deg(self):
        return len(self.codes) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.codes)

    def __eq__(self, other):
        return (isinstance(other, Poly1) and self.field is other.field
                and self.codes == other.codes)

    def __hash__(self):
        return hash((id(self.field), self.codes))

    def __add__(self, other):
        return Poly1._adopt(self.field,
                            _row_dot(self.field, [((1,), other.codes)],
                                     self.codes))

    def __neg__(self):
        field = self.field
        return Poly1._adopt(field, _row_dot(field, [((field.char - 1,),
                                                     self.codes)]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product by a Poly1, or by an element of F_q."""
        field = self.field
        c = other.codes if isinstance(other, Poly1) else \
            (_encode(field, other),)
        return Poly1._adopt(field, _row_dot(field, [(self.codes, c)]))

    def __pow__(self, e):
        return power(self, e, Poly1._adopt(self.field, (1,)))

    def divmod(self, other):
        if not other:
            raise ZeroDivisor("polynomial division by zero")
        quo, rem = _row_divmod(self.field, self.codes, other.codes)
        return Poly1._adopt(self.field, quo), Poly1._adopt(self.field, rem)

    def monic(self):
        field = self.field
        if not self or self.codes[-1] == 1:
            return self
        return Poly1._adopt(field, _row_dot(field, [(
            (_inverse(field, self.codes[-1]),), self.codes)]))

    def derivative(self):
        field = self.field
        return Poly1._adopt(field, _row_dot(field, [], [
            k % field.char * v for k, v in enumerate(self.codes)][1:]))

    def digits(self):
        """The tuples c.coeffs of coeffs, read off the codes."""
        _, n, _, w, _, _ = _mul_consts(self.field)
        return tuple(_digits(v, w, n) for v in self.codes)

    def order_at(self, root):
        """(v, c): the order v of a nonzero self at an element root and the
        code c of (self / (u - root)^v)(root), by synthetic division."""
        char, n, _, w, fold, _ = _mul_consts(self.field)
        r, row = _encode(self.field, root), self.codes
        for v in range(len(row)):  # Horner: the quotient, then self(root)
            *quo, acc = itertools.accumulate(reversed(row), lambda a, x: (
                _reduce(x + r * a, w, n, char, fold)))
            if acc:
                return v, acc
            row = quo[::-1]
        raise ZeroArgument("the zero polynomial has no order")

    def serialize(self, var="u"):
        terms = ["[" + ",".join(map(str, d)) + "]"
                 + (f"*{var}^{k}" if k else "")
                 for k, d in enumerate(self.digits()) if any(d)]
        return " + ".join(reversed(terms)) or "0"

    def __repr__(self):
        return f"Poly1({self.serialize()})"


def poly1_gcd(a, b):
    while b:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _powmod(a, e, m):
    """a^e mod m, for Poly1 a, an int e >= 1 and a nonconstant Poly1 m."""
    return power(a.divmod(m)[1], e, None, lambda x, y: (x * y).divmod(m)[1])


def _distinct_degree(f):
    """Distinct-degree splitting of a monic Poly1 f.

    Yields (d, g) for increasing d, g != 1 the product of the distinct
    monic irreducible factors of f of degree d: g = gcd(f, x^(q^d) - x)
    once every factor of degree below d is divided out of f with its
    multiplicity.  When 2d exceeds the degree of what is left, that is one
    irreducible factor, yielded last.  A constant f yields nothing.
    """
    field = f.field
    x = xq = Poly1._adopt(field, (0, 1))
    d = 1
    while 2 * d <= f.deg:
        xq = _powmod(xq, field.q, f)
        g = poly1_gcd(f, xq - x)
        if g.deg > 0:
            yield d, g
            if g == f:
                return
            while g.deg > 0:
                f = f.divmod(g)[0]
                g = poly1_gcd(f, g)
        d += 1
    if f.deg > 0:
        yield f.deg, f


def _split(g, d):
    """A proper monic factor of g, a product of two or more distinct monic
    irreducibles of degree d (equal-degree splitting, Cantor–Zassenhaus).

    For b in F_q[x], the factors pi of g with b mod pi a nonzero square
    (p odd), or with Tr(b mod pi) = 0 (p = 2), are those of gcd(g, h) for
    h = b^((q^d-1)/2) - 1 or h = sum of b^(2^k), k < nd, mod g.  The b are
    pseudo-random of degree < deg g from a fixed seed, with coefficients
    over all of F_q: when g's roots are conjugate over a subfield, no b with
    coefficients in it splits g, as Frobenius keeps squares and traces.  By
    the Chinese remainder theorem each b splits g with probability >= 1/2.
    """
    field = g.field
    q, one, rng = field.q, Poly1._adopt(field, (1,)), random.Random(g.deg)
    while True:
        b = Poly1(field, [field.elem_by_index(rng.randrange(q))
                          for _ in range(g.deg)])
        if field.p == 2:
            h = y = b
            for _ in range(field.n * d - 1):
                y = (y * y).divmod(g)[1]
                h = h + y
        else:
            h = _powmod(b, (q ** d - 1) // 2, g) - one
        s = poly1_gcd(g, h)
        if 0 < s.deg < g.deg:
            return s


def factor_poly1(f):
    """Monic irreducible factors with multiplicities (unit part dropped).

    _split splits each product from _distinct_degree until every piece has
    its degree d; a piece's multiplicity is 1 when the product is all that
    is left of f, else the number of times it divides f.
    """
    if not f:
        raise ZeroArgument("cannot factor the zero polynomial")
    f = f.monic()
    out = {}
    for d, g in _distinct_degree(f):
        simple, todo = g == f, [g]
        while todo:
            g = todo.pop()
            if g.deg > d:
                s = _split(g, d)
                todo += [s, g.divmod(s)[0]]
            elif simple:
                out[g] = 1
            else:
                out[g] = 0
                while not (qr := f.divmod(g))[1]:
                    f, out[g] = qr[0], out[g] + 1
    return out


def _is_irreducible(modulus, p):
    """Is the monic int tuple modulus irreducible over F_p?  It is when the
    first factor _distinct_degree finds is the whole of it."""
    P = Poly1.from_ints(make_field(p, 1), modulus)
    return P.deg > 0 and next(_distinct_degree(P))[0] == P.deg


def first_root(coeffs, field):
    """The first root in the field, in index order, of the polynomial with
    coefficients coeffs (in the field, constant first): the least of the
    roots of the degree-1 factors from factor_poly1."""
    P = Poly1(field, coeffs)
    if not P:
        return field.zero  # index 0: every element is a root
    roots = [(-x).coeffs[0] for x in factor_poly1(P) if x.deg == 1]
    if not roots:
        raise FieldMismatch("polynomial has no root in the field")
    return min(roots, key=lambda y: y.coeffs[::-1])


class Embedding:
    """A field embedding sub → sup fixing F_p, with a partial inverse.

    It is F_p-linear: apply combines mod p the rows of the coordinates of
    gen_image^i, i < sub.n, in sup, which rank_and_left_kernel reduces once.
    """

    def __init__(self, sub, sup):
        if sub.p != sup.p or sup.n % sub.n != 0:
            raise NotASubfield(f"{sub} does not embed in {sup}")
        self.sub, self.sup = sub, sup
        self.gen_image = sup.one if sub.n == 1 else first_root(
            [sup.from_int(c) for c in sub.modulus], sup)
        rows = [sup.one.coeffs]
        for _ in range(sub.n - 1):
            rows.append(_poly_mulmod_fp(rows[-1], self.gen_image.coeffs,
                                        sup.modulus, sup.p))
        fp = make_field(sub.p, 1)
        _, _, reduced = rank_and_left_kernel(
            [[fp.elem((c,)) for c in r] for r in rows], fp)
        self._cols = tuple(zip(*rows))
        self._pivots = [next(j for j, c in enumerate(r) if c) for r in reduced]
        self._back = tuple(zip(*([c.coeffs[0] for c in r[sup.n:]]
                                 for r in reduced)))

    def apply(self, a):
        p = self.sup.p
        return FqElem(self.sup, tuple(
            sum(c * r for c, r in zip(a.coeffs, col)) % p
            for col in self._cols))

    def section(self, b):
        """Inverse image of b, or raise NotASubfield if b is not in range.

        If b = apply(a), b's coordinates at the pivot columns are its
        coordinates in the reduced rows, and the same combination of their
        row operations gives a; otherwise apply does not give b back.
        """
        p, y = self.sub.p, [b.coeffs[j] for j in self._pivots]
        a = FqElem(self.sub, tuple(sum(c * r for c, r in zip(y, col)) % p
                                   for col in self._back))
        if self.apply(a) != b:
            raise NotASubfield("element not in the embedded subfield")
        return a


@lru_cache(maxsize=None)
def get_embedding(sub, sup):
    return Embedding(sub, sup)


def rank_and_left_kernel(rows, field):
    """Row rank, a basis for the left kernel and the reduced rows of a
    matrix over F_q, by Gauss–Jordan on the rows, each followed by its row
    of the identity.  A reduced row has 1 at its pivot column and 0 at the
    other pivots, then the combination of the input rows that makes it."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
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
    return rank, [row[width:] for row in aug[rank:]], aug[:rank]


def norm_rel(a, subfield):
    """Norm of a down to the given subfield, as an element of it: the power
    a^((q - 1)/(q_sub - 1)), read back by the embedding's section."""
    e = (a.field.q - 1) // (subfield.q - 1)
    return get_embedding(subfield, a.field).section(a ** e)


def trace_rel(a, subfield):
    """Relative trace of a down to the given subfield: the sum of its
    conjugates a^(q_sub^k), read back by the embedding's section."""
    acc, b = a.field.zero, a
    for _ in range(a.field.n // subfield.n):
        acc, b = acc + b, b ** subfield.q
    return get_embedding(subfield, a.field).section(acc)


# --------------------------------------------------------------------------
# Galois rings W_s(F_q) = (Z/p^s)[x]/(modulus)
# --------------------------------------------------------------------------

class GRElem:
    """Element of W_s(F_q), coordinates mod p^s against the modulus basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __add__(self, other):
        r = self.ring
        return GRElem(r, tuple((a + b) % r.ps
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        r = self.ring
        return GRElem(r, tuple((a - b) % r.ps
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        r = self.ring
        return GRElem(r, tuple((-a) % r.ps for a in self.coeffs))

    def __mul__(self, other):
        r = self.ring
        if r.n == 1:
            return GRElem(r, ((self.coeffs[0] * other.coeffs[0]) % r.ps,))
        return GRElem(r, _poly_mulmod_fp(self.coeffs, other.coeffs,
                                         r.modulus, r.ps))

    def __pow__(self, e):
        r = self.ring
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, r.one)

    def inv(self):
        """Inverse of a unit (nonzero mod p), by Newton lifting."""
        r = self.ring
        a0 = r.reduce_mod_p(self)
        if not a0:
            raise ZeroDivisionError("non-unit in Galois ring")
        b = r.from_fq(a0.inv())
        # Newton: b <- b(2 - ab), digits double each round
        prec = 1
        while prec < r.s:
            b = b * (r.two - self * b)
            prec *= 2
        return b

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, GRElem) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        return f"W{self.ring.s}({self.ring.field.p}^{self.ring.n}){list(self.coeffs)}"


class GaloisRing:
    """(Z/p^s)[x]/(modulus): the truncated Witt ring W_s(F_q)."""

    def __init__(self, field, s):
        self.field = field
        self.p = field.p
        self.n = field.n
        self.s = s
        self.ps = field.p ** s
        self.char = self.ps  # every coordinate is an integer mod char
        self.modulus = field.modulus  # naive lift, entries in [0, p)
        self.zero = GRElem(self, (0,) * self.n)
        self.one = GRElem(self, tuple([1] + [0] * (self.n - 1)))
        self.two = GRElem(self, tuple([2 % self.ps] + [0] * (self.n - 1)))

    def from_int(self, k):
        return GRElem(self, tuple([k % self.ps] + [0] * (self.n - 1)))

    def from_fq(self, a):
        """Naive (digit) lift of an F_q element."""
        return GRElem(self, tuple(a.coeffs))

    def reduce_mod_p(self, x):
        return FqElem(self.field, tuple(c % self.p for c in x.coeffs))

    def teichmuller(self, a):
        """Multiplicative lift of a: the limit of q-power iteration,
        computed on each call (lift_padic keeps one code table per ring)."""
        if not a:
            return self.zero
        x = self.from_fq(a)
        q = self.field.q
        while (y := x ** q) != x:
            x = y
        return x

    def divisible_by(self, x, k):
        """Is x ≡ 0 mod p^k?"""
        pk = self.p ** k
        return all(c % pk == 0 for c in x.coeffs)

    def divide_exact(self, x, k):
        """x / p^k for x ≡ 0 mod p^k; result valid mod p^{s-k}."""
        pk = self.p ** k
        if not self.divisible_by(x, k):
            raise ArithmeticError("inexact division by p^k")
        return GRElem(self, tuple((c // pk) % self.ps for c in x.coeffs))


@lru_cache(maxsize=None)
def galois_ring(field, s):
    return GaloisRing(field, s)
