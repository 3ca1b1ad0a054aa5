"""Exact arithmetic in finite fields F_q and truncated Witt rings W_s(F_q).

Fields are F_p[x]/(m(x)) with a monic irreducible modulus stored
constant-term-first.  Truncated Witt rings of F_q are modelled as Galois
rings (Z/p^s)[x]/(m(x)) against the same polynomial basis, which is all the
characteristic-zero lifting the symbol layer needs.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import (CompositeP, FieldMismatch, InvariantViolation,
                     NotASubfield, ReducibleModulus, UsageError)


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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
    """base^e for an int e >= 0 by binary powering from one.

    One product per set bit of e, and one squaring per bit below the top
    one: the base is not squared again after the last bit.
    """
    result = one
    while True:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def _poly_powmod_fp(a, e, modulus, p):
    n = len(modulus) - 1
    base = tuple(a) + (0,) * (n - len(a))
    return power(base, e, tuple([1] + [0] * (n - 1)),
                 lambda x, y: _poly_mulmod_fp(x, y, modulus, p))


def _poly_gcd_fp(a, b, p):
    """Gcd of int-tuple polynomials (constant first) over F_p."""
    def trim(v):
        v = list(v)
        while v and v[-1] % p == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = [c % p for c in a]
        while len(r) >= len(b):
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] = (r[shift + i] - c * bc) % p
            r = trim(r)
            if not r:
                break
        a, b = b, r
    return a


def _is_irreducible(modulus, p):
    """Rabin's test: x^{p^n} = x mod f and gcd(x^{p^{n/l}} - x, f) = 1 for
    every prime l dividing n."""
    n = len(modulus) - 1
    if n == 0:
        return False
    if n == 1:
        return True
    xq = _poly_powmod_fp((0, 1), p ** n, modulus, p)
    if xq != tuple([0, 1] + [0] * (n - 2)):
        return False
    for l in range(2, n + 1):
        if n % l == 0 and is_prime(l):
            xs = list(_poly_powmod_fp((0, 1), p ** (n // l), modulus, p))
            xs[1] = (xs[1] - 1) % p
            g = _poly_gcd_fp(xs, modulus, p)
            if len(g) != 1:
                return False
    return True


class FqElem:
    """Element of F_q, coordinates w.r.t. the modulus basis, constant first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        f = self.field
        return FqElem(f, tuple((a + b) % f.p
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        f = self.field
        return FqElem(f, tuple((a - b) % f.p
                               for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        f = self.field
        return FqElem(f, tuple((-a) % f.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if f.n == 1:
            return FqElem(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        return FqElem(f, _poly_mulmod_fp(self.coeffs, other.coeffs,
                                         f.modulus, f.p))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inv() ** (-e)
        if not any(self.coeffs):
            return f.zero if e else f.one
        e %= f.q - 1
        return FqElem(f, _poly_powmod_fp(self.coeffs, e, f.modulus, f.p)) \
            if e else f.one

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

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


def _default_modulus(p, n):
    """Lexicographically least monic irreducible, constant-term-first order."""
    if n == 1:
        return (0, 1)
    # iterate lower-coefficient tuples (a_0, ..., a_{n-1}) in lex order
    def tuples(prefix, k):
        if k == n:
            yield tuple(prefix)
            return
        for c in range(p):
            yield from tuples(prefix + [c], k + 1)

    # every degree n >= 1 has an irreducible, so the loop returns
    for lower in tuples([], 0):
        cand = lower + (1,)
        if _is_irreducible(cand, p):
            return cand


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
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
    return _field_instance(p, n, modulus)


@lru_cache(maxsize=None)
def _field_instance(p, n, modulus):
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


def frobenius(a, k=1):
    """a ↦ a^{p^k}."""
    return a ** (a.field.p ** k)


def trace_abs(a):
    """Absolute trace F_q → F_p, returned as an integer mod p."""
    f = a.field
    acc = f.zero
    b = a
    for _ in range(f.n):
        acc = acc + b
        b = frobenius(b)
    if any(acc.coeffs[1:]):
        raise InvariantViolation("absolute trace escaped the prime field")
    return acc.coeffs[0]


def primitive_element(field):
    """Deterministic generator of F_q^×: least index of full order."""
    if field._prim is not None:
        return field._prim
    q = field.q
    if q == 2:
        field._prim = field.one
        return field.one
    prime_divs = [l for l in range(2, q) if (q - 1) % l == 0 and is_prime(l)]
    for k in range(1, q):
        a = field.elem_by_index(k)
        if not a:
            continue
        if all(a ** ((q - 1) // l) != field.one for l in prime_divs):
            field._prim = a
            return a
    raise AssertionError("no primitive element found")  # pragma: no cover


def first_root(coeffs, field):
    """The first root in the field, in index order, of the polynomial with
    coefficients coeffs (in the field, constant first)."""
    for x in field.elements():
        acc = field.zero
        pw = field.one
        for c in coeffs:
            if c:
                acc = acc + pw * c
            pw = pw * x
        if not acc:
            return x
    raise FieldMismatch("polynomial has no root in the field")


class Embedding:
    """A field embedding sub → sup fixing F_p, with a partial inverse."""

    def __init__(self, sub, sup):
        if sub.p != sup.p or sup.n % sub.n != 0:
            raise NotASubfield(f"{sub} does not embed in {sup}")
        self.sub = sub
        self.sup = sup
        self.gen_image = self._find_gen_image()
        # basis images of 1, g, g^2, ..., g^{sub.n-1} as F_p-columns in sup
        cols = []
        b = sup.one
        for _ in range(sub.n):
            cols.append(b.coeffs)
            b = b * self.gen_image
        self._cols = cols

    def _find_gen_image(self):
        sub, sup = self.sub, self.sup
        if sub.n == 1:
            return sup.one
        return first_root([sup.from_int(c) for c in sub.modulus], sup)

    def apply(self, a):
        acc = self.sup.zero
        pw = self.sup.one
        for c in a.coeffs:
            if c:
                acc = acc + pw * self.sup.elem((c,))
            pw = pw * self.gen_image
        return acc

    def section(self, b):
        """Inverse image of b, or raise NotASubfield if b is not in range."""
        sol = _solve_fp(self._cols, b.coeffs, self.sub.p)
        if sol is None:
            raise NotASubfield("element not in the embedded subfield")
        return FqElem(self.sub, tuple(sol))


@lru_cache(maxsize=None)
def get_embedding(sub, sup):
    return Embedding(sub, sup)


def _solve_fp(cols, target, p):
    """Solve sum_j x_j * cols[j] = target over F_p; None if inconsistent."""
    ncols = len(cols)
    nrows = len(target)
    # build augmented matrix rows
    mat = [[cols[j][i] % p for j in range(ncols)] + [target[i] % p]
           for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            pivots.append(None)
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(r)
        r += 1
    for i in range(r, nrows):
        if mat[i][ncols]:
            return None
    sol = [0] * ncols
    for c, piv in enumerate(pivots):
        if piv is not None:
            sol[c] = mat[piv][ncols]
        # free columns default to 0 (solution may be non-unique; any works)
    # verify (guards the free-column case)
    for i in range(nrows):
        s = sum(cols[j][i] * sol[j] for j in range(ncols)) % p
        if s != target[i] % p:
            return None
    return sol


def norm_rel(a, subfield):
    """Norm of a down to the given subfield, as an element of it."""
    field = a.field
    emb = get_embedding(subfield, field)
    if not a:
        return subfield.zero
    e = (field.q - 1) // (subfield.q - 1)
    return emb.section(a ** e)


def trace_rel(a, subfield):
    """Relative trace of a down to the given subfield."""
    field = a.field
    emb = get_embedding(subfield, field)
    steps = field.n // subfield.n
    acc = field.zero
    b = a
    for _ in range(steps):
        acc = acc + b
        b = b ** subfield.q
    return emb.section(acc)


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
        self._teich = {}  # Teichmüller lifts by the coeffs of a in F_q

    def from_int(self, k):
        return GRElem(self, tuple([k % self.ps] + [0] * (self.n - 1)))

    def from_fq(self, a):
        """Naive (digit) lift of an F_q element."""
        return GRElem(self, tuple(a.coeffs))

    def reduce_mod_p(self, x):
        return FqElem(self.field, tuple(c % self.p for c in x.coeffs))

    def teichmuller(self, a):
        """Multiplicative lift of a: the limit of q-power iteration.

        Each lift is computed once and kept in a per-ring table keyed by
        a.coeffs, filled on demand, so it never holds more than q entries.
        """
        x = self._teich.get(a.coeffs)
        if x is not None:
            return x
        x = self.zero
        if a:
            x = self.from_fq(a)
            q = self.field.q
            while True:
                y = x ** q
                if y == x:
                    break
                x = y
        self._teich[a.coeffs] = x
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


def teichmuller_lift(a, s):
    """Multiplicative lift of a ∈ F_q into W_s(F_q)."""
    return galois_ring(a.field, s).teichmuller(a)
