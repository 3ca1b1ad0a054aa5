"""Finite-length Witt vectors over pluggable coefficient rings.

Arithmetic is defined through the ghost map x(k) = Σ_{j≤k} p^j x_j^{p^{k-j}}.
The universal addition/subtraction/multiplication polynomials are derived
symbolically from the ghost coordinates over the integers, with every
division by p^k asserted exact, and cached per (p, m, op).  Characteristic-p
rings evaluate the polynomials with coefficients reduced mod p.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (InsufficientPadicPrecision, InvariantViolation,
                     NonIntegralGhost, RingMismatch, UnsupportedLength,
                     WrongCharacteristic)
from .ff import FieldSpec, GaloisRing, make_field

MAX_LENGTH = 4


class WittVec:
    """Length-m Witt vector; `ring` supplies zero/one/from_int and char data."""

    __slots__ = ("ring", "components", "precisions")

    def __init__(self, ring, components, precisions=None):
        self.ring = ring
        self.components = tuple(components)
        self.precisions = precisions  # per-component p-adic validity, if any

    @property
    def length(self):
        return len(self.components)

    def __eq__(self, other):
        return (isinstance(other, WittVec) and self.ring is other.ring
                and self.components == other.components)

    def __hash__(self):
        return hash((id(self.ring), self.components))

    def serialize(self, comp_str=str):
        p = ring_char(self.ring)
        body = "; ".join(comp_str(c) for c in self.components)
        return f"W_{self.length}[{p}]({body})"

    def __repr__(self):
        return self.serialize()


def ring_char(ring):
    """The prime p of the ring (characteristic p or p^s)."""
    return ring.p


def ring_is_char_p(ring):
    if isinstance(ring, FieldSpec):
        return True
    if isinstance(ring, GaloisRing):
        return ring.s == 1
    return getattr(ring, "char_p", False)


def witt_zero(ring, m):
    return WittVec(ring, (ring.zero,) * m)


# --------------------------------------------------------------------------
# universal polynomials
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def witt_polynomials(p, m, op):
    """Monomial lists [(coef, exps)] for each output component.

    exps is a length-2m exponent tuple over (a_0..a_{m-1}, b_0..b_{m-1}).
    Derived by symbolic ghost/unghost over Z; every p^k division is exact.
    """
    import sympy

    avars = sympy.symbols(f"a0:{m}")
    bvars = sympy.symbols(f"b0:{m}")
    allvars = avars + bvars

    def ghost(vs, k):
        return sum(p ** j * vs[j] ** (p ** (k - j)) for j in range(k + 1))

    if op == "add":
        gc = [ghost(avars, k) + ghost(bvars, k) for k in range(m)]
    elif op == "sub":
        gc = [ghost(avars, k) - ghost(bvars, k) for k in range(m)]
    elif op == "mul":
        gc = [ghost(avars, k) * ghost(bvars, k) for k in range(m)]
    else:  # pragma: no cover
        raise ValueError(op)

    xs = []
    out = []
    for k in range(m):
        num = sympy.expand(gc[k] - sum(p ** j * xs[j] ** (p ** (k - j))
                                       for j in range(k)))
        poly = sympy.Poly(num, *allvars)
        pk = p ** k
        terms = []
        expr_terms = []
        for monom, coef in poly.terms():
            c = int(coef)
            if c % pk != 0:  # pragma: no cover - guards the derivation
                raise NonIntegralGhost(f"universal polynomial {op} p={p} m={m}")
            c //= pk
            terms.append((c, tuple(int(e) for e in monom)))
            t = sympy.Integer(c)
            for v, e in zip(allvars, monom):
                if e:
                    t *= v ** int(e)
            expr_terms.append(t)
        xs.append(sympy.Add(*expr_terms))
        out.append(tuple(terms))
    return tuple(out)


@lru_cache(maxsize=None)
def witt_polynomials_mod_p(p, m, op):
    out = []
    for comp in witt_polynomials(p, m, op):
        out.append(tuple((c % p, e) for (c, e) in comp if c % p != 0))
    return tuple(out)


def _eval_monomials(terms, comps, ring, char_p):
    p = ring_char(ring)
    powcache = {}

    def power(idx, e):
        key = (idx, e)
        v = powcache.get(key)
        if v is None:
            v = comps[idx] ** e
            powcache[key] = v
        return v

    acc = ring.zero
    for coef, exps in terms:
        if char_p:
            coef %= p
            if coef == 0:
                continue
        term = None
        for idx, e in enumerate(exps):
            if e:
                term = power(idx, e) if term is None else term * power(idx, e)
        if term is None:
            term = ring.one
        cterm = ring.from_int(coef)
        acc = acc + cterm * term
    return acc


def witt_arith(a, b, op, max_length=MAX_LENGTH):
    if a.ring is not b.ring or a.length != b.length:
        raise RingMismatch("witt_arith operands disagree")
    m = a.length
    if m > max_length:
        raise UnsupportedLength(f"length {m} exceeds configured max {max_length}")
    p = ring_char(a.ring)
    char_p = ring_is_char_p(a.ring)
    polys = (witt_polynomials_mod_p(p, m, op) if char_p
             else witt_polynomials(p, m, op))
    comps = a.components + b.components
    return WittVec(a.ring, tuple(_eval_monomials(t, comps, a.ring, char_p)
                                 for t in polys))


def witt_add(a, b):
    return witt_arith(a, b, "add")


def witt_sub(a, b):
    return witt_arith(a, b, "sub")


def witt_mul(a, b):
    return witt_arith(a, b, "mul")


def witt_neg(a):
    return witt_sub(witt_zero(a.ring, a.length), a)


def witt_scale_int(a, e):
    """e·a in the Witt group, by double-and-add."""
    if e < 0:
        return witt_scale_int(witt_neg(a), -e)
    acc = witt_zero(a.ring, a.length)
    base = a
    while e:
        if e & 1:
            acc = witt_add(acc, base)
        base = witt_add(base, base)
        e >>= 1
    return acc


# --------------------------------------------------------------------------
# ghost coordinates over Galois rings
# --------------------------------------------------------------------------

class GhostVec:
    __slots__ = ("ring", "components")

    def __init__(self, ring, components):
        self.ring = ring
        self.components = tuple(components)

    @property
    def length(self):
        return len(self.components)

    def __eq__(self, other):
        return (isinstance(other, GhostVec) and self.ring is other.ring
                and self.components == other.components)

    def __repr__(self):
        return f"Ghost[{self.ring.p}]{list(self.components)}"


def ghost(w):
    """Ghost coordinates of a WittVec over a Galois ring W_s(F_q)."""
    ring = w.ring
    if not isinstance(ring, GaloisRing):
        raise WrongCharacteristic("ghost needs a torsion (Z/p^s) coefficient ring")
    if ring.s < w.length:
        raise InsufficientPadicPrecision(
            f"precision {ring.s} < length {w.length}")
    p = ring.p
    comps = []
    for k in range(w.length):
        acc = ring.zero
        for j in range(k + 1):
            acc = acc + ring.from_int(p ** j) * w.components[j] ** (p ** (k - j))
        comps.append(acc)
    return GhostVec(ring, comps)


def unghost(g):
    """Invert the ghost map; every division by p^k is asserted exact.

    Component k of the result is valid mod p^{s-k}; the per-component
    precisions are recorded on the returned vector.
    """
    ring = g.ring
    p = ring.p
    xs = []
    precs = []
    for k in range(g.length):
        acc = g.components[k]
        for j in range(k):
            acc = acc - ring.from_int(p ** j) * xs[j] ** (p ** (k - j))
        if not ring.divisible_by(acc, k):
            raise NonIntegralGhost(f"ghost component {k} fails p^{k}-divisibility")
        xs.append(ring.divide_exact(acc, k))
        precs.append(ring.s - k)
    return WittVec(ring, xs, precisions=tuple(precs))


def verschiebung(w):
    return WittVec(w.ring, (w.ring.zero,) + w.components)


def witt_frobenius(w):
    ring = w.ring
    if not ring_is_char_p(ring):
        raise WrongCharacteristic("witt_frobenius needs a char-p ring")
    p = ring_char(ring)
    return WittVec(ring, tuple(c ** p for c in w.components))


# --------------------------------------------------------------------------
# traces of Witt vectors over finite fields
# --------------------------------------------------------------------------

def witt_trace_to_prime(w):
    """Tr_{W_m(F_q)/W_m(F_p)}: Witt-sum of the Frobenius orbit.

    Input has FqElem components over a FieldSpec; the result is returned
    over GF(p) (components checked to lie in the prime subfield).
    """
    field = w.ring
    acc = witt_zero(field, w.length)
    b = w
    for _ in range(field.n):
        acc = witt_add(acc, b)
        b = witt_frobenius(b)
    fp = make_field(field.p, 1)
    comps = []
    for c in acc.components:
        if any(c.coeffs[1:]):
            raise InvariantViolation("trace escaped the prime subfield")
        comps.append(fp.elem((c.coeffs[0],)))
    return WittVec(fp, tuple(comps))
