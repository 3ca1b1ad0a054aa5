"""Finite-length Witt vectors over pluggable coefficient rings.

Arithmetic is defined through the ghost map x(k) = Σ_{j≤k} p^j x_j^{p^{k-j}}.
The universal addition polynomials are derived by the exact integer ghost
recursion x_k = (G_k - Σ_{j<k} p^j x_j^{p^{k-j}}) / p^k over plain
{exponent-tuple: int} polynomials, with every division by p^k checked exact,
and cached per (p, m, op).  Characteristic-p rings evaluate the polynomials
with coefficients reduced mod p.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import (InvariantViolation, NonIntegralGhost, RingMismatch,
                     UnsupportedLength, WrongCharacteristic)
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

    def serialize(self):
        body = "; ".join(str(c) for c in self.components)
        return f"W_{self.length}[{self.ring.p}]({body})"

    def __repr__(self):
        return self.serialize()


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

def _poly_mul(f, g):
    """Product of two integer polynomials {exps: coef}."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_lincomb(pairs):
    """Σ k·a over (k, a) pairs of an integer and a polynomial."""
    out = {}
    for k, a in pairs:
        for e, c in a.items():
            out[e] = out.get(e, 0) + k * c
    return {e: c for e, c in out.items() if c}


def _poly_pow_p(f, p):
    """f^p by repeated multiplication."""
    out = f
    for _ in range(p - 1):
        out = _poly_mul(out, f)
    return out


@lru_cache(maxsize=None)
def witt_polynomials(p, m, op):
    """Monomial lists [(coef, exps)] for each output component.

    exps is a length-2m exponent tuple over (a_0..a_{m-1}, b_0..b_{m-1}).
    Component k follows the module's ghost recursion, G_k being the ghost
    sum of a and b; op must be "add".
    """
    def ghost_poly(offset, k):
        return {tuple(p ** (k - j) if v == offset + j else 0
                      for v in range(2 * m)): p ** j for j in range(k + 1)}

    if op != "add":  # pragma: no cover
        raise ValueError(op)
    powers = []  # x_j^{p^{k-j}} for every j < k
    out = []
    for k in range(m):
        gk = _poly_lincomb([(1, ghost_poly(0, k)), (1, ghost_poly(m, k))])
        powers = [_poly_pow_p(x, p) for x in powers]
        num = _poly_lincomb([(1, gk)] + [(-p ** j, x)
                                         for j, x in enumerate(powers)])
        pk = p ** k
        if any(c % pk for c in num.values()):  # pragma: no cover
            raise NonIntegralGhost(f"universal polynomial {op} p={p} m={m}")
        xk = {e: c // pk for e, c in num.items()}
        powers.append(xk)
        out.append(tuple((c, e) for e, c in xk.items()))
    return tuple(out)


@lru_cache(maxsize=None)
def witt_polynomials_mod_p(p, m, op):
    return tuple(tuple((c % p, e) for c, e in comp if c % p)
                 for comp in witt_polynomials(p, m, op))


def _eval_monomials(terms, comps, ring):
    powcache = {}

    def cpow(idx, e):
        key = (idx, e)
        v = powcache.get(key)
        if v is None:
            v = comps[idx] ** e
            powcache[key] = v
        return v

    acc = ring.zero
    for coef, exps in terms:
        term = None
        for idx, e in enumerate(exps):
            if e:
                term = cpow(idx, e) if term is None else term * cpow(idx, e)
        if term is None:
            term = ring.one
        acc = acc + ring.from_int(coef) * term
    return acc


def witt_arith(a, b, op):
    if a.ring is not b.ring or a.length != b.length:
        raise RingMismatch("witt_arith operands disagree")
    m = a.length
    if m > MAX_LENGTH:
        raise UnsupportedLength(f"length {m} exceeds configured max {MAX_LENGTH}")
    p = a.ring.p
    polys = (witt_polynomials_mod_p(p, m, op) if ring_is_char_p(a.ring)
             else witt_polynomials(p, m, op))
    comps = a.components + b.components
    return WittVec(a.ring, tuple(_eval_monomials(t, comps, a.ring)
                                 for t in polys))


def witt_add(a, b):
    return witt_arith(a, b, "add")


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


def witt_frobenius(w):
    ring = w.ring
    if not ring_is_char_p(ring):
        raise WrongCharacteristic("witt_frobenius needs a char-p ring")
    return WittVec(ring, tuple(c ** ring.p for c in w.components))


# --------------------------------------------------------------------------
# traces of Witt vectors over finite fields
# --------------------------------------------------------------------------

def witt_trace_to_prime(w):
    """Tr_{W_m(F_q)/W_m(F_p)}: Witt-sum of the Frobenius orbit.

    Input has FqElem components over a FieldSpec; the result is returned
    over GF(p) (components checked to lie in the prime subfield).  The sum
    starts at w and adds its n − 1 Frobenius conjugates, so over F_p it
    makes no Witt addition at all.
    """
    field = w.ring
    acc = b = w
    for _ in range(field.n - 1):
        b = witt_frobenius(b)
        acc = witt_add(acc, b)
    fp = make_field(field.p, 1)
    comps = []
    for c in acc.components:
        if any(c.coeffs[1:]):
            raise InvariantViolation("trace escaped the prime subfield")
        comps.append(fp.elem((c.coeffs[0],)))
    return WittVec(fp, tuple(comps))
