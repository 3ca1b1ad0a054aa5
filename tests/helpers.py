"""Reference routines that only the tests use, shared by several test files."""

from k2local.errors import InvariantViolation
from k2local.witt import GhostVec


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


def ghost(w):
    """Ghost coordinates of a WittVec over a Galois ring W_s(F_q) with
    s >= its length: component k is sum_{j <= k} p^j w_j^(p^(k-j))."""
    ring = w.ring
    p = ring.p
    comps = []
    for k in range(w.length):
        acc = ring.zero
        for j in range(k + 1):
            acc = acc + ring.from_int(p ** j) * w.components[j] ** p ** (k - j)
        comps.append(acc)
    return GhostVec(ring, comps)
