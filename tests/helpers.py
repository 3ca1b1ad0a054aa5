"""Reference routines that only the tests use, shared by several test files."""

from k2local.errors import InvariantViolation
from k2local.ff import is_prime, make_field
from k2local.witt import GhostVec

# Representative command set pinned by golden-file tests; outputs must be
# byte-stable across runs for fixed --seed.
GOLDEN_COMMANDS = [
    ["tame", "--field", "2^2/1,1,1", "z", "u", "t"],
    ["tame", "--field", "5^1", "2*u^2", "3*t", "u*t"],
    ["witt-pair", "--field", "2^1", "--m", "3", "u+t", "1-(u+t)", "u^-1"],
    ["witt-pair", "--field", "3^1", "--m", "2", "1+u*t", "t", "u^-1", "1"],
    ["boundary", "--field", "3^1", "u*t", "t"],
    ["decompose", "--field", "2^1", "--level", "3", "1+u*t", "t"],
    ["equiv", "--field", "2^1", "--level", "2", "1+u*t", "t", "1+u*t", "t"],
    ["reciprocity-curve", "--field", "3^1", "--m", "1", "u", "t", "u^-1"],
    ["reciprocity-curve", "--field", "2^1", "--m", "2", "--sweep", "3",
     "--seed", "9"],
    ["reciprocity-point", "--field", "2^2/1,1,1", "--curves", "t,u",
     "u", "t", "z"],
    ["duality-point", "--field", "3^1", "1", "1"],
    ["duality-curve", "--field", "2^1", "--level", "1", "2"],
]


#: every pair sub ⊆ sup with q_sup <= 3^8 and p^2 <= 3^8; a larger p has
#: only the pair F_p ⊆ F_p within the bound, which these leave out
SUBFIELD_PAIRS = [(make_field(p, m), make_field(p, n))
                  for p in range(2, 82) if is_prime(p)
                  for n in range(1, 9) if p ** n <= 3 ** 8
                  for m in range(1, n + 1) if n % m == 0]


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
