import itertools
import math
import random
import time
import tracemalloc

import pytest

from k2local import ff, series
from k2local.cli import run
from k2local.errors import (CompositeP, FieldMismatch, InvariantViolation,
                            NotASubfield, ReducibleModulus, StepBudgetExceeded,
                            ZeroDivisor)
from k2local.series import Laurent2, lift_padic
from helpers import SUBFIELD_PAIRS, frobenius, trace_abs

F2 = ff.make_field(2, 1)
F3 = ff.make_field(3, 1)
F4 = ff.make_field(2, 2)
F8 = ff.make_field(2, 3)
F9 = ff.make_field(3, 2)
F7 = ff.make_field(7, 1)

SMALL = [F2, F3, F4, F8, F9, ff.make_field(5, 1), ff.make_field(2, 4)]


def test_make_field_basics():
    assert F2.q == 2 and list(F2.elements()) == [F2.zero, F2.one]
    assert F4.modulus == (1, 1, 1)  # x^2+x+1, the unique irreducible quadratic
    with pytest.raises(CompositeP):
        ff.make_field(4, 1)
    with pytest.raises(ReducibleModulus):
        ff.make_field(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2


def _default_modulus_reference(p, n):
    """The full lex walk, a_0 = 0 included, with a Rabin test each."""
    for k in range(p ** n):
        lower = [(k // p ** (n - 1 - i)) % p for i in range(n)]
        if ff._is_irreducible(tuple(lower) + (1,), p):
            return tuple(lower) + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_default_modulus_is_the_lex_least_irreducible(p):
    n = 2
    while p ** n <= 3 ** 7:
        assert ff._default_modulus(p, n) == _default_modulus_reference(p, n)
        n += 1


def _default_modulus_eager(p, n):
    """The enumeration the default modulus once made: itertools.product over
    whole ranges, which turns each of them into a tuple first."""
    if n == 1:
        return (0, 1)
    lowers = itertools.product(range(1, p), *[range(p)] * (n - 1))
    return next(c for c in (lo + (1,) for lo in lowers)
                if ff._is_irreducible(c, p))


def test_default_modulus_matches_the_eager_enumeration():
    checked = 0
    for p in (p for p in range(2, 3 ** 8) if ff.is_prime(p)):
        n = 1
        while p ** n <= 3 ** 8:
            assert ff._default_modulus(p, n) == _default_modulus_eager(p, n)
            checked, n = checked + 1, n + 1
    assert checked > 800


def test_default_modulus_enumerates_lazily():
    # F_p^2 for p = 1000003: its first candidate, x^2 + 1, is irreducible
    # (p = 3 mod 4); the eager enumeration took tens of MB for it
    ff._default_modulus.cache_clear()
    tracemalloc.start()
    try:
        field = ff.make_field(1000003, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.modulus == (1, 0, 1)
    assert peak < 1 << 20, peak


def _is_prime_by_trial_division(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _strong_probable_prime(n, b):
    """Does n pass the strong probable-prime test to base b?"""
    d, r = n - 1, 0
    while not d % 2:
        d, r = d // 2, r + 1
    x = pow(b, d, n)
    return x == 1 or any(pow(x, 2 ** i, n) == n - 1 for i in range(r))


def test_is_prime_matches_trial_division():
    assert [p for p in range(20000) if ff.is_prime(p)] == \
        [p for p in range(20000) if _is_prime_by_trial_division(p)]


# Carmichael numbers pass Fermat's test to every base prime to them
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 62745, 63973, 75361, 101101, 126217, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041,
              449065, 488881, 512461]
# strong pseudoprimes to base 2, then the least ones to the first 4, 9 and
# 12 prime bases, with their factors
STRONG_PSEUDOPRIMES = {
    2047: (23, 89), 3277: (29, 113), 4033: (37, 109), 4681: (31, 151),
    8321: (53, 157), 42799: (127, 337), 49141: (157, 313),
    3215031751: (151, 751, 28351),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441)}


def test_is_prime_rejects_pseudoprimes():
    for n in CARMICHAEL:
        assert pow(2, n - 1, n) == 1, n  # Fermat's test passes
        assert not ff.is_prime(n), n
    for n, factors in STRONG_PSEUDOPRIMES.items():
        assert math.prod(factors) == n and min(factors) > 1
        assert _strong_probable_prime(n, 2), n
        assert not ff.is_prime(n), n
    # the last one passes the strong test to every base up to 37
    n = 318665857834031151167461
    assert all(_strong_probable_prime(n, b) for b in ff._PRIME_BASES[:12])


def test_is_prime_on_mersenne_numbers():
    assert ff.is_prime(2 ** 61 - 1)
    assert 193707721 * 761838257287 == 2 ** 67 - 1
    assert not ff.is_prime(2 ** 67 - 1)


def test_primality_above_the_bound_is_refused():
    # below PRIME_BOUND the test is exact; above, it would not be
    assert ff.PRIME_BOUND > 3 * 10 ** 24
    with pytest.raises(StepBudgetExceeded):
        ff.is_prime(ff.PRIME_BOUND)
    with pytest.raises(StepBudgetExceeded):
        ff.parse_field(f"{ff.PRIME_BOUND + 2}^1")


@pytest.mark.parametrize("argv, value", [
    (["tame", "--field", "2305843009213693951^1", "u", "t", "1+u"], [1]),
    (["witt-pair", "--field", "2305843009213693951^1", "--m", "2", "1+u*t",
      "t", "u^-1", "u^-1*t^-1"], [[0], [1]]),
    (["tame", "--field", "1000000007^2", "u", "t", "1+u"], [1, 0]),
    (["reciprocity-curve", "--field", "2305843009213693951^1", "u", "t",
      "u^-1"], True),
    (["reciprocity-curve", "--field", "1000003^1", "u", "t", "1+u^2"], True),
    (["reciprocity-curve", "--field", "1000003^2", "u", "t", "1+u^2+z*u"],
     True)])
def test_large_characteristic_probes_answer_quickly(argv, value):
    # p = 2^61 - 1 spun in trial division, and F_p^2 for p = 10^9 + 7 ran
    # out of memory enumerating its modulus candidates; the curve sums took
    # discrete logs by baby-step giant-step in their norms, and factored at
    # a place of degree 2 with splitting candidates that no a in F_p split
    start = time.perf_counter()
    code, rep = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 0, rep
    assert rep["verdict" if argv[0].startswith("reciprocity") else "value"] \
        == value, rep


def _monic_int_polys(p, d):
    """Every monic polynomial of degree d over F_p, as int tuples with the
    constant term first."""
    for k in range(p ** d):
        yield tuple((k // p ** i) % p for i in range(d)) + (1,)


# Möbius function up to 6, for Gauss's count of the monic irreducibles
_MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}


@pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_rabin_test_matches_trial_division(p, top):
    # an oracle independent of Rabin's test: m is irreducible exactly when
    # no monic polynomial of degree 1 to deg(m)/2 divides it
    f = ff.make_field(p, 1)
    divisors = [ff.Poly1.from_ints(f, c) for d in range(1, top // 2 + 1)
                for c in _monic_int_polys(p, d)]
    for n in range(1, top + 1):
        count = 0
        for m in _monic_int_polys(p, n):
            poly = ff.Poly1.from_ints(f, m)
            irreducible = all(poly.divmod(g)[1] for g in divisors
                              if 2 * g.deg <= n)
            assert ff._is_irreducible(m, p) == irreducible, m
            count += irreducible
        assert count == sum(_MOBIUS[d] * p ** (n // d)
                            for d in range(1, n + 1) if n % d == 0) // n


def test_parse_field_roundtrip():
    for f in SMALL:
        assert ff.parse_field(f.serialize()) is f
    assert ff.parse_field("2^2/1,1,1") is F4


def test_field_axioms_exhaustive():
    for f in [F2, F3, F4, F9]:
        els = list(f.elements())
        for a in els:
            assert a + f.zero == a and a * f.one == a
            assert a + (-a) == f.zero
            if a:
                assert a * a.inv() == f.one
        for a in els:
            for b in els:
                assert a + b == b + a and a * b == b * a


def test_trace_examples():
    assert trace_abs(F4.zero) == 0
    assert trace_abs(F4.one) == 0  # 1+1 in F_2
    w = F4.gen
    assert trace_abs(w) == 1  # w + w^2 = 1


def test_trace_linear_frobenius_invariant():
    for f in SMALL:
        if f.q > 81:
            continue
        for a in f.elements():
            assert trace_abs(frobenius(a)) == trace_abs(a)
            for b in f.elements():
                s = (trace_abs(a) + trace_abs(b)) % f.p
                assert trace_abs(a + b) == s


def test_norm_examples():
    w = F4.gen
    assert ff.norm_rel(w, F2) == F2.one  # w * w^2 = w^3 = 1
    assert ff.norm_rel(F4.zero, F2) == F2.zero
    assert ff.norm_rel(F4.one, F2) == F2.one


def test_norm_multiplicative_and_power_on_subfield():
    for f, sub in [(F4, F2), (F8, F2), (F9, F3)]:
        d = f.n // sub.n
        emb = ff.get_embedding(sub, f)
        for a in f.elements():
            for b in f.elements():
                assert ff.norm_rel(a * b, sub) == \
                    ff.norm_rel(a, sub) * ff.norm_rel(b, sub)
        for a in sub.elements():
            assert ff.norm_rel(emb.apply(a), sub) == a ** d
    with pytest.raises(NotASubfield):
        ff.norm_rel(F8.gen, F4)


def test_section_inverts_apply_on_the_subfield():
    # b is in the image exactly when b^q_sub = b
    for sub, f in [(F2, F4), (F2, F8), (F4, ff.make_field(2, 4)), (F3, F9),
                   (F9, ff.make_field(3, 4))]:
        emb = ff.get_embedding(sub, f)
        for b in f.elements():
            if b ** sub.q == b:
                assert emb.apply(emb.section(b)) == b
            else:
                with pytest.raises(NotASubfield):
                    emb.section(b)
        for a in sub.elements():
            assert emb.section(emb.apply(a)) == a


def _section_reference(emb):
    """The map from b to its preimage, None when b is not in the image, read
    from the graph of apply: the pairs (a, b) with b = a·M, M the rows of
    the basis images, are the left kernel of M stacked on -1 times the
    identity, and the kernel's basis spans them over F_p."""
    sub, sup, p = emb.sub, emb.sup, emb.sub.p
    fp = ff.make_field(p, 1)
    rows, x = [], sup.one
    for _ in range(sub.n):
        rows.append(x.coeffs)
        x = x * emb.gen_image
    rows += [[-(i == j) for j in range(sup.n)] for i in range(sup.n)]
    _, kernel, _ = ff.rank_and_left_kernel(
        [[fp.from_int(c) for c in r] for r in rows], fp)
    basis = [[c.coeffs[0] for c in v] for v in kernel]
    graph = {}
    for cs in itertools.product(range(p), repeat=len(basis)):
        v = [sum(c * y for c, y in zip(cs, col)) % p for col in zip(*basis)]
        graph[tuple(v[sub.n:])] = ff.FqElem(sub, tuple(v[:sub.n]))
    assert len(graph) == sub.q
    return lambda b: graph.get(b.coeffs)


def _log_section(emb):
    """The map from b to its preimage by discrete logs, as section found it
    over the tables of a field and by baby-step giant-step above: a nonzero
    b = z_sup^k is in the image exactly when d = (q_sup - 1)/(q_sub - 1)
    divides k, and then it is the image of z_sub^(k/d / s), with
    apply(z_sub) = z_sup^(d s); None when b is not in the image."""
    sub, sup = emb.sub, emb.sup
    z = ff.primitive_element(sub)
    d = (sup.q - 1) // (sub.q - 1)
    s_inv = pow(sup.log(emb.apply(z)) // d, -1, sub.q - 1)

    def preimage(b):
        if not b:
            return sub.zero
        k, r = divmod(sup.log(b), d)
        return None if r else z ** (k * s_inv)
    return preimage


def _pair_id(pair):
    return f"{pair[0].p}^{pair[0].n}-{pair[1].p}^{pair[1].n}"


def _check_section(emb, reference):
    refused, preimage = 0, reference(emb)
    for b in emb.sup.elements():
        want = preimage(b)
        if want is None:
            refused += 1
            with pytest.raises(NotASubfield):
                emb.section(b)
        else:
            assert emb.section(b) == want
            assert emb.apply(want) == b
    assert refused == emb.sup.q - emb.sub.q


@pytest.mark.parametrize("sub, sup", SUBFIELD_PAIRS,
                         ids=[_pair_id(x) for x in SUBFIELD_PAIRS])
def test_section_matches_the_left_kernel_reference(sub, sup):
    _check_section(ff.get_embedding(sub, sup), _section_reference)


TABLE_PAIRS = [x for x in SUBFIELD_PAIRS if x[1].q <= ff.TABLE_MAX]


@pytest.mark.parametrize("sub, sup", TABLE_PAIRS,
                         ids=[_pair_id(x) for x in TABLE_PAIRS])
def test_section_matches_the_log_based_reference(sub, sup):
    _check_section(ff.get_embedding(sub, sup), _log_section)


@pytest.mark.parametrize("p, n, m", [(2305843009213693951, 1, 1),
                                     (2305843009213693951, 2, 1),
                                     (1000003, 2, 1), (1000003, 2, 2)])
def test_norm_and_trace_over_large_fields(p, n, m):
    # F_q over F_p for p = 2^61 - 1 and p = 10^6 + 3: the norm to F_p of a
    # in F_p^2 is a^(p+1) and the trace a + a^p; the section above is a
    # linear solve, where the log-based one built tables of sqrt(q) entries
    start = time.perf_counter()
    sup, sub = ff.make_field(p, n), ff.make_field(p, m)
    emb = ff.get_embedding(sub, sup)
    rng = random.Random(p)
    for _ in range(20):
        a = sup.elem_by_index(rng.randrange(1, sup.q))
        c = sub.elem_by_index(rng.randrange(sub.q))
        norm, trace = ff.norm_rel(a, sub), ff.trace_rel(a, sub)
        if m == n:
            assert (norm, trace, emb.section(a)) == (a, a, a)
        else:
            assert emb.apply(norm) == a ** (p + 1)
            assert emb.apply(trace) == a + a ** p
            assert ff.norm_rel(emb.apply(c), sub) == c * c
            if a ** p != a:
                with pytest.raises(NotASubfield):
                    emb.section(a)
        assert emb.section(emb.apply(c)) == c
    assert time.perf_counter() - start < 1


def _root_finder_inputs(rng):
    """(field, coefficients): fixed cubics and quadratics, then random
    polynomials, products of linear factors with repeats, and polynomials
    over a subfield (as a place's minimal polynomial in its residue field)."""
    for f in [F4, F8, F9]:
        for coeffs in ([f.one, f.one, f.one], [f.gen, f.zero, f.one],
                       [f.one, f.one, f.zero, f.one]):
            yield f, coeffs
    for f, sub in [(F4, F2), (F8, F2), (F9, F3), (ff.make_field(2, 4), F4),
                   (ff.make_field(3, 3), F3), (ff.make_field(7, 2), F7)]:
        emb = ff.get_embedding(sub, f)
        for _ in range(30):
            kind = rng.randrange(3)
            if kind == 0:
                coeffs = [f.one]
                for _ in range(rng.randrange(1, 5)):
                    r = f.elem_by_index(rng.randrange(f.q))
                    coeffs = [a - r * b for a, b in
                              zip([f.zero] + coeffs, coeffs + [f.zero])]
            elif kind == 1:
                coeffs = [emb.apply(sub.elem_by_index(rng.randrange(sub.q)))
                          for _ in range(f.n // sub.n)] + [f.one]
            else:
                coeffs = [f.elem_by_index(rng.randrange(f.q))
                          for _ in range(rng.randrange(1, 6))]
            yield f, coeffs


def test_first_root_is_the_least_index_root():
    # the embeddings' generator images and the roots at places of degree
    # >= 2 come from this one root finder; the reference scans the field
    for f, coeffs in _root_finder_inputs(random.Random(41)):
        roots = [x for x in f.elements()
                 if not sum((c * x ** k for k, c in enumerate(coeffs)),
                            f.zero)]
        if roots:
            assert ff.first_root(coeffs, f) == roots[0], coeffs
        else:
            with pytest.raises(FieldMismatch):
                ff.first_root(coeffs, f)
    with pytest.raises(FieldMismatch):
        ff.first_root([F2.one, F2.one, F2.one], F2)
    for f, sub in [(ff.make_field(2, 4), F4), (ff.make_field(3, 4), F9),
                   (F4, F2)]:
        gen = ff.get_embedding(sub, f).gen_image
        assert gen == (ff.first_root([f.from_int(c) for c in sub.modulus], f)
                       if sub.n > 1 else f.one)


@pytest.mark.parametrize("f", [F4, F8, F9, ff.make_field(5, 1)])
def test_first_root_matches_a_scan_on_every_small_polynomial(f):
    # every monic polynomial of degree 1 to 3, against a scan of the field
    for d in (1, 2, 3):
        for k in range(f.q ** d):
            coeffs = [f.elem_by_index(k // f.q ** i % f.q)
                      for i in range(d)] + [f.one]
            roots = [x for x in f.elements()
                     if not sum((c * x ** i for i, c in enumerate(coeffs)),
                                f.zero)]
            if roots:
                assert ff.first_root(coeffs, f) == roots[0], coeffs
            else:
                with pytest.raises(FieldMismatch):
                    ff.first_root(coeffs, f)


def test_first_root_at_degree_six_over_f7():
    # F_7^6 has 117 649 elements, too many to scan.  The modulus' roots are
    # x and its conjugates, none of them in F_7, so x (index 7) is the
    # least; an irreducible cubic's roots are one root's three conjugates
    big = ff.make_field(7, 6)
    assert ff.first_root([big.from_int(c) for c in big.modulus], big) \
        == big.gen
    sub = ff.make_field(7, 3)
    gen = ff.get_embedding(sub, big).gen_image
    roots = [gen ** 7 ** k for k in range(3)]
    assert all(not sum((big.from_int(c) * r ** k
                        for k, c in enumerate(sub.modulus)), big.zero)
               for r in roots)
    assert gen == min(roots, key=lambda r: r.coeffs[::-1])


def test_trace_rel_tower():
    # relative trace composed with absolute trace of subfield = absolute trace
    for f, sub in [(F4, F2), (F9, F3)]:
        for a in f.elements():
            assert trace_abs(ff.trace_rel(a, sub)) == trace_abs(a)


def test_frobenius_automorphism_order():
    for f in [F4, F8, F9]:
        for a in f.elements():
            b = a
            for _ in range(f.n):
                b = frobenius(b)
            assert b == a
            for c in f.elements():
                assert frobenius(a * c) == frobenius(a) * frobenius(c)
                assert frobenius(a + c) == frobenius(a) + frobenius(c)


# Coordinate arithmetic, kept as the reference for the tables: the
# schoolbook product with reduction, and powers by squaring over it.

def _ref_mul(a, b):
    f = a.field
    return ff.FqElem(f, ff._poly_mulmod_fp(a.coeffs, b.coeffs, f.modulus, f.p))


def _ref_pow(a, e):
    """a^e with 0^0 = 1; a negative e reduces mod q - 1 (a is nonzero)."""
    f = a.field
    if not a:
        return f.zero if e else f.one
    return ff.FqElem(f, ff._poly_powmod_fp(a.coeffs, e % (f.q - 1),
                                            f.modulus, f.p))


def test_primitive_element():
    assert ff.primitive_element(F2) == F2.one
    assert ff.primitive_element(F3) == F3.elem((2,))
    assert ff.primitive_element(F4) == F4.gen
    for f in SMALL:
        z = ff.primitive_element(f)
        seen = set()
        x = f.one
        for _ in range(f.q - 1):
            seen.add(x.coeffs)
            x = _ref_mul(x, z)
        assert len(seen) == f.q - 1
        assert x == f.one


TABLE_FIELDS = [F2, F3, F4, F8, F9, ff.make_field(2, 4), ff.make_field(5, 2),
                ff.make_field(3, 3), ff.make_field(7, 2),
                ff.parse_field("2^3/1,1,0,1")]  # not the default modulus


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=ff.FieldSpec.serialize)
def test_table_arithmetic_matches_coordinates(f):
    els = list(f.elements())
    for a in els:
        for b in els:
            assert a * b == _ref_mul(a, b)
        for e in range(-2 * f.q, 2 * f.q + 1):
            if a or e >= 0:
                assert a ** e == _ref_pow(a, e)
            else:
                with pytest.raises(ZeroDivisionError):
                    a ** e
        if a:
            assert a.inv() == _ref_pow(a, f.q - 2)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inv()
        for k in range(1, f.n + 1):
            assert frobenius(a, k) == _ref_pow(a, f.p ** k)


@pytest.mark.parametrize("p, n", [(2, 12), (2, 13)])
def test_arithmetic_at_and_above_the_table_bound(p, n):
    f = ff.make_field(p, n)
    assert (f.q <= ff.TABLE_MAX) == (n == 12)
    rng = random.Random(f"{p}^{n}")
    for _ in range(2000):
        a, b = (f.elem_by_index(rng.randrange(f.q)) for _ in range(2))
        e = rng.randrange(-3 * f.q, 3 * f.q)
        assert a * b == _ref_mul(a, b)
        if a:
            assert a.inv() == _ref_pow(a, -1)
            assert a ** e == _ref_pow(a, e)
    assert (f._log is not None) == (f.q <= ff.TABLE_MAX)


def test_table_fields_invert_without_exponentiation(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)
        return wrapped

    fields = (F3, F9, ff.make_field(2, 4))
    big = ff.make_field(2, 13)
    for f in fields:
        f.log(f.one)  # the tables exist from here on
    monkeypatch.setattr(ff, "power", counting(ff.power))
    monkeypatch.setattr(ff, "_poly_powmod_fp", counting(ff._poly_powmod_fp))
    for f in fields:
        for a in f.elements():
            if a:
                a.inv()
                a ** -5
            a ** 7
            frobenius(a)
    assert calls == []
    big.gen.inv()
    assert calls  # above the bound the coordinate path still powers


def test_power_makes_no_product_by_one():
    # the result starts at the base's power at the lowest set bit: one
    # squaring per bit below the top one, one product per later set bit
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b
    for e in range(1, 300):
        products.clear()
        assert ff.power(3, e, 1, mul) == 3 ** e
        assert len(products) == bin(e).count("1") + e.bit_length() - 2
        assert 1 not in [x for pair in products for x in pair]
    assert ff.power(3, 0, "one", mul) == "one"


@pytest.mark.parametrize("f", [F2, F3, ff.make_field(5, 1), F7],
                         ids=ff.FieldSpec.serialize)
def test_prime_field_sums_match_the_coordinate_path(f):
    for a in f.elements():
        for b in f.elements():
            assert a + b == ff.FqElem(f, tuple(
                (x + y) % f.p for x, y in zip(a.coeffs, b.coeffs)))
            assert a - b == ff.FqElem(f, tuple(
                (x - y) % f.p for x, y in zip(a.coeffs, b.coeffs)))


def test_log_is_the_discrete_log():
    for f in TABLE_FIELDS:
        z = ff.primitive_element(f)
        x = f.one
        for k in range(f.q - 1):
            assert f.log(x) == k
            x = _ref_mul(x, z)


@pytest.mark.parametrize("n", [13, 16])
def test_log_above_the_table_bound_is_the_discrete_log(n):
    # Baby-step giant-step, checked on walks of z^k: one step at a time over
    # the first giant steps, then in long strides up to k = q - 2.
    f = ff.make_field(2, n)
    assert f.q > ff.TABLE_MAX
    z = ff.primitive_element(f)
    m = math.isqrt(f.q - 2) + 1  # ceil(sqrt(q - 1)) baby steps
    x = f.one
    for k in range(2 * m + 2):
        assert f.log(x) == k
        x = _ref_mul(x, z)
    stride = (f.q - 1) // 100
    k = (f.q - 2) % stride
    x, step = _ref_pow(z, k), _ref_pow(z, stride)
    while k < f.q - 1:
        assert f.log(x) == k
        x, k = _ref_mul(x, step), k + stride
    assert f._log is None  # no full table was built


def test_teichmuller_examples():
    ring = ff.galois_ring(F3, 2)
    one = ring.teichmuller(F3.one)
    assert one.coeffs == (1,)
    zero = ring.teichmuller(F3.zero)
    assert not zero
    two = ring.teichmuller(F3.elem((2,)))
    assert two.coeffs == (8,)  # unique cube root of itself ≡ 2 mod 3, mod 9


def test_teichmuller_multiplicative_and_torsion():
    for f in [F4, F9, F3]:
        for s in (1, 3):
            ring = ff.galois_ring(f, s)
            for a in f.elements():
                for b in f.elements():
                    assert ring.teichmuller(a * b) == \
                        ring.teichmuller(a) * ring.teichmuller(b)
                if a:
                    assert ring.teichmuller(a) ** (f.q - 1) == ring.one


def _teichmuller_reference(ring, a):
    """The q-power iteration from the digit lift, with no table."""
    if not a:
        return ring.zero
    x = ring.from_fq(a)
    while x ** ring.field.q != x:
        x = x ** ring.field.q
    return x


@pytest.mark.parametrize("f", [F4, F9])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_teichmuller_table_matches_iteration(f, s):
    # lift_padic keeps one code table per ring, filled on demand
    ring = ff.galois_ring(f, s)
    units = [a for a in f.elements() if a]
    x = Laurent2.from_dict(f, {(0, i): a for i, a in enumerate(units)})
    lifted = lift_padic(x, s)
    for i, a in enumerate(units):
        assert lifted.coeff(i, 0) == _teichmuller_reference(ring, a)
        assert ring.teichmuller(a) == _teichmuller_reference(ring, a)
    assert len(series._teichmuller_codes(ring)) == f.q - 1
    assert lift_padic(x, s) == lifted  # read back from the table


def test_galois_ring_inverse():
    ring = ff.galois_ring(F9, 4)
    for k in range(1, 40):
        x = ff.GRElem(ring, (k % ring.ps, (3 * k + 1) % ring.ps))
        if ring.reduce_mod_p(x):
            assert x * x.inv() == ring.one


def test_trace_outside_prime_field_is_an_invariant_violation():
    # F_2[x]/(x^2) is not a field: the "trace" of x is x + x^2 = x
    fake = ff.FieldSpec(2, 2, (0, 0, 1))
    with pytest.raises(InvariantViolation):
        trace_abs(fake.gen)


# The element-wise Poly1 arithmetic that Poly1's code rows replaced, kept as
# the reference for the differential test below: coefficient tuples of
# FqElem, constant first, with no trailing zero.

def _poly_ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _poly_ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _poly_ref_trim(out)


def _poly_ref_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _poly_ref_trim(out)


def _poly_ref_divmod(field, a, b):
    rem, n = list(a), len(b) - 1
    quo = [field.zero] * max(0, len(rem) - n)
    inv_lead = b[-1].inv()
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k] * inv_lead
        quo[k - n] = c
        for j, y in enumerate(b):
            rem[k - n + j] = rem[k - n + j] - c * y
    return _poly_ref_trim(quo), _poly_ref_trim(rem[:n])


def _poly_ref_serialize(a, var):
    bits = ["[" + ",".join(str(v) for v in c.coeffs) + "]"
            + (f"*{var}^{k}" if k else "")
            for k, c in enumerate(a) if c]
    return " + ".join(reversed(bits)) or "0"


@pytest.mark.parametrize("f", [F2, F3, F4, F9, ff.make_field(5, 1),
                               ff.make_field(2, 13)],
                         ids=lambda f: f"{f.p}^{f.n}")
def test_poly1_matches_the_element_wise_reference(f):
    rng = random.Random(f.q)
    for _ in range(60):
        a, b = ([f.elem_by_index(rng.randrange(f.q))
                 for _ in range(rng.randrange(0, 7))] for _ in range(2))
        if rng.randrange(4) == 0:
            a += [f.zero] * 2  # trailing zeros are dropped
        A, B, ra, rb = ff.Poly1(f, a), ff.Poly1(f, b), _poly_ref_trim(a), \
            _poly_ref_trim(b)
        c = f.elem_by_index(rng.randrange(f.q))
        assert A.coeffs == ra and A.deg == len(ra) - 1
        assert A == ff.Poly1(f, ra) and hash(A) == hash(ff.Poly1(f, ra))
        assert (A + B).coeffs == _poly_ref_add(ra, rb)
        assert (-A).coeffs == tuple(-x for x in ra)
        assert (A - B).coeffs == _poly_ref_add(ra, tuple(-x for x in rb))
        assert (A * B).coeffs == _poly_ref_mul(f, ra, rb)
        assert (A * c).coeffs == _poly_ref_mul(f, ra, (c,) if c else ())
        assert (A ** 3).coeffs == _poly_ref_mul(f, ra, _poly_ref_mul(f, ra, ra))
        assert A.derivative().coeffs == _poly_ref_trim(
            x * f.from_int(k) for k, x in enumerate(ra))[1:]
        assert A.serialize("t") == _poly_ref_serialize(ra, "t")
        if rb:
            quo, rem = A.divmod(B)
            assert (quo.coeffs, rem.coeffs) == _poly_ref_divmod(f, ra, rb)
            monic = B.monic().coeffs
            assert monic == tuple(x * rb[-1].inv() for x in rb)
        else:
            with pytest.raises(ZeroDivisor):
                A.divmod(B)
            assert B.monic() == B


def test_row_division_sums_within_the_width(monkeypatch):
    # a fresh F_9 with 2 bits of headroom: a remainder coefficient may sum
    # its code and at most 2 products, min(quotient terms, deg b) of them
    monkeypatch.setattr(ff, "HEADROOM", 2)
    dom = ff.FieldSpec(3, 2, F9.modulus)
    rng = random.Random(9)

    def poly(deg):
        return [dom.elem_by_index(rng.randrange(dom.q)) for _ in range(deg)] \
            + [dom.elem_by_index(rng.randrange(1, dom.q))]
    for da, db, ok in ((4, 3, True), (5, 2, True), (9, 1, True),
                       (5, 3, False), (6, 4, False)):
        a, b = poly(da), poly(db)
        if ok:
            quo, rem = ff.Poly1(dom, a).divmod(ff.Poly1(dom, b))
            assert (quo.coeffs, rem.coeffs) == _poly_ref_divmod(dom, a, b)
        else:
            with pytest.raises(StepBudgetExceeded):
                ff.Poly1(dom, a).divmod(ff.Poly1(dom, b))
