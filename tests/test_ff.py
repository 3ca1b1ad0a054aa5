import pytest

from k2local import ff
from k2local.errors import (CompositeP, FieldMismatch, InvariantViolation,
                            NotASubfield, ReducibleModulus)

F2 = ff.make_field(2, 1)
F3 = ff.make_field(3, 1)
F4 = ff.make_field(2, 2)
F8 = ff.make_field(2, 3)
F9 = ff.make_field(3, 2)

SMALL = [F2, F3, F4, F8, F9, ff.make_field(5, 1), ff.make_field(2, 4)]


def test_make_field_basics():
    assert F2.q == 2 and list(F2.elements()) == [F2.zero, F2.one]
    assert F4.modulus == (1, 1, 1)  # x^2+x+1, the unique irreducible quadratic
    with pytest.raises(CompositeP):
        ff.make_field(4, 1)
    with pytest.raises(ReducibleModulus):
        ff.make_field(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2


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
    assert ff.trace_abs(F4.zero) == 0
    assert ff.trace_abs(F4.one) == 0  # 1+1 in F_2
    w = F4.gen
    assert ff.trace_abs(w) == 1  # w + w^2 = 1


def test_trace_linear_frobenius_invariant():
    for f in SMALL:
        if f.q > 81:
            continue
        for a in f.elements():
            assert ff.trace_abs(ff.frobenius(a)) == ff.trace_abs(a)
            for b in f.elements():
                s = (ff.trace_abs(a) + ff.trace_abs(b)) % f.p
                assert ff.trace_abs(a + b) == s


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


def test_first_root_is_the_least_index_root():
    # the embeddings' generator images and the roots at places of degree
    # >= 2 come from this one scan
    for f in [F4, F8, F9]:
        for coeffs in ([f.one, f.one, f.one], [f.gen, f.zero, f.one],
                       [f.one, f.one, f.zero, f.one]):
            roots = [x for x in f.elements()
                     if not sum((c * x ** k for k, c in enumerate(coeffs)),
                                f.zero)]
            if roots:
                assert ff.first_root(coeffs, f) == roots[0]
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


def test_trace_rel_tower():
    # relative trace composed with absolute trace of subfield = absolute trace
    for f, sub in [(F4, F2), (F9, F3)]:
        for a in f.elements():
            assert ff.trace_abs(ff.trace_rel(a, sub)) == ff.trace_abs(a)


def test_frobenius_automorphism_order():
    for f in [F4, F8, F9]:
        for a in f.elements():
            b = a
            for _ in range(f.n):
                b = ff.frobenius(b)
            assert b == a
            for c in f.elements():
                assert ff.frobenius(a * c) == ff.frobenius(a) * ff.frobenius(c)
                assert ff.frobenius(a + c) == ff.frobenius(a) + ff.frobenius(c)


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
            x = x * z
        assert len(seen) == f.q - 1


def test_teichmuller_examples():
    one = ff.teichmuller_lift(F3.one, 2)
    assert one.coeffs == (1,)
    zero = ff.teichmuller_lift(F3.zero, 2)
    assert not zero
    two = ff.teichmuller_lift(F3.elem((2,)), 2)
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
    ring = ff.GaloisRing(f, s)  # a fresh ring: its table starts empty
    assert not ring._teich
    cold = {}
    for a in f.elements():  # cold: each lift is computed and kept
        cold[a.coeffs] = ring.teichmuller(a)
        assert cold[a.coeffs] == _teichmuller_reference(ring, a)
    assert len(ring._teich) == f.q
    for a in f.elements():  # warm: each lift is read from the table
        assert ring.teichmuller(a) is cold[a.coeffs]
    assert len(ring._teich) == f.q


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
        ff.trace_abs(fake.gen)
