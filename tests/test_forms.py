"""Tests for differential forms: dlog, wedge, residue."""

import random
import time

import pytest

from k2local.errors import (CoefficientOutsidePrecision, InvariantViolation,
                            PrecisionTooLow, ZeroDivisor)
from k2local.ff import galois_ring, make_field
from k2local.forms import d_dt, d_du, dlog, residue, wedge
from k2local.series import Laurent2, invert


def _dlog_reference(f, finv):
    """The one-form df/f as the pair (du part, dt part), for finv = 1/f."""
    return d_du(f) * finv, d_dt(f) * finv


def boxed_dlog(f):
    """dlog(f) = (du part, dt part) with 1/f inverted in the box (12, 12)."""
    return _dlog_reference(f, invert(f, 12, 12))


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
W2F9 = galois_ring(F9, 2)
W3F5 = galois_ring(F5, 3)


def differential(f):
    """The exterior derivative df of a Laurent2, as a one-form (a, b)."""
    return d_du(f), d_dt(f)


def poly(dom, d):
    return Laurent2.from_dict(dom, d)


def rand_unit(dom, rng, nterms=4):
    d = {(0, 0): 1 + rng.randrange(dom.q - 1)}
    for _ in range(nterms):
        key = (rng.randrange(0, 3), rng.randrange(-2, 4))
        if key != (0, 0):
            d[key] = rng.randrange(dom.q)
    f = Laurent2.from_dict(dom, d)
    i = rng.randrange(-2, 3)
    j = rng.randrange(-2, 3)
    return f.monomial_mul(dom.one, i, j)


class TestDerivatives:
    def test_examples(self):
        f = poly(F3, {(2, 5): 1})  # u^5 t^2
        assert d_du(f) == poly(F3, {(2, 4): 5 % 3})
        assert d_dt(f) == poly(F3, {(1, 5): 2})

    def test_char_kills_p_powers(self):
        f = poly(F3, {(0, 3): 1, (3, 0): 2})
        assert d_du(f).is_zero() or not d_du(f).terms
        assert not d_dt(f).terms

    def test_leibniz(self):
        rng = random.Random(5)
        for dom in (F3, F4):
            for _ in range(20):
                f = rand_unit(dom, rng)
                g = rand_unit(dom, rng)
                assert d_du(f * g) == d_du(f) * g + f * d_du(g)
                assert d_dt(f * g) == d_dt(f) * g + f * d_dt(g)


class TestDlog:
    def test_dlog_monomial(self):
        # dlog(u^i t^j) = i du/u + j dt/t
        f = poly(F3, {(2, 1): 1})
        w = boxed_dlog(f)
        assert w[0] == poly(F3, {(0, -1): 1})
        assert w[1] == poly(F3, {(-1, 0): 2})

    def test_dlog_multiplicative(self):
        rng = random.Random(9)
        for dom in (F3, F4, F9):
            for _ in range(15):
                f = rand_unit(dom, rng)
                g = rand_unit(dom, rng)
                lhs = boxed_dlog(f * g)
                rhs = [x + y for x, y in zip(boxed_dlog(f), boxed_dlog(g))]
                assert lhs[0].same_known_terms(rhs[0])
                assert lhs[1].same_known_terms(rhs[1])


def rand_elem(dom, rng, unit=False):
    """A random element of a field or Galois ring, a unit when unit is set."""
    while True:
        c = type(dom.one)(dom, tuple(rng.randrange(dom.char)
                                     for _ in range(dom.n)))
        if any(a % dom.p for a in c.coeffs) or (c and not unit):
            return c


def rand_exact_unit(dom, rng):
    """c·u^i·t^j·(1 + terms): the terms lie in rows 0-2 and may sit below
    the lead in u on rows above it, as 1 - f of a Steinberg pair does."""
    d = {(0, 0): rand_elem(dom, rng, unit=True)}
    for _ in range(rng.randint(1, 4)):
        j = rng.randrange(3)
        d[(j, rng.randrange(-2 if j else 1, 4))] = rand_elem(dom, rng)
    return Laurent2.from_dict(dom, d).monomial_mul(
        dom.one, rng.randint(-2, 2), rng.randint(-2, 2))


def rand_monomial(dom, rng):
    return Laurent2.monomial(dom, rand_elem(dom, rng, unit=True),
                             rng.randint(-3, 3), rng.randint(-3, 3))


def rand_symbol_pair(dom, rng, kind):
    """(f, g): two random exact units, a Steinberg pair {f, 1 - f}, a
    monomial against a unit, or two monomials."""
    if kind == "steinberg":
        while True:
            f = rand_exact_unit(dom, rng)
            g = Laurent2.one(dom) - f
            if g.codes and any(a % dom.p for a in g.leading()[2].coeffs):
                return f, g
    if kind == "monomial":
        return rand_monomial(dom, rng), rand_exact_unit(dom, rng)
    if kind == "monomials":
        return rand_monomial(dom, rng), rand_monomial(dom, rng)
    return rand_exact_unit(dom, rng), rand_exact_unit(dom, rng)


def checked_known_terms(a, b):
    """Assert a and b agree wherever both know a coefficient; return how
    many nonzero coefficients were compared."""
    assert a.same_known_terms(b)
    tp = min(a.t_prec, b.t_prec)
    return sum(i < min(a.uprec(j), b.uprec(j))
               for j in set(a.codes) | set(b.codes) if j < tp
               for i in set(a.codes.get(j, ())) | set(b.codes.get(j, ())))


class TestSymbolDlog:
    """dlog(f, g, inv), the two-form (df ∧ dg)/(fg) of {f, g}, against
    the wedge of the one-forms df/f and dg/g."""

    @pytest.mark.parametrize("dom", [F2, F3, F4, F9, W2F9, W3F5])
    def test_matches_wedge_of_one_forms(self, dom):
        rng = random.Random(dom.char * 10 + dom.n)
        start = time.perf_counter()
        compared = 0
        for k in range(120):
            kind = ("units", "steinberg", "monomial", "monomials")[k % 4]
            f, g = rand_symbol_pair(dom, rng, kind)
            box = (rng.randint(2, 8), rng.randint(2, 8))
            eta = dlog(f, g, invert(f * g, *box))
            ref = wedge(_dlog_reference(f, invert(f, *box)),
                        _dlog_reference(g, invert(g, *box)))
            compared += checked_known_terms(eta, ref)
            if kind == "steinberg":
                # df ∧ d(1 - f) = 0: the two-form is exactly zero
                assert eta == Laurent2.zero(dom)
        assert compared > 200
        assert time.perf_counter() - start < 3.0

    @pytest.mark.parametrize("dom", [F2, F3, F5, W2F9, W3F5])
    def test_monomials_give_the_determinant(self, dom):
        # dlog(u^a t^b, u^c t^d) = (ad - bc)·u^-1 t^-1 du∧dt, exactly
        rng = random.Random(dom.char)
        for _ in range(20):
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            f = Laurent2.monomial(dom, rand_elem(dom, rng, unit=True), a, b)
            g = Laurent2.monomial(dom, rand_elem(dom, rng, unit=True), c, d)
            got = dlog(f, g, invert(f * g, 3, 3))
            assert got == poly(dom, {(-1, -1): a * d - b * c})

    @pytest.mark.parametrize("dom", [F2, F9, W3F5])
    def test_antisymmetric(self, dom):
        rng = random.Random(7 * dom.char)
        for k in range(12):
            f, g = rand_symbol_pair(dom, rng, ("units", "monomial")[k % 2])
            inv = invert(f * g, 5, 5)
            assert dlog(f, g, inv) == -dlog(g, f, inv)


class TestWedgeResidue:
    def test_wedge_antisymmetric(self):
        rng = random.Random(13)
        for _ in range(10):
            w1 = (rand_unit(F9, rng), rand_unit(F9, rng))
            w2 = (rand_unit(F9, rng), rand_unit(F9, rng))
            assert wedge(w1, w2) == -wedge(w2, w1)
            assert not wedge(w1, w1).terms

    def test_residue_example(self):
        # res( (u^-1 t^-1 + u^2) du^dt ) = 1
        form = poly(F3, {(-1, -1): 1, (0, 2): 1})
        assert residue(form) == F3.one

    def test_residue_of_dlog_wedge(self):
        # res(dlog(u) ^ dlog(t)) = 1, res(dlog(t) ^ dlog(u)) = -1
        u = poly(F3, {(0, 1): 1})
        t = poly(F3, {(1, 0): 1})
        assert residue(wedge(boxed_dlog(u), boxed_dlog(t))) == F3.one
        assert residue(wedge(boxed_dlog(t), boxed_dlog(u))) == F3.from_int(-1)

    def test_residue_of_exact_form_vanishes(self):
        # d(f) ∧ dg + df ∧ d(g) arrangement: res(df ∧ dg) = 0 for polynomials
        rng = random.Random(17)
        for _ in range(20):
            f = rand_unit(F4, rng)
            g = rand_unit(F4, rng)
            form = wedge(differential(f), differential(g))
            if (-1) in form.terms and (-1) in form.terms.get(-1, {}):
                pass
            assert residue(form) == F4.zero

    def test_residue_outside_precision(self):
        a = Laurent2.from_dict(F2, {}, t_prec=-1)
        with pytest.raises(CoefficientOutsidePrecision):
            residue(a)

    def test_residue_lets_other_errors_through(self):
        # an internal fault must not pose as a precision shortfall
        class Broken:
            def coeff(self, i, j):
                raise InvariantViolation("broken coefficient table")
        with pytest.raises(InvariantViolation):
            residue(Broken())

    def test_residue_dlog_steinberg_style(self):
        # res(dlog(f) ^ dlog(1-f)) = 0 whenever both make sense
        rng = random.Random(21)
        one = Laurent2.one(F9)
        for _ in range(15):
            f = rand_unit(F9, rng)
            g = one - f
            if not g.terms:
                continue
            try:
                form = wedge(boxed_dlog(f), boxed_dlog(g))
                r = residue(form)
            except (PrecisionTooLow, ZeroDivisor):
                continue
            assert r == F9.zero


def rand_region_series(dom, rng):
    """A random series with a random region: a t-window and row bounds."""
    elem = type(dom.one)
    rows = {}
    for _ in range(rng.randrange(0, 12)):
        cs = tuple(rng.randrange(dom.char) for _ in range(dom.n))
        rows.setdefault(rng.randrange(-4, 4), {})[rng.randrange(-4, 4)] = \
            elem(dom, cs)
    t_prec = rng.choice([None, None, rng.randrange(-3, 5)])
    u_prec = {rng.randrange(-4, 4): rng.randrange(-3, 5)
              for _ in range(rng.randrange(0, 4))}
    return Laurent2(dom, rows, t_prec, u_prec)


class TestDotProductResidue:
    @pytest.mark.parametrize("dom", [F3, F4, W2F9])
    def test_matches_the_formed_product(self, dom):
        # the old path formed g·a and read one coefficient of it
        rng = random.Random(dom.char * 10 + dom.n)
        raised = nonzero = 0
        for _ in range(1500):
            a = rand_region_series(dom, rng)
            g = rand_region_series(dom, rng)
            try:
                want = residue(g * a)
            except CoefficientOutsidePrecision:
                raised += 1
                with pytest.raises(CoefficientOutsidePrecision):
                    residue(a, g)
                continue
            assert residue(a, g) == want
            nonzero += bool(want)
        assert 200 < raised < 1300 and nonzero > 40

    def test_exact_example(self):
        # (u^-1 t^-1 + u^2) · (1 + u t) has residue 1 in every row split
        a = poly(F3, {(-1, -1): 1, (0, 2): 1})
        g = poly(F3, {(0, 0): 1, (1, 1): 1})
        assert residue(a, g) == F3.one
        assert residue(g, a) == F3.one

    def test_outside_the_product_region(self):
        # g known only below u^0 in row 0 and a starting at u^-1 in row -1:
        # the product's row -1 is known below u^(0 + (-1)), so not at u^-1
        a = poly(F3, {(-1, -1): 1})
        g = Laurent2(F3, {0: {-1: F3.one}}, None, {0: 0})
        with pytest.raises(CoefficientOutsidePrecision):
            residue(a, g)
        with pytest.raises(CoefficientOutsidePrecision):
            residue(g * a)
