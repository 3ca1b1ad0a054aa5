"""Tests for K₂ symbols: tame symbol, boundary, Witt pairing, decomposition."""

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k2local import symbols
from k2local.errors import (CoefficientOutsidePrecision, FieldMismatch,
                            PrecisionTooLow, StepBudgetExceeded,
                            UnsupportedLength, ZeroArgument)
from k2local.ff import make_field, primitive_element
from k2local.forms import residue
from k2local.series import Laurent2, bar_valuation, invert, laurent_domain
from k2local.symbols import (K2Elem, TameValue, WittPairer, _Decomposer,
                             boundary, k2_decompose, k2_equiv, pairing_box,
                             symbol, tame_symbol_det, tame_symbol_signed,
                             with_box, witt_pair_local)
from k2local.witt import WittVec, witt_zero
from helpers import trace_abs


def verify_appendix_identity(which, params, level):
    """Check one of the three unit-symbol identities at its natural level.

    1: {1+δ^p t^k, t} ≡ {1+δ^p t^k, δ}^p             (level k+1)
    2: {1−iv t^j u^i, u} ≡ {1+jv u^i t^j, t}          (level j+1)
    3: {1+f u^i t^l, 1+g u^j} ≡
       {1+f u^i · jg u^j (1+g u^j)^{-1} · t^l, u}     (level l+1)
    """
    if which == 1:
        delta, k = params["delta"], params["k"]
        field = delta.dom
        p = field.p
        one = Laurent2.one(field)
        t = Laurent2.monomial(field, field.one, 0, 1)
        base = one + (delta ** p) * (t ** k)
        lhs = symbol(base, t)
        rhs = symbol(base, delta, p)
        return k2_equiv(lhs, rhs, level)
    if which == 2:
        field = params["v"].field
        i, j, v = params["i"], params["j"], params["v"]
        one = Laurent2.one(field)
        u = Laurent2.monomial(field, field.one, 1, 0)
        t = Laurent2.monomial(field, field.one, 0, 1)
        lhs = symbol(one - Laurent2.monomial(field, field.from_int(i) * v, i, j), u)
        rhs = symbol(one + Laurent2.monomial(field, field.from_int(j) * v, i, j), t)
        return k2_equiv(lhs, rhs, level)
    if which == 3:
        field = params["f"].field
        f, g = params["f"], params["g"]
        i, j, l = params["i"], params["j"], params["l"]
        one = Laurent2.one(field)
        u = Laurent2.monomial(field, field.one, 1, 0)
        gu = Laurent2.monomial(field, g, j, 0)
        lhs = symbol(one + Laurent2.monomial(field, f, i, l), one + gu)
        inner = Laurent2.monomial(field, f, i, l) * \
            gu.int_scale(j) * invert(one + gu, 12, 12)
        rhs = symbol(one + inner, u)
        return k2_equiv(lhs, rhs, level)
    raise ZeroArgument(f"unknown identity {which}")


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2)

# no known term, but a finite region: zero only at this precision
APPARENT_ZEROS = [Laurent2(F2, {}, None, {0: 2}), Laurent2(F2, {}, 3)]


def mono(dom, c, i=0, j=0):
    if isinstance(c, int):
        c = dom.from_int(c)
    return Laurent2.monomial(dom, c, i, j)


def U(dom):
    return mono(dom, 1, 1, 0)


def T(dom):
    return mono(dom, 1, 0, 1)


def rand_unit(dom, rng, allow_shift=True):
    d = {(0, 0): dom.elem_by_index(1 + rng.randrange(dom.q - 1))}
    for _ in range(4):
        key = (rng.randrange(0, 3), rng.randrange(-2, 4))
        if key != (0, 0):
            d[key] = dom.elem_by_index(rng.randrange(dom.q))
    f = Laurent2.from_dict(dom, d)
    if allow_shift:
        f = f.monomial_mul(dom.one, rng.randrange(-2, 3), rng.randrange(-2, 3))
    return f


class TestTameSymbol:
    def test_zeta_u_t(self):
        for dom in (F4, F9, F5):
            z = mono(dom, primitive_element(dom))
            got = tame_symbol_signed(z, U(dom), T(dom))
            assert got.value == primitive_element(dom)
            assert tame_symbol_det(z, U(dom), T(dom)).value == got.value

    def test_principal_units(self):
        one = Laurent2.one(F9)
        eps = one + mono(F9, 1, 1, 1)
        assert tame_symbol_signed(eps, eps, one + mono(F9, 2, 0, 1)).value == F9.one

    def test_steinberg(self):
        rng = random.Random(41)
        for dom in (F3, F4, F9):
            for _ in range(20):
                f = rand_unit(dom, rng)
                g = Laurent2.one(dom) - f
                h = rand_unit(dom, rng)
                if not g.terms:
                    continue
                assert tame_symbol_det(f, g, h).value == dom.one
                assert tame_symbol_signed(f, g, h).value == dom.one

    def test_uu_zeta_even(self):
        got = tame_symbol_det(U(F2), U(F2), mono(F2, 1))
        assert got.value == F2.one

    def test_agreement_random(self):
        rng = random.Random(43)
        for dom in (F2, F3, F4, F5, F9):
            for _ in range(60):
                f = rand_unit(dom, rng)
                g = rand_unit(dom, rng)
                h = rand_unit(dom, rng)
                assert tame_symbol_det(f, g, h).value == \
                    tame_symbol_signed(f, g, h).value

    def test_multiplicative(self):
        rng = random.Random(47)
        for _ in range(25):
            f1 = rand_unit(F9, rng)
            f2 = rand_unit(F9, rng)
            g = rand_unit(F9, rng)
            h = rand_unit(F9, rng)
            assert tame_symbol_det(f1 * f2, g, h).value == \
                tame_symbol_det(f1, g, h).value * tame_symbol_det(f2, g, h).value

    def test_zero_raises(self):
        with pytest.raises(ZeroArgument):
            tame_symbol_det(Laurent2.zero(F2), U(F2), T(F2))


class TestZeroEntries:
    def test_exact_zero_is_bad_input(self):
        with pytest.raises(ZeroArgument):
            symbol(Laurent2.zero(F2), T(F2))

    @pytest.mark.parametrize("f", APPARENT_ZEROS)
    def test_apparent_zero_is_a_precision_shortfall(self, f):
        for call in (lambda: symbol(f, T(F2)), lambda: symbol(T(F2), f),
                     lambda: tame_symbol_det(U(F2), f, T(F2))):
            with pytest.raises(PrecisionTooLow):
                call()


class TestFieldMismatch:
    def test_entry_over_another_field(self):
        for f, g in ((U(F3), T(F2)), (U(F2), T(F3)), (U(F3), T(F3))):
            with pytest.raises(FieldMismatch):
                K2Elem(F2, [(f, g, 1)])

    def test_product_over_two_fields(self):
        for a, b in ((symbol(U(F2), T(F2)), symbol(U(F3), T(F3))),
                     (K2Elem(F2, []), K2Elem(F4, []))):
            with pytest.raises(FieldMismatch):
                a * b
            with pytest.raises(FieldMismatch):
                b * a


class TestBoundary:
    def test_u_t(self):
        b = boundary(symbol(U(F3), T(F3)), (12, 12))
        assert b == mono(F3, 1, 1, 0)
        assert bar_valuation(boundary(symbol(U(F3), T(F3)), (12, 12))) == 1

    def test_t_t(self):
        b = boundary(symbol(T(F3), T(F3)), (12, 12))
        assert b == mono(F3, -1 % 3)

    def test_units_trivial(self):
        rng = random.Random(53)
        for _ in range(20):
            a = rand_unit(F4, rng, allow_shift=False)
            b = rand_unit(F4, rng, allow_shift=False)
            val = boundary(symbol(a, b), (12, 12))
            assert val.same_known_terms(Laurent2.one(F4))

    def test_unramified_examples(self):
        z = mono(F4, primitive_element(F4))
        assert bar_valuation(boundary(symbol(z, T(F4)), (12, 12))) == 0
        eps = Laurent2.one(F4) + mono(F4, 1, 1, 0)
        assert bar_valuation(boundary(symbol(eps, T(F4)), (12, 12))) == 0


class TestWittPairing:
    def test_steinberg_zero(self):
        rng = random.Random(59)
        dom = laurent_domain(F3)
        for _ in range(10):
            f = rand_unit(F3, rng)
            g = Laurent2.one(F3) - f
            if not g.terms:
                continue
            e = symbol(f, g)
            h = WittVec(dom, (mono(F3, rng.randrange(1, 3), -1, -1), dom.zero))
            w = witt_pair_local(e, h, 2)
            assert not any(w.components)

    def test_ut_constant(self):
        for dom in (F2, F4, F9, F5):
            ld = laurent_domain(dom)
            e = symbol(U(dom), T(dom))
            for c in dom.elements():
                g = WittVec(ld, (Laurent2.monomial(dom, c),))
                w = witt_pair_local(e, g, 1)
                assert w.components[0] == make_field(dom.p, 1).from_int(trace_abs(c))

    def test_closed_form_i1(self):
        # ({1+a·u·t, t}, c·u⁻¹t⁻¹) at m=1 → Tr(c·a)
        for dom in (F3, F4):
            ld = laurent_domain(dom)
            for a in dom.elements():
                if not a:
                    continue
                e = symbol(Laurent2.one(dom) + mono(dom, a, 1, 1), T(dom))
                for c in dom.elements():
                    g = WittVec(ld, (Laurent2.monomial(dom, c, -1, -1),))
                    w = witt_pair_local(e, g, 1)
                    assert w.components[0] == \
                        make_field(dom.p, 1).from_int(trace_abs(a * c))

    def test_bilinear_in_e(self):
        rng = random.Random(61)
        ld = laurent_domain(F4)
        for _ in range(8):
            f1 = rand_unit(F4, rng)
            f2 = rand_unit(F4, rng)
            g = rand_unit(F4, rng)
            h = WittVec(ld, (mono(F4, 1 + rng.randrange(3), -1, -1),
                             mono(F4, rng.randrange(4), -1, 0)))
            from k2local.witt import witt_add
            lhs = witt_pair_local(K2Elem(F4, [(f1, g, 1), (f2, g, 1)]), h, 2)
            rhs = witt_pair_local(symbol(f1 * f2, g), h, 2)
            assert lhs == rhs

    def test_additive_in_g(self):
        from k2local.witt import witt_add
        rng = random.Random(67)
        ld = laurent_domain(F3)
        for _ in range(8):
            e = symbol(rand_unit(F3, rng), rand_unit(F3, rng))
            g1 = WittVec(ld, (mono(F3, 1 + rng.randrange(2), -1, -1),
                              mono(F3, rng.randrange(3), 0, -1)))
            g2 = WittVec(ld, (mono(F3, 1 + rng.randrange(2), -2, 0),
                              mono(F3, rng.randrange(3), -1, 0)))
            lhs = witt_pair_local(e, witt_add(g1, g2), 2)
            rhs = witt_add(witt_pair_local(e, g1, 2), witt_pair_local(e, g2, 2))
            assert lhs == rhs

    def test_integral_pairs_zero(self):
        rng = random.Random(71)
        ld = laurent_domain(F4)
        for _ in range(10):
            f = rand_unit(F4, rng, allow_shift=False)
            g = rand_unit(F4, rng, allow_shift=False)
            h = WittVec(ld, (mono(F4, rng.randrange(4), rng.randrange(3),
                                  rng.randrange(3)), ld.zero))
            w = witt_pair_local(symbol(f, g), h, 2)
            assert not any(w.components)

    def test_residue_outside_the_box(self):
        # u^-60 t^-60 reaches far past a 12×12 box
        one = Laurent2.one(F2)
        pairer = WittPairer(symbol(one + U(F2) + T(F2), T(F2)), 1, 12, 12)
        g = WittVec(laurent_domain(F2), (mono(F2, 1, -60, -60),))
        with pytest.raises(CoefficientOutsidePrecision):
            pairer.pair(g)

    @pytest.mark.parametrize("m", [0, -1])
    def test_length_below_one_is_refused(self, m):
        g = WittVec(laurent_domain(F2), (mono(F2, 1, -1, -1),))
        with pytest.raises(UnsupportedLength):
            witt_pair_local(symbol(U(F2), T(F2)), g, m)
        with pytest.raises(UnsupportedLength):
            WittPairer(symbol(U(F2), T(F2)), 1, 8, 8).pair(g, m)

    def test_length_above_the_pairers_is_refused(self):
        g = WittVec(laurent_domain(F2), (mono(F2, 1, -1, -1), U(F2)))
        pairer = WittPairer(symbol(U(F2), T(F2)), 1, 8, 8)
        for pair in (pairer.pair, pairer.pair_untraced):
            with pytest.raises(UnsupportedLength):
                pair(g, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_inverse_per_factor(self, k, monkeypatch):
        # the pairer inverts fg once for each factor {f, g} of the symbol
        rng = random.Random(k)
        calls = []

        def counted(f, t_box, u_box):
            calls.append(1)
            return invert(f, t_box, u_box)
        e = K2Elem(F3, [(rand_unit(F3, rng), rand_unit(F3, rng), 1 + j)
                        for j in range(k)])
        monkeypatch.setattr(symbols, "invert", counted)
        WittPairer(e, 2, 6, 6)
        assert len(calls) == k


@st.composite
def _pairing_input(draw):
    """(e, g, m): a symbol of two random units and a Witt vector of
    monomials reaching at most three exponents below zero."""
    q, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (3, 3), (4, 1), (4, 2), (4, 3), (5, 1),
                                 (5, 2), (9, 1), (9, 2)]))
    dom = {2: F2, 3: F3, 4: F4, 5: F5, 9: F9}[q]
    elem = st.integers(1, q - 1).map(dom.elem_by_index)

    def unit():
        d = {(0, 0): draw(elem)}
        for key in draw(st.lists(st.tuples(st.integers(0, 2),
                                           st.integers(-1, 2)), max_size=2)):
            if key != (0, 0):
                d[key] = draw(elem)
        return Laurent2.from_dict(dom, d).monomial_mul(
            dom.one, draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    depth = 3 if m == 1 else 1
    exps = st.integers(-depth, depth)
    g = WittVec(laurent_domain(dom),
                tuple(mono(dom, draw(elem), draw(exps), draw(exps))
                      for _ in range(m)))
    return symbol(unit(), unit()), g, m


def _pair_at(e, g, m, box):
    """The pairing at a fixed box, or None where a residue falls outside."""
    try:
        return WittPairer(e, m, *box).pair(g, m)
    except CoefficientOutsidePrecision:
        return None


def _pair_and_box(e, g, m):
    """witt_pair_local's pairing, with the box that answered."""
    return with_box(pairing_box(e.field.p, [g.components[:m]]),
                    lambda box: (WittPairer(e, m, *box).pair(g, m), box))


# {f, 1 - f} against g, as the (c, i, j) of the terms c·u^i·t^j: the wedge
# of the one-forms df/f and dg/g is short of their first box on the u-side;
# the two-form (df ∧ dg)/(fg) is exactly zero, so the first box answers
STEINBERG_SHORT = [
    (F3, [(2, 3, -1), (1, 2, 1)], [(1, -1, -3), (2, 1, -2)]),
    (F3, [(2, -2, 1)], [(2, -2, -3), (1, -2, -2), (2, 1, 1)]),
    (F3, [(2, 4, -1), (1, 2, 1)], [(2, -3, -3), (2, -3, 1), (2, -2, 1)]),
    (F5, [(1, 3, -1), (2, 1, 0), (1, 2, 0)], [(1, 0, -3), (2, 1, -3)]),
]


def _random_f(dom, rng):
    """c plus 1-3 terms c·u^i·t^j (i in [-2, 2], j in [0, 2]), times
    u^a·t^b with a, b in [-2, 2]."""
    def elem():
        return dom.elem_by_index(rng.randrange(1, dom.q))
    d = {(0, 0): elem()}
    for _ in range(rng.randint(1, 3)):
        d[(rng.randint(0, 2), rng.randint(-2, 2))] = elem()
    return Laurent2.from_dict(dom, d).monomial_mul(
        dom.one, rng.randint(-2, 2), rng.randint(-2, 2))


class TestPairingBox:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_pairing_input())
    def test_box_does_not_change_the_pairing(self, egm):
        e, g, m = egm
        w, (t_box, u_box) = _pair_and_box(e, g, m)
        assert w == witt_pair_local(e, g, m)
        assert _pair_at(e, g, m, (2 * t_box, 2 * u_box)) == w
        first = pairing_box(e.field.p, [g.components[:m]])
        assert _pair_at(e, g, m, first) in (w, None)

    def test_demand_sets_the_box(self):
        # component r of g enters ghost_k raised to p^(k-r)
        g = (mono(F2, 1, -2, -2), mono(F2, 1, 0, -1), mono(F2, 1, 1, 0))
        assert pairing_box(2, [g]) == (10, 10)
        h = (mono(F3, 1, -7, 0),)
        assert pairing_box(3, [(g[0], g[1]), h]) == (8, 9)
        assert pairing_box(2, []) == (2, 2)

    def test_steinberg_case_answers_at_first_box(self):
        # {f, 1-f} with f = u^-1 t + t at m = 3 over F_2: df ∧ d(1 - f) = 0,
        # so the two-form is known everywhere and the first box answers
        one = Laurent2.one(F2)
        f = mono(F2, 1, -1, 1) + T(F2)
        e = symbol(f, one - f)
        g = WittVec(laurent_domain(F2), (mono(F2, 1, -2, -2),
                                         mono(F2, 1, 0, -1), U(F2)))
        w, box = _pair_and_box(e, g, 3)
        assert box == pairing_box(2, [g.components]) == (10, 10)
        assert w == witt_zero(make_field(2, 1), 3)
        assert witt_pair_local(e, g, 3) == w
        assert _pair_at(e, g, 3, box) == w

    @pytest.mark.parametrize("dom, fs, gs", STEINBERG_SHORT)
    def test_steinberg_inputs_short_on_u_answer(self, dom, fs, gs):
        f = Laurent2.from_dict(dom, {(j, i): c for c, i, j in fs})
        e = symbol(f, Laurent2.one(dom) - f)
        m = len(gs)
        g = WittVec(laurent_domain(dom), tuple(mono(dom, *c) for c in gs))
        w, box = _pair_and_box(e, g, m)
        assert w == witt_zero(make_field(dom.p, 1), m)
        # the first box answers
        assert box == pairing_box(dom.p, [g.components])

    def test_equal_edges_of_different_reads_do_not_stall(self):
        # at (14, 5), (14, 10) and (28, 20) a different residue falls short
        # each time, at the same u-edge -1 of the product; named in the
        # rows of eta that fell short, no shortfall comes back
        f = mono(F2, 1, -1, -1) + mono(F2, 1, -3, 0) + mono(F2, 1, -2, 0)
        g = mono(F2, 1, -1, 2) + mono(F2, 1, 1, 2)
        e = symbol(f, g)
        h = WittVec(laurent_domain(F2), (mono(F2, 1, 1, -3),
                                         mono(F2, 1, 0, -2),
                                         mono(F2, 1, -3, 1)))
        w, box = _pair_and_box(e, h, 3)
        assert box == (14, 40)
        assert w == _pair_at(e, h, 3, (28, 80))

    def test_random_exact_pairings_answer(self):
        # exact symbols never meet a cap: every pairing answers, and the
        # Steinberg relation {f, 1 - f} = 1 pairs to zero
        rng = random.Random(1)
        start = time.perf_counter()
        done = 0
        while done < 200:
            dom = rng.choice([F2, F3, F4, F5])
            m = rng.randint(1, 2 if dom is F5 else 3)
            f = _random_f(dom, rng)
            steinberg = done % 3 == 0
            g = Laurent2.one(dom) - f if steinberg else _random_f(dom, rng)
            if not g.codes:
                continue
            h = WittVec(laurent_domain(dom), tuple(
                mono(dom, dom.elem_by_index(rng.randrange(1, dom.q)),
                     rng.randint(-3, 1), rng.randint(-3, 1))
                for _ in range(m)))
            w = witt_pair_local(symbol(f, g), h, m)
            if steinberg:
                assert w == witt_zero(make_field(dom.p, 1), m)
            done += 1
        assert time.perf_counter() - start < 3.0

    def test_unknowable_residue_raises_fast(self):
        # f is known only below t^3, so eta is too, and the residue against
        # u^-6 t^-6 reads eta at t^5 in every box
        one = Laurent2.one(F2)
        f = Laurent2.from_dict(F2, {(0, 0): 1, (1, 1): 1}, t_prec=3)
        g = WittVec(laurent_domain(F2), (mono(F2, 1, -6, -6),))
        start = time.perf_counter()
        with pytest.raises(CoefficientOutsidePrecision):
            witt_pair_local(symbol(f, one + T(F2)), g, 1)
        assert time.perf_counter() - start < 1.0


class TestWithBox:
    @staticmethod
    def run_until(size, error=PrecisionTooLow):
        """A run that records its boxes and answers from side `size` on,
        raising the shortfall of the first side below it."""
        seen = []

        def run(box):
            seen.append(box)
            for side, edge in zip("tu", box):
                if edge < size:
                    raise error(f"short on {side}", side, size - 1, edge)
            return box
        return seen, run

    @staticmethod
    def run_reading(t_need, u_need, t_lag=0, u_lag=0):
        """A run that records its boxes and reads u^u_need t^t_need of data
        known below (t_box - t_lag, u_box - u_lag)."""
        seen = []

        def run(box):
            seen.append(box)
            t_edge, u_edge = box[0] - t_lag, box[1] - u_lag
            if t_need >= t_edge:
                raise PrecisionTooLow("short on t", "t", t_need, t_edge)
            if u_need >= u_edge:
                raise PrecisionTooLow("short on u", "u", u_need, u_edge)
            return box
        return seen, run

    def test_returns_at_the_first_box_that_answers(self):
        seen, run = self.run_until(8)
        assert with_box((2, 2), run) == (8, 8)
        assert seen == [(2, 2), (8, 2), (8, 8)]

    def test_a_named_shortfall_grows_only_its_side(self):
        # t short by 4 grows t by 4, then u short by 40 grows u by 40
        seen, run = self.run_reading(4, 40, t_lag=1, u_lag=1)
        assert with_box((2, 2), run) == (6, 42)
        assert seen == [(2, 2), (6, 2), (6, 42)]
        # short by less than the side: the side doubles
        seen, run = self.run_reading(2, 0)
        assert with_box((2, 2), run) == (4, 2)
        seen, run = self.run_reading(-5, 3, t_lag=-9)
        assert with_box((3, 3), run) == (3, 6)
        assert seen == [(3, 3), (3, 6)]

    def test_a_stalled_shortfall_is_reraised(self):
        # the data is known below t^3 whatever the box
        seen = []

        def run(box):
            seen.append(box)
            raise PrecisionTooLow("short on t", "t", 5, 3)
        with pytest.raises(PrecisionTooLow):
            with_box((2, 2), run)
        # its own side grew, then both sides, then it is raised
        assert seen == [(2, 2), (5, 2), (10, 4)]

    def test_coefficient_reads_name_their_shortfall(self):
        def short(exc):
            e = exc.value
            return e.side, e.need, e.edge, e.row
        f = Laurent2.from_dict(F2, {(0, 0): 1}, t_prec=3, u_prec={1: 4})
        with pytest.raises(PrecisionTooLow) as exc:
            f.coeff(0, 5)
        assert short(exc) == ("t", 5, 3, None)
        with pytest.raises(PrecisionTooLow) as exc:
            f.coeff(6, 1)
        assert short(exc) == ("u", 6, 4, 1)
        # a product names the shortfall in the exponents of the operand
        # that fell short: u^2·t^-1 of f·u^-2·t^-2 reads u^4·t of f, and
        # t of it reads t^3
        g = mono(F2, 1, -2, -2)
        with pytest.raises(PrecisionTooLow) as exc:
            g.mul_coeff(f, 2, -1)
        assert short(exc) == ("u", 4, 4, 1)
        with pytest.raises(PrecisionTooLow) as exc:
            g.mul_coeff(f, -1, 1)
        assert short(exc) == ("t", 3, 3, None)
        # the residue passes the shortfall on
        with pytest.raises(CoefficientOutsidePrecision) as exc:
            residue(f, mono(F2, 1, -5, -2))
        assert short(exc) == ("u", 4, 4, 1)

    def test_other_errors_pass_through_at_once(self):
        seen, run = self.run_until(8, ZeroArgument)
        with pytest.raises(ZeroArgument):
            with_box((2, 2), run)
        assert seen == [(2, 2)]

    def test_an_unnamed_shortfall_is_raised(self):
        # only invert's guard of a side below 1 names no side
        seen = []

        def run(box):
            seen.append(box)
            raise PrecisionTooLow("box too small")
        with pytest.raises(PrecisionTooLow):
            with_box((2, 3), run)
        assert seen == [(2, 3)]

    @pytest.mark.parametrize("box", [(0, 4), (4, -3)])
    def test_a_side_below_one_cannot_grow(self, box):
        seen, run = self.run_until(8)
        with pytest.raises(PrecisionTooLow):
            with_box(box, run)
        assert seen == [box]


class TestEquivAndIdentities:
    def test_reflexive(self):
        e = symbol(Laurent2.one(F3) + mono(F3, 1, 1, 1), T(F3))
        assert k2_equiv(e, e, 3)

    def test_appendix2_example(self):
        one = Laurent2.one(F2)
        a = symbol(one + mono(F2, 1, 1, 1), U(F2))   # 1−ut = 1+ut in char 2
        b = symbol(one + mono(F2, 1, 1, 1), T(F2))
        assert k2_equiv(a, b, 2)

    def test_nontrivial_detected(self):
        one = Laurent2.one(F2)
        a = symbol(one + mono(F2, 1, 1, 1), T(F2))
        assert not k2_equiv(a, K2Elem(F2, []), 2)

    def test_identity1(self):
        for dom, k in ((F2, 1), (F3, 1), (F3, 2)):
            assert verify_appendix_identity(
                1, {"delta": U(dom) + Laurent2.one(dom), "k": k}, k + 1)

    def test_identity2(self):
        for dom in (F2, F3):
            for (i, j) in ((1, 1), (1, 2), (2, 1)):
                if i % dom.p == 0:
                    continue
                assert verify_appendix_identity(
                    2, {"i": i, "j": j, "v": dom.one}, j + 1)

    def test_identity3(self):
        for dom in (F2, F3):
            assert verify_appendix_identity(
                3, {"f": dom.one, "g": dom.one, "i": 1, "j": 1, "l": 1}, 2)


class TestDecompose:
    def test_ut(self):
        basis = k2_decompose(symbol(U(F3), T(F3)), 3)
        assert basis.ut_exp == 1
        assert not basis.e1_terms and not basis.e2_terms
        assert basis.zeta_u_exp == 0 and basis.zeta_t_exp == 0

    def test_appendix2_shape(self):
        one = Laurent2.one(F2)
        basis = k2_decompose(symbol(one + mono(F2, 1, 1, 1), U(F2)), 2)
        assert basis.e1_terms.get((1, 1)) == F2.one
        assert basis.ut_exp == 0

    def test_recompose_equiv(self):
        rng = random.Random(73)
        for dom in (F2, F3):
            one = Laurent2.one(dom)
            for _ in range(6):
                i, j = rng.randrange(0, 3), rng.randrange(0, 3)
                if i == 0 and j == 0:
                    j = 1
                f = one + mono(dom, 1 + rng.randrange(dom.q - 1), i, j)
                slot = U(dom) if rng.randrange(2) else T(dom)
                e = symbol(f, slot)
                level = 2
                basis = k2_decompose(e, level)
                assert k2_equiv(e, basis.recompose(), level)

    @pytest.mark.parametrize("dom, f, g", [
        (F2, (1, 1, 1), (1, 0, 1)), (F4, (1, 1, 1), (1, 0, 1)),
        (F4, (1, 1, 1), (1, 2, 0)), (F4, (1, 1, 2), (1, 1, 0)),
        (F4, (F4.gen, 1, 1), (1, 2, 0))])
    def test_unit_times_unit(self, dom, f, g, monkeypatch):
        # {1 + c·u^i·t^j, 1 + c'·u^k·t^l}: both slots are principal units,
        # so the decomposer takes its unit-times-unit branch; each symbol is
        # nontrivial at level 3, and the basis recomposes to it
        steps, process_ee = [], _Decomposer.process_ee
        monkeypatch.setattr(_Decomposer, "process_ee", lambda self, *item: (
            steps.append(item), process_ee(self, *item)))
        one = Laurent2.one(dom)
        e = symbol(one + mono(dom, *f), one + mono(dom, *g))
        basis = k2_decompose(e, 3)
        assert steps
        assert k2_equiv(e, basis.recompose(), 3)
        assert not k2_equiv(e, K2Elem(dom, ()), 3)
        if dom is F2:
            assert sorted(basis.e1_terms) == [(1, 2), (2, 4)]
            assert sorted(basis.e2_terms) == [(2, 4)]

    def test_step_budget_has_its_own_error(self, monkeypatch):
        monkeypatch.setattr(_Decomposer, "BUDGET", 50)
        one = Laurent2.one(F2)
        with pytest.raises(StepBudgetExceeded):
            k2_decompose(symbol(one + U(F2), one + T(F2)), 2)

    def test_truncated_entry_is_refused(self):
        # level 3 over F_2 reads rows 0..6 up to u^14 of each principal part
        eps = invert(Laurent2.one(F2) + mono(F2, 1, 1, 1), 12, 12)
        with pytest.raises(PrecisionTooLow):
            k2_decompose(symbol(eps, T(F2)), 3)
        eps = invert(Laurent2.one(F2) + mono(F2, 1, 1, 1), 24, 24)
        basis = k2_decompose(symbol(eps, T(F2)), 3)
        assert sorted(basis.e1_terms) == [(1, 1), (2, 2)]

    def test_a_short_entry_names_its_side(self):
        # level 2 over F_2 reads rows 0..4 up to u^12 of each principal part
        ut = {(0, 0): 1, (1, 1): 1}
        for f, short in (
                (Laurent2.from_dict(F2, ut, t_prec=3), ("t", 4, 3, None)),
                (Laurent2.from_dict(F2, ut, u_prec={1: 7, 2: 5}),
                 ("u", 12, 5, 2))):
            with pytest.raises(PrecisionTooLow) as exc:
                k2_decompose(symbol(f, T(F2)), 2)
            e = exc.value
            assert (e.side, e.need, e.edge, e.row) == short

    @pytest.mark.parametrize("dom, level, a", [(F2, 4, 16), (F3, 3, 20)])
    def test_a_deep_u_pole_widens_the_cut(self, dom, level, a):
        # in (1 + u^-a·t)(1 + u^(a+1)·t) the row-1 term u^-a·t multiplies
        # u^(a+1)·t back into view, so the cut at u^(H+8) must widen
        one = Laurent2.one(dom)
        f = (one + mono(dom, 1, -a, 1)) * (one + mono(dom, 1, a + 1, 1))
        e = symbol(f, T(dom))
        assert k2_equiv(e, k2_decompose(e, level).recompose(), level)

    def test_spelling_shows_only_at_entries_with_p_dividing_i_and_j(self):
        # {f, g} and {f, g·x}·{f, x}^-1 are one element, and decompose alike
        # but for entries at (i, j) with p | i and p | j, which the worklist
        # may put in e1_terms for one spelling and in e2_terms for the other
        # ((2, 2) over F_4 at seed 3); the bases stay k2_equiv
        def spelled(basis, p):
            return {(name, k): c for name in ("e1", "e2")
                    for k, c in getattr(basis, name + "_terms").items()
                    if k[0] % p or k[1] % p}
        rng = random.Random(3)
        for _ in range(24):
            dom, level = rng.choice([F2, F3, F4]), rng.choice([2, 3])
            f = Laurent2.one(dom)
            for _ in range(rng.randint(1, 2)):
                f = f + mono(dom, dom.elem_by_index(rng.randrange(1, dom.q)),
                             rng.randint(0, 3), rng.randint(1, 3))
            g = rng.choice([U(dom), T(dom), U(dom) * T(dom)])
            x = rng.choice([U(dom), T(dom)])
            a = k2_decompose(symbol(f, g), level)
            b = k2_decompose(symbol(f, g * x) * symbol(f, x).inv(), level)
            assert (a.ut_exp, a.zeta_u_exp, a.zeta_t_exp) == \
                (b.ut_exp, b.zeta_u_exp, b.zeta_t_exp)
            assert spelled(a, dom.p) == spelled(b, dom.p)
            assert k2_equiv(a.recompose(), b.recompose(), level)

    def test_json_roundtrip(self):
        basis = k2_decompose(symbol(U(F4), T(F4)), 2)
        d = basis.to_json()
        assert d["ut_exp"] == 1 and d["level"] == 2
