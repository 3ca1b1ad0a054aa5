"""Tests for two-variable Laurent series arithmetic and precision tracking."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k2local.errors import PrecisionTooLow, ZeroDivisor, ZeroElement
from k2local.ff import galois_ring, make_field
from k2local.forms import d_dt, d_du
from k2local.series import (DEFAULT_T_PREC, DEFAULT_U_PREC, INF, Laurent2,
                            bar_valuation, invert, laurent_domain,
                            lift_padic, outer_valuation, recompose,
                            reduce_mod_p, unit_decompose)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)
W3F4 = galois_ring(F4, 3)
W5F9 = galois_ring(F9, 5)

# no known term, but a finite region: zero only at this precision
APPARENT_ZEROS = [Laurent2(F2, {}, None, {0: 2}), Laurent2(F2, {}, 3)]


def poly(dom, d):
    return Laurent2.from_dict(dom, d)


def rand_series(dom, rng, nterms=6, lo_j=-3, hi_j=4, lo_i=-3, hi_i=4,
                t_prec=None, u_prec=None):
    d = {}
    for _ in range(nterms):
        j = rng.randrange(lo_j, hi_j)
        i = rng.randrange(lo_i, hi_i)
        d[(j, i)] = rng.randrange(dom.q)
    return Laurent2.from_dict(dom, d, t_prec, u_prec)


class TestArithmetic:
    def test_add_example(self):
        t = poly(F2, {(1, 0): 1})
        two_t = t + t
        assert two_t.is_zero()  # characteristic 2
        t3 = poly(F3, {(1, 0): 1})
        assert (t3 + t3) == poly(F3, {(1, 0): 2})

    def test_mul_example(self):
        uinv = poly(F3, {(0, -1): 1})
        u = poly(F3, {(0, 1): 1})
        assert (uinv * u) == Laurent2.one(F3)

    def test_power_squares_only_below_the_top_bit(self, monkeypatch):
        # binary powering: one product per set bit of e and one squaring per
        # bit below the top one, no squaring after the last bit
        f = poly(F3, {(0, 0): 1, (1, 1): 1, (2, -1): 2})
        mul = Laurent2.__mul__
        calls = []

        def counted(a, b):
            calls.append(1)
            return mul(a, b)
        for e in range(1, 10):
            ref = Laurent2.one(F3)
            for _ in range(e):
                ref = mul(ref, f)
            calls.clear()
            monkeypatch.setattr(Laurent2, "__mul__", counted)
            got = f ** e
            monkeypatch.undo()
            assert got == ref, e
            assert len(calls) <= bin(e).count("1") + e.bit_length() - 1, e

    def test_difference_of_squares(self):
        one = Laurent2.one(F3)
        ut = poly(F3, {(1, 1): 1})
        prod = (one + ut) * (one - ut)
        assert prod == poly(F3, {(0, 0): 1, (2, 2): -1 % 3})

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for dom in (F2, F4, F9):
            for _ in range(30):
                a = rand_series(dom, rng)
                b = rand_series(dom, rng)
                c = rand_series(dom, rng)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
                assert a - a == Laurent2.zero(dom)

    def test_exact_inputs_stay_exact(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_series(F9, rng)
            b = rand_series(F9, rng)
            for r in (a + b, a * b, a - b, a ** 3):
                assert r.t_prec == float("inf") and not r.u_prec

    def test_precision_propagation_mul(self):
        # (u^-2 + O_t(3)) * (t^2): t_prec shifts by the t-valuation
        a = Laurent2.from_dict(F3, {(0, -2): 1}, t_prec=3)
        b = poly(F3, {(2, 0): 1})
        r = a * b
        assert r.t_prec == 5
        assert r.coeff(-2, 2) == F3.one

    def test_row_precision_propagation(self):
        # a known only to u^5 in row 0; multiplying by u^-2 lowers the bound
        a = Laurent2.from_dict(F3, {(0, 0): 1}, u_prec={0: 5})
        b = poly(F3, {(0, -2): 1})
        r = a * b
        assert r.uprec(0) == 3
        assert r.coeff(-2, 0) == F3.one
        with pytest.raises(PrecisionTooLow):
            r.coeff(3, 0)

    def test_coeff_outside_region(self):
        a = Laurent2.from_dict(F2, {(0, 0): 1}, t_prec=4)
        assert a.coeff(0, 3) == F2.zero
        with pytest.raises(PrecisionTooLow):
            a.coeff(0, 4)


class TestValuations:
    def test_examples(self):
        f = poly(F3, {(-1, 2): 1, (0, 0): 1, (2, -5): 2})
        assert outer_valuation(f) == -1
        assert bar_valuation(f) == 2

    def test_zero_raises(self):
        with pytest.raises(ZeroElement):
            outer_valuation(Laurent2.zero(F2))

    def test_hidden_row_raises(self):
        f = Laurent2.from_dict(F3, {(1, 0): 1}, u_prec={0: 2})
        with pytest.raises(PrecisionTooLow):
            outer_valuation(f)

    @pytest.mark.parametrize("f", APPARENT_ZEROS)
    def test_apparent_zero_is_a_precision_shortfall(self, f):
        with pytest.raises(PrecisionTooLow):
            outer_valuation(f)

    def test_valuation_additive(self):
        rng = random.Random(3)
        for _ in range(40):
            a = rand_series(F4, rng)
            b = rand_series(F4, rng)
            if not a.terms or not b.terms:
                continue
            p = a * b
            assert outer_valuation(p) == outer_valuation(a) + outer_valuation(b)
            assert bar_valuation(p) == bar_valuation(a) + bar_valuation(b)


class TestInvert:
    def test_monomial(self):
        f = poly(F3, {(2, -1): 2})
        g = invert(f)
        assert f * g == Laurent2.one(F3)

    def test_principal_unit(self):
        one = Laurent2.one(F3)
        ut = poly(F3, {(1, 1): 1})
        g = invert(one + ut)
        # geometric series 1 - ut + u^2 t^2 - ... out to working precision
        prod = (one + ut) * g
        assert prod.coeff(0, 0) == F3.one
        for j in range(1, int(prod.t_prec)):
            for i in prod.terms.get(j, {}):
                assert prod.terms[j][i] == F3.zero or False

    def test_invert_random(self):
        rng = random.Random(19)
        for dom in (F2, F4, F9):
            for _ in range(25):
                f = rand_series(dom, rng, t_prec=6)
                if not f.terms:
                    continue
                try:
                    g = invert(f)
                except PrecisionTooLow:
                    continue
                prod = f * g
                assert prod.same_known_terms(Laurent2.one(dom))

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisor):
            invert(Laurent2.zero(F2))

    @pytest.mark.parametrize("f", APPARENT_ZEROS)
    def test_apparent_zero_is_a_precision_shortfall(self, f):
        with pytest.raises(PrecisionTooLow):
            f.leading()
        with pytest.raises(PrecisionTooLow):
            invert(f)

    def test_nonpositive_working_box_raises(self):
        f = poly(F3, {(0, 0): 1, (1, 1): 1})
        for kw in ({"t_prec": 0}, {"u_prec": 0}, {"t_prec": -2},
                   {"t_prec": 4, "u_prec": -1}):
            with pytest.raises(PrecisionTooLow):
                invert(f, **kw)
        assert invert(f, None, None) == invert(f)
        assert invert(f, 1, 1).t_prec == 1


class TestUnitDecomposition:
    def test_example(self):
        z = F4.gen
        f = Laurent2.from_dict(F4, {}, None, None) + \
            Laurent2.monomial(F4, z, 2, -1) + Laurent2.monomial(F4, F4.one, 3, 0)
        dec = unit_decompose(f)
        assert dec.t_exp == -1 and dec.u_exp == 2
        assert dec.zeta_exp == 1  # the generator of F4 is primitive
        assert dec.principal.coeff(0, 0) == F4.one
        assert recompose(dec, F4) == f

    def test_roundtrip_random(self):
        rng = random.Random(23)
        for dom in (F3, F4, F9):
            for _ in range(30):
                f = rand_series(dom, rng)
                if not f.terms:
                    continue
                dec = unit_decompose(f)
                assert recompose(dec, dom) == f
                assert dec.principal.coeff(0, 0) == dom.one


class TestPadicLift:
    def test_example(self):
        # Teichmüller lift of 2u in F_3 coefficients to W_2: 8u mod 9
        f = poly(F3, {(0, 1): 2})
        g = lift_padic(f, 2)
        c = g.terms[0][1]
        assert c.coeffs[0] == 8

    def test_roundtrip(self):
        rng = random.Random(31)
        for dom in (F3, F4):
            for _ in range(20):
                f = rand_series(dom, rng)
                g = lift_padic(f, 3)
                assert reduce_mod_p(g, dom) == f

    def test_lift_multiplicative(self):
        rng = random.Random(37)
        for _ in range(15):
            a = rand_series(F4, rng, nterms=3)
            b = rand_series(F4, rng, nterms=3)
            lhs = lift_padic(a, 2) * lift_padic(b, 2)
            rhs = lift_padic(a * b, 2)
            assert reduce_mod_p(lhs, F4) == reduce_mod_p(rhs, F4)


class TestWittOverLaurent:
    def test_witt_components(self):
        from k2local.witt import WittVec, witt_add
        dom = laurent_domain(F3)
        u = Laurent2.from_dict(F3, {(0, 1): 1})
        a = WittVec(dom, (u, dom.zero))
        b = WittVec(dom, (u, dom.one))
        s = witt_add(a, b)
        assert s.components[0] == u.int_scale(2)


# --------------------------------------------------------------------------
# differential test of the product kernel against the plain double loop
# --------------------------------------------------------------------------

def _mul_reference(self, other):
    """The product as a double loop over element objects (test oracle)."""
    self._check(other)
    ftlb, gtlb = self.tlb(), other.tlb()
    tp = min(self.t_prec + gtlb, other.t_prec + ftlb)
    if math.isnan(tp):  # inf + -inf cannot occur: tlb >= min exponent
        tp = INF  # pragma: no cover
    rows = {}
    for j1, row1 in self.terms.items():
        for j2, row2 in other.terms.items():
            j = j1 + j2
            if j >= tp:
                continue
            dst = rows.setdefault(j, {})
            for i1, c1 in row1.items():
                for i2, c2 in row2.items():
                    i = i1 + i2
                    c = c1 * c2
                    if i in dst:
                        s = dst[i] + c
                        if s:
                            dst[i] = s
                        else:
                            del dst[i]
                    elif c:
                        dst[i] = c
    up = {}
    if self.u_prec or other.u_prec:
        frows = [(j, self.row_lb(j), self.uprec(j))
                 for j in self.possible_rows()]
        grows = [(j, other.row_lb(j), other.uprec(j))
                 for j in other.possible_rows()]
        for j1, lb1, up1 in frows:
            if lb1 is None:
                continue
            for j2, lb2, up2 in grows:
                if lb2 is None:
                    continue
                j = j1 + j2
                if j >= tp:
                    continue
                b = min(up1 + lb2, up2 + lb1)
                if b != INF and b < up.get(j, INF):
                    up[j] = b
    return Laurent2(self.dom, rows, None if tp == INF else tp, up)


KERNEL_DOMAINS = (F2, F4, F9, W3F4, W5F9)


def _coords(dom):
    # coordinates biased to 0, p-power multiples and char - 1; all below
    # char, since elements hold reduced coordinates (over a field char = p)
    char = dom.char
    special = sorted(c for c in {0, 1, dom.p, char // dom.p, char - 1}
                     if c < char)
    return st.one_of(st.integers(0, char - 1), st.sampled_from(special))


@st.composite
def _series(draw, dom):
    coord = _coords(dom)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4),
                                    st.tuples(*[coord] * dom.n)),
                          min_size=1, max_size=20))
    rows = {}
    for j, i, cs in terms:
        rows.setdefault(j, {})[i] = type(dom.one)(dom, cs)
    t_prec = draw(st.none() | st.integers(-2, 8))
    # rows may carry a u-bound and no terms
    u_prec = dict(draw(st.lists(st.tuples(st.integers(-4, 4),
                                          st.integers(-2, 8)), max_size=4)))
    return Laurent2(dom, rows, t_prec, u_prec)


_operands = st.sampled_from(KERNEL_DOMAINS).flatmap(
    lambda dom: st.tuples(_series(dom), _series(dom)))


class TestMulKernel:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_operands)
    def test_matches_reference(self, fg):
        f, g = fg
        prod = f * g
        ref = _mul_reference(f, g)
        assert prod.terms == ref.terms
        assert prod.t_prec == ref.t_prec
        assert prod.u_prec == ref.u_prec

    @pytest.mark.parametrize("dom", [W3F4, W5F9])
    def test_zero_divisors_cancel(self, dom):
        # p * p^(s-1) = p^s vanishes in W_s
        p = dom.from_int(dom.p)
        q = dom.from_int(dom.char // dom.p)
        f = Laurent2.from_dict(dom, {(0, 0): p, (1, 2): dom.one})
        g = Laurent2.from_dict(dom, {(0, 0): q})
        assert f * g == _mul_reference(f, g)
        assert (f * g).terms.get(0, {}).get(0) is None

    def test_accumulation_cannot_carry(self):
        # the coefficient of u^0 sums 400 products of maximal coordinates
        dom = W5F9
        top = type(dom.one)(dom, (dom.char - 1,) * dom.n)
        k = 400
        f = Laurent2.from_dict(dom, {(0, i): top for i in range(k)},
                               u_prec={0: k})
        g = Laurent2.from_dict(dom, {(0, -i): top for i in range(k)})
        prod = f * g
        assert prod.uprec(0) == 1
        sq = top * top
        for i in range(1 - k, 1):
            assert prod.coeff(i, 0) == dom.from_int(k + i) * sq


# --------------------------------------------------------------------------
# differential tests of truncate and invert against the element-object loop
# --------------------------------------------------------------------------

def _truncate_reference(self, t_prec=None, u_prec=None):
    """Truncation through the validating constructor (test oracle)."""
    tp = min(self.t_prec, INF if t_prec is None else t_prec)
    up = dict(self.u_prec)
    if u_prec is not None:
        lo = self.tlb()
        if lo != INF and tp != INF:
            for j in range(int(lo), int(tp)):
                up[j] = min(self.uprec(j), u_prec)
    return Laurent2(self.dom, self.terms,
                    None if tp == INF else tp, up)


def _invert_reference(f, t_prec=None, u_prec=None):
    """The geometric series summed with Laurent2 additions (test oracle)."""
    for bound in (t_prec, u_prec):
        if bound is not None and bound <= 0:
            raise PrecisionTooLow(f"working precision {bound} is not positive")
    if t_prec is None:
        t_prec = DEFAULT_T_PREC
    if u_prec is None:
        u_prec = DEFAULT_U_PREC
    j0, i0, c = f.leading()
    cinv = c.inv() if hasattr(c, "inv") else c ** -1
    fhat = f.monomial_mul(cinv, -i0, -j0)
    one = Laurent2.one(f.dom)
    eps = fhat - one
    if eps.has_no_known_terms() and not eps.u_prec and eps.t_prec == INF:
        return Laurent2.monomial(f.dom, cinv, -i0, -j0,
                                 None if f.t_prec == INF else
                                 int(f.t_prec) - 2 * j0, None)
    eps = eps.cap_infinite(t_prec, u_prec)
    # fixed working box: powers of eps gain precision as they gain valuation,
    # so without a hard cutoff the geometric loop would never terminate
    t_box = int(eps.t_prec)
    u_box = max([u_prec]
                + [int(b) for b in eps.u_prec.values()])
    acc = one + (eps - eps)  # adopt eps's precision box
    pw = one
    while True:
        pw = _truncate_reference(pw * (-eps), t_box, u_box)
        if pw.has_no_known_terms():
            break
        acc = acc + pw
    # The remaining powers of eps contribute no known terms, but their
    # unknown regions still constrain the result.  Close the first empty
    # power's region under multiplication by eps (each eps term shifts a row
    # j1 bound by (j2, row_lb(j2))) and intersect.
    if pw.u_prec or pw.t_prec != INF:
        tail_t = min(pw.t_prec, t_box)
        dist = {j: b for j, b in pw.u_prec.items() if j < tail_t}
        edges = [(j2, eps.row_lb(j2)) for j2 in eps.possible_rows()
                 if eps.row_lb(j2) is not None]
        for _ in range(int(tail_t) - min(dist, default=int(tail_t)) + 1):
            changed = False
            for j, b in list(dist.items()):
                for dj, w in edges:
                    jj = j + dj
                    if jj >= tail_t:
                        continue
                    if b + w < dist.get(jj, INF):
                        dist[jj] = b + w
                        changed = True
            if not changed:
                break
        tail = Laurent2(f.dom, {}, int(tail_t), dist)
        acc = acc + tail
    return acc.monomial_mul(cinv, -i0, -j0)


@st.composite
def _unit_series(draw, dom):
    """A series whose leading term is a unit and is certainly leading."""
    coord = _coords(dom)
    elem = type(dom.one)
    j0, i0 = draw(st.integers(-2, 2)), draw(st.integers(-3, 3))
    lead = list(draw(st.tuples(*[coord] * dom.n)))
    if not any(a % dom.p for a in lead):
        lead[0] = (lead[0] + 1) % dom.char
    rows = {j0: {i0: elem(dom, tuple(lead))}}
    for dj, i, cs in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(-4, 4),
                      st.tuples(*[coord] * dom.n)), max_size=12)):
        if dj or i > i0:
            rows.setdefault(j0 + dj, {})[i] = elem(dom, cs)
    t_prec = draw(st.none() | st.integers(j0 + 1, j0 + 6))
    # rows may carry a u-bound and no terms; row j0 keeps its leading term
    u_prec = {}
    for dj, b in draw(st.lists(st.tuples(st.integers(0, 3),
                                         st.integers(-4, 6)), max_size=4)):
        u_prec[j0 + dj] = b if dj else max(b, i0 + 1)
    return Laurent2(dom, rows, t_prec, u_prec)


_boxes = st.none() | st.integers(1, 6)


def _same_series(a, b):
    assert a.terms == b.terms
    assert a.t_prec == b.t_prec
    assert a.u_prec == b.u_prec


class TestInvertKernel:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(_unit_series),
           _boxes, _boxes)
    def test_invert_matches_reference(self, f, t_box, u_box):
        _same_series(invert(f, t_box, u_box),
                     _invert_reference(f, t_box, u_box))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(_series),
           st.none() | st.integers(-3, 8), st.none() | st.integers(-5, 8))
    def test_truncate_matches_reference(self, f, t_prec, u_prec):
        _same_series(f.truncate(t_prec, u_prec),
                     _truncate_reference(f, t_prec, u_prec))


# --------------------------------------------------------------------------
# region soundness: every claimed coefficient holds for any completion
# --------------------------------------------------------------------------

@st.composite
def _completed(draw, base):
    """(f, F): a drawn series f and an exact completion F of it.

    F is {(j, i): coefficient}: f's terms plus random nonzero terms where
    f's region leaves the coefficient unknown (beyond a row's u-bound, or
    in rows at or past t_prec, as far down in u as -3).  Every claim an
    operation makes about f must hold for every such F.
    """
    f = draw(base)
    dom = f.dom
    F = {(j, i): c for j, row in f.terms.items() for i, c in row.items()}
    spots = [(j, i) for j, b in f.u_prec.items() for i in range(b, b + 4)]
    if f.t_prec != INF:
        spots += [(j, i) for j in range(f.t_prec, f.t_prec + 3)
                  for i in range(-3, 5)]
    if spots:
        coord = _coords(dom)
        for key, cs in draw(st.lists(st.tuples(st.sampled_from(spots),
                                               st.tuples(*[coord] * dom.n)),
                                     max_size=8)):
            c = type(dom.one)(dom, cs)
            if c:
                F[key] = c
    return f, F


def _conv(a, b):
    out = {}
    for (j1, i1), x in a.items():
        for (j2, i2), y in b.items():
            k = (j1 + j2, i1 + i2)
            out[k] = out[k] + x * y if k in out else x * y
    return out


def _inverse_window(F, jmax, umax):
    """1/F at every (j, i) with j < jmax and i < umax, F exact.

    Plain element arithmetic on the geometric series of the normalised
    F = c·u^i0·t^j0·(1 + E).  A term of E raises j, or keeps j and raises
    i, and lowers i by at most L per unit of j, so partial powers that
    cannot reach the window any more are dropped and the loop ends.
    """
    j0, i0 = min(F)
    c = F[(j0, i0)]
    cinv = c.inv()
    neg = {(j - j0, i - i0): -(cinv * v) for (j, i), v in F.items()
           if (j, i) != (j0, i0)}
    slope = max([0] + [-i for j, i in neg if j >= 1])
    jn, un = jmax + j0 - 1, umax + i0 - 1
    one = cinv * c
    total = {(0, 0): one}
    pw = {(0, 0): one}
    while pw:
        pw = {(j, i): v for (j, i), v in _conv(pw, neg).items()
              if j <= jn and i <= un + (jn - j) * slope}
        for k, v in pw.items():
            total[k] = total[k] + v if k in total else v
    return {(j - j0, i - i0): cinv * v for (j, i), v in total.items()}


_LO, _HI = -12, 24


def _claims_hold(r, truth):
    """Each coefficient r marks known in the window equals truth's."""
    zero = r.dom.zero
    for j in range(_LO, min(r.t_prec, _HI)):
        for i in range(_LO, min(r.uprec(j), _HI)):
            assert r.terms.get(j, {}).get(i, zero) == \
                truth.get((j, i), zero), (j, i)


class TestRegionSoundness:
    """A differential oracle for the precision regions: the regions of
    f * g, f + g, invert(f), d_du(f) and d_dt(f) against the same
    coefficients computed, with plain element arithmetic, from random
    completions of the operands."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(
        lambda dom: st.tuples(_completed(_series(dom)),
                              _completed(_series(dom)))))
    def test_mul_and_add(self, pair):
        (f, F), (g, G) = pair
        _claims_hold(f * g, _conv(F, G))
        total = dict(F)
        for k, v in G.items():
            total[k] = total[k] + v if k in total else v
        _claims_hold(f + g, total)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(
        lambda dom: _completed(_series(dom))))
    def test_derivatives(self, fF):
        f, F = fF
        dom = f.dom
        _claims_hold(d_du(f), {(j, i - 1): dom.from_int(i) * c
                               for (j, i), c in F.items()})
        _claims_hold(d_dt(f), {(j - 1, i): dom.from_int(j) * c
                               for (j, i), c in F.items()})

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(
        lambda dom: _completed(_unit_series(dom))),
        st.integers(1, 5), st.integers(1, 5))
    def test_invert(self, fF, t_box, u_box):
        f, F = fF
        r = invert(f, t_box, u_box)
        jmax = int(min(r.t_prec, _HI))
        umax = max([min(r.uprec(j), _HI) for j in range(_LO, jmax)]
                   + [_LO])
        _claims_hold(r, _inverse_window(F, jmax, int(umax)))


# --------------------------------------------------------------------------
# differential tests of the linear operations that build their result
# without the validating constructor, against constructor-built references
# --------------------------------------------------------------------------

def _add_reference(self, other):
    """The sum merged by elements and filtered by the constructor."""
    tp = min(self.t_prec, other.t_prec)
    rows = {}
    for src in (self.terms, other.terms):
        for j, row in src.items():
            dst = rows.setdefault(j, {})
            for i, c in row.items():
                if i in dst:
                    s = dst[i] + c
                    if s:
                        dst[i] = s
                    else:
                        del dst[i]
                else:
                    dst[i] = c
    up = {}
    for j in set(self.u_prec) | set(other.u_prec):
        b = min(self.uprec(j), other.uprec(j))
        if b != INF:
            up[j] = b
    return Laurent2(self.dom, rows, None if tp == INF else tp, up)


def _neg_reference(self):
    rows = {j: {i: -c for i, c in row.items()}
            for j, row in self.terms.items()}
    return Laurent2(self.dom, rows,
                    None if self.t_prec == INF else self.t_prec, self.u_prec)


def _monomial_mul_reference(self, c, i_shift=0, j_shift=0):
    if not c:
        return Laurent2.zero(self.dom)
    rows = {j + j_shift: {i + i_shift: c * v for i, v in row.items()}
            for j, row in self.terms.items()}
    tp = self.t_prec + j_shift
    up = {j + j_shift: b + i_shift for j, b in self.u_prec.items()}
    return Laurent2(self.dom, rows, None if tp == INF else tp, up)


def _d_du_reference(f):
    rows = {j: {i - 1: f.dom.from_int(i) * c for i, c in row.items()}
            for j, row in f.terms.items()}
    up = {j: b - 1 for j, b in f.u_prec.items()}
    return Laurent2(f.dom, rows,
                    None if f.t_prec == INF else int(f.t_prec), up)


def _d_dt_reference(f):
    rows = {j - 1: {i: f.dom.from_int(j) * c for i, c in row.items()}
            for j, row in f.terms.items()}
    tp = f.t_prec - 1
    up = {j - 1: b for j, b in f.u_prec.items()}
    return Laurent2(f.dom, rows, None if tp == INF else int(tp), up)


def _lift_padic_reference(f, s):
    """Each coefficient lifted by its own q-power iteration."""
    ring = galois_ring(f.dom, s)

    def lift(a):
        x = ring.from_fq(a)
        while x ** f.dom.q != x:
            x = x ** f.dom.q
        return x
    rows = {j: {i: lift(c) for i, c in row.items()}
            for j, row in f.terms.items()}
    return Laurent2(ring, rows,
                    None if f.t_prec == INF else int(f.t_prec), f.u_prec)


def _scalar(dom):
    return st.tuples(*[_coords(dom)] * dom.n).map(
        lambda cs: type(dom.one)(dom, cs))


class TestLinearKernels:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_operands)
    def test_add_and_neg_match_reference(self, fg):
        f, g = fg
        _same_series(f + g, _add_reference(f, g))
        _same_series(g + f, _add_reference(g, f))
        _same_series(-f, _neg_reference(f))
        _same_series(f - g, _add_reference(f, _neg_reference(g)))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(
        lambda dom: st.tuples(_series(dom), _scalar(dom))),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-9, 9))
    def test_scalings_match_reference(self, fc, di, dj, k):
        f, c = fc
        _same_series(f.monomial_mul(c, di, dj),
                     _monomial_mul_reference(f, c, di, dj))
        ck = f.dom.from_int(k)
        _same_series(f.int_scale(k), _monomial_mul_reference(f, ck))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_DOMAINS).flatmap(_series))
    def test_derivatives_match_reference(self, f):
        _same_series(d_du(f), _d_du_reference(f))
        _same_series(d_dt(f), _d_dt_reference(f))

    @pytest.mark.parametrize("dom", [W3F4, W5F9])
    def test_non_unit_scaling_drops_zero_products(self, dom):
        # p^(s-1) * p = 0: the term with coefficient p leaves the row
        pk = dom.from_int(dom.char // dom.p)
        f = Laurent2.from_dict(dom, {(0, 0): dom.from_int(dom.p),
                                     (1, 2): dom.one}, u_prec={0: 3})
        r = f.monomial_mul(pk, 1, 1)
        _same_series(r, _monomial_mul_reference(f, pk, 1, 1))
        assert 1 not in r.terms and r.coeff(3, 2) == pk

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([F2, F3, F4, F9]).flatmap(_series),
           st.integers(1, 4))
    def test_lift_padic_matches_reference(self, f, s):
        _same_series(lift_padic(f, s), _lift_padic_reference(f, s))
