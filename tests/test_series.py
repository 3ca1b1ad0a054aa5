"""Tests for two-variable Laurent series arithmetic and precision tracking."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k2local.errors import PrecisionTooLow, ZeroDivisor, ZeroElement
from k2local.ff import galois_ring, make_field
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
        assert c.padic_coeffs[0].value == 8

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
    # coordinates biased to 0, p-power multiples and char - 1
    char = dom.char
    special = sorted({0, 1, dom.p, char // dom.p, char - 1})
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
