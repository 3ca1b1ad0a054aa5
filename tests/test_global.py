"""Semi-global layer: places, expansions, reciprocity, canonical forms,
finite-level duality."""

import math
import random
import time

import pytest

from k2local.cli import eval_rational
from k2local.errors import (BadIndexPair, DivisionByZero, InvariantViolation,
                            NotReducible, PrecisionTooLow,
                            UndeclaredCurveFactor, UnsupportedLength,
                            UnsupportedPlace, ZeroArgument)
from k2local.ff import make_field
from k2local.globalfield import (AdmissibleCurve, CanonicalASRep,
                                 CurvePlace, PointFunc, Poly1, Poly2,
                                 RatFunc, as_reduce,
                                 as_residual_solves, curve_tame_reciprocity,
                                 curve_tame_terms, curve_witt_reciprocity,
                                 curve_witt_terms, duality_kernel_point,
                                 duality_level_curve, expand_at_place,
                                 factor_poly1, infinity_place, list_places,
                                 point_basis_pair, point_tame_reciprocity,
                                 point_witt_reciprocity, point_witt_terms,
                                 to_pointfunc, witt_report)
from k2local.globalfield import (_expand_poly2, _irreducibles, _param_series,
                                 _poly2_div_poly1, _poly2_to_branch,
                                 _poly2_transpose, _t_coeffs, _try_div_curve,
                                 expand_point, place_field, poly1_gcd)
from k2local.series import INF, Laurent2, invert, laurent_domain
from k2local.symbols import symbol, witt_pair_local
from k2local.witt import WittVec, witt_zero


def uvars(field):
    one = RatFunc.const(field, field.one)
    u = RatFunc.from_poly2(Poly2.monomial(field, field.one, 1, 0))
    t = RatFunc.from_poly2(Poly2.monomial(field, field.one, 0, 1))
    return one, u, t


def is_zero_wv(w):
    return all(not c for c in w.components)


def rand_ratfunc(rng, field, deg=2, require_nonzero=True):
    """Random rational function in u and t with small degrees."""
    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            terms[(rng.randrange(0, deg + 1), rng.randrange(0, deg + 1))] = \
                field.elem_by_index(rng.randrange(field.q))
        return Poly2(field, terms)
    num = rand_poly()
    while require_nonzero and not num:
        num = rand_poly()
    den = rand_poly()
    while not den:
        den = rand_poly()
    return RatFunc(num, den)


# --------------------------------------------------------------------------
# univariate support machinery
# --------------------------------------------------------------------------

class TestPolynomials:
    def test_factor_quadratic(self):
        F2 = make_field(2, 1)
        f = Poly1.from_ints(F2, [0, 1, 1])  # u^2 + u = u(u+1)
        fac = factor_poly1(f)
        assert len(fac) == 2
        assert all(m == 1 for m in fac.values())

    def test_factor_irreducible(self):
        F2 = make_field(2, 1)
        f = Poly1.from_ints(F2, [1, 1, 1])  # u^2 + u + 1
        fac = factor_poly1(f)
        assert fac == {f: 1}

    def test_ratfunc_reduction(self):
        F3 = make_field(3, 1)
        one, u, t = uvars(F3)
        f = (u * t + t) / (u + one)  # = t
        assert f == t

    def test_fy_roundtrip(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        f = (u * u + t) / (t * (u + one))
        # f = (u^2 / (u+1)) t^-1 + 1 / (u+1)
        assert _t_coeffs(f) == {-1: u * u / (u + one), 0: one / (u + one)}

    def test_fy_rejects_mixed_denominator(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        with pytest.raises(NotReducible):
            as_reduce(one / (u + t))


# The Euclid in F_q(u)[t] with u-only RatFunc coefficients that reduced
# RatFunc and divided by curve equations before the bivariate gcd, kept as
# the reference for the differential test below.  A u-only RatFunc reduces
# by poly1_gcd of the contents alone, so the reference shares none of the
# t-direction remainder sequence that it checks.

def _univariate(P):
    """The u-only P as a Poly1."""
    return P.t_coeffs().get(0, Poly1(P.field, ()))


def _tpoly(P):
    rows = P.t_coeffs()
    out = [RatFunc.const(P.field, P.field.zero)] * (P.deg_t() + 1)
    for b, poly in rows.items():
        out[b] = RatFunc.from_poly2(Poly2.from_poly1(poly))
    return out


def _tpoly_trim(A):
    while A and not A[-1]:
        A.pop()
    return A


def _tpoly_divmod(A, B, field):
    A = list(A)
    Q = [RatFunc.const(field, field.zero)] * max(0, len(A) - len(B) + 1)
    inv = B[-1].inv()
    for k in range(len(A) - 1, len(B) - 2, -1):
        c = A[k] * inv
        if not c:
            continue
        Q[k - (len(B) - 1)] = c
        for j, b in enumerate(B):
            A[k - (len(B) - 1) + j] = A[k - (len(B) - 1) + j] - c * b
    return Q, _tpoly_trim(A[:len(B) - 1])


def _tpoly_euclid(A, B, field):
    A, B = _tpoly_trim(list(A)), _tpoly_trim(list(B))
    while B:
        A, B = B, _tpoly_divmod(A, B, field)[1]
    if A:
        inv = A[-1].inv()
        A = [c * inv for c in A]
    return A


def _content(P):
    g = Poly1(P.field, ())
    for poly in P.t_coeffs().values():
        g = poly1_gcd(g, poly)
    return g


def _tpoly_clear(A, field):
    den = Poly1.const(field, field.one)
    for c in A:
        den = den.divmod(poly1_gcd(den, _univariate(c.den)))[0] * \
            _univariate(c.den)
    P = Poly2(field, {(a, b): cc for b, c in enumerate(A)
                      for a, cc in enumerate((_univariate(c.num) * den.divmod(
                          _univariate(c.den))[0]).coeffs)})
    return _poly2_div_poly1(P, _content(P))


def _poly2_from_tpoly(Q, field):
    terms = {}
    for b, c in enumerate(Q):
        if not c:
            continue
        if c.den != Poly2.one(field):
            raise InvariantViolation("t-coefficient is not polynomial in u")
        for (a, _), cc in c.num.terms.items():
            terms[(a, b)] = cc
    return Poly2(field, terms)


def _poly2_divexact(P, G):
    Q, R = _tpoly_divmod(_tpoly(P), _tpoly(G), P.field)
    if R:
        raise InvariantViolation("exact division left a remainder")
    return _poly2_from_tpoly(Q, P.field)


def _reduce_reference(num, den):
    """(num, den) reduced as RatFunc reduced them by the Euclid above."""
    field = num.field
    if not num:
        return Poly2(field, {}), Poly2.one(field)
    cg = poly1_gcd(_content(num), _content(den))
    if cg.deg > 0:
        num, den = _poly2_div_poly1(num, cg), _poly2_div_poly1(den, cg)
    G = _tpoly_euclid(_tpoly(num), _tpoly(den), field)
    if len(G) > 1:
        Gp = _tpoly_clear(G, field)
        num, den = _poly2_divexact(num, Gp), _poly2_divexact(den, Gp)
    lead = den.terms[max(den.terms, key=lambda ab: (ab[1], ab[0]))]
    return num * lead.inv(), den * lead.inv()


def _try_div_curve_reference(P, y):
    if y.kind == "graph_u_of_t":
        flipped = AdmissibleCurve(P.field, "graph_t_of_u", y.graph_poly)
        Q = _try_div_curve_reference(_poly2_transpose(P), flipped)
        return None if Q is None else _poly2_transpose(Q)
    Q, R = _tpoly_divmod(_tpoly(P), _tpoly(y.equation()), P.field)
    return None if any(R) else _poly2_from_tpoly(Q, P.field)


def _rand_poly2(rng, field, deg, nterms):
    return Poly2(field, {(rng.randrange(deg + 1), rng.randrange(deg + 1)):
                         field.elem_by_index(rng.randrange(1, field.q))
                         for _ in range(nterms)})


class TestBivariateReduction:
    FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]

    @staticmethod
    def planted(rng, field, kind):
        """A common factor: a u-content, a power of t, or a factor whose
        leading t-coefficient is not constant in u."""
        one = Poly2.one(field)
        u = Poly2.monomial(field, field.one, 1, 0)
        t = Poly2.monomial(field, field.one, 0, 1)
        c = field.elem_by_index(rng.randrange(1, field.q))
        if kind == "content":
            return (u + one * c) * (u * u + u * c) if rng.randrange(2) \
                else u + one * c
        if kind == "t-power":
            return t ** rng.randrange(1, 3) * c
        return u * t + one * c + _rand_poly2(rng, field, 1, 1) * u

    @pytest.mark.parametrize("q", FIELDS)
    def test_matches_euclid_reference(self, q):
        field = make_field(*q)
        rng = random.Random(q[0] * 10 + q[1])
        for kind in ("content", "t-power", "lead-in-u") * 16:
            A = _rand_poly2(rng, field, 2, rng.randrange(1, 4))
            B = _rand_poly2(rng, field, 2, rng.randrange(1, 4))
            C = self.planted(rng, field, kind)
            f = RatFunc(A * C, B * C)
            assert f.num * B == A * f.den
            assert (f.num, f.den) == _reduce_reference(A * C, B * C), kind

    @pytest.mark.parametrize("q", FIELDS)
    def test_curve_division_matches_reference(self, q):
        field = make_field(*q)
        rng = random.Random(q[0] * 10 + q[1] + 1)
        for kind in ("graph_t_of_u", "graph_u_of_t") * 6:
            phi = Poly1(field, [field.zero] + [
                field.elem_by_index(rng.randrange(field.q))
                for _ in range(rng.randrange(1, 4))] + [
                field.elem_by_index(rng.randrange(1, field.q))])
            y = AdmissibleCurve(field, kind, phi)
            k = rng.randrange(3)
            P = _rand_poly2(rng, field, 2, rng.randrange(1, 4)) * \
                y.equation() ** k
            Q = _try_div_curve(P, y)
            assert Q == _try_div_curve_reference(P, y), (kind, k)
            assert k == 0 or Q * y.equation() == P

    @pytest.mark.parametrize("q", FIELDS)
    def test_power_matches_renormalised(self, q):
        # __pow__ and __neg__ build without a gcd; the reference reduces
        field = make_field(*q)
        rng = random.Random(q[0] * 10 + q[1] + 2)
        fs = [RatFunc(Poly2(field, {}), Poly2.one(field))]
        fs += [RatFunc(_rand_poly2(rng, field, 2, rng.randrange(1, 4)),
                       _rand_poly2(rng, field, 2, rng.randrange(1, 4)))
               for _ in range(12)]
        for f in fs:
            neg = RatFunc(-f.num, f.den)
            assert ((-f).num, (-f).den) == (neg.num, neg.den), f
            for e in range(-4, 5):
                if e < 0 and not f:
                    with pytest.raises(DivisionByZero):
                        f ** e
                    continue
                num, den = (f.num, f.den) if e >= 0 else (f.den, f.num)
                ref = RatFunc(num ** abs(e), den ** abs(e))
                got = f ** e
                assert (got.num, got.den) == (ref.num, ref.den), (f, e)

    def test_inexact_division_is_an_invariant_violation(self, monkeypatch):
        import k2local.globalfield as gf
        F3 = make_field(3, 1)
        P = Poly2(F3, {(0, 0): F3.one, (1, 1): F3.one})  # 1 + u t
        monkeypatch.setattr(gf, "_tpoly_gcd", lambda A, B: P)
        with pytest.raises(InvariantViolation):
            RatFunc(P + Poly2.one(F3), P * P)


# --------------------------------------------------------------------------
# places and expansion
# --------------------------------------------------------------------------

def _list_places_reference(fs):
    """Places of RatFuncs by factoring every dense t-coefficient, as before
    rows were read from their sparse terms; the reference for list_places."""
    field = fs[0].field
    polys = []
    for f in fs:
        polys.extend(f.num.t_coeffs().values())
        polys.extend(f.den.t_coeffs().values())
    finite = set()
    for poly in polys:
        if poly.deg < 1:
            continue
        finite.update(factor_poly1(poly))
    places = sorted((CurvePlace(field, "finite", pi) for pi in finite),
                    key=CurvePlace.sort_key)
    places.append(infinity_place(field))
    return places


class TestPlaces:
    def test_list_places_u(self):
        F2 = make_field(2, 1)
        _, u, _ = uvars(F2)
        names = [x.serialize() for x in list_places([u])]
        assert names == ["[1]*u^1", "infinity"]

    def test_list_places_factors(self):
        F2 = make_field(2, 1)
        _, u, _ = uvars(F2)
        places = list_places([u * u + u])
        assert [x.kind for x in places] == ["finite", "finite", "infinity"]
        assert all(x.residue_degree == 1 for x in places)

    def test_list_places_constant(self):
        F2 = make_field(2, 1)
        one, _, _ = uvars(F2)
        assert [x.kind for x in list_places([one])] == ["infinity"]

    def test_list_places_matches_reference(self):
        # random fractions with planted u-content, large powers of u and an
        # irreducible quadratic, over prime and non-prime fields
        rng = random.Random(13)
        for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
            F = make_field(p, n)
            _, u, t = uvars(F)
            quad = RatFunc.from_poly2(Poly2.from_poly1(_irreducibles(F, 2)[0]))
            for _ in range(12):
                fs = [rand_ratfunc(rng, F) for _ in range(rng.randrange(1, 4))]
                fs[0] = fs[0] * u ** rng.randrange(-3, 4)
                fs[-1] = fs[-1] * quad ** rng.randrange(-2, 3)
                if rng.randrange(2):
                    fs.append((u ** rng.randrange(-300, 300) + t) * quad)
                assert list_places(fs) == _list_places_reference(fs)

    def test_expand_poly2_matches_dense_rows(self):
        # at infinity and at u the rows are relabelled from the sparse
        # terms; the reference expands each dense t-row (the old path)
        rng = random.Random(29)
        for p, n in ((2, 1), (3, 1), (2, 2)):
            F = make_field(p, n)
            _, u, t = uvars(F)
            places = [CurvePlace(F, "finite",
                                 Poly1(F, (F.zero, F.one))),
                      infinity_place(F)]
            for _ in range(10):
                f = rand_ratfunc(rng, F) * u ** rng.randrange(-3, 4)
                if rng.randrange(2):
                    f = f + u ** rng.randrange(-300, 300) * t
                for P in (f.num, f.den):
                    for x in places:
                        got = _expand_poly2(P, x, 8)
                        ref = _expand_poly2_reference(P, x, 8)
                        assert got.terms == ref.terms, (P, x)
                        assert got.t_prec == ref.t_prec
                        assert got.u_prec == ref.u_prec

    def test_list_places_empty(self):
        with pytest.raises(ZeroArgument):
            list_places([])

    def test_expand_parameter(self):
        F2 = make_field(2, 1)
        _, u, _ = uvars(F2)
        x = list_places([u])[0]
        assert expand_at_place(u, x, (6, 6)) == \
            Laurent2.monomial(F2, F2.one, 1, 0)

    def test_expand_geometric(self):
        F2 = make_field(2, 1)
        one, u, _ = uvars(F2)
        x = list_places([u])[0]
        f = expand_at_place(one / (one - u), x, (5, 5))
        for k in range(5):
            assert f.coeff(k, 0) == F2.one

    def test_expand_at_infinity(self):
        F2 = make_field(2, 1)
        _, u, _ = uvars(F2)
        f = expand_at_place(u, infinity_place(F2), (5, 5))
        assert f == Laurent2.monomial(F2, F2.one, -1, 0)

    def test_expand_degree_two_place(self):
        # u is a root of its minimal polynomial modulo the place, so the
        # expansion of pi(u) at the place must be exactly the parameter
        F2 = make_field(2, 1)
        pi = Poly1.from_ints(F2, [1, 1, 1])
        x = CurvePlace(F2, "finite", pi)
        fhat = expand_at_place(RatFunc.from_poly2(Poly2.from_poly1(pi)), x,
                               (8, 8))
        assert fhat.coeff(0, 0) == fhat.dom.zero
        assert fhat.coeff(1, 0) == fhat.dom.one
        assert fhat.dom.q == 4


# The list power series that expanded polynomials at places of degree >= 2
# before they moved to Laurent2, kept as the reference for the differential
# test below.

def _ps_mul(a, b, prec, zero):
    out = [zero] * prec
    for i, x in enumerate(a[:prec]):
        if not x:
            continue
        for j, y in enumerate(b[:prec - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _ps_inv(a, prec, one):
    lead = a[0].inv()
    out = [lead] + [a[0] - a[0]] * (prec - 1)
    for k in range(1, prec):
        s = out[k]
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                s = s - a[j] * out[k - j]
        out[k] = s * lead
    return out


def _param_series_reference(place, prec):
    kx, emb, root = place_field(place)
    pihat = [emb(c) for c in place.minimal_poly.coeffs]
    zero, one = kx.zero, kx.one
    U = [root]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        U = U + [zero] * (n - len(U))
        val = [zero] * n
        der = [zero] * n
        pw = [one] + [zero] * (n - 1)
        for k, c in enumerate(pihat):
            if c:
                for i, x in enumerate(pw):
                    val[i] = val[i] + c * x
            if k + 1 < len(pihat) and pihat[k + 1]:
                cc = pihat[k + 1] * kx.from_int(k + 1)
                if cc:
                    for i, x in enumerate(pw):
                        der[i] = der[i] + cc * x
            pw = _ps_mul(pw, U, n, zero)
        val[1] = val[1] - one
        U = [U[i] - c for i, c in
             enumerate(_ps_mul(val, _ps_inv(der, n, one), n, zero))]
    return kx, U[:prec]


def _shift_reference(a, lam):
    """a(u + lam) in Poly1 arithmetic, as Poly1.shift computed it."""
    out = Poly1(a.field, ())
    for c in reversed(a.coeffs):
        out = out * Poly1(a.field, (lam, a.field.one)) \
            + Poly1.const(a.field, c)
    return out


def _expand_poly2_reference(P, place, prec):
    """Each t-row made dense and expanded as a polynomial in u."""
    kx, _, _ = place_field(place)
    acc = Laurent2.zero(kx)
    for b, poly in P.t_coeffs().items():
        acc = acc + _expand_poly1_reference(poly, place, prec).monomial_mul(
            kx.one, 0, b)
    return acc


def _expand_poly1_reference(a, place, prec):
    """One dense row: relabelled at infinity, shifted in Poly1 arithmetic
    at a rational place, summed in the list series at degree >= 2."""
    if place.kind == "infinity":
        return Laurent2(place.field, {0: {-k: c for k, c in
                                          enumerate(a.coeffs) if c}})
    kx, emb, root = place_field(place)
    if place.residue_degree == 1:
        shifted = _shift_reference(a, root)
        return Laurent2(kx, {0: {k: c for k, c in enumerate(shifted.coeffs)
                                 if c}})
    _, U = _param_series_reference(place, prec)
    zero, one = kx.zero, kx.one
    acc = [zero] * prec
    pw = [one] + [zero] * (prec - 1)
    for c in a.coeffs:
        if c:
            ce = emb(c)
            for i, x in enumerate(pw):
                if x:
                    acc[i] = acc[i] + ce * x
        pw = _ps_mul(pw, U, prec, zero)
    return Laurent2(kx, {0: {k: c for k, c in enumerate(acc) if c}},
                    INF, {0: prec})


def _rand_rows(rng, field, rows=4, deg=7):
    """A random polynomial with up to `rows` t-rows of u-degree below deg."""
    return Poly2(field, {(rng.randrange(deg), rng.randrange(rows)):
                         field.elem_by_index(rng.randrange(field.q))
                         for _ in range(rng.randrange(1, 3 * rows))})


class TestExpansionKernel:
    PRECS = (1, 2, 5, 12, 17, 30)

    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_matches_list_reference(self, q):
        # one Horner over the u-columns of the whole polynomial against each
        # t-row expanded alone: by the list series at places of degree 2
        # and 3, by Poly1 shifts at rational places with a nonzero root,
        # where u^300 is planted
        field = make_field(*q)
        rng = random.Random(q[0] * 10 + q[1])
        places = [CurvePlace(field, "finite", pi)
                  for pi in _irreducibles(field, 1) if pi.coeffs[0]]
        for d in (2, 3):
            irr = list(_irreducibles(field, d))
            places += [CurvePlace(field, "finite", pi)
                       for pi in rng.sample(irr, min(3, len(irr)))]
        for x in places:
            rational = x.residue_degree == 1
            for prec in (1,) if rational else self.PRECS:
                polys = [Poly2(field, {}), Poly2.from_poly1(x.minimal_poly),
                         Poly2.from_poly1(x.minimal_poly)
                         * Poly2.monomial(field, field.one, 0, 2)]
                polys += [_rand_rows(rng, field) for _ in range(3)]
                if rational:
                    polys.append(polys[-1] + Poly2.monomial(
                        field, field.one, 300, rng.randrange(3)))
                for P in polys:
                    got = _expand_poly2(P, x, prec)
                    ref = _expand_poly2_reference(P, x, prec)
                    assert got.terms == ref.terms, (x, prec, P)
                    assert got.t_prec == ref.t_prec
                    assert got.u_prec == ref.u_prec

    @pytest.mark.parametrize("prec", [1, 2, 7, 16])
    def test_param_series_is_exact_in_t(self, prec):
        # Horner over a whole polynomial multiplies every t-row by U, so a
        # t-window on U would drop the rows above 0
        F2 = make_field(2, 1)
        x = CurvePlace(F2, "finite", Poly1.from_ints(F2, [1, 1, 1]))
        kx, U = _param_series(x, prec)
        assert U.t_prec == INF
        assert U.u_prec == {0: prec}
        _, ref = _param_series_reference(x, prec)
        assert U.terms == {0: {i: c for i, c in enumerate(ref) if c}}

    def test_param_series_refuses_no_digits(self):
        F2 = make_field(2, 1)
        x = CurvePlace(F2, "finite", Poly1.from_ints(F2, [1, 1, 1]))
        _, u, _ = uvars(F2)
        with pytest.raises(PrecisionTooLow):
            expand_at_place(u, x, (4, 0))


# The binomial expansion that mapped polynomials into branch coordinates,
# and the per-factor inverses of expand_point, kept as references.

def _poly2_to_branch_reference(P, y):
    field = P.field
    if y.kind == "axis_u":
        return Laurent2(field, P.rows(), INF, {})
    if y.kind == "axis_t":
        return Laurent2(field, _poly2_transpose(P).rows(), INF, {})
    phi = y.graph_poly
    if y.kind == "graph_u_of_t":
        P = _poly2_transpose(P)
    acc = Laurent2.zero(field)
    for (a, b), c in P.terms.items():
        term = Laurent2.monomial(field, c, a, 0)
        for r in range(b + 1):
            binom = field.from_int(math.comb(b, r))
            if not binom:
                continue
            pw = phi ** (b - r)
            inner = Laurent2(field, {0: {k: cc for k, cc in
                                         enumerate(pw.coeffs) if cc}},
                             INF, {})
            acc = acc + (term * inner).monomial_mul(binom, 0, r)
    return acc


def _expand_point_reference(pf, y, box):
    field = pf.field
    acc = Laurent2.monomial(field, pf.constant)
    for z, e in pf.curve_exps.items():
        base = _poly2_to_branch_reference(z.equation(), y)
        if e >= 0:
            acc = acc * base ** e
        else:
            acc = acc * invert(base, *box) ** (-e)
    for eps, e in pf.units:
        unit = Laurent2.one(field) + _poly2_to_branch_reference(eps, y)
        if e >= 0:
            acc = acc * unit ** e
        else:
            acc = acc * invert(unit, *box) ** (-e)
    return acc


def _rand_graph_curves(rng, field):
    def graph():
        return Poly1(field, [field.zero] + [
            field.elem_by_index(rng.randrange(field.q))
            for _ in range(rng.randrange(1, 4))] + [field.one])
    return [AdmissibleCurve(field, "axis_u"), AdmissibleCurve(field, "axis_t"),
            AdmissibleCurve(field, "graph_t_of_u", graph()),
            AdmissibleCurve(field, "graph_u_of_t", graph())]


class TestBranchKernel:
    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
    def test_horner_matches_binomial_reference(self, q):
        field = make_field(*q)
        rng = random.Random(31 + q[0] * 10 + q[1])
        for _ in range(6):
            for y in _rand_graph_curves(rng, field):
                for P in [Poly2(field, {}), y.equation()] + [
                        _rand_rows(rng, field, 5, 5) for _ in range(4)]:
                    got = _poly2_to_branch(P, y)
                    ref = _poly2_to_branch_reference(P, y)
                    assert got == ref, (y, P)

    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
    def test_one_inverse_matches_per_factor_inverses(self, q):
        # inputs shaped as the point cases of the benchmark (both axes, at
        # most one graph, exponents -1..1, a monomial unit): the product of
        # the negative factors inverted once has the same terms and regions
        # as each negative factor inverted alone
        field = make_field(*q)
        rng = random.Random(41 + q[0] * 10 + q[1])
        for k in range(30):
            curves = [AdmissibleCurve(field, "axis_u"),
                      AdmissibleCurve(field, "axis_t")]
            if k % 3:
                curves.append(AdmissibleCurve(field, "graph_t_of_u", Poly1(
                    field, [field.zero] * (k % 3) + [field.one])))
            eps = Poly2.monomial(field, field.elem_by_index(
                1 + rng.randrange(field.q - 1)), rng.randint(0, 1),
                rng.randint(1, 2))
            pf = PointFunc(field, field.elem_by_index(1 + rng.randrange(
                field.q - 1)), {c: rng.randint(-1, 1) for c in curves},
                [(eps, rng.choice([-1, 1]))])
            for y in curves:
                for box in ((2, 2), (4, 4), (8, 8), (3, 7)):
                    got = expand_point(pf, y, set(curves), box)
                    ref = _expand_point_reference(pf, y, box)
                    assert got.terms == ref.terms, (pf, y, box)
                    assert got.t_prec == ref.t_prec
                    assert got.u_prec == ref.u_prec

    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
    def test_one_inverse_agrees_with_per_factor_inverses(self, q):
        # several non-monomial negative factors, some squared: the regions
        # of the two ways differ, but every coefficient both know is equal
        field = make_field(*q)
        rng = random.Random(37 + q[0] * 10 + q[1])
        one = Poly2.one(field)
        for _ in range(8):
            curves = _rand_graph_curves(rng, field)
            units = [(Poly2.monomial(field, field.one, 1, 1)
                      + Poly2.monomial(field, field.one, rng.randrange(3),
                                       1 + rng.randrange(2)), -1),
                     (_rand_rows(rng, field, 3, 3) * Poly2.monomial(
                         field, field.one, 1, 0) + Poly2.monomial(
                         field, field.one, 0, 1), rng.choice([-2, 1]))]
            units = [(eps, e) for eps, e in units if eps and eps != -one]
            pf = PointFunc(field, field.elem_by_index(1 + rng.randrange(
                field.q - 1)), {c: rng.choice([-2, -1, 1])
                                for c in curves}, units)
            for y in curves:
                for box in ((3, 3), (6, 6), (5, 9)):
                    got = expand_point(pf, y, set(curves), box)
                    ref = _expand_point_reference(pf, y, box)
                    assert got.same_known_terms(ref), (pf, y, box)


    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
    def test_pointfunc_is_num_over_den(self, q):
        # to_pointfunc's factors multiply out to num / den = f
        field = make_field(*q)
        rng = random.Random(43 + q[0] * 10 + q[1])
        one = Poly2.one(field)
        u = Poly2.monomial(field, field.one, 1, 0)
        t = Poly2.monomial(field, field.one, 0, 1)
        for _ in range(12):
            curves = _rand_graph_curves(rng, field)
            f = RatFunc.const(field, field.elem_by_index(
                1 + rng.randrange(field.q - 1)))
            for y in curves:
                f = f * RatFunc.from_poly2(y.equation()) ** rng.randint(-2, 2)
            for e in (1, -1, rng.choice([-2, 2])):
                eps = _rand_rows(rng, field, 3, 3) * (u if e > 0 else t)
                f = f * RatFunc.from_poly2(one + eps) ** e
            pf = to_pointfunc(f, curves)
            assert pf.num * f.den == f.num * pf.den, (f, pf)

    def test_zero_is_exact(self):
        for q in [(2, 1), (3, 1)]:
            field = make_field(*q)
            rng = random.Random(47)
            curves = _rand_graph_curves(rng, field)
            zero = PointFunc(field, field.zero, {y: -1 for y in curves},
                             [(Poly2.monomial(field, field.one, 1, 1), -2)])
            for y in curves:
                got = expand_point(zero, y, set(curves), (2, 2))
                assert got.is_zero() and got == Laurent2.zero(field)


# --------------------------------------------------------------------------
# curve-mode reciprocity
# --------------------------------------------------------------------------

class TestCurveReciprocity:
    def test_two_place_cancellation(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        terms = curve_witt_terms(u, t, one / u, 1)
        assert len(terms) == 2
        assert is_zero_wv(curve_witt_reciprocity(u, t, one / u, 1))

    def test_diagonal_vanishes(self):
        # over F_3 at m = 2 the terms at u, u+1 and infinity cancel
        F3 = make_field(3, 1)
        one, u, t = uvars(F3)
        zero = RatFunc.const(F3, F3.zero)
        assert is_zero_wv(curve_witt_reciprocity(
            u + one, t, [(one + one) / u, zero], 2))
        assert curve_tame_reciprocity(u + one, t, (u + one) / u) == F3.one

    @pytest.mark.parametrize("m", [0, -2])
    def test_length_below_one_is_refused(self, m):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        with pytest.raises(UnsupportedLength):
            curve_witt_terms(u, t, one / u, m)

    def test_zero_h(self):
        F3 = make_field(3, 1)
        one, u, t = uvars(F3)
        zero = RatFunc.const(F3, F3.zero)
        assert is_zero_wv(curve_witt_reciprocity(u + one, t + u, zero, 2))

    def test_steinberg_placewise(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        f = u + t
        for _, w in curve_witt_terms(f, one - f, one / u, 1):
            assert is_zero_wv(w)

    def test_random_sweep(self):
        rng = random.Random(11)
        for q, n in ((2, 1), (3, 1), (2, 2)):
            field = make_field(q, n)
            one, u, t = uvars(field)
            for m in (1, 2):
                f = rand_ratfunc(rng, field) + t
                g = rand_ratfunc(rng, field) + u
                h = rand_ratfunc(rng, field)
                assert is_zero_wv(curve_witt_reciprocity(f, g, h, m))

    def test_tame_constant_example(self):
        F4 = make_field(2, 2)
        one, u, t = uvars(F4)
        z = RatFunc.const(F4, F4.gen)
        terms = curve_tame_terms(z, u, t)
        nontrivial = [x for x, _, v in terms if v != F4.one]
        assert len(nontrivial) == 2
        assert curve_tame_reciprocity(z, u, t) == F4.one

    def test_tame_f_f(self):
        F3 = make_field(3, 1)
        one, u, t = uvars(F3)
        f = u + t + one
        assert curve_tame_reciprocity(f, f, u * t) == F3.one

    def test_tame_random(self):
        rng = random.Random(7)
        for q, n in ((2, 1), (3, 1), (2, 2)):
            field = make_field(q, n)
            one, u, t = uvars(field)
            for _ in range(3):
                f = rand_ratfunc(rng, field) + t
                g = rand_ratfunc(rng, field) + u
                h = rand_ratfunc(rng, field) + one
                assert curve_tame_reciprocity(f, g, h) == field.one

    def test_degree_two_place_in_sweep(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        g = one / (u * u + u + one)
        assert is_zero_wv(curve_witt_reciprocity(u + t, t, g, 1))
        assert curve_tame_reciprocity(u + t, t, g) == F2.one

    def test_dense_data_at_degree_two_places(self):
        # a box sized from the input degrees took 40 s on this triple
        F5 = make_field(5, 1)
        f, g, h = (eval_rational(x, F5) for x in (
            "(3*u*t^2+t^3+2*u^3*t^3)/(u+4*u^2+u^3*t^4)",
            "(t+3*u^2*t+3*t^4)/(u^3+u^4+u^3*t^4)",
            "(1+3*u^3*t^3)/(3*u*t^2+u^3*t^3)"))
        start = time.perf_counter()
        assert is_zero_wv(curve_witt_reciprocity(f, g, h, 2))
        assert time.perf_counter() - start < 10

    def test_each_place_matches_a_fixed_precision(self):
        # the doubled box against expansions at precision 40, wherever
        # that precision answers
        rng = random.Random(23)
        compared = 0
        degs = iter([1, 2, 3] * 3)
        for q in ((2, 1), (3, 1), (2, 2), (5, 1)):
            field = make_field(*q)
            _, u, t = uvars(field)
            for m in (1, 2):
                deg = next(degs)
                f = rand_ratfunc(rng, field, deg) + t
                g = rand_ratfunc(rng, field, deg) + u
                h = rand_ratfunc(rng, field, deg)
                if not (f and g):
                    continue
                for x, w in curve_witt_terms(f, g, h, m):
                    fh, gh, hh = (expand_at_place(c, x, (40, 40))
                                  for c in (f, g, h))
                    ch = [hh] + [Laurent2.zero(fh.dom)] * (m - 1)
                    try:
                        ref = witt_pair_local(symbol(fh, gh), WittVec(
                            laurent_domain(fh.dom), ch), m)
                    except PrecisionTooLow:
                        continue
                    assert ref == w, (q, m, x)
                    compared += 1
        assert compared >= 15

    @pytest.mark.parametrize("f, g, k", [("u^3+t", "t", 5),
                                         ("u+t", "1+u*t", 7)])
    def test_deep_pole_at_a_degree_two_place(self, f, g, k):
        # h = 1/(pi^k t) expands to s^-k t^-1 in the parameter s = pi(u), so
        # the local term reads the series of u in s past s^4.  A consistent
        # wrong series is a change of parameter, which leaves every local
        # term as it is; pairing against the exact s^-k t^-1 pins it.
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        pi = u * u + u + one
        f, g = eval_rational(f, F2), eval_rational(g, F2)
        h = one / (pi ** k * t)
        assert is_zero_wv(curve_witt_reciprocity(f, g, h, 2))
        x = CurvePlace(F2, "finite", Poly1.from_ints(F2, [1, 1, 1]))
        w = dict(curve_witt_terms(f, g, h, 2))[x]
        fh, gh = (expand_at_place(c, x, (40, 40)) for c in (f, g))
        hh = Laurent2.monomial(fh.dom, fh.dom.one, -k, -1)
        ref = witt_pair_local(symbol(fh, gh), WittVec(
            laurent_domain(fh.dom), [hh, Laurent2.zero(fh.dom)]), 2)
        assert not is_zero_wv(w)
        assert ref == w


# --------------------------------------------------------------------------
# point-mode reciprocity
# --------------------------------------------------------------------------

class TestPointReciprocity:
    def setup_method(self):
        self.F4 = make_field(2, 2)
        self.ax_u = AdmissibleCurve(self.F4, "axis_u")
        self.ax_t = AdmissibleCurve(self.F4, "axis_t")

    def test_axes_constant(self):
        F4 = self.F4
        fu = PointFunc(F4, curve_exps={self.ax_t: 1})
        ft = PointFunc(F4, curve_exps={self.ax_u: 1})
        fc = PointFunc(F4, constant=F4.gen)
        w = point_witt_reciprocity(fu, ft, [fc], 1, [self.ax_u, self.ax_t])
        assert is_zero_wv(w)

    def test_zero_h(self):
        F4 = self.F4
        fu = PointFunc(F4, curve_exps={self.ax_t: 1})
        ft = PointFunc(F4, curve_exps={self.ax_u: 1})
        z = PointFunc(F4, constant=F4.zero)
        w = point_witt_reciprocity(fu, ft, [z], 1, [self.ax_u, self.ax_t])
        assert is_zero_wv(w)

    def test_tame_axes(self):
        F4 = self.F4
        fu = PointFunc(F4, curve_exps={self.ax_t: 1})
        ft = PointFunc(F4, curve_exps={self.ax_u: 1})
        fc = PointFunc(F4, constant=F4.gen)
        from k2local.globalfield import point_tame_terms
        vals = dict((y.kind, v) for y, v in
                    point_tame_terms(fu, ft, fc, [self.ax_u, self.ax_t]))
        assert vals["axis_u"] == F4.gen
        assert vals["axis_t"] == F4.gen.inv()
        assert point_tame_reciprocity(fu, ft, fc,
                                      [self.ax_u, self.ax_t]) == F4.one

    def test_three_curves(self):
        F2 = make_field(2, 1)
        axu = AdmissibleCurve(F2, "axis_u")
        axt = AdmissibleCurve(F2, "axis_t")
        diag = AdmissibleCurve(F2, "graph_t_of_u", Poly1.from_ints(F2, [0, 1]))
        curves = [axu, axt, diag]
        fu = PointFunc(F2, curve_exps={axt: 1})
        fd = PointFunc(F2, curve_exps={diag: 1})
        ft = PointFunc(F2, curve_exps={axu: 1})
        assert point_tame_reciprocity(fu, fd, ft, curves) == F2.one
        assert is_zero_wv(point_witt_reciprocity(fu, fd, ft, 1, curves))

    def test_graph_u_of_t(self):
        F3 = make_field(3, 1)
        axu = AdmissibleCurve(F3, "axis_u")
        axt = AdmissibleCurve(F3, "axis_t")
        par = AdmissibleCurve(F3, "graph_u_of_t",
                              Poly1.from_ints(F3, [0, 0, 1]))
        curves = [axu, axt, par]
        f = PointFunc(F3, curve_exps={axt: 1, par: 1})
        g = PointFunc(F3, curve_exps={axu: 1},
                      units=[Poly2.monomial(F3, F3.one, 1, 1)])
        h = PointFunc(F3, constant=F3.from_int(2), curve_exps={axu: -1})
        assert is_zero_wv(point_witt_reciprocity(f, g, [h], 2, curves))
        assert point_tame_reciprocity(f, g, h, curves) == F3.one

    def test_no_curves(self):
        # an empty sum is the zero of W_m(F_p), as the empty product is one
        F4 = self.F4
        f = PointFunc(F4, constant=F4.gen)
        w = point_witt_reciprocity(f, f, [f], 2, [])
        assert w == witt_zero(make_field(2, 1), 2)
        assert point_tame_reciprocity(f, f, f, []) == F4.one
        rep = witt_report([], w, "curve")
        assert rep["m"] == 2 and rep["curves"] == []
        assert rep["sum"] == [[0], [0]] and rep["verdict"]

    @pytest.mark.parametrize("m", [0, -1])
    def test_length_below_one_is_refused(self, m):
        fu = PointFunc(self.F4, curve_exps={self.ax_u: 1})
        ft = PointFunc(self.F4, curve_exps={self.ax_t: 1})
        for curves in ([self.ax_u, self.ax_t], []):
            with pytest.raises(UnsupportedLength):
                point_witt_terms(fu, ft, [fu], m, curves)

    def test_repeated_curve_counts_once(self):
        # a curve declared twice, or as t = u and as u = t, is one curve
        F3 = make_field(3, 1)
        axu = AdmissibleCurve(F3, "axis_u")
        axt = AdmissibleCurve(F3, "axis_t")
        diag = AdmissibleCurve(F3, "graph_t_of_u", Poly1.from_ints(F3, [0, 1]))
        diag_u = AdmissibleCurve(F3, "graph_u_of_t",
                                 Poly1.from_ints(F3, [0, 1]))
        assert diag == diag_u and hash(diag) == hash(diag_u)
        assert diag != AdmissibleCurve(F3, "graph_u_of_t",
                                       Poly1.from_ints(F3, [0, 2]))
        for text, once, twice in (
                (("u*(1+t)", "t*(1+u)", "2"), [axu, axt], [axu, axu, axt]),
                (("(t-u)*(1+t)", "t*(1+u)", "2"), [axu, axt, diag],
                 [axu, axt, diag, diag_u])):
            f, g, h = (to_pointfunc(eval_rational(x, F3), twice)
                       for x in text)
            terms = point_witt_terms(f, g, [h], 1, twice)
            assert [y for y, _ in terms] == once
            assert terms == point_witt_terms(f, g, [h], 1, once)
            assert is_zero_wv(point_witt_reciprocity(f, g, [h], 1, twice))
            assert point_tame_reciprocity(f, g, h, twice) == F3.one

    def test_undeclared_curve(self):
        F4 = self.F4
        fu = PointFunc(F4, curve_exps={self.ax_t: 1})
        ft = PointFunc(F4, curve_exps={self.ax_u: 1})
        with pytest.raises(UndeclaredCurveFactor):
            point_witt_reciprocity(fu, ft, [fu], 1, [self.ax_u])


# --------------------------------------------------------------------------
# canonical Artin-Schreier representatives
# --------------------------------------------------------------------------

class TestASReduce:
    def test_positive_part_vanishes(self):
        F2 = make_field(2, 1)
        _, u, t = uvars(F2)
        rep = as_reduce(u * t * t)
        assert not rep.terms

    def test_odd_index_unchanged(self):
        F2 = make_field(2, 1)
        _, u, t = uvars(F2)
        rep = as_reduce(u / t)
        assert rep.terms == {-1: u}
        assert rep.flags == {}

    def test_square_transfer(self):
        F2 = make_field(2, 1)
        _, u, t = uvars(F2)
        rep = as_reduce(u * u / (t * t))
        assert rep.terms == {-1: u}

    def test_rational_coefficient_flagged(self):
        F2 = make_field(2, 1)
        one, u, t = uvars(F2)
        f = one / ((u + one) * t * t)
        rep = as_reduce(f)
        assert rep.flags.get(-2) == "rational"
        assert as_residual_solves(f, rep)

    def test_idempotent_and_residual_random(self):
        rng = random.Random(5)
        for q, n in ((2, 1), (3, 1), (2, 2)):
            field = make_field(q, n)
            _, _, t = uvars(field)
            for _ in range(8):
                f = RatFunc.const(field, field.zero)
                for _ in range(rng.randrange(1, 4)):
                    k = rng.randrange(-6, 4)
                    num = Poly1(field, [field.elem_by_index(
                        rng.randrange(field.q)) for _ in range(3)])
                    den = Poly1(field, [field.elem_by_index(
                        rng.randrange(field.q)) for _ in range(2)] +
                        [field.one])
                    f = f + RatFunc(Poly2.from_poly1(num),
                                    Poly2.from_poly1(den)) * t ** k
                rep = as_reduce(f)
                again = as_reduce(rep.recompose())
                assert again.terms == rep.terms
                assert as_residual_solves(f, rep)
                p = field.p
                for k, c in rep.terms.items():
                    if k % p == 0:
                        # no p-th-power component may remain
                        from k2local.globalfield import \
                            _p_component_zero_part
                        assert _p_component_zero_part(c) is None or \
                            not _p_component_zero_part(c)


# --------------------------------------------------------------------------
# duality kernels
# --------------------------------------------------------------------------

class TestDualityPoint:
    def test_closed_form_mixed(self):
        F2 = make_field(2, 1)
        for a in F2.elements():
            for b in F2.elements():
                v = point_basis_pair(1, 2, a, b, F2.one, -1, -2, F2)
                assert v == a - b

    def test_closed_form_prime_to_p(self):
        F3 = make_field(3, 1)
        for a in F3.elements():
            for b in F3.elements():
                for c in F3.elements():
                    if not c:
                        continue
                    v = point_basis_pair(1, 1, a, b, c, -1, -1, F3)
                    assert v == c * (a + b)

    def test_vanishing_above_diagonal(self):
        F2 = make_field(2, 1)
        assert not point_basis_pair(1, 2, F2.one, F2.one, F2.one, 0, -1, F2)
        assert not point_basis_pair(1, 2, F2.one, F2.one, F2.one, 1, 0, F2)

    def test_kernel_p2(self):
        F2 = make_field(2, 1)
        rep = duality_kernel_point(1, 2, F2)
        assert rep["match"]
        assert sorted(rep["kernel"]) == [[[0], [0]], [[1], [1]]]

    def test_kernel_p3(self):
        F3 = make_field(3, 1)
        rep = duality_kernel_point(1, 1, F3)
        assert rep["match"]
        assert rep["kernel_size"] == 3

    def test_origin_in_kernel(self):
        F4 = make_field(2, 2)
        rep = duality_kernel_point(2, 1, F4)
        assert rep["match"]
        assert [[0, 0], [0, 0]] in rep["kernel"]

    def test_bad_index_pair(self):
        F2 = make_field(2, 1)
        with pytest.raises(BadIndexPair):
            duality_kernel_point(2, 4, F2)


class TestDualityCurve:
    def test_level_one_pole_zero(self):
        F2 = make_field(2, 1)
        rep = duality_level_curve(1, 0, F2)
        block = rep["place_blocks"]["[1]*u^1"]
        assert len(block) == 1 and len(block[0]) == 1
        assert block[0][0] != [0]
        assert rep["full_column_rank"]

    def test_zero_rows_span_kernel(self):
        F2 = make_field(2, 1)
        rep = duality_level_curve(1, 2, F2)
        zero_rows = sum(1 for row in rep["matrix"]
                        if all(c == [0] for c in row))
        assert rep["kernel_dim"] >= zero_rows
        assert rep["full_column_rank"]

    def test_diagonal_elements_in_kernel(self):
        F2 = make_field(2, 1)
        one, a, _ = uvars(F2)
        b = a + one
        rep = duality_level_curve(1, 2, F2,
                                  diag_samples=[(a, b), (one, b), (a, one)])
        assert rep["diagonal_in_kernel"] == [True, True, True]

    def test_negative_pole_bound(self):
        with pytest.raises(ZeroArgument):
            duality_level_curve(1, -1, make_field(2, 1))

    def test_diagonal_sample_off_the_rational_places(self):
        # the sum runs over rational places only, so a sample meeting the
        # place 1+u^2 of degree 2 used to be reported "not in the kernel"
        F3 = make_field(3, 1)
        a, b, c = (RatFunc.from_poly2(Poly2.from_poly1(
            Poly1.from_ints(F3, cs))) for cs in ([1, 1], [1, 0, 1], [0, 1]))
        with pytest.raises(UnsupportedPlace):
            duality_level_curve(1, 2, F3, diag_samples=[(a * b.inv(), c)])

    def test_p_divisible_level(self):
        F3 = make_field(3, 1)
        rep = duality_level_curve(3, 3, F3)
        # at p | k the test space is the p-constrained monomial basis
        assert rep["f_basis"] == ["u^1", "u^2"]
        assert all(g["component"] == 1 for g in rep["generators"])
        assert rep["full_column_rank"]


def test_inexact_content_division_is_an_invariant_violation():
    from k2local.errors import InvariantViolation
    from k2local.globalfield import _poly2_div_poly1
    F2 = make_field(2, 1)
    P = Poly2(F2, {(0, 0): F2.one, (1, 1): F2.one})  # 1 + u t
    with pytest.raises(InvariantViolation):
        _poly2_div_poly1(P, Poly1.from_ints(F2, [0, 1]))  # by u
