"""End-to-end acceptance checks for the local and global pairing machinery."""

import json
import random
import time
from pathlib import Path

import pytest

from k2local import cli
from k2local.ff import galois_ring, make_field
from k2local.globalfield import (AdmissibleCurve, Poly1, Poly2,
                                 PointFunc, RatFunc,
                                 _p_component_zero_part, as_reduce,
                                 as_residual_solves, curve_tame_reciprocity,
                                 curve_witt_reciprocity, duality_kernel_point,
                                 point_tame_reciprocity,
                                 point_witt_reciprocity)
from k2local.series import Laurent2, laurent_domain
from k2local.symbols import (symbol, tame_symbol_det, tame_symbol_signed,
                             witt_pair_local)
from k2local.witt import WittVec, unghost, witt_add, witt_zero
from helpers import GOLDEN_COMMANDS, ghost
from test_symbols import verify_appendix_identity

DATA = Path(__file__).parent / "data"

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


def rand_unit(F, rng, shift=1, extra=2):
    """Random two-variable unit with a pinned corner coefficient."""
    d = {(0, 0): F.elem_by_index(1 + rng.randrange(F.q - 1))}
    for _ in range(extra):
        key = (rng.randrange(0, 3), rng.randrange(0, 3))
        if key != (0, 0):
            d[key] = F.elem_by_index(rng.randrange(F.q))
    f = Laurent2.from_dict(F, d)
    return f.monomial_mul(F.one, rng.randrange(-shift, shift + 1),
                          rng.randrange(-shift, shift + 1))


def rand_g(F, rng, m, depth=2):
    """Random length-m Witt vector of sparse Laurent components."""
    comps = []
    for _ in range(m):
        c = Laurent2.monomial(F, F.elem_by_index(rng.randrange(F.q)),
                              rng.randint(-depth, depth),
                              rng.randint(-depth, depth))
        comps.append(c)
    return WittVec(laurent_domain(F), tuple(comps))


def pair_u(f1, f2, g, m):
    return witt_pair_local(symbol(f1, f2), g, m, traced=False)


def verschiebung(w):
    """V: shift the components up by one, with a zero in front."""
    return WittVec(w.ring, (w.ring.zero,) + w.components)


def is_zero_wv(w):
    return all(not c for c in w.components)


# instance counts per (q, m), weighted so heavy combinations stay cheap
COUNTS = {
    (2, 1): 23, (2, 2): 20, (2, 3): 20,
    (3, 1): 20, (3, 2): 20, (3, 3): 20,
    (4, 1): 15, (4, 2): 10, (4, 3): 8,
    (5, 1): 15, (5, 2): 8, (5, 3): 2,
    (9, 1): 10, (9, 2): 6, (9, 3): 3,
}

# the pairing cost grows like p^(m-1), so the largest combinations are
# dropped for the properties that pair outputs of Witt-ring arithmetic
# (whose component exponents scale by another factor of p^(m-1));
# length-three coverage for those comes from q in {2, 3, 4}
COUNTS_ARITH = {**COUNTS, (5, 3): 0, (9, 3): 0, (2, 1): 26, (3, 1): 22}

HEAVY = {(5, 3), (9, 3)}
MID = {(5, 2), (9, 2), (4, 3)}


def gen_for(F, m):
    """(extra unit terms, monomial shift, witt-component depth) by cost."""
    if (F.q, m) in HEAVY:
        return 1, 0, 1
    if (F.q, m) in MID:
        return 2, 1, 1
    return 2, 1, 2


def rand_monomial(F, rng, lo=-1, hi=1):
    return Laurent2.monomial(F, F.elem_by_index(1 + rng.randrange(F.q - 1)),
                             rng.randint(lo, hi), rng.randint(lo, hi))


# same idea for the properties that only make sense at length two or more
COUNTS_LONG = {
    (2, 2): 35, (2, 3): 35,
    (3, 2): 35, (3, 3): 35,
    (4, 2): 18, (4, 3): 12,
    (5, 2): 14, (5, 3): 2,
    (9, 2): 10, (9, 3): 4,
}


def property_cases(ms, counts=COUNTS):
    cases = []
    for (p, n) in FIELDS:
        F = make_field(p, n)
        for m in ms:
            cases.append((F, m, counts[(F.q, m)]))
    return cases


class TestPairingProperties:
    """The local Witt pairing's defining identities on random inputs."""

    def test_bimultiplicative(self):
        t0 = time.monotonic()
        rng = random.Random(101)
        total = 0
        for F, m, count in property_cases((1, 2, 3)):
            ex, sh, dp = gen_for(F, m)
            heavy = (F.q, m) in HEAVY
            for _ in range(count):
                if heavy:
                    f1, f1b = rand_monomial(F, rng), rand_monomial(F, rng)
                else:
                    f1 = rand_unit(F, rng, shift=sh, extra=ex)
                    f1b = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m, depth=dp)
                lhs = pair_u(f1 * f1b, f2, g, m)
                rhs = witt_add(pair_u(f1, f2, g, m), pair_u(f1b, f2, g, m))
                assert lhs == rhs
                lhs = pair_u(f2, f1 * f1b, g, m)
                rhs = witt_add(pair_u(f2, f1, g, m), pair_u(f2, f1b, g, m))
                assert lhs == rhs
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_additive_in_witt_argument(self):
        t0 = time.monotonic()
        rng = random.Random(103)
        total = 0
        for F, m, count in property_cases((1, 2, 3), COUNTS_ARITH):
            ex, sh, _ = gen_for(F, m)
            dp = 1 if m == 3 else 2
            for _ in range(count):
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m, depth=dp)
                h = rand_g(F, rng, m, depth=dp)
                lhs = pair_u(f1, f2, witt_add(g, h), m)
                rhs = witt_add(pair_u(f1, f2, g, m), pair_u(f1, f2, h, m))
                assert lhs == rhs
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_steinberg(self):
        t0 = time.monotonic()
        rng = random.Random(107)
        total = 0
        for F, m, count in property_cases((1, 2, 3)):
            ex, sh, dp = gen_for(F, m)
            done = 0
            while done < count:
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = Laurent2.one(F) - f1
                if not f2.terms:
                    continue
                g = rand_g(F, rng, m, depth=dp)
                assert pair_u(f1, f2, g, m) == witt_zero(F, m)
                done += 1
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_pth_power_of_witt_argument(self):
        t0 = time.monotonic()
        rng = random.Random(109)
        total = 0
        for F, m, count in property_cases((1, 2, 3), COUNTS_ARITH):
            p = F.p
            ex, sh, _ = gen_for(F, m)
            for _ in range(count):
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m, depth=1)
                gp = WittVec(g.ring, tuple(c ** p for c in g.components))
                w = pair_u(f1, f2, g, m)
                wp = pair_u(f1, f2, gp, m)
                assert wp == WittVec(F, tuple(c ** p for c in w.components))
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_continuity(self):
        t0 = time.monotonic()
        rng = random.Random(113)
        total = 0
        for F, m, count in property_cases((1, 2, 3)):
            p = F.p
            ex, sh, dp = gen_for(F, m)
            H = 2 * p ** (m - 1) + 6
            high = Laurent2.monomial(F, F.one, H, H)
            for _ in range(count):
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m, depth=dp)
                w = pair_u(f1, f2, g, m)
                assert pair_u(f1 * (Laurent2.one(F) + high), f2, g, m) == w
                gp = WittVec(g.ring, tuple(c + high for c in g.components))
                assert pair_u(f1, f2, gp, m) == w
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_truncation(self):
        t0 = time.monotonic()
        rng = random.Random(127)
        total = 0
        for F, m, count in property_cases((2, 3), COUNTS_LONG):
            ex, sh, dp = gen_for(F, m)
            for _ in range(count):
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m, depth=dp)
                w = pair_u(f1, f2, g, m)
                short = WittVec(g.ring, g.components[:m - 1])
                w_short = pair_u(f1, f2, short, m - 1)
                assert w.components[:m - 1] == w_short.components
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60

    def test_shift(self):
        t0 = time.monotonic()
        rng = random.Random(131)
        total = 0
        for F, m, count in property_cases((2, 3), COUNTS_LONG):
            ex, sh, dp = gen_for(F, m)
            for _ in range(count):
                f1 = rand_unit(F, rng, shift=sh, extra=ex)
                f2 = rand_unit(F, rng, shift=sh, extra=ex)
                g = rand_g(F, rng, m - 1, depth=dp)
                lhs = pair_u(f1, f2, verschiebung(g), m)
                rhs = verschiebung(pair_u(f1, f2, g, m - 1))
                assert lhs == rhs
                total += 1
        assert total >= 200
        assert time.monotonic() - t0 < 60


class TestTameAgreement:
    def test_signed_matches_determinant(self):
        t0 = time.monotonic()
        rng = random.Random(211)
        for (p, n) in FIELDS:
            F = make_field(p, n)
            for _ in range(500):
                f = rand_unit(F, rng, shift=2)
                g = rand_unit(F, rng, shift=2)
                h = rand_unit(F, rng, shift=2)
                assert tame_symbol_det(f, g, h).value == \
                    tame_symbol_signed(f, g, h).value
        assert time.monotonic() - t0 < 30


def rand_poly2(F, rng, deg=2):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        terms[(rng.randrange(0, deg + 1), rng.randrange(0, deg + 1))] = \
            F.elem_by_index(rng.randrange(F.q))
    return Poly2(F, terms)


def rand_ratfunc(F, rng, deg=2):
    num = rand_poly2(F, rng, deg)
    while not num:
        num = rand_poly2(F, rng, deg)
    den = rand_poly2(F, rng, deg)
    while not den:
        den = rand_poly2(F, rng, deg)
    return RatFunc(num, den)


class TestCurveReciprocity:
    def test_random_triples(self):
        t0 = time.monotonic()
        rng = random.Random(307)
        count = 0
        for (p, n) in ((2, 1), (3, 1), (2, 2)):
            F = make_field(p, n)
            one = RatFunc.const(F, F.one)
            u = RatFunc.from_poly2(Poly2.monomial(F, F.one, 1, 0))
            t = RatFunc.from_poly2(Poly2.monomial(F, F.one, 0, 1))
            # an irreducible quadratic in u forces a degree-two place
            coeffs = [F.one, F.one, F.one] if p == 2 else [F.one, F.zero, F.one]
            quad = RatFunc.from_poly2(Poly2.from_poly1(
                Poly1(F, coeffs), "u"))
            n_triples = {2: 42, 3: 36, 4: 22}[F.q]
            for idx in range(n_triples):
                if F.q == 2:
                    m = 1 + idx % 2
                else:
                    m = 2 if idx % 6 == 5 else 1
                deg = 1 if (F.q == 4 or m == 2) else 2
                f = rand_ratfunc(F, rng, deg) + t
                while not f.num:
                    f = rand_ratfunc(F, rng, deg) + t
                g = rand_ratfunc(F, rng, deg) + u
                while not g.num:
                    g = rand_ratfunc(F, rng, deg) + u
                h = rand_ratfunc(F, rng, deg)
                if idx % 3 == 0:
                    h = h * one / quad
                assert is_zero_wv(curve_witt_reciprocity(f, g, h, m))
                ht = h + one
                if not ht.num:
                    ht = u
                assert curve_tame_reciprocity(f, g, ht) == F.one
                count += 1
        assert count >= 100
        assert time.monotonic() - t0 < 120


class TestPointReciprocity:
    def test_random_inputs_over_three_curve_sets(self):
        t0 = time.monotonic()
        rng = random.Random(401)
        count = 0
        for (p, n) in ((2, 1), (3, 1), (2, 2)):
            F = make_field(p, n)
            axu = AdmissibleCurve(F, "axis_u")
            axt = AdmissibleCurve(F, "axis_t")
            diag = AdmissibleCurve(F, "graph_t_of_u",
                                   Poly1.from_ints(F, [0, 1]))
            par = AdmissibleCurve(F, "graph_t_of_u",
                                  Poly1.from_ints(F, [0, 0, 1]))
            for curves in ([axu, axt], [axu, axt, diag], [axu, axt, par]):
                for idx in range(12):
                    m = 1 + idx % 2

                    def rand_pf():
                        exps = {c: rng.randint(-1, 1) for c in curves}
                        units = []
                        if rng.randrange(2):
                            eps = Poly2.monomial(
                                F, F.elem_by_index(rng.randrange(F.q)),
                                rng.randint(0, 1), rng.randint(1, 2))
                            if eps:
                                units = [eps]
                        return PointFunc(
                            F,
                            constant=F.elem_by_index(
                                1 + rng.randrange(F.q - 1)),
                            curve_exps=exps, units=units)

                    f, g, h = rand_pf(), rand_pf(), rand_pf()
                    assert is_zero_wv(
                        point_witt_reciprocity(f, g, [h], m, curves))
                    assert point_tame_reciprocity(f, g, h, curves) == F.one
                    count += 1
        assert count >= 100
        assert time.monotonic() - t0 < 120


class TestPointPairingClosedForms:
    """The m = 1 pairing engine against the closed forms at a point."""

    @staticmethod
    def engine_value(i, j, a, b, c, k, l, F):
        p = F.p
        one = Laurent2.one(F)
        u = Laurent2.monomial(F, F.one, 1, 0)
        t = Laurent2.monomial(F, F.one, 0, 1)
        if i % p and j % p == 0:
            s1, s2 = t, u
        elif i % p == 0 and j % p:
            s1, s2 = u, t
        else:
            s1, s2 = t, t
        ld = laurent_domain(F)
        val = F.zero
        if a and c:
            e = symbol(one + Laurent2.monomial(F, a, i, j), s1)
            g = WittVec(ld, (Laurent2.monomial(F, c, k, l),))
            val = val + witt_pair_local(e, g, 1, traced=False).components[0]
        if b and c:
            e = symbol(one + Laurent2.monomial(F, b, j, i), s2)
            g = WittVec(ld, (Laurent2.monomial(F, c, l, k),))
            val = val + witt_pair_local(e, g, 1, traced=False).components[0]
        return val

    def index_pairs(self, p):
        return [(i, j) for i in range(1, 6) for j in range(1, 6)
                if i + j <= 6 and (i % p or j % p)]

    @pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 2)])
    def test_closed_forms_exhaustive(self, pn):
        F = make_field(*pn)
        p = F.p
        for (i, j) in self.index_pairs(p):
            ii, jj = F.from_int(i), F.from_int(j)
            for a in F.elements():
                for b in F.elements():
                    for c in F.elements():
                        got = self.engine_value(i, j, a, b, c, -i, -j, F)
                        if i % p and j % p == 0:
                            want = ii * c * (a - b)
                        elif i % p == 0 and j % p:
                            want = jj * c * (b - a)
                        else:
                            want = c * (ii * a + jj * b)
                        assert got == want

    @pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 2)])
    def test_vanishing_above_threshold(self, pn):
        F = make_field(*pn)
        p = F.p
        for (i, j) in self.index_pairs(p):
            for (k, l) in ((1 - i, 1 - j), (2 - i, 1 - j), (1 - i, 2 - j)):
                for a in F.elements():
                    for b in F.elements():
                        if not (a or b):
                            continue
                        got = self.engine_value(i, j, a, b, F.one, k, l, F)
                        assert not got


class TestDualityKernels:
    @pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_kernels_match_prediction(self, pn):
        F = make_field(*pn)
        p = F.p
        ii_jj = [(i, j) for i in range(1, 6) for j in range(1, 6)
                 if i + j <= 6 and (i % p or j % p)]
        for (i, j) in ii_jj:
            rep = duality_kernel_point(i, j, F)
            assert rep["match"]
            ii, jj = F.from_int(i), F.from_int(j)
            predicted = []
            for a in F.elements():
                for b in F.elements():
                    if i % p and j % p:
                        keep = not (ii * a + jj * b)
                    else:
                        keep = a == b
                    if keep:
                        predicted.append([list(a.coeffs), list(b.coeffs)])
            assert sorted(rep["kernel"]) == sorted(predicted)


class TestUnitSymbolIdentities:
    def test_identity_one(self):
        rng = random.Random(501)
        done = 0
        while done < 50:
            F = make_field(*FIELDS[done % 3])
            k = 1 + rng.randrange(4)
            if k % F.p == 0:
                continue
            a = rng.randrange(0, 2)
            delta = Laurent2.monomial(
                F, F.elem_by_index(1 + rng.randrange(F.q - 1)), a, 0)
            if rng.randrange(2):
                delta = delta + Laurent2.monomial(
                    F, F.elem_by_index(rng.randrange(F.q)), a + 1, 0)
            assert verify_appendix_identity(
                1, {"delta": delta, "k": k}, k + 1)
            done += 1

    def test_identity_two(self):
        rng = random.Random(503)
        done = 0
        while done < 50:
            F = make_field(*FIELDS[done % 3])
            i = 1 + rng.randrange(4)
            if i % F.p == 0:
                continue
            j = 1 + rng.randrange(4)
            v = F.elem_by_index(1 + rng.randrange(F.q - 1))
            assert verify_appendix_identity(
                2, {"i": i, "j": j, "v": v}, j + 1)
            done += 1

    def test_identity_three(self):
        rng = random.Random(509)
        done = 0
        while done < 50:
            F = make_field(*FIELDS[done % 3])
            j = 1 + rng.randrange(4)
            if j % F.p == 0:
                continue
            i = 1 + rng.randrange(4)
            l = 1 + rng.randrange(4)
            f = F.elem_by_index(1 + rng.randrange(F.q - 1))
            g = F.elem_by_index(1 + rng.randrange(F.q - 1))
            assert verify_appendix_identity(
                3, {"f": f, "g": g, "i": i, "j": j, "l": l}, l + 1)
            done += 1


class TestWittStructure:
    def test_length_two_over_gf2_is_z4(self):
        F2 = make_field(2, 1)
        ring = galois_ring(F2, 2)

        def label(w):
            lifted = WittVec(ring, tuple(ring.from_fq(c) for c in w.components))
            return ghost(lifted).components[1].coeffs[0] % 4

        vecs = [WittVec(F2, (F2.elem((a,)), F2.elem((b,))))
                for a in (0, 1) for b in (0, 1)]
        labels = {w: label(w) for w in vecs}
        assert sorted(labels.values()) == [0, 1, 2, 3]
        for wa in vecs:
            for wb in vecs:
                assert label(witt_add(wa, wb)) == \
                    (labels[wa] + labels[wb]) % 4

    def test_ghost_unghost_roundtrip(self):
        rng = random.Random(601)
        total = 0
        for p in (2, 3, 5):
            for m in (1, 2, 3, 4):
                s0 = 3
                ring = galois_ring(make_field(p, 1), s0 + m)
                for _ in range(84):
                    comps = tuple(ring.from_int(rng.randrange(p ** s0))
                                  for _ in range(m))
                    w = WittVec(ring, comps)
                    back = unghost(ghost(w))
                    for k in range(m):
                        mod = min(p ** back.precisions[k], p ** s0)
                        assert (back.components[k].coeffs[0]
                                - comps[k].coeffs[0]) % mod == 0
                    total += 1
        assert total >= 1000


class TestCanonicalRepresentatives:
    def test_random_reducible_inputs(self):
        rng = random.Random(701)
        count = 0
        for (p, n) in ((2, 1), (3, 1), (2, 2), (5, 1)):
            F = make_field(p, n)
            t = RatFunc.from_poly2(Poly2.monomial(F, F.one, 0, 1))
            for _ in range(25):
                f = RatFunc.const(F, F.zero)
                for _ in range(rng.randrange(1, 4)):
                    k = rng.randrange(-6, 4)
                    num = Poly1(F, [F.elem_by_index(rng.randrange(F.q))
                                    for _ in range(3)])
                    den = Poly1(F, [F.elem_by_index(rng.randrange(F.q))
                                    for _ in range(2)] + [F.one])
                    f = f + RatFunc(Poly2.from_poly1(num),
                                    Poly2.from_poly1(den)) * t ** k
                rep = as_reduce(f)
                assert all(k < 0 for k in rep.terms)
                for k, c in rep.terms.items():
                    if k % F.p == 0:
                        part = _p_component_zero_part(c)
                        assert part is None or not part
                again = as_reduce(rep.recompose())
                assert again.terms == rep.terms
                assert as_residual_solves(f, rep)
                count += 1
        assert count >= 100


class TestCommandLineGolden:
    @pytest.mark.parametrize("idx", range(len(GOLDEN_COMMANDS)))
    def test_byte_stable_output(self, idx):
        code, rep = cli.run(list(GOLDEN_COMMANDS[idx]))
        assert code == 0
        rendered = json.dumps(rep, sort_keys=True, indent=2) + "\n"
        stored = (DATA / f"golden_{idx:02d}.json").read_bytes()
        assert rendered.encode() == stored


class TestLargeFieldProbes:
    """Wide fields answer quickly: the modulus search skips the multiples
    of x, a table field reads its discrete log from its tables, and a wider
    field takes it by baby-step giant-step."""

    @pytest.mark.parametrize("argv", [
        ["tame", "--field", "2^16", "u", "t", "1+u"],
        ["tame", "--field", "2^22", "u", "t", "1+u"],
        ["decompose", "--field", "2^8", "--level", "1", "(z+1)*u", "t"],
        ["decompose", "--field", "2^16", "--level", "1", "(z+1)*u", "t"],
    ], ids=" ".join)
    def test_answers_within_a_second(self, argv):
        t0 = time.monotonic()
        code, _ = cli.run(argv)
        assert code == 0
        assert time.monotonic() - t0 < 1


class TestChangedParameterProbe:
    """An operand in changed parameters, (u, t) -> (u, t(1+u)), with a deep
    pole: operands and pairer grow one box, from the pairer's first box."""

    def test_answers_within_a_second(self):
        t0 = time.monotonic()
        code, rep = cli.run(["witt-pair", "--field", "2^1", "--m", "2",
                             "u*t*(1+u)", "t*(1+u)+u", "u^-3*(t*(1+u))^-3"])
        assert code == 0, rep
        assert rep["value"] == [[0], [0]]
        assert time.monotonic() - t0 < 1

    def test_oversized_box_is_refused_within_two_seconds(self):
        # over F_5 at m = 3, components whose u-pole deepens with the t-row
        # (tests/test_cli.py OVERSIZED_WITT_PAIR in the parameters
        # (u + u^-1·t, t(1 + u + t))) meet the term budget at the first box
        t0 = time.monotonic()
        code, rep = cli.run(["witt-pair", "--field", "5^1", "--m", "3",
                             "4*(u+u^-1*t)^-1*(t*(1+u+t))^-2"
                             "*(1+(t*(1+u+t))^2)",
                             "4*(u+u^-1*t)^-1*(t*(1+u+t))^-1"
                             "*(1+3*(t*(1+u+t))^2)",
                             "(t*(1+u+t))^-2",
                             "(u+u^-1*t)^-1*(t*(1+u+t))^-2",
                             "(u+u^-1*t)^-3*(t*(1+u+t))^-2"])
        assert code == 2, rep
        assert rep["error"] == "StepBudgetExceeded"
        assert time.monotonic() - t0 < 2
