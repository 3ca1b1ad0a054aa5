"""Milnor K₂ symbols over a two-dimensional local field F_q((u))((t)).

Provides the higher tame symbol (two independent formulas), the boundary map
to the first residue field, the local Witt pairing against Witt vectors over
the field, decomposition of symbols into the topological basis, and a
level-bounded pairing-separation equality test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (FieldMismatch, PrecisionTooLow, StepBudgetExceeded,
                     UnsupportedLength, ZeroArgument, ZeroElement)
from .ff import FqElem, galois_ring, power, primitive_element
from .forms import dlog, residue
from .series import (INF, Laurent2, bar_valuation, invert, laurent_domain,
                     lift_padic, outer_valuation, unit_decompose)
from .witt import MAX_LENGTH, GhostVec, WittVec, unghost, witt_trace_to_prime

MAX_TERMS = 6000  # most terms of a pairing's operands, and of its two-form


# --------------------------------------------------------------------------
# K2 elements
# --------------------------------------------------------------------------

class K2Elem:
    """A formal product Π {f, g}^e of Steinberg symbols over one field."""

    __slots__ = ("field", "factors")

    def __init__(self, field, factors):
        clean = []
        for f, g, e in factors:
            if f.dom is not field or g.dom is not field:
                raise FieldMismatch("symbol factor over the wrong field")
            if f.is_zero() or g.is_zero():
                raise ZeroArgument("symbol entries must be nonzero")
            if not f.codes or not g.codes:  # raise the entry's shortfall
                f._lead(), g._lead()
            if e:
                clean.append((f, g, int(e)))
        self.field = field
        self.factors = tuple(clean)

    def __mul__(self, other):
        if other.field is not self.field:
            raise FieldMismatch("symbols over different fields")
        return K2Elem(self.field, self.factors + other.factors)

    def inv(self):
        return K2Elem(self.field, tuple((f, g, -e) for f, g, e in self.factors))

    def serialize(self):
        if not self.factors:
            return "1"
        bits = []
        for f, g, e in self.factors:
            s = "{%s; %s}" % (f.serialize(), g.serialize())
            if e != 1:
                s += f"^{e}"
            bits.append(s)
        return " * ".join(bits)

    def __repr__(self):
        return f"K2Elem({self.serialize()})"


def symbol(f, g, e=1):
    return K2Elem(f.dom, [(f, g, e)])


# --------------------------------------------------------------------------
# higher tame symbol
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TameValue:
    value: FqElem

    def __post_init__(self):
        if not self.value:
            raise ZeroElement("tame symbol value must be nonzero")


def _vals(f):
    vt = outer_valuation(f)
    vu = bar_valuation(f)
    return vt, vu


def tame_symbol_det(f1, f2, f3):
    """Determinant form: residue of f1^{b1} f2^{b2} f3^{b3} (−1)^b.

    The valuation matrix has rows (v_t, v̄_u); b_j is (−1)^{j−1} times the
    2×2 minor omitting column j, and the sign exponent b sums
    v_s(f_i) v_s(f_j) times the complementary entry over s and i<j.
    """
    fs = (f1, f2, f3)
    for f in fs:
        if f.is_zero():
            raise ZeroArgument("tame symbol of zero")
    vt, vu = zip(*map(_vals, fs))
    b = [vu[1] * vt[2] - vu[2] * vt[1],
         -(vu[0] * vt[2] - vu[2] * vt[0]),
         vu[0] * vt[1] - vu[1] * vt[0]]
    sign = 0
    for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        sign += vt[i] * vt[j] * vu[k] + vu[i] * vu[j] * vt[k]
    field = f1.dom
    value = field.one if sign % 2 == 0 else field.from_int(-1)
    for idx, f in enumerate(fs):
        j0 = vt[idx]
        i0 = vu[idx]
        value = value * (f.coeff(i0, j0) ** b[idx])
    return TameValue(value)


def tame_symbol_signed(f, g, h):
    """Monomial form: (−1)^α times the residue of the displayed monomial.

    Computed by genuine series arithmetic (powers, and inverses in a box
    grown from (1, 1)), an independent cross-check of the determinant form.
    """
    if not all(x.codes for x in (f, g, h)):
        raise ZeroArgument("tame symbol of zero")
    (vtf, vuf), (vtg, vug), (vth, vuh) = map(_vals, (f, g, h))
    ef = vug * vth - vuh * vtg
    eg = -(vuf * vth - vuh * vtf)
    eh = vuf * vtg - vug * vtf
    alpha = (vtf * vtg * vuh + vtf * vth * vug + vtg * vth * vuf
             + vtf * vug * vuh + vtg * vuf * vuh + vth * vuf * vug)

    def run(box):
        prod = Laurent2.one(f.dom)
        for x, k in ((f, ef), (g, eg), (h, eh)):
            prod = prod * (x ** k if k >= 0 else invert(x, *box) ** -k)
        return prod.coeff(0, 0)
    value = with_box((1, 1), run)
    if alpha % 2:
        value = -value
    return TameValue(value)


# --------------------------------------------------------------------------
# boundary map
# --------------------------------------------------------------------------

def _boundary_parts(e):
    """(N, D), series in u alone, with N·D^{-1} the boundary of e: {f, g}^k
    gives the leading t-row of (−1)^(k·vf·vg)·f^(k·vg)·g^(−k·vf), for vf, vg
    the t-valuations, a product of powers of the leading t-rows of f and g.
    N is the sign times the positive powers, D the negative ones inverted."""
    num = den = Laurent2.one(e.field)
    odd = 0
    for f, g, k in e.factors:
        vf, vg = outer_valuation(f), outer_valuation(g)
        odd ^= k * vf * vg & 1
        for x, v, n in ((f, vf, k * vg), (g, vg, -k * vf)):
            row = Laurent2._of_codes(x.dom, {0: x.codes[v]}, None,
                                     {0: x.uprec(v)}) ** abs(n)
            num, den = (num * row, den) if n > 0 else (num, den * row)
    return (-num if odd else num), den


def boundary(e, box):
    """Boundary of a K₂ element in the first residue field k((u)), as a
    Laurent2 supported in t-degree zero: N·D^{-1} (_boundary_parts), with D
    inverted in the caller's box (t, u)."""
    num, den = _boundary_parts(e)
    return num * invert(den, *box)


# --------------------------------------------------------------------------
# local Witt pairing
# --------------------------------------------------------------------------

def check_length(m, traced=False):
    """Refuse a Witt length below 1, since a pairing of length m has m
    components, and a traced one above witt.MAX_LENGTH, since the trace adds
    with the universal Witt polynomials, derived only up to that length."""
    if m < 1:
        raise UnsupportedLength(f"Witt length {m} is below 1")
    if traced and m > MAX_LENGTH:
        raise UnsupportedLength(
            f"length {m} exceeds configured max {MAX_LENGTH}")


class WittPairer:
    """Precomputes the two-form of a K₂ element for repeated pairings: eta,
    the du∧dt coefficient of Σ exp·dlog f ∧ dlog g, a plain Laurent2.

    The Galois ring has m p-adic digits: unghost leaves component k valid
    mod p^(m−k), and only components k ≤ m−1 are read, mod p.  f and g of
    every factor are lifted, and fg is inverted in the working box
    (t_box, u_box), which self.box records; callers grow it by with_box.
    """

    def __init__(self, e, m, t_box, u_box):
        check_length(m)
        self.field = e.field
        self.m = m
        self.ring = galois_ring(self.field, m)
        self.box = (t_box, u_box)
        eta = None
        for f, g, exp in e.factors:
            f, g = lift_padic(f, m), lift_padic(g, m)
            w = dlog(f, g, invert(f * g, t_box, u_box)).int_scale(exp)
            eta = w if eta is None else eta + w
        if eta is None:
            eta = Laurent2.zero(self.ring)
        if sum(map(len, eta.codes.values())) > MAX_TERMS:
            raise StepBudgetExceeded(f"two-form past {MAX_TERMS} terms")
        self.eta = eta

    def pair(self, g, m=None):
        """Pair against a Witt vector over Laurent2; returns W_m over F_p."""
        return witt_trace_to_prime(self.pair_untraced(g, m))

    def pair_untraced(self, g, m=None):
        """The pairing value over the coefficient field, before the trace."""
        m = self.m if m is None else m
        check_length(m)
        if m > self.m:
            raise UnsupportedLength(f"length {m} above the pairer's {self.m}")
        p = self.field.p
        comps = [lift_padic(c, self.m) for c in g.components[:m]]
        residues = []
        for k in range(m):
            ghost_k = Laurent2.zero(self.ring)
            for r in range(k + 1):
                term = (comps[r] ** (p ** (k - r))).int_scale(p ** r)
                ghost_k = ghost_k + term
            residues.append(residue(self.eta, ghost_k))
        w = unghost(GhostVec(self.ring, tuple(residues)))
        comps_k = tuple(self.ring.reduce_mod_p(c) for c in w.components)
        return WittVec(self.field, comps_k)


def pairing_box(p, demand):
    """First working box (t_box, u_box) of a pairer, grown by with_box.

    demand lists the component tuples of the Witt vectors to be paired, each
    paired at its own length n.  The residue of ghost_k · η reads
    η[−1−i, −1−j] for u^i t^j in the support of ghost_k, where component r
    enters raised to p^(k−r).  With e_r the deepest negative exponent of
    component r (per variable, 0 if none), each side is D + 2 for
    D = max e_r·p^(n−1−r).
    """
    t = u = 0  # max e_r·p^(n−1−r) per variable
    for comps in demand:
        for r, c in enumerate(comps):
            w = p ** (len(comps) - 1 - r)
            # each row that may hold content, with its least u-exponent
            for j, i in [*((j, min(row)) for j, row in c.codes.items()),
                         *c.u_prec.items()]:
                t, u = max(t, -j * w), max(u, -i * w)
    return t + 2, u + 2


def with_box(box, run):
    """run(box), growing box = (t_box, u_box) while run raises
    PrecisionTooLow: the side it names grows by need − edge + 1, and at
    least twofold.  A shortfall that comes back doubles both, and the third
    time it is raised, as is any at a side below 1: only invert's guard of
    such a side names no side.
    Answers are exact at any box, which sets only time, so exact data meets
    no cap but the term budgets.
    """
    seen = {}
    while True:
        try:
            return run(box)
        except PrecisionTooLow as exc:
            short = (exc.side, exc.need, exc.edge, exc.row)
            tries = seen[short] = seen.get(short, 0) + 1
            if min(box) < 1 or exc.side is None or tries > 2:
                raise
            t, u = box
            if tries == 2:
                box = (2 * t, 2 * u)
            elif exc.side == "t":
                box = (max(2 * t, t + exc.need - exc.edge + 1), u)
            else:
                box = (t, max(2 * u, u + exc.need - exc.edge + 1))


def witt_pair_local(e, g, m, traced=True):
    """Artin–Schreier–Witt pairing of a K₂ element with a Witt vector.

    g is a WittVec whose components are Laurent2 over the same field;
    returns a length-m Witt vector over the prime field, or over the
    coefficient field itself when traced=False.  The pairer's box grows by
    with_box from pairing_box of g's first m components, so exact data
    answers or exceeds MAX_TERMS (StepBudgetExceeded).
    """
    check_length(m, traced)
    pair = WittPairer.pair if traced else WittPairer.pair_untraced
    return with_box(pairing_box(e.field.p, [g.components[:m]]),
                    lambda box: pair(WittPairer(e, m, *box), g, m))


# --------------------------------------------------------------------------
# K2 basis and decomposition
# --------------------------------------------------------------------------

class K2Basis:
    """Exponents of a K₂ element on the topological basis at a given level.

    e1_terms hold {1 + a u^i t^j, t}-type entries, e2_terms hold
    {1 + a u^i t^j, u}-type entries.  Index rules: e1 entries require p∤i or
    (p|i and p|j); e2 entries require p|i.  Entries with i+j ≤ level are the
    basis proper; index pairs with p|i, p|j and (i+j)/p ≤ level are also
    kept, but the test family of k2_equiv need not separate them: removing
    (5, 15) from the decomposition of {1 + 4·u·t³, u} at level 4 over F_5
    leaves the result k2_equiv to the input.  Only at those entries does the
    result depend on how the element is written: {f, g} and {f, g·x}·{f,
    x}^-1 may put one in e1_terms and in e2_terms respectively, with equal
    ut and ζ exponents and other entries, and k2_equiv bases.
    """

    def __init__(self, field, level):
        self.field = field
        self.level = level
        self.ut_exp = 0
        self.zeta_u_exp = 0
        self.zeta_t_exp = 0
        self.e1_terms = {}
        self.e2_terms = {}

    def finalize(self):
        self.zeta_u_exp %= self.field.q - 1
        self.zeta_t_exp %= self.field.q - 1
        return self

    def to_json(self):
        def table(t):
            return [{"i": i, "j": j, "a": list(c.coeffs)}
                    for (i, j), c in sorted(t.items())]
        return {
            "ut_exp": self.ut_exp,
            "zeta_u_exp": self.zeta_u_exp,
            "zeta_t_exp": self.zeta_t_exp,
            "e1_terms": table(self.e1_terms),
            "e2_terms": table(self.e2_terms),
            "level": self.level,
        }

    def recompose(self):
        """A K2Elem with the stated basis exponents."""
        field = self.field
        u = Laurent2.monomial(field, field.one, 1, 0)
        t = Laurent2.monomial(field, field.one, 0, 1)
        z = Laurent2.monomial(field, primitive_element(field))
        factors = []
        if self.ut_exp:
            factors.append((u, t, self.ut_exp))
        if self.zeta_u_exp:
            factors.append((z, u, self.zeta_u_exp))
        if self.zeta_t_exp:
            factors.append((z, t, self.zeta_t_exp))
        one = Laurent2.one(field)
        for (i, j), c in sorted(self.e1_terms.items()):
            factors.append((one + Laurent2.monomial(field, c, i, j), t, 1))
        for (i, j), c in sorted(self.e2_terms.items()):
            factors.append((one + Laurent2.monomial(field, c, i, j), u, 1))
        return K2Elem(field, factors)


class _Decomposer:
    """Worklist reduction of a K₂ element onto the topological basis.

    Works modulo symbols invisible to the level-N pairing family: constant
    second slots, {ζ, ε} pieces, factors supported beyond the visibility
    horizon H = p·N, and elementary units with negative u-exponent.  It reads
    the rows 0..H of each principal part up to u^Hu and cuts every series
    there, so run raises PrecisionTooLow, naming its side, unless all of
    those are known.  Hu = H + 8 + H·a for a = max ⌈−i/j⌉ over the terms
    u^i·t^j, 1 ≤ j ≤ H, of the input's principal parts: then no product
    that reaches row H brings a cut term back into view.
    """

    BUDGET = 200000

    def __init__(self, field, level):
        self.field = field
        self.N = level
        p = field.p
        self.p = p
        self.H = p * level
        self.K = 1
        while p ** self.K <= self.H:
            self.K += 1
        self.pK = p ** self.K
        self.basis = K2Basis(field, level)
        self.work = []
        self.budget = self.BUDGET

    # -- series plumbing ---------------------------------------------------

    def known_box(self, f):
        """box(f), or the shortfall of t or of the row least known in u."""
        short = ("t", self.H, f.t_prec) if f.t_prec <= self.H else min(
            (("u", self.Hu, b, j) for j, b in f.u_prec.items()
             if j <= self.H and b <= self.Hu), default=None)
        if short:
            raise PrecisionTooLow(
                f"decomposition at level {self.N} reads rows 0..{self.H} up "
                f"to u^{self.Hu}, beyond the known terms of a symbol entry",
                *short)
        return self.box(f)

    def box(self, f):
        rows = {}
        for j, row in f.codes.items():
            if 0 <= j <= self.H:
                r = {i: c for i, c in row.items() if i <= self.Hu}
                if r:
                    rows[j] = r
        return Laurent2._adopt(self.field, rows, INF, {})

    def power(self, f, e):
        return power(self.box(f), e % self.pK, Laurent2.one(self.field),
                     lambda a, b: self.box(a * b))

    def inv_unit(self, f):
        return self.box(invert(f, t_prec=self.H + 1, u_prec=self.Hu + 1))

    def spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise StepBudgetExceeded(
                "decomposition did not settle within the step budget")

    # -- visibility and storage --------------------------------------------

    def visible(self, i, j):
        if i < 0 or j < 0 or i > self.H or j > self.H:
            return False
        if i + j <= self.N:
            return True
        return i % self.p == 0 and j % self.p == 0 and (i + j) // self.p <= self.N

    def store_single(self, c, i, j, slot):
        """Store one copy of {1 + c u^i t^j, slot}, emitting the exact
        corrector unit when the index is already occupied."""
        table = self.basis.e1_terms if slot == "t" else self.basis.e2_terms
        old = table.get((i, j))
        if old is None:
            table[(i, j)] = c
            return
        new = old + c
        # (1+old·X)(1+c·X) = (1+new·X) · (1 + old·c·X²·(1+new·X)^{-1})
        one = Laurent2.one(self.field)
        x2 = Laurent2.monomial(self.field, old * c, 2 * i, 2 * j)
        if new:
            table[(i, j)] = new
            corr = one + self.box(x2 * self.inv_unit(
                one + Laurent2.monomial(self.field, new, i, j)))
        else:
            del table[(i, j)]
            corr = one + x2
        if (corr - one).codes:
            self.work.append(("EU", corr, slot, 1))

    def elementary(self, c, i, j, slot, exp):
        """Route {1 + c u^i t^j, slot}^exp to storage, conversion, or drop."""
        exp %= self.pK
        if not exp or not c:
            return
        p = self.p
        if j == 0 and slot == "u":
            return  # du-only wedge du: identically trivial
        if i == 0 and slot == "t":
            return  # dt-only wedge dt: identically trivial
        if not self.visible(i, j):
            return
        if slot == "t" and i % p == 0 and j % p != 0 and i > 0:
            # i·{x,u} + j·{x,t} ≡ 0: convert t-slot to u-slot
            a = (-i) * pow(j, -1, self.pK) % self.pK
            self.elementary(c, i, j, "u", exp * a)
            return
        if slot == "u" and i % p != 0:
            b = (-j) * pow(i, -1, self.pK) % self.pK
            self.elementary(c, i, j, "t", exp * b)
            return
        # expand the exponent base p: (1+X)^{p^r} = 1 + X^{p^r}
        r = 0
        while exp:
            digit = exp % p
            ii, jj = i * p ** r, j * p ** r
            if digit and self.visible(ii, jj):
                cc = c ** (p ** r)
                for _ in range(digit):
                    self.store_single(cc, ii, jj, slot)
            exp //= p
            r += 1

    # -- worklist items ------------------------------------------------------

    def push_unit_pair(self, eps, other, exp):
        """Split {eps, other} by unit-decomposing the second slot."""
        dec = unit_decompose(other)
        if dec.u_exp:
            self.work.append(("EU", eps, "u", exp * dec.u_exp))
        if dec.t_exp:
            self.work.append(("EU", eps, "t", exp * dec.t_exp))
        principal = self.box(dec.principal)
        if (principal - Laurent2.one(self.field)).codes:
            self.work.append(("EE", eps, principal, exp))

    def process_eu(self, eps, slot, exp):
        exp %= self.pK
        if not exp:
            return
        eps = self.power(eps, exp)
        one = Laurent2.one(self.field)
        while True:
            self.spend()
            rem = eps - one
            if not rem.codes:
                return
            j = min(rem.codes)
            i = min(rem.codes[j])
            c = rem.coeff(i, j)
            self.elementary(c, i, j, slot, 1)
            factor = one + Laurent2.monomial(self.field, c, i, j)
            eps = self.box(eps * self.inv_unit(factor))

    def process_ee(self, eps, delta, exp):
        exp %= self.pK
        if not exp:
            return
        self.spend()
        one = Laurent2.one(self.field)
        eps = self.power(eps, exp)
        a = eps - one
        if not a.codes:
            return
        d = delta - one
        if not d.codes:
            return
        if min(a.codes) + min(d.codes) > self.H:
            return  # wedge lives beyond the t-visibility horizon
        # {1+A, δ} = −{1+A″, −A} − {1+A″, δ} with A″ = A(δ−1)(1+A)^{-1}
        a2 = self.box(a * d * self.inv_unit(eps))
        eps2 = one + a2
        if a2.codes:
            self.work.append(("EE", eps2, delta, -1))
            self.push_unit_pair(eps2, -a, -1)

    # -- driver ----------------------------------------------------------------

    def run(self, e):
        one = Laurent2.one(self.field)
        decs = [(unit_decompose(f), unit_decompose(g), exp)
                for f, g, exp in e.factors]
        self.Hu = self.H + 8 + self.H * max(
            [0] + [-(min(row) // j) for df, dg, _ in decs
                   for x in (df.principal, dg.principal)
                   for j, row in x.codes.items() if 1 <= j <= self.H])
        for df, dg, exp in decs:
            i, j = df.u_exp, df.t_exp
            k, l = dg.u_exp, dg.t_exp
            af, bg = df.zeta_exp, dg.zeta_exp
            half = (self.field.q - 1) // 2 if self.field.q % 2 else 0
            self.basis.ut_exp += exp * (i * l - j * k)
            self.basis.zeta_u_exp += exp * (af * k - i * bg + half * i * k)
            self.basis.zeta_t_exp += exp * (af * l - j * bg + half * j * l)
            ef = self.known_box(df.principal)
            eg = self.known_box(dg.principal)
            if (ef - one).codes:
                if k:
                    self.work.append(("EU", ef, "u", exp * k))
                if l:
                    self.work.append(("EU", ef, "t", exp * l))
            if (eg - one).codes:
                if i:
                    self.work.append(("EU", eg, "u", -exp * i))
                if j:
                    self.work.append(("EU", eg, "t", -exp * j))
            if (ef - one).codes and (eg - one).codes:
                self.work.append(("EE", ef, eg, exp))
        while self.work:
            item = self.work.pop()
            if item[0] == "EU":
                self.process_eu(*item[1:])
            else:
                self.process_ee(*item[1:])
        return self.basis.finalize()


def k2_decompose(e, level):
    """Decompose onto the topological basis at the given level.

    The result is pairing-equivalent to the input at that level; verify with
    k2_equiv.  Elements whose basis content does not settle within
    _Decomposer.BUDGET steps raise StepBudgetExceeded, and entries not known
    as far as the decomposition reads raise PrecisionTooLow.
    """
    return _Decomposer(e.field, level).run(e)


# --------------------------------------------------------------------------
# level-bounded equality test
# --------------------------------------------------------------------------

def _test_vectors(field, level):
    """(c, i, j, m) sweep: i+j ≤ N, j·p^{m−1} ≤ N−1, c an F_p-basis."""
    p = field.p
    cs = [field.gen ** r if r else field.one for r in range(field.n)]
    out = []
    for m in (1, 2):
        for j in range(level + 1):
            if j * p ** (m - 1) > level - 1:
                continue
            for i in range(level + 1 - j):
                for c in cs:
                    out.append((c, i, j, m))
    return out


def k2_equiv(a, b, level):
    """True iff a and b pair identically against the level-bounded family
    of Witt test vectors (lengths ≤ 2) and have equal boundary data, which
    needs no inverse: Na/Da = Nb/Db (_boundary_parts) exactly when Na·Db
    and Nb·Da agree on their known terms."""
    field = a.field
    if field is not b.field:
        return False
    (na, da), (nb, db) = _boundary_parts(a), _boundary_parts(b)
    if not (na * db).same_known_terms(nb * da):
        return False
    d = a * b.inv()
    if not d.factors:
        return True
    dom = laurent_domain(field)
    tests = [WittVec(dom, (Laurent2.monomial(field, c, -i, -j),)
                     + (dom.zero,) * (m - 1))
             for c, i, j, m in _test_vectors(field, level)]
    done = 0

    def separates(pairer):
        # a vector that paired to zero stays paired: answers are exact
        nonlocal done
        for g in tests[done:]:
            if any(pairer.pair(g, g.length).components):
                return True
            done += 1
        return False
    return not with_box(pairing_box(field.p, [g.components for g in tests]),
                        lambda box: separates(WittPairer(d, 2, *box)))
