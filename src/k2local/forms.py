"""Differential forms over two-variable Laurent series.

One-forms a du + b dt and two-forms a du∧dt with the orientation du∧dt
positive (u the inner variable, t the outer).  The residue of a two-form is
the coefficient of u^{-1}t^{-1} in its du∧dt expression; residue(form, g)
is the residue of g·form, read as a dot product of g with the coefficients
of form, without forming the product.  No trace to the prime field is
applied here — callers that need a trace apply it themselves.

The derivatives scale integer coordinates and adopt their result without
re-validation: the terms stay inside the shifted region.
"""

from __future__ import annotations

from .errors import CoefficientOutsidePrecision, FieldMismatch, PrecisionTooLow
from .series import Laurent2


def _int_multiple(dom, k, c):
    """k·c for an integer k, coordinatewise; None when it is zero.

    In a Galois ring k·c can be zero for c nonzero, when p | k.
    """
    cs = tuple(k * a % dom.char for a in c.coeffs)
    return type(c)(dom, cs) if any(cs) else None


def d_du(f):
    """Partial derivative of a Laurent2 with respect to u."""
    dom = f.dom
    rows = {}
    for j, row in f.terms.items():
        dst = {}
        for i, c in row.items():
            cc = _int_multiple(dom, i, c)
            if cc is not None:
                dst[i - 1] = cc
        if dst:
            rows[j] = dst
    up = {j: b - 1 for j, b in f.u_prec.items()}
    return Laurent2._adopt(dom, rows, f.t_prec, up)


def d_dt(f):
    """Partial derivative of a Laurent2 with respect to t."""
    dom = f.dom
    rows = {}
    for j, row in f.terms.items():
        dst = {}
        for i, c in row.items():
            cc = _int_multiple(dom, j, c)
            if cc is not None:
                dst[i] = cc
        if dst:
            rows[j - 1] = dst
    up = {j - 1: b for j, b in f.u_prec.items()}
    return Laurent2._adopt(dom, rows, f.t_prec - 1, up)


class OneForm:
    """a du + b dt with Laurent2 coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a.dom is not b.dom:
            raise FieldMismatch("one-form components over different domains")
        self.a = a
        self.b = b

    def __add__(self, other):
        return OneForm(self.a + other.a, self.b + other.b)

    def __repr__(self):
        return f"({self.a.serialize()}) du + ({self.b.serialize()}) dt"


class TwoForm:
    """a du∧dt with a a Laurent2."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return TwoForm(self.a + other.a)

    def __neg__(self):
        return TwoForm(-self.a)

    def int_scale(self, k):
        return TwoForm(self.a.int_scale(k))

    def __eq__(self, other):
        return isinstance(other, TwoForm) and self.a == other.a

    def __repr__(self):
        return f"({self.a.serialize()}) du^dt"


def differential(f):
    """Exterior derivative df of a Laurent2, as a one-form."""
    return OneForm(d_du(f), d_dt(f))


def dlog(f, finv=None):
    """The logarithmic differential df/f as a one-form.

    finv may be supplied when the caller already holds 1/f.
    """
    if finv is None:
        from .series import invert
        finv = invert(f)
    return OneForm(d_du(f) * finv, d_dt(f) * finv)


def wedge(w1, w2):
    """Wedge of two one-forms in the du∧dt orientation."""
    return TwoForm(w1.a * w2.b - w1.b * w2.a)


def residue(form, g=None):
    """Coefficient of u^{-1}t^{-1} du∧dt, in the coefficient domain.

    With g given, the residue of g·form: the coefficient of u^{-1}t^{-1} in
    g·form.a, read as the dot product Σ g[j][i]·a[−1−j][−1−i] without
    forming the product (Laurent2.mul_coeff), and known exactly where the
    product would mark it known.  Raises CoefficientOutsidePrecision when
    the coefficient lies outside the known region; any other error passes
    through.
    """
    try:
        if g is None:
            return form.a.coeff(-1, -1)
        return g.mul_coeff(form.a, -1, -1)
    except PrecisionTooLow as exc:
        raise CoefficientOutsidePrecision(
            "residue coefficient not determined at this precision") from exc
