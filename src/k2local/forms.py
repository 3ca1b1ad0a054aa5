"""Differential forms over two-variable Laurent series.

One-forms a du + b dt and two-forms a du∧dt with the orientation du∧dt
positive (u the inner variable, t the outer).  The residue of a two-form is
the coefficient of u^{-1}t^{-1} in its du∧dt expression; residue(form, g)
is the residue of g·form, read as a dot product of g with the coefficients
of form, without forming the product.  No trace to the prime field is
applied here — callers that need a trace apply it themselves.
"""

from __future__ import annotations

from .errors import CoefficientOutsidePrecision, FieldMismatch, PrecisionTooLow


def d_du(f):
    """Partial derivative of a Laurent2 with respect to u."""
    return f._derivative(1, 0)


def d_dt(f):
    """Partial derivative of a Laurent2 with respect to t."""
    return f._derivative(0, 1)


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


def dlog(f, finv):
    """The logarithmic differential df/f as a one-form, for finv = 1/f
    inverted in the caller's box."""
    return OneForm(d_du(f) * finv, d_dt(f) * finv)


def wedge(w1, w2):
    """Wedge of two one-forms in the du∧dt orientation."""
    return TwoForm(w1.a * w2.b - w1.b * w2.a)


def residue(form, g=None):
    """Coefficient of u^{-1}t^{-1} du∧dt, in the coefficient domain.

    With g given, the residue of g·form: the coefficient of u^{-1}t^{-1} in
    g·form.a, read as the dot product Σ g[j][i]·a[−1−j][−1−i] without
    forming the product (Laurent2.mul_coeff), and known exactly where the
    product would mark it known.  Raises CoefficientOutsidePrecision, with
    the shortfall of the coefficient read, when it lies outside the known
    region; any other error passes through.
    """
    try:
        if g is None:
            return form.a.coeff(-1, -1)
        return g.mul_coeff(form.a, -1, -1)
    except PrecisionTooLow as exc:
        raise CoefficientOutsidePrecision(
            "residue coefficient not determined at this precision",
            exc.side, exc.need, exc.edge, exc.row) from exc
