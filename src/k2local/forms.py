"""Differential forms over two-variable Laurent series, as plain series.

A one-form a du + b dt is the pair (a, b), and a two-form a du∧dt is its
coefficient a, a Laurent2, with the orientation du∧dt positive (u the inner
variable, t the outer); dlog(f, g, inv) is the two-form of the symbol
{f, g}.  The residue of a two-form is the coefficient of u^{-1}t^{-1} in
a; residue(a, g) is the residue of g·a, read as a dot product of g with the
coefficients of a, without forming the product.  No trace to the prime
field is applied here — callers that need a trace apply it themselves.
"""

from __future__ import annotations

from .errors import CoefficientOutsidePrecision, PrecisionTooLow


def d_du(f):
    """Partial derivative of a Laurent2 with respect to u."""
    return f._derivative(1, 0)


def d_dt(f):
    """Partial derivative of a Laurent2 with respect to t."""
    return f._derivative(0, 1)


def wedge(w1, w2):
    """The du∧dt coefficient of the wedge of two one-forms (a, b)."""
    return w1[0] * w2[1] - w1[1] * w2[0]


def dlog(f, g, inv):
    """The du∧dt coefficient of dlog f ∧ dlog g = (df ∧ dg)/(fg), the dlog
    map on the symbol {f, g}, for inv = 1/(fg) in the caller's box."""
    return wedge((d_du(f), d_dt(f)), (d_du(g), d_dt(g))) * inv


def residue(a, g=None):
    """Coefficient of u^{-1}t^{-1} in the two-form a du∧dt, in the
    coefficient domain.

    With g given, the residue of g·a: the coefficient of u^{-1}t^{-1} in
    g·a, read as the dot product Σ g[j][i]·a[−1−j][−1−i] without forming
    the product (Laurent2.mul_coeff), and known exactly where the product
    would mark it known.  Raises CoefficientOutsidePrecision, with the
    shortfall of the coefficient read, when it lies outside the known
    region; any other error passes through.
    """
    try:
        if g is None:
            return a.coeff(-1, -1)
        return g.mul_coeff(a, -1, -1)
    except PrecisionTooLow as exc:
        raise CoefficientOutsidePrecision(
            "residue coefficient not determined at this precision",
            exc.side, exc.need, exc.edge, exc.row) from exc
