"""Resultants of multivariate integer polynomials with respect to one variable.

The inputs are viewed as ``QPoly`` values in that variable, with
``MultiPoly`` coefficients in the others, and Brown's subresultant
polynomial remainder sequence runs on those: ``QPoly.prem`` takes each
pseudo-remainder, and every division by the PRS scalars is exact in the
coefficient ring.  It gives the classically signed resultant.  The test
suite checks it against the Sylvester determinant (``tests/oracles.py``)
on random inputs.
"""

from __future__ import annotations

from .multipoly import MultiPoly
from .upoly import QPoly


def _exact_quo(a, b):
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"inexact division {a} / {b}")
        return q
    return a.exact_div(b)


def _subresultant(f, g):
    """Res(f, g) by Brown's subresultant PRS, for deg f >= deg g >= 1."""
    d = f.degree() - g.degree()
    h = f.prem(g)
    if d % 2 == 0:
        h = -h
    lc = g.coeffs[-1]
    c = lc ** d
    res = c
    c = -c
    while not h.is_zero():
        f, g, d = g, h, g.degree() - h.degree()
        b = -lc * c ** d
        h = QPoly([_exact_quo(x, b) for x in f.prem(g).coeffs])
        lc = g.coeffs[-1]
        c = _exact_quo((-lc) ** d, c ** (d - 1)) if d > 1 else -lc
        res = -c
    return res if g.degree() == 0 else res * 0


def poly_resultant(f, g, var):
    """Resultant of f and g with respect to ``var``.

    The result is a polynomial in the remaining variables; it vanishes
    exactly when f and g share a common factor involving ``var``.  Raises
    ValueError when ``var`` occurs in neither input.
    """
    df, dg = f.degree(var), g.degree(var)
    if df <= 0 and dg <= 0:
        raise ValueError(f"variable {var!r} absent from both resultant inputs")
    if f.is_zero() or g.is_zero():
        vars_ = tuple(v for v in f._aligned(g)[0].variables if v != var)
        return MultiPoly.constant(0, vars_)
    fa, ga = f._aligned(g)
    fq, gq = QPoly(fa.coefficients_in(var)), QPoly(ga.coefficients_in(var))
    swap = df < dg
    if swap:
        fq, gq, df, dg = gq, fq, dg, df
    res = gq.coeffs[0] ** df if dg == 0 else _subresultant(fq, gq)
    # Res(f, g) = (-1)^(df dg) Res(g, f)
    return -res if swap and df % 2 and dg % 2 else res
