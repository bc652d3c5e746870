"""Resultants of multivariate integer polynomials with respect to one variable.

Brown's subresultant polynomial remainder sequence, in which every
coefficient-ring division is exact, gives the classically signed
resultant.  The test suite checks it against the Sylvester determinant
(``tests/oracles.py``) on random inputs.
"""

from __future__ import annotations

import operator

from .multipoly import MultiPoly, _prem_lists


def _one_like(c):
    return 1 if isinstance(c, int) else MultiPoly.constant(1, c.variables)


def _exact_quo(a, b):
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"inexact division {a} / {b}")
        return q
    return a.exact_div(b)


def _inner_subresultants(f, g):
    """Brown's subresultant PRS on ascending coefficient lists.

    Requires deg f >= deg g >= 0, both nonzero.  Returns (prs, scalars);
    the resultant of (f, g) is scalars[-1] when deg(prs[-1]) == 0.
    """
    mul, sub = operator.mul, operator.sub
    one = _one_like(f[-1])

    n, m = len(f) - 1, len(g) - 1
    prs = [list(f), list(g)]
    d = n - m

    b = one if (d + 1) % 2 == 0 else -one
    h = _prem_lists(f, g, mul, sub)
    h = [mul(x, b) for x in h]

    lc = g[-1]
    c = lc ** d if d else one
    scalars = [one, c]
    c = -c

    while h:
        k = len(h) - 1
        prs.append(list(h))
        f, g, m, d = g, h, k, m - k

        b = mul(-lc, c ** d if d else one)
        h = _prem_lists(f, g, mul, sub)
        h = [_exact_quo(x, b) for x in h]

        lc = g[-1]
        if d > 1:
            c = _exact_quo((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
        scalars.append(-c)

    return prs, scalars


def _resultant_lists_prs(fc, gc):
    """Signed resultant of ascending coefficient lists via subresultant PRS."""
    if not fc or not gc:
        return 0 if isinstance((fc or gc)[-1], int) else MultiPoly.constant(0)
    one = _one_like(fc[-1])
    zero = one - one
    n, m = len(fc) - 1, len(gc) - 1
    swap_sign = 1
    if n < m:
        fc, gc = gc, fc
        n, m = m, n
        if n % 2 and m % 2:
            swap_sign = -1
    if m == 0:
        res = gc[0] ** n if n else one
        return res if swap_sign == 1 else -res
    prs, scalars = _inner_subresultants(fc, gc)
    if len(prs[-1]) - 1 > 0:
        return zero
    res = scalars[-1]
    return res if swap_sign == 1 else -res


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
    fc = fa.coefficients_in(var)
    gc = ga.coefficients_in(var)
    res = _resultant_lists_prs(fc, gc)
    if isinstance(res, int):
        res = MultiPoly.constant(res)
    return res
