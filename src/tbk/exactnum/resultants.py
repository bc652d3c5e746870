"""Resultants of multivariate integer polynomials with respect to one variable.

The inputs f, g are read as polynomials in ``var`` whose coefficients,
polynomials in the other variables x, are packed into single integers by
the Kronecker substitution x_i -> B^(s_i) (``Kronecker``), and Brown's
subresultant polynomial remainder sequence runs over Z on those:
``QPoly.prem`` takes each pseudo-remainder and every division by the PRS
scalars is checked to be exact.  It gives the classically signed
resultant, which is then unpacked.

Why this is exact.  Packing is evaluation at integers, a ring
homomorphism h, so the PRS over Z computes h of the PRS over Z[x] as long
as its two kinds of decision agree with it: which coefficients are zero
(degrees) and exact division.  Every scalar the PRS over Z[x] tests or
divides by, and every coefficient of each remainder it keeps, is up to
sign and a nonzero factor a minor of the Sylvester matrix S(f, g) (the
fundamental theorem of subresultants, Brown and Traub, J. ACM 18,
1971), and h is injective on the polynomials that satisfy both bounds
below, which every such minor does:

* coefficients (Goldstein and Graham, SIAM Review 16, 1974): a square
  matrix (a_ij) of polynomials has a determinant whose every coefficient
  is at most prod_i sqrt(sum_j |a_ij|_1^2), |.|_1 the sum of absolute
  coefficients.  On the unit torus |a_ij(z)| <= |a_ij|_1, Hadamard's
  inequality bounds |det(z)| by that product, and the largest
  coefficient is at most the L2 norm on the torus (Parseval).  A minor's
  rows and columns are a subset of S's, and a row of S has norm >= 1, so
  with deg_var f = m >= deg_var g = n every minor obeys
  (sum_j |f_j|_1^2)^(n/2) (sum_j |g_j|_1^2)^(m/2);
* degrees: a minor takes at most n entries from f's rows and m from g's,
  so its degree in x_i is at most n deg_xi f + m deg_xi g.

Hence a zero test or exact quotient over Z is one over Z[x], and a
division that is not exact still raises.  The bound is a priori: the
digit width is fixed before the PRS runs, never widened after a check.
When deg_var g = 0, f has no row in S and is not packed.  The test
suite checks the result against the Sylvester determinant and a PRS over
MultiPoly coefficients (``tests/oracles.py``) on random inputs.
"""

from __future__ import annotations

from math import isqrt

from .multipoly import Kronecker, MultiPoly, merge_variables
from .upoly import QPoly


def _exact_quo(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division {a} / {b}")
    return q


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


def _columns(poly, degree, var):
    """(columns, norm): poly's coefficient of var^j, j = 0..degree >= 1, as
    its terms in poly's own variables, and sum_j |coefficient_j|_1^2, from
    one pass over poly's terms."""
    i = poly.variables.index(var)
    cols, norms = [{} for _ in range(degree + 1)], [0] * (degree + 1)
    for exps, c in poly.terms.items():
        cols[exps[i]][exps] = c
        norms[exps[i]] += abs(c)
    return cols, sum(x * x for x in norms)


def poly_resultant(f, g, var):
    """Resultant of f and g with respect to ``var``.

    The result is a polynomial in the remaining variables; it vanishes
    exactly when f and g share a common factor involving ``var``.  Raises
    ValueError when ``var`` occurs in neither input.  Exponents are
    nonnegative, as everywhere in the package.

    Each input is read where it stands: one pass over its terms
    (_columns) files each term under its power of ``var`` and adds its
    absolute value to that coefficient's norm, and its degree in each
    other variable is one scan of its exponents (MultiPoly.degree).  No
    input is re-embedded in the common variables and no coefficient
    becomes a MultiPoly: a coefficient's terms are packed with strides
    over the input's own variables, 0 for ``var``, at the
    Goldstein-Graham width of the module docstring."""
    df, dg = f.degree(var), g.degree(var)
    if df <= 0 and dg <= 0:
        raise ValueError(f"variable {var!r} absent from both resultant inputs")
    rest = tuple(v for v in merge_variables(f.variables, g.variables) if v != var)
    if not (f.terms and g.terms):
        return MultiPoly._of(rest, {})
    # Res(f, g) = (-1)^(df dg) Res(g, f)
    sign = -1 if df < dg and df % 2 and dg % 2 else 1
    if df < dg:
        f, g, df, dg = g, f, dg, df
    fc, nf = _columns(f, df, var) if dg else ([], 1)  # f has no row when dg = 0
    gc, ng = _columns(g, dg, var) if dg else ([g.terms], sum(map(abs, g.terms.values())) ** 2)
    spans = [dg * f.degree(x) + df * g.degree(x) + 1 for x in rest]
    kr = Kronecker(spans, isqrt(nf ** dg * ng ** df))
    packed = []
    for p, cols in ((f, fc), (g, gc)):
        strides = [0 if v == var else kr.strides[rest.index(v)] for v in p.variables]
        packed.append(QPoly([kr.pack(c, strides=strides) for c in cols]))
    res = _subresultant(*packed) if dg else packed[1].coeffs[0] ** df
    return MultiPoly._of(rest, kr.unpack(sign * res, (0,) * len(rest)))
