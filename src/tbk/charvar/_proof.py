"""The proof that a modular A-factor vanishes on its Riley component.

apoly._verify_vanishing calls vanishes here, which decides c^dL A(s, R/c)
= 0 in Z[s, 1/s][u]/phi_i exactly (apoly's module docstring says why a
lift that passes it is A_i).  The module loads on the first proof, so a
process that eliminates only small factors directly never compiles it.
Its products pack through tbk.exactnum.multipoly's balanced-digit codec
(digit_width, pack_digits, unpack_digits), the one the resultant and
MultiPoly's dense products use; what stays here is the policy: the
width read off the operands with a byte to spare, and only the columns
of B in use packed, as w is sized from H's nonzero entries alone.
Proof times (best of 3, 2-core x86-64, Python 3.11), matrix then Horner:
6/35's u-degree-12 factor 0.5 + 1.3 ms, 8/63's u-degree-24 one 3.6 + 26
ms, 10/99's u-degree-40 one 25 + 580 ms.
"""

from __future__ import annotations

import itertools
from operator import mul

from ..exactnum.multipoly import digit_width, pack_digits, unpack_digits
from . import _modp


def _dense(triples, n):
    """n dense lists, the e-th entry of list i x for each (i, e, x), else 0."""
    out = [[] for _ in range(n)]
    for i, e, x in triples:
        entry = out[i]
        entry += [0] * (e + 1 - len(entry))
        entry[e] = x
    return out


def _multiplier(component):
    """(rows, b): rows[i][j] the ascending s-coefficients of entry (i, j)
    of the matrix of multiplication by s^b R on Z[s, 1/s][u]/phi, basis
    1, u, ..., u^(du-1), b >= 0 the least making every entry polynomial.
    Column j + 1 is u times column j less t phi / lc_u(phi), t its u^du
    coefficient, an exponent shift as lc_u(phi) = +-s^a; each column is
    kept dense over s^low, low >= 0 the least that needs."""
    du = component.du
    f, col = _dense(component.phi_terms, du + 1), _dense(component.r_terms, du)
    a, sign, width = len(f[du]) - 1, f[du][-1], max(map(len, f[:du]))
    f = [[(e, -sign * x) for e, x in enumerate(fi) if x] for fi in f[:du]]
    cols = [(col, 0)]
    while len(cols) < du:
        col, low = cols[-1]
        top = [(e, x) for e, x in enumerate(col[-1]) if x]
        col = [[0] * a + entry for entry in [[]] + col[:-1]]
        for entry, fi in zip(col, f):
            entry += [0] * (len(top) and top[-1][0] + width - len(entry))
            for e1, x1 in top:
                for e2, x2 in fi:
                    entry[e1 + e2] += x1 * x2
        v = min([a + low] + [next(i for i, x in enumerate(e) if x) for e in col if any(e)])
        cols.append(([_modp.ptrim(e[v:]) for e in col], low + a - v))
    b = max(low for _, low in cols)
    return [[[0] * (b - low) + c[i] if c[i] else [] for c, low in cols] for i in range(du)], b


def vanishes(apoly, cache):
    """Whether c^dL A(s, R/c) = 0 in Z[s, 1/s][u]/phi, c = s^len', for the
    component of cache, an apoly._PointCache.

    With B = s^b R (_multiplier, kept as cache.matrix) and c' = s^b c =
    s^e, Horner's rule G <- (B G) / c' + a_j e_0 from G = a_dL e_0 ends at
    A(s, R/c); G is kept as H / s^low, H over Z[s] and low >= 0 the least
    that needs, so B H + a_j s^(low + e) e_0 is the next H over s^(low +
    e).  Each product B_ij H_j is one of integers at s = 2^(8w)
    (Kronecker substitution).  A coefficient of (B H)_i is at most max
    min(len B_ij, len H_j) times sum_j max|column j of B| max|H_j|, read
    off the operands; w past that makes the balanced digits of the sums
    the coefficients."""
    if cache.matrix is None:
        cache.matrix = _multiplier(cache.component)
    rows, b = cache.matrix
    shift = b + cache.component.r_length
    adds = _dense([(i, j, x) for (i, j), x in apoly.terms.items()], apoly.degree("L") + 1)
    lb = max(len(e) for row in rows for e in row)
    cols = [max(map(abs, itertools.chain(*col)), default=0) or 1 for col in zip(*rows)]
    h, low, w = [adds.pop()] + [[] for _ in rows[1:]], 0, 0  # H = a_dL e_0, over s^low
    for add in reversed(adds):
        tops = [max(map(abs, e), default=0) for e in h]
        need = digit_width(min(lb, max(map(len, h))) * sum(map(mul, cols, tops)))
        if need > w:  # a byte to spare, so B is packed again rarely
            w, cover = need + 1, set()
        hp = pack_digits(h, w)
        if not cover.issuperset(i for i, e in enumerate(h) if e):  # pack the columns in use
            cover = {i for i, e in enumerate(h) if e}
            packed = [pack_digits([e if i in cover else [] for i, e in enumerate(row)], w)
                      for row in rows]
        h, low = [unpack_digits(sum(map(mul, row, hp)), w) for row in packed], low + shift
        h[0] = _modp.ptrim([x + y for x, y in itertools.zip_longest(
            h[0], [0] * low + add, fillvalue=0)])
        if low:  # the least low that keeps H's entries polynomials
            v = min([low] + [next(i for i, x in enumerate(e) if x) for e in h if e])
            h, low = [e[v:] for e in h], low - v
    return not any(map(any, h))
