"""Independent oracles used by the test suite.

Each oracle deliberately takes a different route than the library code it
checks: wider candidate sets with evaluation filters for the expansion
search, explicit orbit sums for the residue-class count, the Sylvester
determinant and a PRS over polynomial coefficients for resultants, a
dict loop over term pairs for products, numerically sampled
representations (with high-precision root polishing) for the
A-polynomial, and sympy's squarefree part for the one the direct engine
takes by an exact root.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np

from tbk.charvar import presentation, riley_polynomial


def dfs_expansion_oracle(p_over_q: Fraction):
    """All admissible expansions of p/q mod Z by exhaustive search.

    Candidates at each node are the integers in [floor(1/x)-1, ceil(1/x)+1]
    with |a| >= 2, pruned only by strictly decreasing remainder
    denominators; every emitted expansion is verified by direct
    evaluation.  Independent of the library's open-interval recursion.
    """
    from tbk.confrac import ContinuedFraction, evaluate

    results = set()

    def search(x, prefix):
        c = 1 / x
        for a in range(math.floor(c) - 1, math.ceil(c) + 2):
            if abs(a) < 2:
                continue
            t = c - a
            if t == 0:
                results.add(tuple(prefix + [a]))
            elif t.denominator < x.denominator:
                if abs(t) < 1:
                    search(t, prefix + [a])

    for rep in (p_over_q, p_over_q - 1):
        search(rep, [])
    out = []
    for entries in sorted(results):
        cf = ContinuedFraction(entries)
        value = evaluate(cf)
        assert (value - p_over_q).denominator == 1, (entries, value)
        out.append(cf)
    return out


def all_even_oracle(p_over_q: Fraction):
    """Every all-even expansion of p/q mod Z found by exhaustive search."""
    found = []

    def search(x, prefix):
        c = 1 / x
        for a in range(math.floor(c) - 1, math.ceil(c) + 2):
            if a % 2 or abs(a) < 2:
                continue
            t = c - a
            if t == 0:
                found.append(tuple(prefix + [a]))
            elif t.denominator < x.denominator and abs(t) < 1:
                search(t, prefix + [a])

    for rep in (p_over_q, p_over_q - 1):
        search(rep, [])
    return sorted(set(found))


def orbit_count_oracle(expansion, parity="odd"):
    """Number of residue classes as a sum of 1/|orbit| over valid tuples."""
    from itertools import product

    moduli = tuple(abs(a) for a in expansion.entries)

    def orbit(t):
        def neg(s):
            return tuple((m - k) % m for k, m in zip(s, moduli))

        def alt(s):
            return tuple((m - k) % m if ((j % 2 == 1) == (parity == "odd")) else k
                         for j, (k, m) in enumerate(zip(s, moduli), start=1))

        return {t, neg(t), alt(t), alt(neg(t))}

    total = Fraction(0)
    for tup in product(*[range(1, m) for m in moduli]):
        if all(m % 2 == 0 and 2 * k == m for k, m in zip(tup, moduli)):
            continue
        total += Fraction(1, len(orbit(tup)))
    assert total.denominator == 1
    return int(total)


def _exact_quotient(a, b):
    if isinstance(a, int):
        q, r = divmod(a, b)
        assert r == 0, (a, b)
        return q
    return a.exact_div(b)


def bareiss_determinant(rows):
    """Fraction-free determinant of a square matrix over an integral domain
    (ints or MultiPolys); every division in Bareiss elimination is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return a[k][k]
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact_quotient(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return a[-1][-1] if sign == 1 else -a[-1][-1]


def sylvester_resultant(f, g):
    """Res(f, g) of ascending coefficient lists (ints or MultiPolys in the
    same variables) as the determinant of the Sylvester matrix.

    sympy.resultant is not the oracle: with sympy 1.14 its sign is wrong
    for some pairs with deg f < deg g, both odd (for example it gives 31
    for Res(-2x - 1, x^5 + 1) = -31)."""
    m, n = len(f) - 1, len(g) - 1
    zero = f[0] - f[0]
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[zero] * i + fd + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gd + [zero] * (m - 1 - i) for i in range(m)]
    return bareiss_determinant(rows)


def prs_resultant(f, g, var):
    """Res_var(f, g) by Brown's subresultant PRS run on ``QPoly`` values
    with ``MultiPoly`` coefficients in the other variables, every division
    an exact one in that ring: the library's resultant before it packed
    the coefficients into integers, whose sizes follow the actual
    coefficients rather than an a priori bound."""
    from tbk.exactnum import MultiPoly, QPoly

    def subresultant(f, g):
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
            h = QPoly([x.exact_div(b) for x in f.prem(g).coeffs])
            lc = g.coeffs[-1]
            c = ((-lc) ** d).exact_div(c ** (d - 1)) if d > 1 else -lc
            res = -c
        return res if g.degree() == 0 else res * 0

    df, dg = f.degree(var), g.degree(var)
    fa, ga = f._aligned(g)
    if f.is_zero() or g.is_zero():
        return MultiPoly.constant(0, tuple(v for v in fa.variables if v != var))
    fq, gq = QPoly(fa.coefficients_in(var)), QPoly(ga.coefficients_in(var))
    swap = df < dg
    if swap:
        fq, gq, df, dg = gq, fq, dg, df
    res = gq.coeffs[0] ** df if dg == 0 else subresultant(fq, gq)
    return -res if swap and df % 2 and dg % 2 else res


def schoolbook_product(a, b):
    """a * b for MultiPolys by the dict loop over every pair of terms."""
    from tbk.exactnum import MultiPoly

    a, b = a._aligned(b)
    terms = {}
    for kb, cb in b.terms.items():
        for ka, ca in a.terms.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            terms[k] = terms.get(k, 0) + ca * cb
    return MultiPoly(a.variables, terms)


def letter_images():
    """M * rho(letter) for the four letters, as 2x2 MultiPoly matrices
    (a, b, c, d) over Z[M, u], written out from g1 -> [[M, 1], [0, 1/M]]
    and g2 -> [[M, 0], [-u, 1/M]]."""
    from tbk.exactnum import MultiPoly

    M = MultiPoly.variable("M").in_variables(("M", "u"))
    u = MultiPoly.variable("u").in_variables(("M", "u"))
    one, zero = MultiPoly.constant(1, ("M", "u")), MultiPoly.constant(0, ("M", "u"))
    return {
        (0, 1): (M * M, M, zero, one),
        (0, -1): (one, -M, zero, M * M),
        (1, 1): (M * M, zero, -(M * u), one),
        (1, -1): (one, zero, M * u, M * M),
    }


def mat_mul(x, y):
    """Product of two 2x2 matrices given as (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def word_matrix_oracle(letters):
    """M^n * rho(word) for a word of n letters, as plain MultiPoly matrix
    products: the letter images multiplied pairwise, then the pairs
    pairwise, and so on up a balanced tree, so most products are of short
    factors and the few long ones are balanced."""
    from tbk.exactnum import MultiPoly

    images = letter_images()
    one, zero = MultiPoly.constant(1, ("M", "u")), MultiPoly.constant(0, ("M", "u"))
    mats = [images[letter] for letter in letters] or [(one, zero, zero, one)]
    while len(mats) > 1:
        products = [mat_mul(x, y) for x, y in zip(mats[::2], mats[1::2])]
        mats = products + mats[2 * len(products):]  # an odd last one as is
    return mats[0]


def pdivmod_stepwise(a, b, p):
    """GF(p)[x] division with every inner-loop update reduced mod p."""
    from tbk.charvar._modp import pinv, ptrim

    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], ptrim(a)
    inv = pinv(b[-1], p, "pdivmod")
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            for i, d in enumerate(b):
                a[k + i] = (a[k + i] - c * d) % p
    return ptrim(q), ptrim(a)


def distinct_degree_by_powering(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p),
    each Frobenius step h -> h^p mod f taken by repeated squaring (log2 p
    modular squarings) rather than by a Frobenius matrix."""
    from tbk.charvar._modp import pdivmod, pgcd_monic, ppowmod, psub

    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = ppowmod(h, p, f, p)
        g = pgcd_monic(f, psub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = pdivmod(f, g, p)[0]
            h = pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def sample_representations(p_over_q: Fraction, count=20, seed=7):
    """Numeric nonabelian representations and longitude eigenvalues.

    Roots of the Riley polynomial at random meridian eigenvalues are
    polished at 50-digit precision, then the longitude matrix is built as
    a plain complex 2x2 product.  Yields (M0, u0, L0, offdiag) tuples
    where offdiag measures the longitude's upper-triangularity failure.
    """
    pres = presentation(p_over_q)
    phi = riley_polynomial(pres)
    cols = []
    for c in phi.coefficients_in("u"):
        cols.append([(dict(zip(c.variables, e)).get("M", 0), coeff)
                     for e, coeff in c.terms.items()])
    word = pres.longitude_word()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m0 = complex(rng.uniform(0.8, 1.25), rng.uniform(-0.35, 0.35))
        cu = [sum(coeff * m0 ** e for e, coeff in col) for col in cols]
        roots = np.roots(list(reversed(cu)))
        u0 = _polish_root(cols, m0, roots[rng.randrange(len(roots))])
        g1 = np.array([[m0, 1.0], [0.0, 1.0 / m0]], dtype=complex)
        g2 = np.array([[m0, 0.0], [-u0, 1.0 / m0]], dtype=complex)
        mats = {(0, 1): g1, (0, -1): np.linalg.inv(g1),
                (1, 1): g2, (1, -1): np.linalg.inv(g2)}
        lam = np.eye(2, dtype=complex)
        for letter in word:
            lam = lam @ mats[letter]
        offdiag = abs(lam[1, 0]) / (abs(lam[0, 0]) + abs(lam[1, 1]))
        out.append((m0, u0, lam[0, 0], offdiag))
    return out


def _polish_root(cols, m0, u0, digits=50):
    with mp.workdps(digits):
        mm = mp.mpc(m0.real, m0.imag)
        cu = [sum(coeff * mm ** e for e, coeff in col) for col in cols]
        dcu = [k * c for k, c in enumerate(cu)][1:]
        u = mp.mpc(u0.real, u0.imag)
        for _ in range(100):
            fv = mp.mpc(0)
            for c in reversed(cu):
                fv = fv * u + c
            fp = mp.mpc(0)
            for c in reversed(dcu):
                fp = fp * u + c
            if fp == 0:
                break
            step = fv / fp
            u -= step
            if abs(step) < mp.mpf(10) ** (-digits + 6) * (1 + abs(u)):
                break
        return complex(u)


def relative_apoly_residual(apoly, samples):
    """max over samples of |A(L0, M0)| / sum of term magnitudes."""
    worst = 0.0
    for m0, _, l0, _ in samples:
        val = apoly.evaluate({"L": l0, "M": m0})
        ref = sum(abs(c) * abs(l0) ** k[0] * abs(m0) ** k[1]
                  for k, c in apoly.terms.items())
        worst = max(worst, abs(val) / ref)
    return worst


def random_multipoly(rng, variables=("L", "M", "u"), max_degree=3, terms=4,
                     coeff_bound=5):
    from tbk.exactnum import MultiPoly

    t = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, max_degree) for _ in variables)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            t[key] = t.get(key, 0) + c
    return MultiPoly(variables, t)


def random_cf_entries(rng, max_len=8):
    n = rng.randint(1, max_len)
    return tuple(rng.choice([a for a in range(-9, 10) if a != 0])
                 for _ in range(n))


def u_coefficients_at(poly, m):
    """[c_0, ..., c_d]: the integer u-coefficients of poly(m, u), poly a
    MultiPoly in M and u, unreduced and untrimmed (d = deg_u poly)."""
    out = [0] * (poly.degree("u") + 1)
    for (e_m, e_u), coeff in poly.in_variables(("M", "u")).terms.items():
        out[e_u] += coeff * m ** e_m
    return out


def vanishing_failure_oracle(apoly, cache, p11, length, points=6):
    """First M at which A(P/c, M) != 0 modulo phi(M, u), or None.

    The modular engine's exact check as it was written over Q: Fraction
    QPoly products and divisions by phi(m), over the same points (the
    first ``points`` M = 1, 2, ... where phi keeps its u-degree).  P(m)
    and c = m^length come from the longitude entry p11 itself, unreduced,
    not from the engine's reduced data; phi(m) from ``cache``."""
    from tbk.exactnum import QPoly

    cols = apoly.coefficients_in("L")
    d = len(cols) - 1
    checked = 0
    m = 0
    while checked < points:
        m += 1
        phim = cache.get(m)[0]
        if len(phim) - 1 != cache.component.du or not phim:
            continue
        modulus = QPoly(phim)
        pred = QPoly(u_coefficients_at(p11, m)).divmod(modulus)[1]
        c = m ** length
        acc = QPoly()
        power = QPoly.const(1)
        for j in range(d + 1):
            scale = cols[j].evaluate({"M": m}) * c ** (d - j)
            if scale:
                acc = acc + power * scale
            if j < d:
                power = (power * pred).divmod(modulus)[1]
        if not acc.is_zero():
            return m
        checked += 1
    return None


def vanishing_remainder_oracle(apoly, component):
    """Whether rem_u(c^dL A(s, R/c), phi) = 0 over QQ(s), by sympy.

    The component's phi, R and c = s^len' are in its engine variable s,
    written M, as is apoly.  Horner's rule over L runs on sympy's sparse
    polynomials over ZZ[u, s] and reduces each product by the
    pseudo-remainder in u, which scales it by a power of lc_u(phi), +-s^a;
    the scale is carried into the terms added after it, so the last
    remainder is a unit of QQ(s) times the one over QQ(s)."""
    from sympy import ZZ
    from sympy.polys.rings import ring

    zs, u, _ = ring("u, s", ZZ)

    def poly(triples):
        terms = {}
        for e_u, e_s, x in triples:
            terms[(e_u, e_s)] = terms.get((e_u, e_s), 0) + x
        return zs.from_dict(terms) if terms else zs.zero

    du, c = component.du, component.r_length
    phi, r = poly(component.phi_terms), poly(component.r_terms)
    lc = poly([(0, e_s, x) for e_u, e_s, x in component.phi_terms if e_u == du])
    d = apoly.degree("L")
    cols = [[] for _ in range(d + 1)]
    for (i, j), x in apoly.terms.items():
        cols[i].append((0, j + c * (d - i), x))  # a_i c^(d - i)
    acc, scale = poly(cols[d]), zs.one
    for col in reversed(cols[:-1]):
        acc = acc * r
        k = max(acc.degree(u) - du + 1, 0)
        if k:
            acc, scale = acc.prem(phi, u), scale * lc ** k
        acc = acc + scale * poly(col)
    return not acc


def direct_cleanup_oracle(resultant):
    """The direct engine's A-factor from its resultant by sympy: the
    monomial stripped, then sympy's squarefree part, made primitive and
    lex-positive."""
    import sympy

    from tbk.exactnum import MultiPoly

    r = resultant.strip_monomial().drop_unused().in_variables(("L", "M"))
    gens = sympy.symbols("L M")
    expr = sum(c * gens[0] ** i * gens[1] ** j for (i, j), c in r.terms.items())
    _, part = sympy.Poly(expr, *gens).sqf_part().primitive()
    return MultiPoly(("L", "M"), {e: int(c) for e, c in part.terms()}).sign_normalized()
