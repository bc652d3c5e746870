"""A-polynomials by resultant elimination, one Riley component at a time.

The longitude word (reversed relator, then relator, then a meridian power
killing the exponent sum) maps to an upper-triangular matrix on the
nonabelian representation curve; its (1, 1) entry over the common scale
M^len is the longitude eigenvalue.  Eliminating the Riley variable u from

    { riley(M, u),  L * M^len - P(M, u) }

and normalizing (integer content, pure-M factors, repeated factors)
yields the nonabelian A-polynomial.

Factor, then eliminate.  The Riley polynomial phi is first factored over
Z[M, u]: Zassenhaus's algorithm on phi(m0, u) over Z (a distinct-degree
split by the Frobenius matrix and Cantor-Zassenhaus mod a prime, a p-adic
Hensel lift, recombination by exact division), then
an (M - m0)-adic lift of those factors, each candidate proved by exact
division.  Resultants are multiplicative, Res_u(phi_1 phi_2, g) =
Res_u(phi_1, g) Res_u(phi_2, g), so u is eliminated from each irreducible
factor phi_i separately.  Each result is a power of an irreducible:
Res_u(phi_i, L M^len - P) is, up to a power of lc_u(phi_i), the norm from
the field Q(M)[u]/phi_i to Q(M) of L - P/M^len, which is A_i^k, A_i the
minimal polynomial of P/M^len over Q(M), irreducible, and primitive once
pure-M factors are dropped; k = du(phi_i)/deg_L(A_i) is the degree of the
map from the component onto its A-curve, which a_polynomial records.
The components of the A-polynomial (Macasieb-Petersen-van Luijk: two for
J(k, k)) therefore come by construction, the A-polynomial is their
deduplicated product, and no polynomial in L is ever factored.

Eliminate in s = M^2.  An A-polynomial has only even powers of M
(Cooper-Culler-Gillet-Long-Shalen, Invent. Math. 118, 1994, 2), and so
have the inputs: conjugating by diag(1, -1) sends rho_M(g_i) to
-rho_(-M)(g_i) with the same u, the longitude has exponent sum 0 and
len is even, so P(-M, u) = P(M, u); the relation is kept and M does not
divide phi, so phi(-M, u) = phi(M, u).  _eliminate takes g = gcd(len,
every M-exponent of P and phi_i), 2 on all 410 Riley factors with
q <= 41, and runs an engine on phi_i(s, u), P(s, u) and len/g with
s = M^g, still written M.  This is exact: phi_i is irreducible over
Q(M), so K = F (x) Q(M), F = Q(s)[u]/phi_i, is a field, and beta =
P/M^len lies in F.  Its characteristic polynomial on K over Q(M) is the
one on F over Q(s), so it, its minimal polynomial, k and the direct
engine's resultant are the same over Z[s], read with s = M^g.  lc_u
stays +-s^a, c = s^(len/g) and every fit denominator stays a power of s,
so neither engine changes and g = 1 runs the same code; the sign
normalization, primitive part and monomial strip commute with
multiplying the factor's M-exponents back by g.  The sample points, the
degrees, _MAX_RECON_DEGREE and the EliminationError texts all count in
the engine's variable, s; _eliminate appends "s = M^g" to such a text.
Factoring stays in M: a factor irreducible over Z[s, u] can split over
Z[M, u] (u^2 - s), and its image would not.

Both engines start from R/M^len' = P/M^len, R = P mod phi_i over
Z[M, 1/M] (exact: lc_u(phi_i) = +-M^a is a unit there) times a power of
M, reduced once per factor (_reduced_longitude).  Factors of u-degree
at most _DIRECT_MAX_DEGREE run through the exact subresultant engine
directly, on phi_i and L*M^len' - R, which moves the resultant by +-M^j
only; its PRS runs over Z on Kronecker-packed coefficients
(exactnum.resultants).  The rule comes from both engines timed (best of
3, 2-core x86-64 host) on 172 Riley factors: every one with q <= 21,
those of u-degree <= 7 with 23 <= q <= 45, and 6/35's and 8/63's:

    u-degree  factors  direct faster  direct/modular time, median (range)
      1-5        97         97          0.26 (0.08-0.71)
       6         24         22          0.40 (0.07-1.12: 8/21, 13/21)
       7          7          4          0.92 (0.45-3.17: 8/63)
      8-10       42         10          2.67 (0.23-52: 7/19)
     12, 24       2          0          6/35 1422 / 10 ms, 8/63 > 20 s

The direct engine reads k off a specialization mod a prime and takes
A_i by an exact k-th root (k = 1 proves it squarefree).  Larger factors
are reconstructed from modular images: per prime and per integer
M-value the slice is A_i(m, L) made monic, from the first d/k power
sums of the characteristic polynomial of multiplication by R(m)/c, c =
m^len', in GF(p)[u]/phi_i(m), which is Res_u(phi_i(m), L c - R(m)) up
to a constant, in O(d^3/k); a probe reads k once per factor.
riley_polynomial checks that lc_u(phi) is +-M^a, so
lc_u(phi_i) is a power of M up to sign, and so are lc_L of the resultant
and, by Gauss's lemma, lc_L(A_i) = +-M^b: a slice is A_i(m, L)/(+-m^b).
Cauchy interpolation fits each coefficient as +-A_ij(M)/M^b, so every
denominator is a power of M, and shifting the numerators to M^b gives
+-A_i mod p, with integer coefficients, which CRT and rational
reconstruction lift.  The sample points M = 1..n, and six held out after
them, lie below every prime (_ELIMINATION_PRIMES_FROM), so every slice is
defined.  Every fit takes the first large quotient of its Euclid run; a
factor's first prime fits on a doubling number of points, and each later
prime starts at the point count the degrees found need.
Rational reconstruction starts at a factor's first kept image; a
candidate is accepted when two consecutive reconstructions agree, it
vanishes on the representation curve at integer sample points (checked
in Z[v] after the substitution u = v/lc that makes phi_i(m) monic) and
it is no proper power.  A factor whose coefficients lie within one
prime's balanced bound, about 2^14 for the engine's primes just above
2^29, thus takes two primes, one to lift and one to confirm.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul

from ..exactnum import (
    ExactDivisionError,
    MultiPoly,
    QPoly,
    poly_resultant,
)
from . import _modp
from .presentation import TwoBridgePresentation, presentation
from .riley import _word_rows, riley_polynomial


class EliminationError(RuntimeError):
    """The elimination degenerated (zero resultant or failed lift)."""


@dataclass(frozen=True)
class APoly:
    """An A-polynomial and its irreducible factors over Z.

    ``factors`` are distinct, primitive and lex-positive, and multiply to
    ``poly``; they default to ``(poly,)``.  ``map_degrees``, if given, has
    each factor's map degree k (module docstring); an A-factor that several
    Riley factors give records their least k (1/9: L*M^18 + 1 has k = 1
    and k = 3, and records 1), and L - 1 records 1."""

    poly: MultiPoly
    component_tag: str = "full"
    factors: tuple = ()
    map_degrees: tuple = ()

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("A-polynomial must be nonzero")
        if self.component_tag not in ("full", "canonical", "other"):
            raise ValueError(f"unknown component tag {self.component_tag!r}")
        if not self.factors:
            object.__setattr__(self, "factors", (self.poly,))


def longitude_data(pres: TwoBridgePresentation):
    """(P, length): P the (1, 1) entry of M^length * rho(longitude)."""
    word = pres.longitude_word()
    [(p11, _)] = _word_rows(word, 1)  # the top row only
    return p11, len(word)


# -- exact small-case engine -------------------------------------------------


def _apoly_direct(phi, p11, length):
    """(g, k) with g^k = Res_u(phi, L*M^length - P) rid of pure-M factors.

    lc_u(phi) divides the Riley polynomial's, +-M^a (riley_polynomial
    checks it), so lc_L of the resultant is a monomial: its only pure-M
    factors are integers and powers of M.  Stripped of those, R is g^k, g
    the minimal polynomial of P/M^length (module docstring)."""
    r = _direct_resultant(phi, p11, length)
    if r.is_zero():
        raise EliminationError("u-elimination produced the zero polynomial")
    return _power_root(
        r.strip_monomial().in_variables(("L", "M")).primitive_part().sign_normalized())


def _direct_resultant(phi, p11, length):
    """Res_u(phi, L*M^length - P) up to a factor +-M^j.

    It is taken as Res_u(phi, L*M^length' - R), R = M^b (P mod phi) from
    _reduced_longitude: Res(phi, g) = lc^(deg g - deg r) Res(phi, r) for
    r = g mod phi, and Res(phi, M^b r) = M^(b du) Res(phi, r).  This
    replaces the subresultant PRS's first pseudo-remainder, whose du_P -
    du + 1 steps each rescale every coefficient of L*M^length - P by lc."""
    terms, length = _reduced_longitude(phi, p11, length)
    g = {(0, e_m, e_u): -c for e_u, e_m, c in terms}
    g[(1, length, 0)] = 1
    return poly_resultant(phi, MultiPoly(("L", "M", "u"), g), "u")


def _reduced_longitude(phi, p11, length):
    """(R, length') with R/M^length' = P/M^length in Z[M, 1/M][u]/phi, R
    as [(u-exponent, M-exponent, coefficient)] of u-degree below phi's.

    lc_u(phi) = +-M^a is a unit of Z[M, 1/M], so there P mod phi is exact,
    each step an exponent shift; R = M^b (P mod phi), length' = length +
    b, b the least value making every exponent nonnegative.  On 6/35's
    u-degree-12 factor, in s = M^2, R has 69 terms, 13-bit coefficients
    and s-degree 6 with length' = 0; P has 351, 40 bits, 43 and 36."""
    du = phi.degree("u")
    cols = [{} for _ in range(du + 1)]
    for e_u, e_m, c in _u_M_terms(phi):
        cols[e_u][e_m] = c
    [(a, sign)] = cols[du].items()  # lc_u(phi) = sign * M^a, sign = 1/sign
    low = [list(col.items()) for col in cols[:du]]
    rem = {}
    for e_u, e_m, c in _u_M_terms(p11):
        rem.setdefault(e_u, {})[e_m] = c
    for k in range(max(rem, default=0), du - 1, -1):
        quotient = [(e - a, c * sign) for e, c in rem.pop(k, {}).items() if c]
        for j, col in enumerate(low, k - du):  # rem -= quotient * u^(k-du) * phi
            out = rem.setdefault(j, {})
            get = out.get
            for e1, c1 in quotient:
                for e2, c2 in col:
                    e = e1 + e2
                    out[e] = get(e, 0) - c1 * c2
    terms = [(e_u, e_m, c) for e_u, col in rem.items() for e_m, c in col.items() if c]
    b = -min([length, *(e_m for _, e_m, _ in terms)])
    return [(e_u, e_m + b, c) for e_u, e_m, c in terms], length + b


def _power_root(r):
    """(g, k) with r = g^k, g irreducible.  k_m = _power_at(r, m) is k
    unless g(m, L) repeats a root mod the prime, and then larger; k_m = 1
    proves r squarefree, and an exact k_m-th root is g, as r is no k'-th
    power for k' > k.  Points run past disc_L(g)'s roots.  M is the
    engine's variable: under a_polynomial the points are M^2 = 2..N."""
    points = (2 * r.degree("L") - 1) * r.degree("M") + 1
    for m in range(2, 2 + points):  # R(+-1, L) repeat roots on 38 of 42, q <= 13
        k = _power_at(r, m)
        g = r if k == 1 else _kth_root(r, k) if k else None
        if g is not None:
            return g, k
    raise EliminationError(
        f"the resultant is no power of an irreducible at M = 2..{1 + points}")


def _power_at(r, m):
    """deg f / deg sqf(f) for f = r(m, L) mod 2^61 - 1, or None when f
    drops r's L-degree or the quotient is no integer."""
    p = (1 << 61) - 1
    f = [0] * (r.degree("L") + 1)
    for (e_l, e_m), c in r.terms.items():
        f[e_l] += c * pow(m, e_m, p)
    f = [c % p for c in f]
    if not f[-1]:
        return None
    n = len(f) - 1
    e = n + 1 - len(_modp.pgcd_monic(f, _modp.pderiv(f, p), p))
    return n // e if n % e == 0 else None


def _kth_root(r, k):
    """g with g^k == r and a positive leading L-coefficient, or None.

    With lc_L(r) = c*M^b, read r top down as P = h^k; h*P' = k*h'*P gives
    J. C. P. Miller's recurrence
        k*t*P_0*h_t = t*h_0*P_t - sum_{0<i<t} ((k + 1)*i - t)*h_i*P_(t-i),
    whose divisions by k*t*c*M^b are exact when r is a k-th power.  It is
    linear in h, so h_0 = c*M^(b/k) in place of c^(1/k)*M^(b/k) yields
    c^((k-1)/k)*g, and the primitive part g with no integer root taken."""
    n = r.degree("L")
    cols = [_in_M(col) for col in reversed(r.coefficients_in("L"))]
    b, c = cols[0].degree(), cols[0].coeffs[-1]
    h = [QPoly([0] * (b // k) + [c])]
    for t in range(1, n // k + 1):
        acc = h[0] * cols[t] * t
        for i in range(1, t):
            acc = acc - h[i] * cols[t - i] * ((k + 1) * i - t)
        h.append(QPoly([x // (k * t * c) for x in acc.coeffs[b:]]))
    g = MultiPoly(("L", "M"), {(n // k - i, j): x for i, hi in enumerate(h)
                               for j, x in enumerate(hi.coeffs)}).primitive_part()
    return g if g ** k == r else None


# -- modular reconstruction engine -------------------------------------------


def _in_M(c: MultiPoly) -> QPoly:
    """A polynomial in M alone (the zero polynomial too) as a dense QPoly."""
    col = [0] * (c.degree("M") + 1)
    for exps, coeff in c.terms.items():
        col[dict(zip(c.variables, exps)).get("M", 0)] += coeff
    return QPoly(col)


def _u_M_terms(poly):
    """[(u-exponent, M-exponent, coefficient)] of a polynomial in M and u."""
    return [(e_u, e_m, c) for (e_m, e_u), c in poly.in_variables(("M", "u")).terms.items()]


class _PointCache:
    """Exact integer slices phi(m, u), R(m, u), m^length', shared by primes.

    R and length' are _reduced_longitude's, so R(m) has u-degree below
    du_phi, and phi(m, u) has u-degree du_phi at every m >= 1, since
    lc_u(phi) is +-M^a (riley_polynomial checks it for the Riley
    polynomial, and a factor's divides it).  A slice sums the terms of phi
    and R over one table of powers of m: R of 6/35's u-degree-12 factor
    has 69 terms of s-degree up to 6, where P has 351 up to 43.

    ``k``, the map degree, is read by ``probe`` on the first prime."""

    def __init__(self, phi, p11, length):
        self.phi_terms = _u_M_terms(phi)
        self.r_terms, self.length = _reduced_longitude(phi, p11, length)
        self.du_phi = phi.degree("u")
        self._dm = max(e_m for _, e_m, _ in self.phi_terms + self.r_terms)
        self.k = None
        self._data = {}
        self._inverses = {}

    def get(self, m):
        if m not in self._data:
            powers = list(itertools.accumulate(itertools.repeat(m, self._dm), mul, initial=1))
            phim, pm = [0] * (self.du_phi + 1), [0] * self.du_phi
            for out, terms in ((phim, self.phi_terms), (pm, self.r_terms)):
                for e_u, e_m, c in terms:
                    out[e_u] += c * powers[e_m]
            self._data[m] = (phim, _modp.ptrim(pm), m ** self.length)
        return self._data[m]

    def inverses(self, p):
        """[_, 1/1, ..., 1/du_phi] mod p, for Newton's identities."""
        if p not in self._inverses:
            self._inverses[p] = [0] + [_modp.pinv(k, p, "_PointCache.inverses")
                                       for k in range(1, self.du_phi + 1)]
        return self._inverses[p]

    def probe(self, p):
        """k = du_phi // e, e the largest squarefree degree mod p of the
        slices with k = 1, whole characteristic polynomials, at M = 2..5.
        e <= deg_L(A) = du_phi / k, so k is never read too small; too
        large, it fails _apoly_modular's checks.
        Returns the probe's slices for the k read: the characteristic
        polynomials themselves if k = 1, else read from their first
        du_phi / k power sums as _slice_squarefree reads them."""
        self.k = 1
        chars = {m: _slice_squarefree(self, m, p) for m in range(2, 6)}
        e = max(len(c) - len(_modp.pgcd_monic(c, _modp.pderiv(c, p), p))
                for c in chars.values())
        k = self.k = self.du_phi // e
        if k == 1:
            return chars
        return {m: _minimal_slice(_power_sums(c[:-1], self.du_phi // k, p)[1:],
                                  k, self.inverses(p), p)
                for m, c in chars.items()}


def _power_sums(f, n, p):
    """[d, s_1, ..., s_n] mod p, s_j the j-th power sum of the roots of the
    monic polynomial X^d + f[d-1] X^(d-1) + ... + f[0], n <= d, by Newton's
    identities."""
    d = len(f)
    sums = [d % p]
    for j in range(1, n + 1):
        acc = j * f[d - j] + sum(map(mul, f[d - j + 1:], sums[1:]))
        sums.append(-acc % p)
    return sums


def _minimal_slice(traces, k, inverses, p):
    """g(m, L) mod p, ascending, from the first e power sums Tr(beta^j),
    j = 1..e, of the characteristic polynomial g(m, L)^k: those of g are
    Tr(beta^j) / k, and Newton's identities give g; inverses[j] = 1/j mod
    p for j <= max(e, k)."""
    sums = [t * inverses[k] % p for t in traces]
    out = [1]  # monic, descending: out[j] is the coefficient of L^(e-j)
    for j in range(1, len(sums) + 1):
        acc = sum(map(mul, out, reversed(sums[:j])))
        out.append(-acc * inverses[j] % p)
    return out[::-1]


def _slice_squarefree(cache, m, p):
    """g(m, L) mod p, g = A/lc_L(A) the minimal polynomial of R/c.

    The name, from when this was the squarefree part of the resultant,
    stays because perfbench/tracing.py wraps the function by it.  The
    engine's points m lie below its primes p, so lc_u(phi(m)) = +-m^a and
    c = m^len' are units mod p and the slice is defined; a p dividing m
    raises pinv's ZeroDivisionError naming this function.

    Up to a constant factor Res_u(phi(m), L*c - R(m)) is prod_i (L -
    beta(alpha_i)) over the roots alpha_i of phi(m), with beta = R(m)/c:
    the characteristic polynomial of multiplication by beta on
    GF(p)[u]/phi(m) (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.4).  It is g^k in Z[M, 1/M][L], k = cache.k, so g(m, L)^k
    at every point, also where g(m, L) repeats a root; the first e = d/k
    power sums s_j = Tr(beta^j) = t B^j e_0, over k, give g(m, L) by
    Newton's identities.  They come from the traces t_j = Tr(u^j)
    (Newton's identities on phi(m)) and e products with the transpose of
    the multiply-by-beta matrix B, whose columns beta * u^j mod phi(m) are
    one shift-and-reduce each, the first R(m)/c itself (deg_u R < d).
    Newton's identities divide by 1..d, so p must exceed d; the engine's
    primes lie just above 2^29, so every residue here is a one-digit int.
    """
    phim, pm, c = cache.get(m)
    d, k = cache.du_phi, cache.k
    fm = [x % p for x in phim]
    inv = _modp.pinv(fm[-1], p, "_slice_squarefree")
    f = [x * inv % p for x in fm[:-1]]  # phi(m) monic, leading 1 dropped
    col = _modp.pscale(pm, _modp.pinv(c, p, "_slice_squarefree"), p)
    col += [0] * (d - len(col))
    cols = [col]
    for _ in range(d - 1):  # beta * u^(j+1) = u * (beta * u^j) mod phi(m)
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [(x - top * y) % p for x, y in zip(col, f)]
        cols.append(col)
    traces = []  # Tr(beta^j), j = 1..d/k
    w = _power_sums(f, d - 1, p)  # Tr(u^j), j = 0..d-1
    for _ in range(d // k):
        w = [sum(map(mul, col, w)) % p for col in cols]
        traces.append(w[0])
    return _minimal_slice(traces, k, cache.inverses(p), p)


_MAX_RECON_DEGREE = 512  # in the engine's variable: M^2 under a_polynomial
_FIRST_POINTS = 26  # a factor's first fit count, moved to 2n - 10 on failure
_HELD_OUT = 6
_VERIFY_POINTS = 6  # the exact check's M = 1..6 (_verify_vanishing)


def _ahat_mod_p(cache, p, count):
    """Image of the A-polynomial mod p, +-A mod p.

    Returns (d, dden, coeffs, count) with coeffs mapping (L-power,
    M-power) to residues, normalized so the (d, dden) coefficient is 1,
    and count = max_j(a_j + b_j) + 10 over the (numerator, denominator)
    degrees of the reconstructed coefficient functions, the next prime's
    ``count``; None when the prime misbehaves.

    lc_L(A) is +-M^b (module docstring), so the slice at a good point is
    A(m, L)/(+-m^b), of degree d = du_phi / k: coefficient j is
    +-A_j(M)/M^b, and a fit whose denominator is not a power of M rejects
    the prime.  Shifting every numerator to M^dden, dden the largest b,
    gives +-A mod p.

    Every coefficient is fitted on the points M = 1..n by
    _modp.cauchy_interpolate, which needs deg num + deg den + 10 <= n, and
    the six held-out points M = n + 1..n + 6 check every fit.  n starts at
    ``count``, or 26 on a factor's first prime (count None), and moves to
    2n - 10 when a fit or its check fails.  Degrees past _MAX_RECON_DEGREE
    raise EliminationError: they do not depend on the prime, since an
    unlucky prime only lowers them.  So n - 10 <= 2 * _MAX_RECON_DEGREE,
    and every point lies below p (_ELIMINATION_PRIMES_FROM)."""
    slices = {} if cache.k else cache.probe(p)  # the probe's points are slices too
    d = cache.du_phi // cache.k
    npts = count or _FIRST_POINTS

    def fit(npts):
        """Every coefficient function on M = 1..npts, checked on the
        held-out points after them."""
        for m in range(1, npts + _HELD_OUT + 1):
            if m not in slices:
                slices[m] = _slice_squarefree(cache, m, p)
        xs = _modp.InterpolationNodes(range(1, npts + 1), p)  # shared by the d fits
        recon = []
        for j in range(d):
            rf = _modp.cauchy_interpolate(xs, [slices[m][j] for m in xs], p)
            if rf is None:
                return None
            recon.append(rf)
        for m in range(npts + 1, npts + _HELD_OUT + 1):
            for j, (num, den) in enumerate(recon):
                dv = _modp.peval(den, m, p)
                if dv == 0 or (_modp.peval(num, m, p) - slices[m][j] * dv) % p:
                    return None
        return recon

    spare = 2 + _modp.SPARE_POINTS
    recon = None
    while recon is None and npts - spare <= 2 * _MAX_RECON_DEGREE:
        recon = fit(npts)
        if recon is None:
            npts = 2 * npts - spare
    if recon is None:
        reached = (npts - spare) // 2
    else:
        degrees = [(max(len(num) - 1, 0), len(den) - 1) for num, den in recon]
        reached = max(map(max, degrees))
        count = max(map(sum, degrees)) + spare
    if reached > _MAX_RECON_DEGREE:
        raise EliminationError(
            f"modular reconstruction mod {p} reached coefficient degree "
            f"{reached}, past the cap _MAX_RECON_DEGREE = {_MAX_RECON_DEGREE}")
    if any(any(den[:-1]) for _, den in recon):
        return None
    dden = max(len(den) - 1 for _, den in recon)
    coeffs = {(d, dden): 1}
    for j, (num, den) in enumerate(recon):
        shift = dden + 1 - len(den)
        coeffs.update(((j, shift + k), c) for k, c in enumerate(num) if c)
    return d, dden, coeffs, count


# 400 primes of 29 bits: ~3500 digits of CRT capacity, so coefficients of
# up to ~1700 digits; 10/99's largest have 8.  Far beyond honest use.
_MAX_PRIMES = 400


def _crt_fold(residues, modulus, coeffs, p):
    """Residues mod modulus * p from residues mod modulus and an image mod p."""
    return {key: _modp.crt_pair(residues.get(key, 0), modulus, coeffs.get(key, 0), p)[0]
            for key in set(residues) | set(coeffs)}, modulus * p


def _balanced(r, m):
    """The residue r mod m in (-m/2, m/2]."""
    return r - m if 2 * r > m else r


def _lift(residues, modulus, primes):
    """Rational reconstruction of every residue.

    Returns (fractions, bad): the nonzero fractions by key, or None with
    ``bad`` the primes among ``primes`` that divide both entries of the
    failing residue's Wang pair.  Such a pair n/d is congruent to the
    residue modulo every other prime and not modulo those, so their
    images disagree with a small fraction that all the others fit (Böhm,
    Decker, Fieker and Pfister, The use of bad primes in rational
    reconstruction, Math. Comp. 84, 2015)."""
    fracs = {}
    for key, r in residues.items():
        f = _modp.rational_reconstruct(r, modulus)
        if f is None:
            pair = _modp.reconstruction_pair(r, modulus)
            if pair is None:
                return None, set()
            return None, {p for p in primes if pair[0] % p == 0 and pair[1] % p == 0}
        if f != 0:
            fracs[key] = f
    return fracs, set()


def _apoly_modular(phi, p11, length):
    """(A, k): phi's A-polynomial factor by modular images and CRT.

    After each kept image the images so far are lifted by rational
    reconstruction; a candidate is accepted when two consecutive lifts
    agree, and then only if it passes the exact check _verify_vanishing
    (which a k read too large fails) and _power_root proves it squarefree
    (a k too small lifts A^k).  A kept image that disagrees with a small
    fraction the other images fit (see _lift) is dropped, so one wrong
    image costs primes, not the lift.  Past the cap the first prime
    raises: k is cached from it, so a later prime would repeat its fits."""
    cache = _PointCache(phi, p11, length)
    primes = _modp.prime_stream(_ELIMINATION_PRIMES_FROM)
    images = []  # (prime, coefficients) of the kept images
    residues = {}
    modulus = 1
    signature = None
    count = None
    candidate = None

    for _ in range(_MAX_PRIMES):
        p = next(primes)
        image = _ahat_mod_p(cache, p, count)
        if image is None:
            continue
        d, dden, coeffs, image_count = image
        if signature is None:
            signature = (d, dden)
        elif (d, dden) != signature:
            # disagreement: keep the larger signature, restart accumulation
            if (d, dden) > signature:
                signature, images, residues, modulus = (d, dden), [], {}, 1
                candidate = None
            else:
                continue  # an unlucky prime: its count is not carried
        count = image_count
        images.append((p, coeffs))
        residues, modulus = _crt_fold(residues, modulus, coeffs, p)
        fracs, bad = _lift(residues, modulus, [q for q, _ in images])
        if bad:
            images = [(q, c) for q, c in images if q not in bad]
            residues, modulus = {}, 1
            for q, c in images:
                residues, modulus = _crt_fold(residues, modulus, c, q)
            fracs, _ = _lift(residues, modulus, ())
        if fracs is None:
            continue
        if candidate == fracs:
            break  # stable under one more prime
        candidate = fracs
    else:
        raise EliminationError(
            "modular reconstruction failed to stabilize "
            f"within {_MAX_PRIMES} primes")

    if any(f.denominator != 1 for f in candidate.values()):
        raise EliminationError("the modular lift has a non-integer coefficient")
    out = MultiPoly(("L", "M"), {k: int(f) for k, f in candidate.items()}).sign_normalized()
    _verify_vanishing(out, cache)
    if _power_root(out)[1] != 1:
        raise EliminationError(
            f"the modular lift is a proper power: the map degree {cache.k} "
            "was read too small")
    return out, cache.k


def _verify_vanishing(apoly, cache):
    """Exact check over Z: A(R/c, m) = 0 in Q[u]/phi(m) at integer points.

    R/c is P/M^length there (_PointCache).  Checks M = 1.._VERIFY_POINTS;
    phi(m) keeps its u-degree n at each.  With l = lc(phi(m)), u = v/l
    makes f(v) = l^(n-1) * phi(m)(v/l) monic in Z[v], Q[u]/phi(m) =
    Q[v]/f, and QPoly.divmod by f stays in Z.  R(m)/c becomes X/s, X =
    l^e * R(m)(v/l) (reduced mod f, as e = deg R(m) < n) and s = l^e * c,
    both divided by gcd(s, content X).  Horner's rule on A(X/s) keeps its
    partial value as N/D, N in Z[v] and D in Z, and divides out gcd(D,
    content N) at every step, which keeps N near the size of the value
    rather than of s^deg_L(A); A vanishes at m when the final N is 0.  On
    10/99's larger factor the check takes 0.08-0.11 s, 0.11-0.15 s from
    the unreduced P(m) and 3.2 s in Fraction QPoly arithmetic over Q[u]
    (2-core x86-64, Python 3.11)."""
    cols = [_in_M(c) for c in apoly.coefficients_in("L")]
    for m in range(1, _VERIFY_POINTS + 1):
        phim, pm, c = cache.get(m)
        n, lc = cache.du_phi, phim[-1]
        f = QPoly([a * lc ** (n - 1 - i) for i, a in enumerate(phim[:-1])] + [1])
        e = max(len(pm) - 1, 0)
        x = QPoly([b * lc ** (e - k) for k, b in enumerate(pm)])
        s = lc ** e * c
        g = gcd(s, *x.coeffs)
        x, s = QPoly([a // g for a in x.coeffs]), s // g
        num, den = QPoly.const(int(cols[-1](m))), 1
        for col in reversed(cols[:-1]):
            den *= s
            num = (num * x).divmod(f)[1] + QPoly.const(int(col(m)) * den)
            g = gcd(den, *num.coeffs)
            if g > 1:
                num = QPoly([a // g for a in num.coeffs])
                den //= g
        if not num.is_zero():
            raise EliminationError(
                f"reconstructed A-polynomial fails the exact curve check at M={m}")


def _eliminate(engine, phi, p11, length):
    """engine's A-polynomial factor of phi, eliminated in s = M^g.

    g is the gcd of length and of every M-exponent of phi and P; the
    engine runs on phi(s, u), P(s, u) and length / g, written in M, and
    its factor's M-exponents are multiplied back by g (module docstring),
    beside its k.  An EliminationError's text counts in s, so with g > 1
    it is raised again naming s."""
    terms = [_u_M_terms(phi), _u_M_terms(p11)]
    g = gcd(length, *(e_m for poly in terms for _, e_m, _ in poly))
    phi, p11 = (MultiPoly(("M", "u"), {(e_m // g, e_u): c for e_u, e_m, c in poly})
                for poly in terms)
    try:
        factor, k = engine(phi, p11, length // g)
    except EliminationError as err:
        if g == 1:
            raise
        raise EliminationError(f"{err} (in the engine's variable s = M^{g})") from err
    return MultiPoly(("L", "M"), {(e_l, e_m * g): c for (e_l, e_m), c in factor.terms.items()}), k


# -- public entry points -------------------------------------------------------


# a Riley factor is eliminated directly when its u-degree is at most
# this, else by modular images (the table in the module docstring):
# direct wins 119 of the 121 timed factors of u-degree <= 6, 4 of the 7
# of u-degree 7 (8/63's takes 28.4 ms direct, 9.0 modular) and 10 of the
# 44 from u-degree 8 up (7/19's takes 874 ms direct, 35 modular).
_DIRECT_MAX_DEGREE = 6


def a_polynomial(p_over_q, keep_abelian=False) -> APoly:
    """Nonabelian A-polynomial of the two-bridge knot p/q.

    keep_abelian multiplies the abelian factor (L - 1) back in.  The
    result records the irreducible factors, one per distinct Riley-factor
    image, each eliminated by the engine its u-degree selects, and their
    map degrees.
    """
    pres = presentation(p_over_q)
    phi = riley_polynomial(pres)
    p11, length = longitude_data(pres)

    found = {}  # A-factor -> the least k of the Riley factors giving it
    for phi_i in _riley_factors(phi, 1):
        small = phi_i.degree("u") <= _DIRECT_MAX_DEGREE
        factor, k = _eliminate(_apoly_direct if small else _apoly_modular, phi_i, p11, length)
        found[factor] = min(k, found.get(factor, k))
    if keep_abelian:
        found[MultiPoly(("L", "M"), {(1, 0): 1, (0, 0): -1})] = 1

    factors = tuple(found)
    poly = factors[0]
    for factor in factors[1:]:
        poly = poly * factor
    return APoly(poly, "full", factors, tuple(found.values()))


# -- factoring the Riley polynomial ---------------------------------------------


def _recombine(seeds, try_group):
    """Zassenhaus recombination: group local factors into true factors.

    Groups are tried smallest first; ``try_group(group, rest)`` returns the
    proven factor whose local image is the product of ``group`` (dividing
    it out of the caller's cofactor), or None.  Every irreducible factor
    is the product of a group of seeds, and the groups partition the
    seeds, so once no group of size below s divides, a dividing group of
    size s is irreducible.  Returns the factors found; what is left of the
    caller's cofactor, the product of the remaining seeds, is irreducible.
    """
    found = []
    s = 1
    while 2 * s <= len(seeds):
        for idx in itertools.combinations(range(len(seeds)), s):
            if 2 * s == len(seeds) and idx[0] != 0:
                continue  # the complement of a group already tried
            group = [seeds[i] for i in idx]
            rest = [g for i, g in enumerate(seeds) if i not in idx]
            factor = try_group(group, rest)
            if factor is not None:
                found.append(factor)
                seeds = rest
                break
        else:
            s += 1
    return found


def _monic_product(polys, p):
    """Monic image mod p of a product of integer coefficient lists."""
    out = [1]
    for g in polys:
        out = _modp.pmul(out, [c % p for c in g], p)
    return _modp.pscale(out, _modp.pinv(out[-1], p, "_monic_product"), p)


def _hensel_padic(f, g0, h0, p, pk):
    """Lift f = lc(f) * g0 * h0 mod p to f = lc(f) * g * h mod pk, pk a
    power of p; g0, h0 monic and coprime mod p.  Returns g, the one monic
    factor of f mod pk that reduces to g0.

    Linear lifting: with s*g0 + t*h0 = 1 mod p, the error e = (f - g*h)/q
    mod p at modulus q is corrected by t*e mod g0 and s*e mod h0."""
    target = [c * pow(f[-1], -1, pk) % pk for c in f]
    s, t = _modp.pinvmod(g0, h0, p), _modp.pinvmod(h0, g0, p)
    g, h, q = list(g0), list(h0), p
    while q < pk:
        qp = q * p
        e = _modp.ptrim([(a - b) % qp // q
                         for a, b in zip(target, _modp.pmul(g, h, qp))])
        for lifted, base, inverse in ((g, g0, t), (h, h0, s)):
            for j, c in enumerate(_modp.pdivmod(_modp.pmul(inverse, e, p), base, p)[1]):
                lifted[j] = (lifted[j] + q * c) % qp
        q = qp
    return g


# Primes for factoring over Z start here.  A distinct-degree step is one
# Frobenius-matrix product whatever the size of p, so log p prices only
# x^p mod f, Cantor-Zassenhaus's powers and, inversely, the Hensel lift's
# steps.  _riley_factors over the 94 p/q with q <= 21 took 139-203, 202-205,
# 240-246 and 292-300 ms from 2^12, 2^15, 2^18 and 2^24, and on 10/99
# 187-246, 170-250, 221-229 and 288-290 ms (best of 3, two rounds; 2-core
# x86-64, Python 3.11).
_FACTOR_PRIMES_FROM = 1 << 15

# The modular elimination's primes start here, so that every residue of a
# slice, an image and a fit is a one-digit CPython int (below 2^30) and a
# product of two has two digits.  They exceed every sample point: the
# largest that _ahat_mod_p reaches is 2 * _MAX_RECON_DEGREE + 2 +
# _modp.SPARE_POINTS + _HELD_OUT = 1040, below 2^12, so lc_u(phi_i(m)) =
# +-m^a and c = m^len are units mod p for every sample point m and no
# slice is degenerate.  A d = 12 slice of 6/35 takes 163 us against
# 285 us with primes above 2^61 (2-core x86-64, Python 3.11).
# One prime reconstructs coefficients up to about 2^14, so a larger factor
# takes more primes (10/99's u-degree-40 one, with 24-bit coefficients,
# three instead of two), but each costs about 0.6 as much.  The Riley
# factorization's Hensel lift keeps prime_stream's 2^61 primes: on 10/99
# it takes three bivariate lifts and 0.22 s, against five and 0.30 s from
# 2^29.
_ELIMINATION_PRIMES_FROM = 1 << 29


def _int_poly_factors(coeffs):
    """Irreducible factors over Z of a primitive integer polynomial.

    Returns primitive integer coefficient lists with positive leading
    coefficients, a repeated factor once per multiplicity; their product
    is the input up to sign.  Zassenhaus's algorithm: factor the
    squarefree part mod a prime p not dividing its discriminant
    (distinct-degree, then Cantor-Zassenhaus splitting seeded by p), lift
    to p^k past the Mignotte bound, and recombine; a candidate counts only
    when it divides exactly, so every factor returned is proved.  An input
    irreducible mod p stops after that test.
    """
    f = list(coeffs)
    while f and f[-1] == 0:
        f.pop()
    if f and f[-1] < 0:
        f = [-c for c in f]
    if len(f) <= 2:
        return [f]
    sqf = f
    for p in _modp.prime_stream(_FACTOR_PRIMES_FROM):
        fp = [c % p for c in sqf]
        if fp[-1] and len(_modp.pgcd_monic(fp, _modp.pderiv(fp, p), p)) == 1:
            break
        if sqf is f:  # not squarefree mod p: maybe not over Z either
            fq = QPoly(f)  # f / gcd(f, f'): in Z[x], an integer times sqf
            quot = fq.divmod(fq.gcd(QPoly([i * c for i, c in enumerate(f)][1:])))[0]
            content = gcd(*map(int, quot.coeffs))
            sqf = [int(c) // content for c in quot.coeffs]
    rng = random.Random(p)
    seeds = [g for d, gd in _modp.distinct_degree(_monic_product([sqf], p), p)
             for g in _modp.equal_degree(gd, d, p, rng)]
    factors = [sqf]
    if len(seeds) > 1:
        n = len(sqf) - 1
        bound = ((isqrt(n + 1) + 1) << n) * max(abs(c) for c in sqf) * sqf[-1]
        pk = p
        while pk <= 2 * bound:  # Mignotte: a factor times lc(f) stays below
            pk *= p
        lifted = [_hensel_padic(sqf, g, _monic_product(seeds[:i] + seeds[i + 1:], p), p, pk)
                  for i, g in enumerate(seeds)]
        cofactor = sqf

        def try_group(group, rest):
            nonlocal cofactor
            cand = [cofactor[-1]]
            for g in group:
                cand = _modp.pmul(cand, g, pk)
            cand = [_balanced(c, pk) for c in cand]
            content = gcd(*cand)
            cand = [c // content for c in cand]
            if cand[0] and cofactor[0] % cand[0]:
                return None
            quot, rem = QPoly(cofactor).divmod(QPoly(cand))
            if not rem.is_zero():
                return None
            # cand is primitive, so by Gauss's lemma the quotient is in Z[x]
            cofactor = [int(c) for c in quot.coeffs]
            return cand

        factors = _recombine(lifted, try_group)
        factors.append(cofactor)
    if sqf != f:  # the repeated factors are those of f / sqf
        quot = QPoly(f).divmod(QPoly(sqf))[0]
        factors += _int_poly_factors([int(c) for c in quot.coeffs])
    return factors


def _hensel_bivariate(phi: MultiPoly, g0, h0, m0, p):
    """Lift phi(m0, u) = c * g0 * h0 mod p to phi = g * h over
    GF(p)[[M - m0]][u], with h monic and lc_u(g) = lc_u(phi).

    g0, h0 are monic and coprime mod p.  Returns g to (M - m0)-adic
    precision deg_M(phi) + 1, in powers of M: {(M-power, u-power):
    residue}.  When g0 is the image of a factor G of phi, g is
    G * lc_u(phi) / lc_u(G), of M-degree at most deg_M(phi), so the
    precision recovers it exactly."""
    prec = phi.degree("M") + 1
    f = [[c % p for c in _in_M(col).shift(m0).coeffs] + [0] * prec
         for col in phi.coefficients_in("u")]
    du, dg, dh = len(f) - 1, len(g0) - 1, len(h0) - 1
    lead = f[-1][:prec]
    s, t = _modp.pinvmod(g0, h0, p), _modp.pinvmod(h0, g0, p)  # s*g0 + t*h0 = 1
    lead_inv = _modp.pinv(lead[0], p, "_hensel_bivariate")
    g = [[c * lead[0] % p] + [0] * (prec - 1) for c in g0[:-1]] + [lead]
    h = [[c] + [0] * (prec - 1) for c in h0]
    for k in range(1, prec):
        # e = coefficient of (M - m0)^k in f - g*h, of u-degree below du
        e = []
        for j in range(du):
            acc = f[j][k]
            for a in range(max(0, j - dh), min(j, dg) + 1):
                acc -= sum(map(mul, g[a][:k + 1], h[j - a][k::-1]))
            e.append(acc % p)
        e = _modp.ptrim(e)
        if e:  # dg*h0 + dh*g(0) = e, g(0) = lead(0)*g0
            for j, c in enumerate(_modp.pdivmod(_modp.pmul(t, e, p), g0, p)[1]):
                g[j][k] = c
            for j, c in enumerate(_modp.pdivmod(_modp.pmul(s, e, p), h0, p)[1]):
                h[j][k] = c * lead_inv % p
    out = {}
    for j, series in enumerate(g):
        for k, c in enumerate(QPoly(series).shift(-m0).coeffs):
            if c % p:
                out[(k, j)] = c % p
    return out


def _riley_factors(phi: MultiPoly, m0):
    """Irreducible factors of phi over Z[M, u], primitive and lex-positive.

    phi is primitive with lc_u(phi) = +-M^k, so phi(m, u) keeps its
    u-degree at every m >= 1, and phi is irreducible when phi(m, u) is.
    The factors of phi(m, u) over Z, at the first m >= m0 where it is
    squarefree (a squarefree phi fails only at roots of its discriminant
    in M), are grouped (_recombine); a group is lifted (M - m)-adically
    mod primes until their product passes twice the bound
    2^(deg_M + deg_u) * ||phi||_2 on the coefficients of a factor (Mahler
    measure), and the candidate, rid of the monomial lc_u of its
    cofactor, counts only when it divides exactly.
    """
    cols = [_in_M(c) for c in phi.coefficients_in("u")]
    tries = 2 * len(cols) * (phi.degree("M") + 1)
    for m in range(m0, m0 + tries):
        seeds = _int_poly_factors([int(c(m)) for c in cols])
        if len(set(map(tuple, seeds))) == len(seeds):
            break
    else:
        raise EliminationError(
            f"the Riley polynomial is not squarefree at M = {m0}..{m}")
    cofactor = phi

    def try_group(group, rest):
        nonlocal cofactor
        norm = isqrt(sum(c * c for c in cofactor.terms.values())) + 1
        bound = norm << (cofactor.degree("M") + cofactor.degree("u") + 1)
        residues, modulus = {}, 1
        primes = _modp.prime_stream()
        while modulus <= bound:
            p = next(primes)
            g0, h0 = _monic_product(group, p), _monic_product(rest, p)
            if len(_modp.pgcd_monic(g0, h0, p)) > 1:
                continue
            residues, modulus = _crt_fold(
                residues, modulus, _hensel_bivariate(cofactor, g0, h0, m, p), p)
        cand = MultiPoly(("M", "u"), {
            key: _balanced(r, modulus) for key, r in residues.items()})
        cand = cand.strip_monomial().sign_normalized()
        if cand.degree("u") < 1:
            return None
        try:
            cofactor = cofactor.exact_div(cand)
        except ExactDivisionError:
            return None
        return cand

    factors = _recombine(seeds, try_group)
    factors.append(cofactor.sign_normalized())
    return factors


def split_components(ap: APoly, canonical_slopes=None):
    """The irreducible-over-Z factors recorded by ``a_polynomial``.

    Sorts the factors by (L-degree, M-degree, terms).  When
    ``canonical_slopes`` (a set of integers) matches the edge-slope set of
    exactly one of two factors, the factors are tagged canonical / other;
    otherwise every factor is tagged 'full'.  Each part carries its
    factor's map degree, when ``ap`` records them.  Returns None when the
    A-polynomial is irreducible.
    """
    if len(ap.factors) < 2:
        return None
    irreducible = sorted(ap.factors,
                         key=lambda f: (f.degree("L"), f.degree("M"), sorted(f.terms)))

    tags = ["full"] * len(irreducible)
    if canonical_slopes is not None and len(irreducible) == 2:
        from .newton import edge_slopes, newton_polygon

        want = set(canonical_slopes)
        slope_sets = []
        for f in irreducible:
            ss = set()
            for s in edge_slopes(newton_polygon(f)):
                ss.add(s.num if (not s.is_infinite and s.den == 1) else s)
            slope_sets.append(ss)
        matches = [i for i, ss in enumerate(slope_sets) if ss == want]
        if len(matches) == 1:
            tags = ["other", "other"]
            tags[matches[0]] = "canonical"
    ks = dict(zip(ap.factors, ap.map_degrees))
    return [APoly(f, t, map_degrees=(ks[f],) if ks else ())
            for f, t in zip(irreducible, tags)]
