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
division.  A slice phi(m0, u) of u-degree n <= _SCREEN_MAX_DEGREE is
first screened by Musser's degree-set test: a factor over Z of degree d
needs factors mod each small prime whose degrees sum to d, so when no d
in 1..n-1 passes every prime tried, the slice is proved irreducible with
no lift or recombination; an undecided slice runs Zassenhaus as before.
Resultants are multiplicative, Res_u(phi_1 phi_2, g) =
Res_u(phi_1, g) Res_u(phi_2, g), so u is eliminated from each irreducible
factor phi_i, one RileyComponent each (riley_components), separately,
by a_factor.  Each result is a power of an irreducible:
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
divide phi, so phi(-M, u) = phi(M, u).  A component holds g = gcd(len,
every M-exponent of P and phi_i), 2 on all 410 Riley factors with
q <= 41, and phi_i(s, u), P(s, u) and len/g with s = M^g, still written
M, on which a_factor runs an engine.  This is exact: phi_i is
irreducible over Q(M), so K = F (x) Q(M), F = Q(s)[u]/phi_i, is a
field, and beta = P/M^len lies in F.  Its characteristic polynomial on
K over Q(M) is the one on F over Q(s), so it, its minimal polynomial, k
and the direct engine's resultant are the same over Z[s], read with
s = M^g.  lc_u stays +-s^a, c = s^(len/g) and every fit denominator
stays a power of s, so neither engine changes and g = 1 runs the same
code; the sign normalization, primitive part and monomial strip commute
with multiplying the factor's M-exponents back by g.  The sample points,
the degrees, _MAX_RECON_DEGREE and the EliminationError texts all count
in the engine's variable, s; a_factor appends "s = M^g" to such a text.
Factoring lifts in s first (_riley_factors): a factor of phi(s, u) from
one local factor stays irreducible over Z[M, u], while one from several
can split there (u^2 - s) and is lifted again in M.

Both engines start from R/M^len' = P/M^len, R = P mod phi_i over
Z[M, 1/M] (exact: lc_u(phi_i) = +-M^a is a unit there) times a power of
M, reduced once per component (_reduced_longitude).  Components of
u-degree at most _DIRECT_MAX_DEGREE run through the exact subresultant
engine directly, on phi_i and L*M^len' - R, which moves the resultant by
+-M^j only; its PRS runs over Z on Kronecker-packed coefficients
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
reconstruction lift.  The Riley points (M, u) and (1/M, u) have one
character, with the eigenvectors swapped, so the longitude eigenvalue goes
to 1/L; when phi_i is palindromic in M (every Riley factor with q <= 33
is), both lie on it, and A_i(1/M, 1/L) L^dL M^dM = +-A_i(M, L), the
symmetry CCGLS prove for every A-polynomial.  The slice at M = 1/m mod p
is then the slice at m reversed and made monic, so a fit on n nodes
computes the slices at M = 1..n/2 + 1 and mirrors the others
(_ahat_mod_p).  These real points lie below every prime, and so do their
squares (_ELIMINATION_PRIMES_FROM): every slice is defined and no
mirrored node is a real point.  Every fit takes the first large quotient
of its Euclid run, whose spare points are the fit's only check; a
factor's first prime fits on a doubling number of points, and each later
prime starts at the point count the degrees found need.
Rational reconstruction starts at a factor's first kept image, and the
first lift that passes three tests is returned: made monic in L at M = 2
it is the slice mod the next prime, which no image used (a screen); its
coefficients are integers; and, stripped of monomial, content and sign,
it is proved to vanish on the component: c^dL A(M, R/c) = 0 in Z[M,
1/M][u]/phi_i, c = M^len' (_verify_vanishing, exact, with no degree or
height bound).  Such a lift A is A_i, and the k read is the map degree:
the probe's e, a squarefree degree of slices of A_i^k, is at most
deg_L A_i = du/k, so k_read >= k and deg_L A = du // k_read <= deg_L
A_i; A vanishes at R/c, whose minimal polynomial over Q(M) is A_i, and
A != 0 (lc_L(A) = +-M^b by construction), so A_i divides A in Q(M)[L],
the degrees are equal, k_read = k, and A = r A_i with r in Z[M] by
Gauss's lemma (A_i is primitive); r divides lc_L(A), so r = +-M^j,
which the strip before the proof removed.  A lift past the screen that
fails the integer test or the proof shows a k read too large and raises
EliminationError naming the stage, the prime and k; a k too small,
which only tests that patch k reach, lifts A_i^k, which _power_root
refuses.  A factor whose coefficients lie within one prime's balanced
bound, about 2^14 for the engine's primes just above 2^29, takes one
prime and one slice to screen it.  Every A-factor a_factor returns is
proved: the modular engine's so, the direct engine's by its exact
resultant and k-th root.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, isqrt, prod
from operator import mul
from typing import NamedTuple

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


def _u_M_terms(poly):
    """[(u-exponent, M-exponent, coefficient)] of a polynomial in M and u."""
    return [(e_u, e_m, c) for (e_m, e_u), c in poly.in_variables(("M", "u")).terms.items()]


# a NamedTuple, immutable like a frozen dataclass, but about a tenth of
# the cost to define, which every fresh process pays on import
class RileyComponent(NamedTuple):
    """An irreducible factor phi_i of the Riley polynomial over Z[M, u]
    and what the engines read of it, in s = M^g (module docstring).

    g is the gcd of len and every M-exponent of phi_i and P.  ``phi`` and
    ``phi_terms`` are phi_i(s, u), ``p_terms`` is P(s, u) and ``length``
    is len/g, written in M, the terms as [(u-exponent, M-exponent,
    coefficient)]; ``r_terms`` and ``r_length`` are R and len'
    (_reduced_longitude) and ``du`` is deg_u(phi_i).  ``palindromic``
    says whether M^D phi(1/M, u) = phi(M, u), D the sum of phi's least and
    largest M-exponents, by one comparison of terms: up to sign is no
    wider, as lc_u(phi) is one term and must map to itself.  Only then
    does _ahat_mod_p mirror its sample points."""

    phi: MultiPoly
    g: int
    phi_terms: tuple
    p_terms: tuple
    length: int
    r_terms: tuple
    r_length: int
    du: int
    palindromic: bool

    @classmethod
    def of(cls, phi_i, p11, length, in_s=True):
        """phi_i's component, P = p11 given as a MultiPoly in M and u or as
        its _u_M_terms (riley_components converts P once for all its
        factors); in_s=False keeps M, with g = 1."""
        terms = _u_M_terms(phi_i), (p11 if isinstance(p11, list) else _u_M_terms(p11))
        g = gcd(length, *(e_m for part in terms for _, e_m, _ in part)) if in_s else 1
        phi_terms, p_terms = (tuple((e_u, e_m // g, c) for e_u, e_m, c in part)
                              for part in terms)
        top = min(e for _, e, _ in phi_terms) + max(e for _, e, _ in phi_terms)
        du, length = max(e for e, _, _ in phi_terms), length // g
        return cls(MultiPoly._of(("M", "u"), {(e_m, e_u): c for e_u, e_m, c in phi_terms}), g,
                   phi_terms, p_terms, length,
                   *_reduced_longitude(phi_terms, du, p_terms, length), du,
                   {(e_u, top - e_m, c) for e_u, e_m, c in phi_terms} == set(phi_terms))


# -- exact small-case engine -------------------------------------------------


def _apoly_direct(component):
    """(g, k) with g^k = Res_u(phi, L*M^length - P) rid of pure-M factors,
    for the component's phi, P and length.

    lc_u(phi) divides the Riley polynomial's, +-M^a (riley_polynomial
    checks it), so lc_L of the resultant is a monomial: its only pure-M
    factors are integers and powers of M.  Stripped of those in one pass
    (MultiPoly.normalized), R is g^k, g the minimal polynomial of
    P/M^length (module docstring)."""
    r = _direct_resultant(component)
    if r.is_zero():
        raise EliminationError("u-elimination produced the zero polynomial")
    return _power_root(r.normalized())


def _direct_resultant(component):
    """Res_u(phi, L*M^length - P) up to a factor +-M^j, for the
    component's phi, P and length.

    It is taken as Res_u(phi, L*M^length' - R), R = M^b (P mod phi) from
    _reduced_longitude: Res(phi, g) = lc^(deg g - deg r) Res(phi, r) for
    r = g mod phi, and Res(phi, M^b r) = M^(b du) Res(phi, r).  This
    replaces the subresultant PRS's first pseudo-remainder, whose du_P -
    du + 1 steps each rescale every coefficient of L*M^length - P by lc."""
    g = {(0, e_m, e_u): -c for e_u, e_m, c in component.r_terms}
    g[(1, component.r_length, 0)] = 1  # r_terms are nonzero, and have no L
    return poly_resultant(component.phi, MultiPoly._of(("L", "M", "u"), g), "u")


def _reduced_longitude(phi_terms, du, p_terms, length):
    """(R, length') with R/M^length' = P/M^length in Z[M, 1/M][u]/phi,
    phi of u-degree du, and phi, P and R as [(u-exponent, M-exponent,
    coefficient)], R of u-degree below du.

    lc_u(phi) = +-M^a is a unit of Z[M, 1/M], so there P mod phi is exact,
    each step an exponent shift; R = M^b (P mod phi), length' = length +
    b, b the least value making every exponent nonnegative.  On 6/35's
    u-degree-12 factor, in s = M^2, R has 69 terms, 13-bit coefficients
    and s-degree 6 with length' = 0; P has 351, 40 bits, 43 and 36."""
    cols = [{} for _ in range(du + 1)]
    for e_u, e_m, c in phi_terms:
        cols[e_u][e_m] = c
    [(a, sign)] = cols[du].items()  # lc_u(phi) = sign * M^a, sign = 1/sign
    low = [list(col.items()) for col in cols[:du]]
    rem = {}
    for e_u, e_m, c in p_terms:
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
    return tuple((e_u, e_m + b, c) for e_u, e_m, c in terms), length + b


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


class _PointCache:
    """A component's exact integer slices phi(m, u), R(m, u), m^length',
    shared by primes.

    R and length' are _reduced_longitude's, so R(m) has u-degree below
    du, and phi(m, u) has u-degree du at every m >= 1, since lc_u(phi) is
    +-M^a (riley_polynomial checks it for the Riley polynomial, and a
    factor's divides it).  A slice sums the terms of phi and R over one
    table of powers of m: R of 6/35's u-degree-12 factor has 69 terms of
    s-degree up to 6, where P has 351 up to 43.  ``k``, the map degree, is
    read by ``probe`` on the first prime.  The cache holds the real points
    alone: _ahat_mod_p mirrors the others."""

    def __init__(self, component):
        self.component = component
        self._dm = max(e_m for _, e_m, _ in component.phi_terms + component.r_terms)
        self.k = None
        self._data = {}
        self._inverses = {}
        self.matrix = None  # _proof._multiplier's, built by the first proof

    def get(self, m):
        if m not in self._data:
            c = self.component
            powers = list(itertools.accumulate(itertools.repeat(m, self._dm), mul, initial=1))
            phim, pm = [0] * (c.du + 1), [0] * c.du
            for out, terms in ((phim, c.phi_terms), (pm, c.r_terms)):
                for e_u, e_m, coeff in terms:
                    out[e_u] += coeff * powers[e_m]
            self._data[m] = (phim, _modp.ptrim(pm), m ** c.r_length)
        return self._data[m]

    def inverses(self, p):
        """[_, 1/1, ..., 1/du] mod p, for Newton's identities."""
        if p not in self._inverses:
            self._inverses[p] = [0] + [_modp.pinv(k, p, "_PointCache.inverses")
                                       for k in range(1, self.component.du + 1)]
        return self._inverses[p]

    def probe(self, p):
        """k = du // e, e the largest squarefree degree mod p of the
        slices with k = 1, whole characteristic polynomials, at M = 2..5.
        e <= deg_L(A) = du / k, so k is never read too small; too large,
        it fails _ahat_mod_p's mirror check or _apoly_modular's.  Returns
        the probe's slices for the k read: the characteristic polynomials
        themselves if k = 1, else read from their first du / k power sums
        as _slice_squarefree reads them."""
        self.k = 1
        chars = {m: _slice_squarefree(self, m, p) for m in range(2, 6)}
        e = max(len(c) - len(_modp.pgcd_monic(c, _modp.pderiv(c, p), p))
                for c in chars.values())
        du = self.component.du
        k = self.k = du // e
        if k == 1:
            return chars
        return {m: _minimal_slice(_power_sums(c[:-1], du // k, p)[1:],
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
    d, k = cache.component.du, cache.k
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
_FIRST_POINTS = 32  # a factor's first fit count, moved to 2n - 16 on failure


def _ahat_mod_p(cache, p, count):
    """Image of the A-polynomial mod p, +-A mod p.

    Returns (d, dden, coeffs, count) with coeffs mapping (L-power,
    M-power) to residues, normalized so the (d, dden) coefficient is 1,
    and count = max_j(a_j + b_j) + 2 + _modp.SPARE_POINTS over the
    (numerator, denominator) degrees of the reconstructed coefficient
    functions, the next prime's ``count``; None when the prime misbehaves.

    lc_L(A) is +-M^b (module docstring), so the slice at a good point is
    A(m, L)/(+-m^b), of degree d = du / k: coefficient j is
    +-A_j(M)/M^b, and a fit whose denominator is not a power of M rejects
    the prime.  Shifting every numerator to M^dden, dden the largest b,
    gives +-A mod p.

    Every coefficient is fitted on n nodes by _modp.cauchy_interpolate,
    which needs deg num + deg den + 2 + SPARE_POINTS <= n; the spare
    points are its only check.  The nodes are the real points M = 1..n,
    whose slices _slice_squarefree computes, or, when the component is
    palindromic, M = 1..n/2 + 1 and the inverses mod p of 2, 3, ... up to
    n nodes: A is reciprocal, so the slice at 1/m is the slice at m
    reversed and divided by its constant term (module docstring), +-m^e
    for an integer e.
    A zero constant term, or a failed first fit on a factor's first prime
    with a computed slice at 1/2 that differs from its mirror, shows
    slices that are no minimal polynomials, from a map degree k read too
    large, and raises EliminationError naming k.  n starts at
    ``count``, or 32 on a factor's first prime (count None), and moves to
    2n - 16 when a fit fails.  Degrees past _MAX_RECON_DEGREE raise
    EliminationError: they do not depend on the prime, since an unlucky
    prime only lowers them.  So n - 16 <= 2 * _MAX_RECON_DEGREE, and every
    real point and its square lie below p (_ELIMINATION_PRIMES_FROM)."""
    slices = {} if cache.k else cache.probe(p)  # the probe's points are slices too
    d = cache.component.du // cache.k
    palindromic = cache.component.palindromic
    npts = count or _FIRST_POINTS

    def wrong_k(why):
        return EliminationError(f"the map degree {cache.k} is wrong: mod {p}, {why}")

    def fit(npts):
        """Every coefficient function on npts nodes."""
        top = npts // 2 + 1 if palindromic else npts
        xs = list(range(1, top + 1))
        for m in xs:
            if m not in slices:
                slices[m] = _slice_squarefree(cache, m, p)
        for m in range(2, npts - top + 2):
            inv = _modp.pinv(m, p, "_ahat_mod_p")
            if inv not in slices:  # reversed, made monic: the slice at 1/m
                g = slices[m]
                if not g[0]:
                    raise wrong_k(f"the slice at {m} has constant term 0")
                c = _modp.pinv(g[0], p, "_ahat_mod_p")
                slices[inv] = [x * c % p for x in reversed(g)]
            xs.append(inv)
        xs = _modp.InterpolationNodes(xs, p)  # shared by the d fits
        recon = []
        for j in range(d):
            rf = _modp.cauchy_interpolate(xs, [slices[x][j] for x in xs], p)
            if rf is None:
                return None
            recon.append(rf)
        return recon

    spare = 2 + _modp.SPARE_POINTS
    recon = None
    while recon is None and npts - spare <= 2 * _MAX_RECON_DEGREE:
        recon = fit(npts)
        if recon is None and palindromic and count is None and npts == _FIRST_POINTS:
            half = _modp.pinv(2, p, "_ahat_mod_p")  # slices[half] holds the mirror
            if _slice_squarefree(cache, half, p) != slices[half]:
                raise wrong_k("the slice at 1/2 is not the mirror of the slice at 2")
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


def _apoly_modular(component):
    """(A, k): the component's A-polynomial factor by modular images and CRT.

    After each kept image the images so far are lifted by rational
    reconstruction; the first lift that passes the screen (_screened),
    has integer coefficients and is proved (_verify_vanishing) is
    returned, and one that passes the screen only raises (module
    docstring).  A kept image that disagrees with a small fraction the
    other images fit (see _lift) is dropped, so one wrong image costs
    primes, not the lift.  Past the cap the first prime raises: k is
    cached from it, so a later prime would repeat its fits."""
    cache = _PointCache(component)
    primes = _modp.prime_stream(_ELIMINATION_PRIMES_FROM)
    signature = count = None  # the kept images' (d, dden); the next prime's count
    p = next(primes)

    def failure(stage, prime, why):
        return EliminationError(f"modular elimination failed at its {stage}, mod {prime}, "
                                f"with map degree {cache.k}: {why}")

    for _ in range(_MAX_PRIMES):
        stage, q, p = "reconstruction", p, next(primes)  # q images, p screens its lift
        image = _ahat_mod_p(cache, q, count)
        if image is None:
            continue
        d, dden, coeffs, image_count = image
        if signature is not None and (d, dden) < signature:
            continue  # an unlucky prime: its count is not carried
        if (d, dden) != signature:  # the first image, or a larger signature: restart
            # images: (prime, coefficients) of the kept images
            signature, images, residues, modulus = (d, dden), [], {}, 1
        count = image_count
        images.append((q, coeffs))
        residues, modulus = _crt_fold(residues, modulus, coeffs, q)
        fracs, bad = _lift(residues, modulus, [r for r, _ in images])
        if bad:
            images = [(r, c) for r, c in images if r not in bad]
            residues, modulus = {}, 1
            for r, c in images:
                residues, modulus = _crt_fold(residues, modulus, c, r)
            fracs, _ = _lift(residues, modulus, ())
        if fracs is None:
            continue
        stage = "screen"
        if not _screened(fracs, d, cache, p):
            continue
        if any(f.denominator != 1 for f in fracs.values()):
            raise failure("screen", p, "the lift it passes has a non-integer coefficient")
        out = MultiPoly(("L", "M"), {key: int(f) for key, f in fracs.items()}).normalized()
        if not _verify_vanishing(out, cache):
            raise failure("proof", q, f"the lift passes the screen mod {p} and does not "
                          "vanish on the component")
        if _power_root(out)[1] != 1:
            raise failure("proof", q, f"the lift is a proper power, so the map degree "
                          f"{cache.k} was read too small")
        return out, cache.k
    raise failure(stage, q, f"no lift proved within {_MAX_PRIMES} primes")


def _screened(fracs, d, cache, p):
    """Whether the lift, fractions by (L-power, M-power), of L-degree d and
    made monic in L at M = 2, is the slice there mod p.  The slice is
    g(2, L) mod p (_slice_squarefree), which the true A(2, L) made monic
    reduces to at every prime; a denominator p divides fails."""
    vals = [0] * (d + 1)
    for (i, j), f in fracs.items():
        if f.denominator % p == 0:
            return False
        vals[i] += f.numerator * pow(f.denominator, -1, p) << j
    return all((x * vals[d] - v) % p == 0
               for x, v in zip(_slice_squarefree(cache, 2, p), vals))


def _verify_vanishing(apoly, cache):
    """Whether c^dL A(s, R/c) = 0 in Z[s, 1/s][u]/phi, c = s^len': the
    proof that A vanishes on the component (module docstring), in
    charvar/_proof.py, which loads on the first proof.  The name, from the
    six-point check it replaced, stays because perfbench/tracing.py wraps
    the function by it."""
    from . import _proof

    return _proof.vanishes(apoly, cache)


# -- public entry points -------------------------------------------------------


# a Riley component is eliminated directly when its u-degree is at most
# this, else by modular images (the table in the module docstring):
# direct wins 119 of the 121 timed factors of u-degree <= 6, 4 of the 7
# of u-degree 7 (8/63's takes 28.4 ms direct, 9.0 modular) and 10 of the
# 44 from u-degree 8 up (7/19's takes 874 ms direct, 35 modular).
_DIRECT_MAX_DEGREE = 6


def riley_components(p_over_q):
    """The Riley components of the two-bridge knot p/q, one per irreducible
    factor of its Riley polynomial, in _riley_factors' order."""
    pres = presentation(p_over_q)
    p11, length = longitude_data(pres)
    p_terms = _u_M_terms(p11)  # converted once, shared by the components
    return [RileyComponent.of(phi_i, p_terms, length)
            for phi_i in _riley_factors(riley_polynomial(pres), 1)]


def a_factor(component):
    """(A_i, k): the component's A-factor and map degree.

    The engine is the direct one up to u-degree _DIRECT_MAX_DEGREE, else
    the modular one, run in s = M^g; the factor's M-exponents are
    multiplied back by g.  An EliminationError's text counts in s, so
    with g > 1 it is raised again naming s."""
    engine = _apoly_direct if component.du <= _DIRECT_MAX_DEGREE else _apoly_modular
    g = component.g
    try:
        factor, k = engine(component)
    except EliminationError as err:
        if g == 1:
            raise
        raise EliminationError(f"{err} (in the engine's variable s = M^{g})") from err
    return MultiPoly._of(("L", "M"), {(i, j * g): c for (i, j), c in factor.terms.items()}), k


def a_polynomial(p_over_q, keep_abelian=False) -> APoly:
    """Nonabelian A-polynomial of the two-bridge knot p/q.

    keep_abelian multiplies the abelian factor (L - 1) back in.  The
    result records the irreducible factors, the distinct a_factor images
    of the Riley components, and their map degrees.
    """
    found = {}  # A-factor -> the least k of the components giving it
    for component in riley_components(p_over_q):
        factor, k = a_factor(component)
        found[factor] = min(k, found.get(factor, k))
    if keep_abelian:
        found[MultiPoly(("L", "M"), {(1, 0): 1, (0, 0): -1})] = 1

    factors = tuple(found)
    return APoly(prod(factors[1:], start=factors[0]), "full", factors, tuple(found.values()))


# -- factoring the Riley polynomial ---------------------------------------------


def _recombine(seeds, try_group):
    """Zassenhaus recombination: group local factors into true factors.

    Groups are tried smallest first; ``try_group(group, rest)`` returns the
    proven factor whose local image is the product of ``group`` (dividing
    it out of the caller's cofactor), or None.  Every irreducible factor
    is the product of a group of seeds, and the groups partition the
    seeds, so once no group of size below s divides, a dividing group of
    size s is irreducible.  Returns the (factor, group) pairs found and
    the remaining seeds; what is left of the caller's cofactor, their
    product, is irreducible.
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
                found.append((factor, group))
                seeds = rest
                break
        else:
            s += 1
    return found, seeds


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
# product of two has two digits.  They exceed the square of every real
# sample point: the largest that _ahat_mod_p reaches, on unmirrored
# nodes, is 2 * _MAX_RECON_DEGREE + 2 + _modp.SPARE_POINTS = 1040, below
# 2^12, so lc_u(phi_i(m)) = +-m^a and c = m^len are units mod p for every
# real point m and no slice is degenerate; and 1040^2 < 2^29, so a
# mirrored node 1/m mod p is never a real point m' (m * m' = 1 mod p has
# no solution with 1 < m * m' < p) and every node is distinct.
# A d = 12 slice of 6/35 takes 163 us against
# 285 us with primes above 2^61 (2-core x86-64, Python 3.11).
# One prime reconstructs coefficients up to about 2^14, so a larger factor
# takes more primes (10/99's u-degree-40 one, with 24-bit coefficients,
# two instead of one), but each costs about 0.6 as much.  The Riley
# factorization's Hensel lift keeps prime_stream's 2^61 primes: on 10/99
# it takes three bivariate lifts and 0.22 s, against five and 0.30 s from
# 2^29.
_ELIMINATION_PRIMES_FROM = 1 << 29

# _int_poly_factors first tries to prove its input irreducible from factor
# degrees mod small primes (_irreducible_by_degrees) up to this degree.
# Riley slices phi(m, u), q <= 19, m = 1..4, mean ms without -> with it
# (best of 5; 2-core x86-64, Python 3.11):
#
#     n  slices  irreducible  proved  ms
#    2-3    20        20         20   0.25 -> 0.04
#     4     12         8          8   0.45 -> 0.27
#     5     20        20         20   0.38 -> 0.12
#     6     24        23         16   0.58 -> 0.55
#     7     16         8          6   1.49 -> 1.78
#
# An undecided or reducible input pays for the test and then Zassenhaus, so
# reducible slices lose above 6: 4/15's and 6/35's, of u-degree 7 and 17.
_SCREEN_MAX_DEGREE = 6


def _irreducible_by_degrees(f):
    """True when f is proved irreducible over Q by Musser's degree-set
    test; False when undecided.

    For an odd prime p not dividing lc(f) with f squarefree mod p, a
    factor of degree d over Z reduces to a product of local factors of
    total degree d, so d is a sum of a subset of the degrees that
    distinct_degree finds mod p.  The proper degrees 1..n-1 that every
    such p allows are kept as a bit set; none left proves f irreducible
    (Musser, J. ACM 22, 1975; von zur Gathen and Gerhard, Modern Computer
    Algebra, chapter 15).  The test stops undecided when a usable prime
    past the second removes no degree, or after the odd primes below 42."""
    n = len(f) - 1
    allowed = (1 << n) - 2  # bit d: a factor of degree d not yet ruled out
    usable = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if not f[-1] % p:
            continue
        fp = _monic_product([f], p)
        if len(_modp.pgcd_monic(fp, _modp.pderiv(fp, p), p)) > 1:
            continue
        sums = 1  # bit s: a sum of local factor degrees
        for d, g in _modp.distinct_degree(fp, p):
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        usable += 1
        if allowed & sums == allowed and usable > 2:
            return False
        allowed &= sums
        if not allowed:
            return True
    return False


def _int_poly_factors(coeffs):
    """Irreducible factors over Z of a primitive integer polynomial.

    Returns primitive integer coefficient lists with positive leading
    coefficients, a repeated factor once per multiplicity; their product
    is the input up to sign.  Zassenhaus's algorithm: factor the
    squarefree part mod a prime p not dividing its discriminant
    (distinct-degree, then Cantor-Zassenhaus splitting seeded by p), lift
    to p^k past the Mignotte bound, and recombine; a candidate counts only
    when it divides exactly, so every factor returned is proved.  An input
    irreducible mod p stops after that test, and one of degree at most
    _SCREEN_MAX_DEGREE that _irreducible_by_degrees proves irreducible
    before it; an undecided one runs the whole algorithm, so the factors
    and their order do not depend on the screen.
    """
    f = list(coeffs)
    while f and f[-1] == 0:
        f.pop()
    if f and f[-1] < 0:
        f = [-c for c in f]
    if len(f) <= 2 or len(f) <= _SCREEN_MAX_DEGREE + 1 and _irreducible_by_degrees(f):
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

        factors = [factor for factor, _ in _recombine(lifted, try_group)[0]]
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
    in M), are the seeds that _lift_groups groups into factors.

    With two seeds or more and g > 1, g the gcd of phi's M-exponents,
    the groups are first lifted on psi(s, u) = phi(M, u), s = M^g, at
    s = m^g, which halves the lift's precision for g = 2 (every Riley
    polynomial has g = 2 or more).  A factor G of psi from one seed gives
    G(M^g, u), irreducible over Z[M, u]: a split G(M^g, u) = A * B with
    u-degrees >= 1 would split G(m^g, u) = A(m, u) * B(m, u) over Z, as
    lc_u = +-M^a does not vanish at m.  A factor from two seeds or more
    can split (u^2 - s), so it is lifted again in M from its own seeds.
    The slices phi(m, u) are summed from phi's terms.
    """
    terms, du = phi.in_variables(("M", "u")).terms, phi.degree("u")
    for m in range(m0, m0 + 2 * (du + 1) * (phi.degree("M") + 1)):
        col = [0] * (du + 1)
        for (e_m, e_u), c in terms.items():
            col[e_u] += c * m ** e_m
        seeds = _int_poly_factors(col)
        if len(set(map(tuple, seeds))) == len(seeds):
            break
    else:
        raise EliminationError(
            f"the Riley polynomial is not squarefree at M = {m0}..{m}")
    # one seed proves phi irreducible, and g = 0 skips building psi
    g = gcd(*(e_m for e_m, _ in terms)) if len(seeds) > 1 else 0
    if g < 2:
        return [factor for factor, _ in _lift_groups(phi, m, seeds)]
    psi = MultiPoly._of(("M", "u"), {(e_m // g, e_u): c for (e_m, e_u), c in terms.items()})
    factors = []
    for factor, group in _lift_groups(psi, m ** g, seeds):
        factor = MultiPoly._of(("M", "u"), {(e * g, j): c for (e, j), c in factor.terms.items()})
        factors += ([factor] if len(group) == 1
                    else [f for f, _ in _lift_groups(factor, m, group)])
    return factors


def _lift_groups(phi, m, seeds):
    """[(factor, seeds)]: the irreducible factors of phi over Z[M, u],
    primitive and lex-positive, each with the seeds, the factors of
    phi(m, u) over Z, whose product is its image.

    The seeds are grouped (_recombine); a group is lifted (M - m)-adically
    mod primes until their product passes twice the bound 2^(deg_M +
    deg_u) * ||phi||_2 on the coefficients of a factor (Mahler measure),
    and the candidate, rid of the monomial lc_u of its cofactor, counts
    only when it divides exactly."""
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

    found, rest = _recombine(seeds, try_group)
    found.append((cofactor.sign_normalized(), rest))
    return found


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

        matches = [i for i, f in enumerate(irreducible)
                   if {s.num if not s.is_infinite and s.den == 1 else s
                       for s in edge_slopes(newton_polygon(f))} == set(canonical_slopes)]
        if len(matches) == 1:
            tags = ["canonical" if i in matches else "other" for i in range(2)]
    ks = dict(zip(ap.factors, ap.map_degrees))
    return [APoly(f, t, map_degrees=(ks[f],) if ks else ())
            for f, t in zip(irreducible, tags)]
