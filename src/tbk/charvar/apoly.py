"""A-polynomials by resultant elimination.

The longitude word (reversed relator, then relator, then a meridian power
killing the exponent sum) maps to an upper-triangular matrix on the
nonabelian representation curve; its (1, 1) entry over the common scale
M^len is the longitude eigenvalue.  Eliminating the Riley variable u from

    { riley(M, u),  L * M^len - P(M, u) }

and normalizing (integer content, pure-M factors, repeated factors)
yields the nonabelian A-polynomial.  Small cases run through the
exact subresultant engine directly; larger ones are reconstructed from
modular images: per prime and per integer M-value the resultant is a cheap
scalar computation, the squarefree monic part of each slice is a rational
function of M in each coefficient, and Cauchy interpolation plus CRT and
rational reconstruction lift the exact integer polynomial.  The lifted
result is verified exactly (vanishing on the representation curve at
integer sample points) before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..exactnum import MultiPoly, QPoly, poly_resultant, poly_squarefree_part
from . import _modp
from .presentation import TwoBridgePresentation, presentation
from .riley import riley_polynomial, scaled_word_matrix


class EliminationError(RuntimeError):
    """The elimination degenerated (zero resultant or failed lift)."""


@dataclass(frozen=True)
class APoly:
    poly: MultiPoly
    component_tag: str = "full"

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("A-polynomial must be nonzero")
        if self.component_tag not in ("full", "canonical", "other"):
            raise ValueError(f"unknown component tag {self.component_tag!r}")


def longitude_data(pres: TwoBridgePresentation):
    """(P, lower_left, length): M^length * rho(longitude) top row data."""
    mat, length = scaled_word_matrix(pres.longitude_word())
    return mat[0], mat[2], length


# -- exact small-case engine -------------------------------------------------


def _apoly_direct(phi, p11, length):
    """Res_u(phi, L*M^length - P) with pure-M and repeated factors removed.

    The resultant's leading L-coefficient is lc_u(phi)^deg_u(P) times a
    power of M.  With lc_u(phi) a monomial that coefficient vanishes at no
    M = a != 0, so no factor (M - a) divides the resultant: its only
    pure-M factors are integers and powers of M."""
    lead = phi.coefficients_in("u")[-1]
    if len(lead) != 1:
        raise EliminationError(
            f"leading u-coefficient {lead} of the Riley polynomial "
            "is not a monomial")
    lm = MultiPoly.monomial(1, ("L", "M"), (1, length))
    r = poly_resultant(phi, lm - p11, "u")
    if r.is_zero():
        raise EliminationError("u-elimination produced the zero polynomial")
    r = poly_squarefree_part(r.strip_monomial())
    return r.drop_unused().in_variables(("L", "M"))


# -- modular reconstruction engine -------------------------------------------


def _in_M(c: MultiPoly) -> QPoly:
    """A polynomial in M alone (the zero polynomial too) as a dense QPoly."""
    col = [0] * (c.degree("M") + 1)
    for exps, coeff in c.terms.items():
        col[dict(zip(c.variables, exps)).get("M", 0)] += coeff
    return QPoly(col)


class _PointCache:
    """Exact integer slices phi(m, u), P(m, u), m^length, shared by primes."""

    def __init__(self, phi, p11, length):
        self.phi_tab = [_in_M(c) for c in phi.coefficients_in("u")]
        self.p_tab = [_in_M(c) for c in p11.coefficients_in("u")]
        self.length = length
        self.du_phi = len(self.phi_tab) - 1
        self._data = {}

    def get(self, m):
        if m not in self._data:
            phim = [col(m) for col in self.phi_tab]
            pm = [col(m) for col in self.p_tab]
            while phim and phim[-1] == 0:
                phim.pop()
            while pm and pm[-1] == 0:
                pm.pop()
            self._data[m] = (phim, pm, m ** self.length)
        return self._data[m]


def _slice_squarefree(cache, m, p):
    """Monic squarefree part of Res_u(phi(m), L*c - P(m)) over GF(p)[L].

    Returns None for degenerate slices (degree drops mod p).

    -P(m) is reduced mod phi(m) once, not at every L-node: with
    r = g mod f, Res(f, g) = lc(f)^(deg g - deg r) * Res(f, r), and that
    factor is the same at every node, so it cancels in the monic result.
    """
    phim, pm, c = cache.get(m)
    if len(phim) - 1 != cache.du_phi:
        return None
    fm = [x % p for x in phim]
    if fm[-1] == 0:
        return None
    cp = c % p
    if cp == 0:
        return None
    base = _modp.ptrim([(-x) % p for x in pm]) or [0]
    rem = _modp.pdivmod(base, fm, p)[1] or [0]
    vals = []
    ls = list(range(cache.du_phi + 1))
    for ell in ls:
        if len(base) == 1 and (base[0] + cp * ell) % p == 0:
            return None  # L-slice hit the zero polynomial
        g = list(rem)
        g[0] = (g[0] + cp * ell) % p
        vals.append(_modp.resultant_scalar(fm, _modp.ptrim(g), p))
    r = _modp.newton_interp(ls, vals, p)
    if len(r) - 1 != cache.du_phi:
        return None
    return _modp.squarefree_monic(r, p)


_MAX_RECON_DEGREE = 512


def _ahat_mod_p(cache, p, degree_hint=8):
    """Normalized image of the A-polynomial mod p.

    Returns (d, dden, coeffs, degree) with coeffs mapping (L-power,
    M-power) to residues, normalized so the (d, dden) coefficient is 1,
    and degree the largest numerator or denominator degree of the
    reconstructed coefficient functions, the next prime's degree_hint;
    None when the prime misbehaves.  Cauchy interpolation starts at
    degree bound degree_hint and doubles it until the fit holds."""
    slices = {}
    cursor = [0]

    def more_points(n):
        out = []
        m = cursor[0]
        while len(out) < n:
            m += 1
            if m in slices:
                if slices[m] is not None:
                    out.append(m)
                continue
            s = _slice_squarefree(cache, m, p)
            slices[m] = s
            if s is not None:
                out.append(m)
            if m > 50 * n + 2000:
                raise EliminationError("modular engine ran out of sample points")
        cursor[0] = m
        return out

    more_points(24)
    d = max(len(s) - 1 for s in slices.values() if s is not None)
    if d <= 0:
        return None

    def good_points(n):
        pts = [m for m, s in sorted(slices.items())
               if s is not None and len(s) - 1 == d]
        while len(pts) < n:
            more_points(n - len(pts))
            pts = [m for m, s in sorted(slices.items())
                   if s is not None and len(s) - 1 == d]
        return pts[:n]

    bound = degree_hint
    while True:
        if bound > _MAX_RECON_DEGREE:
            return None
        npts = 2 * bound + 10
        pts = good_points(npts)
        xs = [m % p for m in pts]
        recon = []
        ok = True
        for j in range(d):
            ys = [slices[m][j] for m in pts]
            rf = _modp.cauchy_interpolate(xs, ys, bound, bound, p)
            if rf is None:
                ok = False
                break
            recon.append(rf)
        if not ok:
            bound *= 2
            continue
        # held-out validation
        extra = good_points(npts + 6)[npts:]
        for m in extra:
            for j, (num, den) in enumerate(recon):
                dv = _modp.peval(den, m % p, p)
                if dv == 0 or (_modp.peval(num, m % p, p)
                               - slices[m][j] * dv) % p:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            break
        bound *= 2

    den = [1]
    for _, dj in recon:
        den = _modp.plcm(den, dj, p)
    dden = len(den) - 1
    coeffs = {}
    for k, c in enumerate(den):
        if c:
            coeffs[(d, k)] = c
    for j, (num, dj) in enumerate(recon):
        mult = _modp.pdivmod(den, dj, p)[0]
        cj = _modp.pmul(num, mult, p)
        for k, c in enumerate(cj):
            if c:
                coeffs[(j, k)] = c
    degree = max(len(f) - 1 for pair in recon for f in pair)
    return d, dden, coeffs, degree


_MAX_PRIMES = 400  # ~7000 digits of CRT capacity; far beyond honest use


def _apoly_modular(phi, p11, length):
    cache = _PointCache(phi, p11, length)
    primes = _modp.prime_stream()
    residues = {}
    modulus = 1
    signature = None
    degree_hint = 8
    used = 0
    candidate = None

    for _ in range(_MAX_PRIMES):
        p = next(primes)
        image = _ahat_mod_p(cache, p, degree_hint)
        if image is None:
            continue
        d, dden, coeffs, degree = image
        degree_hint = max(degree, 1)  # doubling would never grow a 0 bound
        if signature is None:
            signature = (d, dden)
        elif (d, dden) != signature:
            # disagreement: keep the larger signature, restart accumulation
            if (d, dden) > signature:
                signature, residues, modulus, used = (d, dden), {}, 1, 0
                candidate = None
            else:
                continue
        for key in set(residues) | set(coeffs):
            r_old = residues.get(key, 0)
            r_new = coeffs.get(key, 0)
            residues[key] = _modp.crt_pair(r_old, modulus, r_new, p)[0]
        modulus *= p
        used += 1
        if used < 2:
            continue
        fracs = {}
        for key, r in residues.items():
            f = _modp.rational_reconstruct(r, modulus)
            if f is None:
                fracs = None
                break
            if f != 0:
                fracs[key] = f
        if fracs is None:
            continue
        if candidate == fracs:
            break  # stable under one more prime
        candidate = fracs
    else:
        raise EliminationError(
            "modular reconstruction failed to stabilize "
            f"within {_MAX_PRIMES} primes")

    denom = 1
    for f in candidate.values():
        denom = denom * f.denominator // gcd(denom, f.denominator)
    terms = {}
    for (j, k), f in candidate.items():
        terms[(j, k)] = int(f * denom)
    out = MultiPoly(("L", "M"), terms).primitive_part().sign_normalized()
    _verify_vanishing(out, cache, points=6)
    return out


def _verify_vanishing(apoly, cache, points=6):
    """Exact check: A(P/c, m) = 0 mod phi(m, u) over Q at integer points."""
    cols = apoly.coefficients_in("L")
    d = len(cols) - 1
    checked = 0
    m = 0
    while checked < points:
        m += 1
        phim, pm, c = cache.get(m)
        if len(phim) - 1 != cache.du_phi or not phim:
            continue
        modulus = QPoly(phim)
        pred = QPoly(pm).divmod(modulus)[1]
        acc = QPoly()
        power = QPoly.const(1)
        for j in range(d + 1):
            scale = cols[j].evaluate({"M": m}) * c ** (d - j)
            if scale:
                acc = acc + power * scale
            if j < d:
                power = (power * pred).divmod(modulus)[1]
        if not acc.is_zero():
            raise EliminationError(
                f"reconstructed A-polynomial fails the exact curve check at M={m}")
        checked += 1


# -- public entry points -------------------------------------------------------


def a_polynomial(p_over_q, keep_abelian=False, engine="auto") -> APoly:
    """Nonabelian A-polynomial of the two-bridge knot p/q.

    keep_abelian multiplies the abelian factor (L - 1) back in.  engine is
    'direct' (exact subresultant), 'modular' (reconstruction), or 'auto'.
    """
    pres = presentation(p_over_q)
    phi = riley_polynomial(pres)
    p11, _, length = longitude_data(pres)

    if engine == "auto":
        du_p = max(p11.degree("u"), 1)
        engine = "direct" if phi.degree("u") * du_p <= 40 else "modular"
    if engine == "direct":
        poly = _apoly_direct(phi, p11, length)
    elif engine == "modular":
        poly = _apoly_modular(phi, p11, length)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    if keep_abelian:
        ab = MultiPoly(("L", "M"), {(1, 0): 1, (0, 0): -1})
        poly = (poly * ab).sign_normalized()
    return APoly(poly, "full")


# -- factor splitting ----------------------------------------------------------


def _int_poly_factors(coeffs):
    """Irreducible factors over Z of a primitive integer polynomial.

    Numeric root clustering proposes candidate factors (subsets of roots,
    leading coefficient a divisor of the input's); every candidate is
    verified by exact division, so the numerics only steer the search.
    Returns a list of primitive integer coefficient lists.
    """
    import itertools

    import numpy as np

    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 1:
        return [coeffs]
    roots = np.roots(list(reversed([float(c) for c in coeffs])))

    def divisors(n, scan_cap=100_000, count_cap=2000):
        # small divisors by bounded trial division; enough to steer the
        # search since every candidate is verified by exact division
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n and d <= scan_cap and len(out) < count_cap:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out) or [1]

    lead = coeffs[-1]
    for size in range(1, deg // 2 + 1):
        for subset in itertools.combinations(range(deg), size):
            prod = np.poly([roots[i] for i in subset])  # descending, monic
            for dlead in divisors(lead):
                cand = [round((dlead * c).real) for c in reversed(prod)]
                if abs(cand[-1]) != dlead:
                    continue
                if any(abs(dlead * c.real - r) > 0.3
                       for c, r in zip(reversed(prod), cand)):
                    continue
                quot, ok = _int_poly_div(coeffs, cand)
                if ok:
                    return _int_poly_factors(cand) + _int_poly_factors(quot)
    return [coeffs]


def _int_poly_div(a, b):
    """Exact division of integer coefficient lists; (quotient, ok).

    If b divides a in Z[x], b's leading and constant coefficients divide
    a's; a candidate failing either test is refused without dividing."""
    if a[-1] % b[-1] or (a[0] % b[0] if b[0] else a[0]):
        return [], False
    quot, rem = QPoly(a).divmod(QPoly(b))
    if not rem.is_zero() or any(c.denominator != 1 for c in quot.coeffs):
        return [], False
    return [int(c) for c in quot.coeffs], True


def _series_inverse(c, k):
    """Inverse of a power-series coefficient list mod t^k (c[0] != 0)."""
    inv = [Fraction(0)] * k
    inv[0] = 1 / Fraction(c[0])
    for i in range(1, k):
        acc = Fraction(0)
        for j in range(1, min(i, len(c) - 1) + 1):
            acc += c[j] * inv[i - j]
        inv[i] = -acc / c[0]
    return inv


def _shift_poly_in_M(poly, m0):
    """Coefficient tuples in t after substituting M = m0 + t, per L power."""
    return [_in_M(c).shift(m0).coeffs for c in poly.coefficients_in("L")]


def _hensel_bivariate(A: MultiPoly, g0, h0, m0, prec):
    """Lift a coprime seed factorization A(L, m0) ~ g0*h0 to Q[[M-m0]][L].

    g0, h0 are monic QPolys in L.  Returns the lifted g, times the leading
    series of A, as a list (per L power) of t-series coefficient lists."""
    cols = _shift_poly_in_M(A, m0)
    dL = len(cols) - 1
    lead = cols[-1]
    lead_inv = _series_inverse(lead, prec)

    def tmul(a, b):
        out = [Fraction(0)] * prec
        for i, x in enumerate(a[:prec]):
            if x:
                for j, y in enumerate(b[:prec]):
                    if i + j < prec:
                        out[i + j] += x * y
        return out

    # monic target series: f[j] = cols[j] / lead, f[dL] = 1
    f = [tmul(c, lead_inv) for c in cols[:-1]]
    f.append([Fraction(1)] + [Fraction(0)] * (prec - 1))

    _, s, t = g0.xgcd(h0)  # s*g0 + t*h0 = 1

    g = [[c] + [Fraction(0)] * (prec - 1) for c in g0.coeffs]
    h = [[c] + [Fraction(0)] * (prec - 1) for c in h0.coeffs]

    for k in range(1, prec):
        # e_k = coefficient of t^k in f - g*h, a polynomial in L
        e = []
        for j in range(dL + 1):
            acc = f[j][k] if k < prec else Fraction(0)
            for a in range(max(0, j - (len(h) - 1)), min(j, len(g) - 1) + 1):
                b = j - a
                for i in range(k + 1):
                    acc -= g[a][i] * h[b][k - i]
            e.append(acc)
        e = QPoly(e)
        if e.is_zero():
            continue
        # solve dg*h0 + dh*g0 = e with deg dg < deg g0
        q, dg = (t * e).divmod(g0)
        dh = s * e + q * h0
        for j, c in enumerate(dg.coeffs):
            if j < len(g) - 1 and c:
                g[j][k] += c
        for j, c in enumerate(dh.coeffs):
            if j < len(h) - 1 and c:
                h[j][k] += c
    # multiply back by the leading series to clear the monic normalization
    return [tmul(gj, lead) for gj in g[:-1]] + [list(lead[:prec])]


def _series_to_poly(cols, m0):
    """Back-substitute t = M - m0 and clear denominators into a MultiPoly."""
    terms = {}
    denom = 1
    for series in cols:
        for c in series:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    for j, series in enumerate(cols):
        shifted = QPoly([c * denom for c in series]).shift(-m0)
        for k, c in enumerate(shifted.coeffs):
            if c:
                assert c.denominator == 1
                terms[(j, k)] = terms.get((j, k), 0) + int(c)
    return MultiPoly(("L", "M"), terms)


def _split_once(A: MultiPoly):
    """One nontrivial factorization A = cand * partner over Z, or None.

    Seeds from a univariate factorization at an integer M value and lifts
    (M - m0)-adically; every proposed factor is verified by exact
    division, so the lift can only ever return true factors.
    """
    import itertools

    from ..exactnum import ExactDivisionError

    if A.degree("L") < 2:
        return None
    lead = A.coefficients_in("L")[-1]
    prec = A.degree("M") + (lead.degree("M") if not lead.is_zero() else 0) + 2

    for m0 in range(1, 12):
        if lead.evaluate({"M": Fraction(m0)}) == 0:
            continue
        f0 = [int(c.evaluate({"M": Fraction(m0)})) if not c.is_zero() else 0
              for c in A.coefficients_in("L")]
        factors = _int_poly_factors(f0)
        n = len(factors)
        if n < 2:
            continue
        for r in range(1, n // 2 + 1):
            for subset in itertools.combinations(range(n), r):
                if 2 * r == n and 0 not in subset:
                    continue  # the complementary subset is the same split
                g0 = h0 = QPoly.const(1)
                for i in range(n):
                    if i in subset:
                        g0 = g0 * QPoly(factors[i])
                    else:
                        h0 = h0 * QPoly(factors[i])
                if g0.gcd(h0).degree() > 0:
                    continue  # seed factors not coprime at this m0
                lifted = _hensel_bivariate(A, g0.monic(), h0.monic(), m0, prec)
                cand = _series_to_poly(lifted, m0).primitive_part().sign_normalized()
                if cand.degree("L") < 1:
                    continue
                try:
                    partner = A.exact_div(cand)
                except (ExactDivisionError, ZeroDivisionError):
                    continue
                return cand, partner.primitive_part().sign_normalized()
    return None


def split_components(ap: APoly, canonical_slopes=None):
    """Irreducible-over-Z factors of the nonabelian A-polynomial.

    When ``canonical_slopes`` (a set of integers) matches the edge-slope
    set of exactly one of two factors, the factors are tagged canonical /
    other; otherwise every factor is tagged 'full'.  Returns None when no
    splitting exists (within the seed search).
    """
    split = _split_once(ap.poly)
    if split is None:
        return None
    work = list(split)
    irreducible = []
    while work:
        f = work.pop()
        deeper = _split_once(f)
        if deeper is None:
            irreducible.append(f)
        else:
            work.extend(deeper)
    irreducible.sort(key=lambda f: (f.degree("L"), f.degree("M"), sorted(f.terms)))

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
    return [APoly(f, t) for f, t in zip(irreducible, tags)]
