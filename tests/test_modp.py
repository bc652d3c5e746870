"""GF(p) helpers of the modular A-polynomial engine, against naive oracles."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy

from tbk.charvar import _modp, longitude_data, presentation, riley_polynomial
from tbk.charvar.apoly import (
    _ELIMINATION_PRIMES_FROM,
    _FACTOR_PRIMES_FROM,
    RileyComponent,
    _PointCache,
    _riley_factors,
    _slice_squarefree,
)

from oracles import (
    distinct_degree_by_powering,
    pdivmod_stepwise,
    sylvester_resultant,
    u_coefficients_at,
)

# the elimination's first prime, just above 2^29, and the first of the
# Riley factorization's Hensel primes, about 2^61
P29 = next(_modp.prime_stream(_ELIMINATION_PRIMES_FROM))
P61 = next(_modp.prime_stream())
SMALL_PRIMES = (101, 10007)


def lagrange(xs, ys, p):
    """Naive Lagrange interpolation over GF(p), one product per node."""
    out = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = _modp.pmul(basis, [(-xj) % p, 1], p)
                denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p)
        for k, c in enumerate(basis):
            out[k] = (out[k] + c * scale) % p
    return _modp.ptrim(out)


@pytest.mark.parametrize("p", (P29, P61) + SMALL_PRIMES)
@pytest.mark.parametrize("gaps", (False, True))
def test_newton_interp_matches_lagrange(p, gaps):
    # at P29 also the first prime's node counts, 26 -> 42 -> 74 by n -> 2n - 10
    rng = random.Random(p + gaps)
    for n in (1, 2, 5, 18, 40) + ((26, 42, 74) if p == P29 else ()):
        if gaps:
            xs = sorted(rng.sample(range(1, min(400, p)), n))
        else:
            start = rng.randrange(0, 50)
            xs = list(range(start, start + n))
        ys = [rng.randrange(p) for _ in xs]
        poly = _modp.newton_interp(xs, ys, p)
        assert poly == lagrange(xs, ys, p), (p, n)
        assert [_modp.peval(poly, x, p) for x in xs] == ys


def test_newton_interp_repeated_node_raises():
    with pytest.raises(ZeroDivisionError, match="newton_interp"):
        _modp.newton_interp([1, 2, 3, 2], [5, 6, 7, 8], P61)
    # nodes congruent mod p repeat too
    with pytest.raises(ZeroDivisionError, match="newton_interp"):
        _modp.newton_interp([1, 1 + 101], [5, 6], 101)


def test_zero_inverse_guards_name_the_function():
    with pytest.raises(ZeroDivisionError, match="pdivmod"):
        _modp.pdivmod([1, 2, 3], [1, 101], 101)
    with pytest.raises(ZeroDivisionError, match="pinv"):
        _modp.pinv(0, 101, "pinv")
    assert _modp.pinv(-1, 101, "pinv") == 100


def random_int_poly(rng, degree, p):
    coeffs = [rng.randint(-50, 50) for _ in range(degree)]
    lead = 0
    while lead % p == 0:
        lead = rng.randint(-50, 50)
    return coeffs + [lead]


@pytest.mark.parametrize("p", (P61,) + SMALL_PRIMES)
def test_resultant_scalar_matches_sympy(p):
    x = sympy.Symbol("x")
    rng = random.Random(p)
    for _ in range(25):
        f = random_int_poly(rng, rng.randint(1, 8), p)
        g = random_int_poly(rng, rng.randint(0, 8), p)
        expected = sylvester_resultant(f, g) % p
        got = _modp.resultant_scalar([c % p for c in f], [c % p for c in g], p)
        assert got == expected, (f, g, p)
        if len(f) >= len(g):
            fx = sum(c * x ** i for i, c in enumerate(f))
            gx = sum(c * x ** i for i, c in enumerate(g))
            assert sympy.resultant(fx, gx, x) % p == expected


def test_resultant_scalar_common_root_is_zero():
    # (x - 3)(x + 1) and (x - 3)(x^2 + 2): common root 3
    f = _modp.pmul([P61 - 3, 1], [1, 1], P61)
    g = _modp.pmul([P61 - 3, 1], [2, 0, 1], P61)
    assert _modp.resultant_scalar(f, g, P61) == 0


def test_crt_pair_composite_second_modulus():
    # second modulus 15 = 3 * 5 is composite
    for r1 in range(7):
        for r2 in range(15):
            x, m = _modp.crt_pair(r1, 7, r2, 15)
            assert m == 105
            assert x % 7 == r1 and x % 15 == r2
    # the engine's accumulation: composite first modulus, then a new prime
    primes = _modp.prime_stream()
    p1, p2, p3 = next(primes), next(primes), next(primes)
    x, m = _modp.crt_pair(12345, p1 * p2, 678, p3)
    assert m == p1 * p2 * p3
    assert x % (p1 * p2) == 12345 and x % p3 == 678
    # composite second modulus against a prime-power first one
    x, m = _modp.crt_pair(5, 2 ** 10, 11, p1 * p2)
    assert x % 2 ** 10 == 5 and x % (p1 * p2) == 11


def unreduced_slice(cache, p11, length, m, p):
    """Res_u(phi(m), L*c - P(m)) made monic, c = m^length, from scalar
    resultants with -P(m) + c*l used as is at the first du + 1 L-nodes
    l = 0, 1, ... below p where it is no zero polynomial; None when p has
    too few.  P(m) and c come from the longitude entry p11 itself, not
    from the engine's reduced data; phi(m) from ``cache``."""
    fm = [x % p for x in cache.get(m)[0]]
    pm = u_coefficients_at(p11, m)
    c = m ** length
    assert fm[-1] and c % p, (m, p)  # p does not divide m
    ls, vals = [], []
    for ell in range(p):
        if len(ls) > cache.component.du:
            break
        g = [(-x) % p for x in pm] or [0]
        g[0] = (g[0] + c * ell) % p
        g = _modp.ptrim(g)
        if g:
            ls.append(ell)
            vals.append(_modp.resultant_scalar(fm, g, p))
    if len(ls) <= cache.component.du:
        return None
    r = _modp.newton_interp(ls, vals, p)
    assert len(r) - 1 == cache.component.du, (m, p)
    return _modp.pscale(r, pow(r[-1], -1, p), p)


def check_minimal_slices(phi, p11, length, primes, points):
    """On an irreducible Riley factor phi, its component kept in M, with k
    read by the engine's probe mod P29: at every (m, p) the slice to the k
    is the monic unreduced resultant, and where p divides m
    _slice_squarefree raises.  Returns (k, slices, degenerate, short,
    few): degenerate counting the points p divides, short the slices whose
    resultant's squarefree part is shorter (at roots of the discriminant,
    where the slice still has degree du / k), and few the (m, p) skipped
    for too few L-nodes below p."""
    cache = _PointCache(RileyComponent.of(phi, p11, length, in_s=False))
    cache.probe(P29)
    k = cache.k
    slices = degenerate = short = few = 0
    for p in primes:
        if p <= cache.component.du:
            continue  # Newton's identities divide by 1..du
        for m in points:
            slices += 1
            if m % p == 0:
                with pytest.raises(ZeroDivisionError, match="_slice_squarefree"):
                    _slice_squarefree(cache, m, p)
                degenerate += 1
                continue
            expected = unreduced_slice(cache, p11, length, m, p)
            if expected is None:
                few += 1
                continue
            got = _slice_squarefree(cache, m, p)
            power = [1]
            for _ in range(k):
                power = _modp.pmul(power, got, p)
            assert power == expected, (phi, m, p)
            square_part = _modp.pgcd_monic(expected, _modp.pderiv(expected, p), p)
            short += len(expected) - len(square_part) < len(got) - 1
    return k, slices, degenerate, short, few


def test_slice_squarefree_matches_unreduced_resultants():
    # 4/15's Riley factors: u-degree 3 with k = 1 and u-degree 4 with k = 2;
    # P has the larger u-degree: the engine reduces it mod phi once per
    # factor, and the oracle's resultants take it unreduced
    pres = presentation(Fraction(4, 15))
    p11, length = longitude_data(pres)
    found = {}
    degenerate = short = 0
    for phi in _riley_factors(riley_polynomial(pres), 1):
        assert p11.degree("u") > phi.degree("u")
        k, _, d, s, few = check_minimal_slices(phi, p11, length,
                                               (P29, P61, 10007, 101, 13, 11), range(1, 25))
        found[phi.degree("u")] = k
        degenerate += d
        short += s
        assert few == 0
    assert found == {3: 1, 4: 2}
    assert degenerate > 0  # the small primes divide some points, and raise
    assert short > 0  # and the discriminant points (M = 1) are checked


@pytest.mark.parametrize("fraction", ("4/15", "6/35", "1/9", "8/21", "3/7"))
def test_characteristic_slice_matches_resultants_on_riley_factors(fraction):
    pres = presentation(Fraction(fraction))
    p11, length = longitude_data(pres)
    slices = degenerate = skipped = 0
    for phi in _riley_factors(riley_polynomial(pres), 1):
        _, n, d, _, few = check_minimal_slices(phi, p11, length,
                                               (P29, P61, 10007, 101, 13, 11), range(1, 25))
        slices += n
        degenerate += d
        skipped += few
    assert slices >= 24 * 3 and degenerate > 0
    assert skipped <= 4  # 6/35's u-degree-12 factor mod 13 lacks a 13th L-node at 4 points


@pytest.mark.parametrize("fraction", ("4/15", "6/35", "1/9"))
def test_probe_slices_are_the_slices_of_the_map_degree_read(fraction):
    # the probe's four points M^2 = 2..5 are slices of the k it reads: the
    # characteristic polynomials if k = 1, else the minimal polynomials read
    # from their power sums, as _slice_squarefree reads them with that k
    pres = presentation(Fraction(fraction))
    p11, length = longitude_data(pres)
    ks = []
    for phi in _riley_factors(riley_polynomial(pres), 1):
        for p in (P29, 10007, 101):
            cache = _PointCache(RileyComponent.of(phi, p11, length, in_s=False))
            probed = cache.probe(p)
            assert sorted(probed) == [2, 3, 4, 5]
            assert probed == {m: _slice_squarefree(cache, m, p) for m in probed}
            assert all(len(s) - 1 == cache.component.du // cache.k
                       for s in probed.values() if s)
        ks.append(cache.k)
    assert max(ks) > 1


def test_cauchy_fits_share_their_node_work(monkeypatch):
    # fits at one InterpolationNodes build prod(X - x_i) and the Lagrange
    # basis once, and give what fits at a plain node list give; the
    # product vanishes at every node
    rng = random.Random(17)
    xs = list(range(1, 31))
    built = []
    mul_linear = _modp._mul_linear

    def counted(*args):
        built.append(args[1])
        return mul_linear(*args)

    monkeypatch.setattr(_modp, "_mul_linear", counted)
    nodes = _modp.InterpolationNodes(xs, P29)
    assert built == xs
    fits = []
    for _ in range(6):
        num = [rng.randrange(P29) for _ in range(rng.randint(1, 12))]
        ys = [_modp.peval(num, x, P29) for x in xs]
        fits.append((ys, _modp.cauchy_interpolate(nodes, ys, P29)))
        assert fits[-1][1] == (num, [1])
        assert _modp.newton_interp(nodes, ys, P29) == lagrange(xs, ys, P29)
    assert len(built) == len(xs)
    for ys, fit in fits:
        assert _modp.cauchy_interpolate(xs, ys, P29) == fit
    assert nodes.product[-1] == 1 and len(nodes.product) == 31
    assert all(_modp.peval(nodes.product, x, P29) == 0 for x in xs)
    # nodes built mod another prime are rebuilt
    other = _modp.cauchy_interpolate(nodes, fits[0][0], 10007)
    assert other == _modp.cauchy_interpolate(xs, fits[0][0], 10007)


def test_pdivmod_matches_stepwise_reduction():
    rng = random.Random(11)
    for p in (3, 101, P61):
        for _ in range(200):
            b = [rng.randrange(p) for _ in range(rng.randint(0, 12))] + [rng.randrange(1, p)]
            a = _modp.ptrim([rng.randrange(p) for _ in range(rng.randint(0, 30))])
            assert _modp.pdivmod(a, b, p) == pdivmod_stepwise(a, b, p), (a, b, p)
        # an exact division leaves the empty remainder
        g, h = [1, 2, 1], [p - 1, 0, 1]
        assert _modp.pdivmod(_modp.pmul(g, h, p), h, p) == (g, [])


def monic_coeffs(poly, p):
    """A sympy Poly over GF(p) as a monic ascending residue list."""
    c = [int(a) % p for a in reversed(poly.all_coeffs())]
    inv = pow(c[-1], -1, p)
    return [a * inv % p for a in c]


@pytest.mark.parametrize("p", (3, 101, 10007, 32771))
def test_distinct_and_equal_degree_match_sympy(p):
    x = sympy.Symbol("x")
    rng = random.Random(p)
    checked = split = 0
    while checked < 25:
        f = [rng.randrange(p) for _ in range(rng.randint(1, 14))] + [1]
        if len(_modp.pgcd_monic(f, _modp.pderiv(f, p), p)) > 1:
            continue  # both routines take squarefree input
        _, ref = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        expected = sorted(monic_coeffs(g, p) for g, _ in ref)
        ddf = _modp.distinct_degree(f, p)
        assert [d for d, _ in ddf] == sorted({len(g) - 1 for g in expected})
        got = []
        for d, gd in ddf:
            product = [1]
            for g in expected:
                if len(g) - 1 == d:
                    product = _modp.pmul(product, g, p)
            assert gd == product, (f, d)
            parts = _modp.equal_degree(gd, d, p, random.Random(checked))
            assert all(len(g) - 1 == d for g in parts)
            split += len(parts) > 1
            got += parts
        assert sorted(got) == expected, f
        checked += 1
    assert split > 0  # Cantor-Zassenhaus split some equal-degree products


@pytest.mark.parametrize("p", (3, 101, 32771))
def test_frobenius_distinct_degree_matches_repeated_powering(p):
    # random monic squarefree f of degree up to 30, many with several
    # distinct-degree parts: the Frobenius-matrix steps (rows reduced when
    # a part splits off) against log2 p squarings per step
    rng = random.Random(p)
    checked = parts = 0
    while checked < 40:
        f = [rng.randrange(p) for _ in range(rng.randint(0, 30))] + [1]
        if len(_modp.pgcd_monic(f, _modp.pderiv(f, p), p)) > 1:
            continue
        got = _modp.distinct_degree(f, p)
        assert got == distinct_degree_by_powering(f, p), f
        parts += len(got) > 2
        checked += 1
    assert parts > 0


def test_frobenius_distinct_degree_on_riley_slices():
    # phi(2, u) of every p/q with q <= 45 and p <= 4, u-degrees 1 to 22,
    # mod the Riley factorization's first prime at which it is squarefree,
    # as _int_poly_factors takes it
    count = split = 0
    for q in range(3, 46, 2):
        for p in range(1, min(4, q - 1) + 1):
            if gcd(p, q) != 1:
                continue
            phi = riley_polynomial(presentation(Fraction(p, q)))
            values = [int(c.evaluate({"M": 2})) for c in phi.coefficients_in("u")]
            for prime in _modp.prime_stream(_FACTOR_PRIMES_FROM):
                f = [c % prime for c in values]
                if f[-1] and len(_modp.pgcd_monic(f, _modp.pderiv(f, prime), prime)) == 1:
                    break
            f = _modp.pscale(f, pow(f[-1], -1, prime), prime)
            got = _modp.distinct_degree(f, prime)
            assert got == distinct_degree_by_powering(f, prime), (p, q)
            split += len(got) > 1
            count += 1
    assert count == 79
    assert split > 0


def test_pinvmod():
    rng = random.Random(5)
    for p in (101, P61):
        for _ in range(20):
            f = [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
            a = _modp.ptrim([rng.randrange(p) for _ in range(len(f) + 2)])
            if len(_modp.pgcd_monic(f, a, p)) > 1:
                continue
            inv = _modp.pinvmod(a, f, p)
            assert len(inv) < len(f)
            assert _modp.pdivmod(_modp.pmul(a, inv, p), f, p)[1] == [1]
    # (x + 1) divides both: no inverse
    with pytest.raises(ZeroDivisionError, match="pinvmod"):
        _modp.pinvmod([1, 1], [1, 2, 1], 101)


# (numerator, denominator) degree splits for the Cauchy tests: b = 0 is
# the engine's case (polynomial coefficient functions), a = 0 a constant
# numerator.
SPLITS = ((0, 0), (8, 0), (22, 0), (0, 1), (0, 7), (5, 3), (3, 9), (12, 12))


def random_rational_function(rng, a, b, xs, p):
    """Coprime num, monic den of degrees (a, b), den nonzero at every node."""
    while True:
        num = [rng.randrange(p) for _ in range(a)] + [rng.randrange(1, p)]
        den = [rng.randrange(p) for _ in range(b)] + [1]
        if (len(_modp.pgcd_monic(num, den, p)) == 1
                and all(_modp.peval(den, x, p) for x in xs)):
            return num, den


def assert_fits_every_node(fit, xs, ys, p):
    """An accepted fit has den(x_i) != 0 and num(x_i) = y_i * den(x_i)."""
    if fit is not None:
        num, den = fit
        for x, y in zip(xs, ys):
            dv = _modp.peval(den, x, p)
            assert dv and (_modp.peval(num, x, p) - y * dv) % p == 0, (x, fit)


def nodes(rng, n, gaps, p):
    if gaps:
        return sorted(rng.sample(range(1, min(p, 10 ** 6)), n))
    return list(range(1, n + 1))


@pytest.mark.parametrize("p", (P29, P61, 1000003, 10007))
@pytest.mark.parametrize("gaps", (False, True))
def test_cauchy_max_quotient_recovers_rational_functions(p, gaps):
    rng = random.Random(p * 2 + gaps)
    for a, b in SPLITS:
        need = a + b + 2 + _modp.SPARE_POINTS
        xs = nodes(rng, 2 * max(a, b) + 32 + _modp.SPARE_POINTS, gaps, p)
        num, den = random_rational_function(rng, a, b, xs, p)
        ys = [_modp.peval(num, x, p) * pow(_modp.peval(den, x, p), -1, p) % p
              for x in xs]
        for n in (need, need + 1, need + 7, len(xs)):
            assert _modp.cauchy_interpolate(xs[:n], ys[:n], p) == (num, den)
        for n in range(max(1, a + b - 4), need):
            assert _modp.cauchy_interpolate(xs[:n], ys[:n], p) is None, n
        # the symmetric bound B on 2B + 2 + SPARE_POINTS points, wherever it
        # covers (a, b)
        for bound in range(max(a, b), max(a, b) + 15, 2):
            n = 2 * bound + 2 + _modp.SPARE_POINTS
            assert n <= len(xs)
            assert _modp.cauchy_interpolate(xs[:n], ys[:n], p) == (num, den)
        # one value off: a fit, wherever one is accepted, matches every node
        bad = list(ys)
        bad[rng.randrange(need)] += rng.randrange(1, p)
        for n in range(need, need + 8):
            assert_fits_every_node(
                _modp.cauchy_interpolate(xs[:n], bad[:n], p), xs[:n], bad[:n], p)
    # the zero function, and data no low-degree function fits
    xs = nodes(rng, 40, gaps, p)
    assert _modp.cauchy_interpolate(xs, [0] * 40, p) == ([], [1])
    noise = [rng.randrange(p) for _ in xs]
    assert _modp.cauchy_interpolate(xs, noise, p) is None
    for n in range(1, len(xs)):
        assert_fits_every_node(_modp.cauchy_interpolate(xs[:n], noise[:n], p),
                               xs[:n], noise[:n], p)


@pytest.mark.parametrize("p", (P29, P61, 101))
def test_cauchy_accepted_fits_are_coprime(p):
    # with no gcd taken, every accepted fit is coprime with a monic den: on
    # seeded rational functions, on them with one value off, and on noise,
    # over every prefix of the nodes
    rng = random.Random(p + 7)
    accepted = 0
    for trial in range(30):
        a, b = rng.randint(0, 8), rng.randint(0, 8)
        xs = nodes(rng, a + b + 2 + _modp.SPARE_POINTS + rng.randint(0, 12), trial % 2, p)
        num, den = random_rational_function(rng, a, b, xs, p)
        ys = [_modp.peval(num, x, p) * pow(_modp.peval(den, x, p), -1, p) % p
              for x in xs]
        bad = list(ys)
        bad[rng.randrange(len(xs))] += rng.randrange(1, p)
        noise = [rng.randrange(p) for _ in xs]
        for values in (ys, bad, noise):
            for n in range(1, len(xs) + 1):
                fit = _modp.cauchy_interpolate(xs[:n], values[:n], p)
                if fit is not None:
                    f, g = fit
                    assert g[-1] == 1 and _modp.pgcd_monic(f, g, p) == [1], (fit, n)
                    accepted += 1
    assert accepted > 100


@pytest.mark.parametrize("p", (P29, P61))
def test_cauchy_spare_points_cover_six_held_out_checks(monkeypatch, p):
    # a fit on n nodes with six spare points fewer, then checked at six
    # held-out points one by one, accepts exactly the fits that one fit on
    # all n + 6 accepts, and returns the same pair: on seeded rational
    # functions around the point count their degrees need, with and
    # without one value off
    rng = random.Random(p + 24)
    held = 6

    def held_out_rule(xs, ys):
        with monkeypatch.context() as m:
            m.setattr(_modp, "SPARE_POINTS", _modp.SPARE_POINTS - held)
            fit = _modp.cauchy_interpolate(xs[:-held], ys[:-held], p)
        if fit is None:
            return None
        num, den = fit
        for x, y in zip(xs[-held:], ys[-held:]):
            dv = _modp.peval(den, x, p)
            if dv == 0 or (_modp.peval(num, x, p) - y * dv) % p:
                return None
        return fit

    accepted = 0
    for trial in range(80):
        a, b = rng.randint(0, 12), rng.randint(0, 12)
        n = a + b + 2 + _modp.SPARE_POINTS + rng.randint(-3, 6)
        xs = nodes(rng, n, trial % 2, p)
        num, den = random_rational_function(rng, a, b, xs, p)
        ys = [_modp.peval(num, x, p) * pow(_modp.peval(den, x, p), -1, p) % p
              for x in xs]
        bad = list(ys)
        bad[rng.randrange(n)] += rng.randrange(1, p)
        for values in (ys, bad):
            fit = _modp.cauchy_interpolate(xs, values, p)
            assert held_out_rule(xs, values) == fit, (a, b, n)
            assert fit is None or fit == (num, den)
            accepted += fit is not None
    assert 40 < accepted < 80  # clean values on enough nodes only


def test_cauchy_degree_bounds_too_few_points():
    # x^2 on SPARE_POINTS + 3 points: a quotient of degree SPARE_POINTS + 1,
    # one short of the SPARE_POINTS + 2 needed; one point more fits
    n = _modp.SPARE_POINTS + 3
    xs = list(range(1, n + 2))
    ys = [x * x % 101 for x in xs]
    assert _modp.cauchy_interpolate(xs[:3], ys[:3], 101) is None
    assert _modp.cauchy_interpolate(xs[:n], ys[:n], 101) is None
    assert _modp.cauchy_interpolate(xs, ys, 101) == ([0, 0, 1], [1])


def test_cauchy_stops_at_the_first_large_quotient(monkeypatch):
    # a degree-22 polynomial on 22 + SPARE_POINTS + 4 points is its own
    # interpolant, and the first quotient, prod(x - x_i) div it, has degree
    # SPARE_POINTS + 4: the fit takes that pair with no Euclid step and no
    # division, since an accepted pair is coprime
    p = 10007
    rng = random.Random(22)
    xs = list(range(1, 22 + _modp.SPARE_POINTS + 5))
    num, den = random_rational_function(rng, 22, 0, xs, p)
    ys = [_modp.peval(num, x, p) for x in xs]
    calls = []
    pdivmod = _modp.pdivmod

    def counted(*args):
        calls.append(args)
        return pdivmod(*args)

    monkeypatch.setattr(_modp, "pdivmod", counted)
    assert _modp.cauchy_interpolate(xs, ys, p) == (num, den)
    assert len(calls) == 0


def assert_valid_reconstruction(f, r, m):
    """f is reduced, within n^2, d^2 <= m/2 and congruent to r mod m."""
    n, d = f.numerator, f.denominator
    assert d > 0 and gcd(n, d) == 1
    assert 2 * n * n <= m and 2 * d * d <= m, (f, m)
    assert (n - r * d) % m == 0, (f, r, m)


@pytest.mark.parametrize("primes", (1, 2))
def test_rational_reconstruct_recovers_fractions(primes):
    # one elimination prime (a factor's first image) and a two-prime modulus
    stream = _modp.prime_stream(_ELIMINATION_PRIMES_FROM)
    m = 1
    for _ in range(primes):
        m *= next(stream)
    bound = isqrt(m // 2)
    rng = random.Random(m)
    cases = [(bound, 1), (-bound, 1), (1, bound), (-1, bound),
             (bound, bound - 1), (-(bound - 1), bound)]
    for _ in range(200):
        top = rng.choice((bound, bound - rng.randrange(1, 1000), rng.randrange(1, bound)))
        cases.append((rng.randint(-top, top), rng.randint(1, top)))
    for n, d in cases:
        f = Fraction(n, d)
        r = f.numerator * pow(f.denominator, -1, m) % m
        got = _modp.rational_reconstruct(r, m)
        assert got == f, (n, d)
        assert_valid_reconstruction(got, r, m)
        # negative representatives of the residue give the same fraction
        assert _modp.rational_reconstruct(r - m, m) == f


def test_rational_reconstruct_zero():
    for m in (2, 101, P61, P61 * 10007):
        assert _modp.rational_reconstruct(0, m) == 0
        assert _modp.rational_reconstruct(m, m) == 0
        assert _modp.rational_reconstruct(-3 * m, m) == 0
    for m in (101, P61, P61 * 10007):
        assert _modp.rational_reconstruct(-1, m) == -1
        assert _modp.rational_reconstruct(-2 * pow(3, -1, m), m) == Fraction(-2, 3)


@pytest.mark.parametrize("m", (101, 103, 105, 162, 1001, 4096))
def test_rational_reconstruct_exhaustive(m):
    # every residue of a small modulus (odd, composite, 2 * 9^2 at the
    # exact bound, a prime power): n/d exactly when a reduced fraction
    # within the bound, d prime to m, is congruent to it, and then that one
    bound = isqrt(m // 2)
    fits = {}
    for d in range(1, bound + 1):
        if gcd(d, m) == 1:
            for n in range(-bound, bound + 1):
                if gcd(n, d) == 1:
                    fits.setdefault(n * pow(d, -1, m) % m, set()).add(Fraction(n, d))
    for r in range(m):
        got = _modp.rational_reconstruct(r, m)
        if got is None:
            assert r not in fits, (r, m)
        else:
            assert got in fits[r], (r, m)
            assert_valid_reconstruction(got, r, m)


def test_rational_reconstruct_random_residues_are_valid():
    rng = random.Random(11)
    stream = _modp.prime_stream()
    p1, p2 = next(stream), next(stream)
    for m in (p1, p1 * p2):
        found = 0
        for _ in range(500):
            r = rng.randrange(-m, m)
            got = _modp.rational_reconstruct(r, m)
            if got is not None:
                found += 1
                assert_valid_reconstruction(got, r, m)
        assert found > 0
