"""GF(p) helpers of the modular A-polynomial engine, against naive oracles."""

import random
from fractions import Fraction

import pytest
import sympy

from tbk.charvar import _modp, longitude_data, presentation, riley_polynomial
from tbk.charvar.apoly import _PointCache, _slice_squarefree

P61 = next(_modp.prime_stream())  # the engine's first prime, about 2^61
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


@pytest.mark.parametrize("p", (P61,) + SMALL_PRIMES)
@pytest.mark.parametrize("gaps", (False, True))
def test_newton_interp_matches_lagrange(p, gaps):
    rng = random.Random(p + gaps)
    for n in (1, 2, 5, 18, 40):
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


def sylvester_resultant(f, g):
    """Res(f, g) over Z as the determinant of the Sylvester matrix.

    sympy.resultant itself is not used as the oracle: with sympy 1.14 its
    sign is wrong for some pairs with deg f < deg g, both odd (for
    example it gives 31 for Res(-2x - 1, x^5 + 1) = -31)."""
    m, n = len(f) - 1, len(g) - 1
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det()


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


def unreduced_slice(cache, m, p):
    """The slice with -P(m) + c*l used as is at every L-node."""
    phim, pm, c = cache.get(m)
    if len(phim) - 1 != cache.du_phi:
        return None
    fm = [x % p for x in phim]
    if fm[-1] == 0 or c % p == 0:
        return None
    vals = []
    ls = list(range(cache.du_phi + 1))
    for ell in ls:
        g = [(-x) % p for x in pm] or [0]
        g[0] = (g[0] + c * ell) % p
        g = _modp.ptrim(g)
        if not g:
            return None
        vals.append(_modp.resultant_scalar(fm, g, p))
    r = _modp.newton_interp(ls, vals, p)
    if len(r) - 1 != cache.du_phi:
        return None
    return _modp.squarefree_monic(r, p)


def test_slice_squarefree_matches_unreduced_resultants():
    pres = presentation(Fraction(4, 15))
    p11, _, length = longitude_data(pres)
    cache = _PointCache(riley_polynomial(pres), p11, length)
    assert cache.du_phi == 7 and len(cache.p_tab) - 1 > cache.du_phi
    degenerate = 0
    # primes above du_phi + 1, so that the L-nodes 0..du_phi stay distinct
    for p in (P61, 10007, 101, 13, 11):
        for m in range(1, 25):
            expected = unreduced_slice(cache, m, p)
            assert _slice_squarefree(cache, m, p) == expected, (m, p)
            degenerate += expected is None
    assert degenerate > 0  # the small primes hit degenerate slices
