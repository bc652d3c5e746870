import random
from fractions import Fraction

import pytest
import sympy

from tbk.exactnum import QPoly

X = sympy.Symbol("x")


def rand_qpoly(rng, max_degree=6):
    return QPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(0, max_degree + 1))])


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X, domain="QQ")


def from_sympy(poly):
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def test_divmod_identity():
    rng = random.Random(301)
    for _ in range(300):
        a, b = rand_qpoly(rng), rand_qpoly(rng)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            continue
        q, r = a.divmod(b)
        assert a == q * b + r
        assert r.is_zero() or r.degree() < b.degree()


def test_gcd_matches_sympy():
    rng = random.Random(303)
    for _ in range(200):
        common = rand_qpoly(rng, max_degree=3)
        a = rand_qpoly(rng, max_degree=4) * common
        b = rand_qpoly(rng, max_degree=4) * common
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
        assert a.gcd(b) == expected.monic()


def test_shift_round_trip_and_evaluation():
    rng = random.Random(304)
    for _ in range(200):
        p = rand_qpoly(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert p.shift(c).shift(-c) == p
        for _ in range(3):
            x = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
            assert p.shift(c)(x) == p(x + c)


def test_int_coefficients_stay_int():
    a = QPoly([3, -1, 4])
    b = QPoly([1, 5])
    for p in (a + b, a - b, a * b, a * 7, a.shift(2), -a):
        assert all(type(c) is int for c in p.coeffs), p
    assert type(a(3)) is int
    # division brings in Fractions, never floats
    q, r = a.divmod(QPoly([1, 2]))
    assert all(isinstance(c, Fraction) for c in q.coeffs + r.coeffs)
    assert all(isinstance(c, Fraction) for c in (a * 2).monic().coeffs)
