import random
from fractions import Fraction

import pytest
import sympy

from tbk.exactnum import MultiPoly, QPoly

from oracles import random_multipoly

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
    # division by a leading coefficient +-1 stays in Z; any other brings
    # in Fractions, never floats
    for divisor in (QPoly([5, 1]), QPoly([2, 0, -1])):
        q, r = a.divmod(divisor)
        assert all(type(c) is int for c in q.coeffs + r.coeffs), divisor
        assert q * divisor + r == a
    q, r = a.divmod(QPoly([1, 2]))
    assert all(isinstance(c, Fraction) for c in q.coeffs + r.coeffs)
    assert all(isinstance(c, Fraction) for c in (a * 2).monic().coeffs)


def rand_zpoly(rng, max_degree=7):
    return QPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, max_degree + 1))])


def test_prem_matches_sympy_over_z():
    rng = random.Random(305)
    for _ in range(300):
        a, b = rand_zpoly(rng), rand_zpoly(rng)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.prem(b)
            continue
        r = a.prem(b)
        assert all(type(c) is int for c in r.coeffs)
        expected = sympy.prem(to_sympy(a).as_expr(), to_sympy(b).as_expr(), X)
        assert to_sympy(r) == sympy.Poly(expected, X, domain="QQ"), (a, b)


def test_prem_matches_sympy_over_z_lm():
    # coefficients in Z[L, M]: sympy.prem in x over the domain ZZ[L, M]
    rng = random.Random(306)
    L, M = sympy.symbols("L M")
    ring = sympy.ZZ[L, M]

    def to_poly(p):
        return sympy.Poly.from_dict(
            {(k,): ring.ring.from_dict(col.in_variables(("L", "M")).terms)
             for k, col in enumerate(p.coeffs)}, X, domain=ring)

    def coeff():
        return random_multipoly(rng, ("L", "M"), max_degree=2, terms=3)

    for _ in range(60):
        a, b = (QPoly([coeff() for _ in range(rng.randint(1, n))]) for n in (7, 4))
        if b.is_zero():
            continue
        # b * (c3 x^3 + c0) + (low terms of a): the quotient's gaps drop
        # the remainder's degree by more than one at a step
        gappy = b * QPoly([coeff(), 0, 0, coeff()]) + QPoly(a.coeffs[:b.degree()])
        for f in (a, gappy):
            r = f.prem(b)
            assert all(isinstance(c, MultiPoly) for c in r.coeffs)
            assert to_poly(r) == to_poly(f).prem(to_poly(b)), (f, b)


class Counted:
    """An integer that counts the ring products made with it."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)

    def __sub__(self, other):
        return Counted(self.v - other.v)

    def __bool__(self):
        return bool(self.v)


def test_prem_product_count():
    # a degree-6 by degree-3 pseudo-remainder with no early degree drop
    # takes 4 steps; popping the cancelled leading term costs
    # 6 + 5 + 4 + 3 scalings and 3 products with g's lower terms per step,
    # 30 in all, where scaling the whole remainder and cancelling the
    # leading term by a product took 7 + 6 + 5 + 4 + 4 * 4 = 38
    a = [3, -1, 4, 1, -5, 9, 2]
    b = [6, -5, 3, 5]
    Counted.products = 0
    r = QPoly([Counted(c) for c in a]).prem(QPoly([Counted(c) for c in b]))
    assert Counted.products == 30
    assert [c.v for c in r.coeffs] == list(QPoly(a).prem(QPoly(b)).coeffs)
    assert QPoly(a).prem(QPoly(b)).degree() == 2
