"""Exact factoring over Z[x] and Z[M, u] against sympy.factor_list."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from tbk.charvar import _modp, apoly, presentation, riley_polynomial
from tbk.charvar.apoly import (
    _in_M,
    _int_poly_factors,
    _irreducible_by_degrees,
    _riley_factors,
    riley_components,
)
from tbk.exactnum import MultiPoly

X = sympy.Symbol("x")


def normalized(coeffs):
    """Primitive ascending integer list with a positive leading coefficient."""
    coeffs = [int(c) for c in coeffs]
    content = gcd(*coeffs)
    sign = 1 if coeffs[-1] > 0 else -1
    return tuple(sign * c // content for c in coeffs)


def sympy_factors(coeffs):
    """Irreducible factors over Z, once per multiplicity, sorted."""
    _, factors = sympy.Poly(list(reversed(coeffs)), X).factor_list()
    out = []
    for g, e in factors:
        out += [normalized(reversed(g.all_coeffs()))] * e
    return sorted(out)


def factors_of(coeffs):
    found = _int_poly_factors(coeffs)
    for f in found:
        assert f[-1] > 0 and gcd(*f) == 1
    return sorted(tuple(f) for f in found)


def riley_at(phi, m0):
    return [int(_in_M(c)(m0)) for c in phi.coefficients_in("u")]


def test_int_poly_factors_on_riley_slices():
    # phi(2, u) for every p/q with q <= 45, p <= q/2: 211 knots, 27 of
    # them with reducible phi and 5/13 with phi irreducible but phi(2, u) not
    reducible = []
    knots = 0
    for q in range(3, 46, 2):
        for p in range(1, q // 2 + 1):
            if gcd(p, q) != 1:
                continue
            knots += 1
            f0 = riley_at(riley_polynomial(presentation(Fraction(p, q))), 2)
            mine = factors_of(f0)
            assert mine == sympy_factors(f0), (p, q)
            if len(mine) > 1:
                reducible.append((p, q))
    assert knots == 211
    assert len(reducible) == 28
    assert reducible[0] == (1, 9) and reducible[-1] == (19, 45)
    assert (5, 13) in reducible


def test_int_poly_factors_split_mod_every_prime():
    # irreducible over Z, yet a product of quadratics or linears mod every
    # prime, so recombination has to reject every proper group
    for f in ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]):
        assert factors_of(f) == [tuple(f)]
    assert factors_of([-1, 0, 0, 0, -1]) == [(1, 0, 0, 0, 1)]


def random_products():
    """40 primitive products of random factors, some repeated."""
    rng = random.Random(2024)
    for _ in range(40):
        product = [1]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-12, 12) for _ in range(rng.randint(1, 6))]
            g.append(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
            repeat = 2 if rng.random() < 0.2 else 1
            for _ in range(repeat):
                product = [sum(product[i] * g[k - i] for i in range(len(product))
                               if 0 <= k - i < len(g))
                           for k in range(len(product) + len(g) - 1)]
        while product[0] == 0:  # keep x-power factors out of the shape test
            product = product[1:]
        yield list(normalized(product))


def test_int_poly_factors_random_products():
    for f in random_products():
        assert factors_of(f) == sympy_factors(f), f


def test_degree_screen_proves_only_irreducible_polynomials():
    # Musser's test says "irreducible" only where sympy agrees: on every
    # Riley slice phi(m, u), m = 1, 2, of the p/q with q <= 45, p <= q/2,
    # and on the random products, up to the u-degree the screen runs at
    cap = apoly._SCREEN_MAX_DEGREE
    inputs = list(random_products())
    for q in range(3, 46, 2):
        if (q - 1) // 2 > cap:
            continue
        for p in range(1, q // 2 + 1):
            if gcd(p, q) == 1:
                phi = riley_polynomial(presentation(Fraction(p, q)))
                inputs += [riley_at(phi, m) for m in (1, 2)]
    inputs = [f for f in inputs if len(f) - 1 <= cap]
    proved = [f for f in inputs if _irreducible_by_degrees(f)]
    for f in proved:
        assert sympy_factors(f) == [normalized(f)], f
    assert (len(inputs), len(proved)) == (54, 45)


def counted_zassenhaus(monkeypatch):
    """Calls of the equal-degree split and of the p-adic Hensel lift."""
    calls = {"equal_degree": 0, "hensel": 0}
    equal_degree, hensel = _modp.equal_degree, apoly._hensel_padic

    def counted_equal_degree(*args):
        calls["equal_degree"] += 1
        return equal_degree(*args)

    def counted_hensel(*args):
        calls["hensel"] += 1
        return hensel(*args)

    monkeypatch.setattr(_modp, "equal_degree", counted_equal_degree)
    monkeypatch.setattr(apoly, "_hensel_padic", counted_hensel)
    return calls


def test_degree_screen_leaves_what_splits_mod_every_prime_to_zassenhaus(monkeypatch):
    # no prime rules out a quadratic factor of x^4 + 1 or x^4 - 10x^2 + 1,
    # so the screen is undecided and Zassenhaus lifts and recombines
    calls = counted_zassenhaus(monkeypatch)
    for f in ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]):
        assert not _irreducible_by_degrees(f)
        calls["hensel"] = 0
        assert _int_poly_factors(f) == [f]
        assert calls["hensel"] > 0, f


def test_small_irreducible_riley_slices_skip_zassenhaus(monkeypatch):
    # the apoly-sweep knots of u-degree 2..5: every phi(1, u) but 1/9's
    # and 8/9's is proved irreducible by the screen alone, with no
    # equal-degree split and no Hensel lift; those two are reducible and
    # run both
    calls = counted_zassenhaus(monkeypatch)
    ran = {}
    for q in range(5, 12, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                calls.update(equal_degree=0, hensel=0)
                _riley_factors(riley_polynomial(presentation(Fraction(p, q))), 1)
                ran[p, q] = calls["equal_degree"] > 0, calls["hensel"] > 0
    assert len(ran) == 26
    assert {k for k, v in ran.items() if v != (False, False)} == {(1, 9), (8, 9)}
    assert ran[1, 9] == ran[8, 9] == (True, True)


def test_riley_factors_match_sympy():
    M, u = sympy.symbols("M u")
    for p, q in ((2, 5), (3, 7), (1, 9), (4, 15), (1, 15), (8, 21), (5, 13)):
        phi = riley_polynomial(presentation(Fraction(p, q)))
        found = _riley_factors(phi, 1)
        product = found[0]
        for f in found[1:]:
            product = product * f
        assert product.sign_normalized() == phi.sign_normalized()
        _, ref = sympy.factor_list(sympy.sympify(str(phi).replace("^", "**")))
        assert sorted(str(f) for f in found) == sorted(
            str(MultiPoly(("M", "u"), {
                tuple(k): int(c) for k, c in sympy.Poly(g, M, u).terms()
            }).sign_normalized()) for g, e in ref for _ in range(e)), (p, q)


def test_riley_factors_irreducible_despite_split_seed():
    # phi(5/13) is irreducible, but phi(2, u) splits into degrees 2 and 4:
    # lifted from M = 2 the one candidate group must fail exact division
    phi = riley_polynomial(presentation(Fraction(5, 13)))
    assert _int_poly_factors(riley_at(phi, 1)) == [list(riley_at(phi, 1))]
    assert sorted(len(f) - 1 for f in _int_poly_factors(riley_at(phi, 2))) == [2, 4]
    assert _riley_factors(phi, 2) == [phi.sign_normalized()]


def test_riley_factors_are_palindromic_in_M():
    # M^D phi_i(1/M, u) = +-phi_i(M, u), D the sum of the least and largest
    # M-exponents, for every Riley factor of every p/q with q <= 33: the
    # Riley points (M, u) and (1/M, u) lie on one factor, which the
    # modular engine's mirrored nodes rely on; each component, built in
    # s = M^g, records it as palindromic
    count = 0
    for q in range(3, 34, 2):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            for component in riley_components(Fraction(p, q)):
                f = component.phi  # phi_i(s, u): back to M below
                terms = {(e_m * component.g, e_u): c for (e_m, e_u), c in f.terms.items()}
                assert component.palindromic, (p, q, f)
                exps = [e_m for e_m, _ in terms]
                top = min(exps) + max(exps)
                flipped = {(top - e_m, e_u): c for (e_m, e_u), c in terms.items()}
                assert flipped in (terms, {k: -c for k, c in terms.items()}), (p, q, f)
                count += 1
    assert count == 270


@pytest.mark.parametrize("case", ("even", "odd"))
def test_riley_factors_lift_in_M_squared_when_exponents_are_even(monkeypatch, case):
    # u^2 - M^2 has only even M-exponents, so its seeds at M = 2, u - 2 and
    # u + 2, are first lifted on u^2 - s at s = 4, where it is irreducible;
    # that factor holds two seeds, so it is lifted again in M and splits
    # over Z[M, u].  (u - M)(u + 2M) has the odd exponent M^1 and is lifted
    # in M at M = 2 alone, where its seeds are u - 2 and u + 4.  Each call
    # of _hensel_bivariate is recorded as (M-degree, point)
    from tbk.charvar import apoly

    M, u = MultiPoly.variable("M"), MultiPoly.variable("u")
    factors = (u - M, u + M) if case == "even" else (u - M, u + 2 * M)
    lifts = [(1, 4), (2, 2)] if case == "even" else [(2, 2)]
    calls = []
    hensel = apoly._hensel_bivariate

    def recorded(phi, g0, h0, m0, p):
        calls.append((phi.degree("M"), m0))
        return hensel(phi, g0, h0, m0, p)

    monkeypatch.setattr(apoly, "_hensel_bivariate", recorded)
    phi = (factors[0] * factors[1]).in_variables(("M", "u"))
    found = _riley_factors(phi, 2)
    assert sorted(map(str, found)) == sorted(
        str(f.in_variables(("M", "u")).sign_normalized()) for f in factors)
    assert list(dict.fromkeys(calls)) == lifts
