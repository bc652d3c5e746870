import random

import pytest

from tbk.exactnum import (
    ExactDivisionError,
    MultiPoly,
    Rational,
    format_apoly,
    parse_apoly,
    poly_resultant,
)
from tbk.exactnum.multipoly import (
    Kronecker,
    digit_width,
    pack_digits,
    poly_gcd,
    poly_squarefree_part,
    unpack_digits,
)

from oracles import (
    prs_resultant,
    random_multipoly,
    schoolbook_product,
    sylvester_resultant,
)

L = MultiPoly.variable("L")
M = MultiPoly.variable("M")
u = MultiPoly.variable("u")


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1) / Rational(0)


def test_rational_canonical_form():
    r = Rational(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)


def test_multipoly_ring_axioms():
    rng = random.Random(20240901)
    for _ in range(60):
        f = random_multipoly(rng)
        g = random_multipoly(rng)
        h = random_multipoly(rng)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_resultant_examples():
    assert poly_resultant(u - 1, u + 1, "u") == 2
    assert poly_resultant(u ** 2 - 1, u - 1, "u") == 0
    # 3x3 Sylvester determinant, expanded by hand: L^2 - M
    assert poly_resultant(u ** 2 - M, L - u, "u") == L ** 2 - M


def test_resultant_var_absent_is_error():
    with pytest.raises(ValueError):
        poly_resultant(L + 1, M - 2, "u")


def test_resultant_detects_common_factor():
    f = (u - M) * (u + 1)
    g = (u - M) * (u ** 2 + 3)
    assert poly_resultant(f, g, "u").is_zero()


def test_resultant_antisymmetry_and_engines_agree():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        f = random_multipoly(rng, variables=("M", "u"), max_degree=4, terms=4)
        g = random_multipoly(rng, variables=("M", "u"), max_degree=4, terms=4)
        if f.degree("u") < 1 or g.degree("u") < 1:
            continue
        r_fg = poly_resultant(f, g, "u")
        r_gf = poly_resultant(g, f, "u")
        sign = (-1) ** (f.degree("u") * g.degree("u"))
        assert r_fg == sign * r_gf
        assert r_fg == sylvester_resultant(f.coefficients_in("u"), g.coefficients_in("u"))
        checked += 1


def test_resultant_engines_agree_trivariate():
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        f = random_multipoly(rng, variables=("L", "M", "u"), max_degree=2, terms=3)
        g = random_multipoly(rng, variables=("L", "M", "u"), max_degree=2, terms=3)
        if f.degree("u") < 1 or g.degree("u") < 1:
            continue
        assert poly_resultant(f, g, "u") == sylvester_resultant(
            f.coefficients_in("u"), g.coefficients_in("u"))
        checked += 1


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        f = random_multipoly(rng, variables=("M", "u"), max_degree=3, terms=3)
        g = random_multipoly(rng, variables=("M", "u"), max_degree=3, terms=3)
        h = random_multipoly(rng, variables=("M", "u"), max_degree=3, terms=3)
        if min(f.degree("u"), g.degree("u"), h.degree("u")) < 1:
            continue
        lhs = poly_resultant(f * g, h, "u")
        rhs = poly_resultant(f, h, "u") * poly_resultant(g, h, "u")
        assert lhs == rhs
        checked += 1


def assert_resultant_matches_oracles(f, g, var="u"):
    r = poly_resultant(f, g, var)
    assert r == prs_resultant(f, g, var), (f, g)
    assert r == sylvester_resultant(f.coefficients_in(var), g.coefficients_in(var)), (f, g)
    return r


@pytest.mark.parametrize("variables", (("M", "u"), ("L", "M", "u")))
def test_packed_resultant_on_wide_coefficients(variables):
    # coefficients up to 2^40 make the packed digits several words wide
    rng = random.Random(21 + len(variables))
    checked = 0
    while checked < 30:
        f, g = (random_multipoly(rng, variables, max_degree=3, terms=4,
                                 coeff_bound=1 << 40) for _ in range(2))
        if f.degree("u") < 1 or g.degree("u") < 1:
            continue
        assert_resultant_matches_oracles(f, g)
        checked += 1


def test_packed_resultant_keeps_leading_coefficients_near_a_digit():
    # a digit of j bits would pack lc_u = M - 2^j to 0 and drop the degree
    for j in range(1, 13):
        f = (M - 2 ** j) * u ** 3 + M * u + 1
        g = (M - 2 ** j) * u ** 2 + L * u - M ** 2
        r = assert_resultant_matches_oracles(f, g)
        assert r.degree("M") >= 1 and r.degree("L") == 3


def test_packed_resultant_of_a_common_factor_is_zero():
    rng = random.Random(23)
    checked = 0
    while checked < 8:
        h = random_multipoly(rng, ("L", "M", "u"), max_degree=2, terms=3, coeff_bound=1 << 20)
        if h.degree("u") < 1:
            continue
        f = h * (u ** 2 + L * M - 7)
        g = h * (3 * u - M + (1 << 35))
        assert poly_resultant(f, g, "u").is_zero()
        assert prs_resultant(f, g, "u").is_zero()
        checked += 1


def test_packed_resultant_sign_with_odd_degrees_in_either_order():
    # deg f < deg g, both odd: Res(f, g) = -Res(g, f)
    rng = random.Random(24)
    for df, dg in ((1, 3), (3, 5), (1, 5)):
        f = u ** df * (M + 2) + random_multipoly(rng, ("M", "u"), df - 1, 3, 1 << 40)
        g = u ** dg * (1 - M) + random_multipoly(rng, ("M", "u"), dg - 1, 4, 1 << 40)
        r = assert_resultant_matches_oracles(f, g)
        assert assert_resultant_matches_oracles(g, f) == -r


def test_packed_resultant_with_var_in_one_input_only():
    f = (L + 2) * u ** 3 - M * u + (1 << 40)
    g = L * M - (1 << 39)
    assert assert_resultant_matches_oracles(f, g) == g ** 3
    assert assert_resultant_matches_oracles(g, f) == g ** 3
    assert poly_resultant(f, MultiPoly.constant(5), "u") == 125


def test_packed_resultant_matches_the_polynomial_prs_on_direct_factors(monkeypatch):
    # every resultant the direct engine takes for q <= 17, in its own
    # variable s = M^2, from phi_i and the reduced L*M^len' - R
    from fractions import Fraction
    from math import gcd

    from tbk.charvar import a_polynomial, apoly

    calls = []

    def recorded(f, g, var):
        r = poly_resultant(f, g, var)
        calls.append((f, g, var, r))
        return r

    monkeypatch.setattr(apoly, "poly_resultant", recorded)
    for q in range(3, 18, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                a_polynomial(Fraction(p, q))
    assert len(calls) == 52
    for f, g, var, r in calls:
        assert r == prs_resultant(f, g, var), (f, g)


def test_digit_codec_round_trips_at_the_digit_bounds():
    # the balanced base-2^(8w) digits that the resultant, the dense products
    # and the exact proof all pack: at w bytes every coefficient of absolute
    # value below 2^(8w - 1) round-trips, so random lists with digits at and
    # next to that bound, zeros inside and at the ends, come back trimmed,
    # and a product of packed values unpacks to the convolution while its
    # coefficients stay below the bound.  Kronecker's box shape packs and
    # unpacks term dicts at the same bounds, its width read off the bound
    rng = random.Random(8)
    for w in (1, 2, 3, 7, 8, 9, 21):
        top = (1 << (8 * w - 1)) - 1
        assert digit_width(top) == w and digit_width(top + 1) == w + 1

        def digit():
            return rng.choice((top, -top, top - 1, 1 - top, 0, rng.randint(-top, top)))

        for _ in range(20):
            entries = [[digit() for _ in range(rng.randint(0, 9))] for _ in range(3)]
            for e, x in zip(entries, pack_digits(entries, w)):
                trimmed = list(e)
                while trimmed and not trimmed[-1]:
                    trimmed.pop()
                assert unpack_digits(x, w) == trimmed, (w, e)
        a, b = [rng.randint(-9, 9) for _ in range(5)], [rng.randint(-9, 9) for _ in range(4)]
        product = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                   for k in range(len(a) + len(b) - 1)]
        x, y = pack_digits([a, b], w)
        if max(map(abs, product)) <= top:
            while product and not product[-1]:
                product.pop()
            assert unpack_digits(x * y, w) == product, w

        spans, lo = [3, 4, 2], (2, 0, 5)
        kr = Kronecker(spans, top)
        assert kr.width == w
        for _ in range(10):
            polys = [{(i + 2, j, k + 5): digit() for i in range(3) for j in range(4)
                      for k in range(2) if rng.random() < 0.5} for _ in range(2)] + [{}]
            for terms, x in zip(polys, kr.pack(polys, lo)):
                assert kr.unpack(x, lo) == {e: c for e, c in terms.items() if c}, (w, terms)
        with pytest.raises(OverflowError):  # a digit past the box's 24 slots
            kr.unpack(1 << (8 * w * 24), lo)
        f = random_multipoly(rng, ("L", "M", "u"), 2, 6, 9)
        g = random_multipoly(rng, ("L", "M", "u"), 1, 4, 9)
        product = schoolbook_product(f, g)
        if f.terms and g.terms and max(map(abs, product.terms.values()), default=0) <= top:
            kr = Kronecker([4, 4, 4], top)
            (x,), (y,) = kr.pack([f.terms], (0, 0, 0)), kr.pack([g.terms], (0, 0, 0))
            assert MultiPoly(f.variables, kr.unpack(x * y, (0, 0, 0))) == product, w


def test_packed_product_matches_schoolbook(monkeypatch):
    # both sides of the density rule: a pair count above the packed
    # size multiplies one integer product, below it the dict loop
    from tbk.exactnum import multipoly

    packed = []

    class Counted(multipoly.Kronecker):
        def unpack(self, n, lo):
            packed.append(self.spans)
            return super().unpack(n, lo)

    monkeypatch.setattr(multipoly, "Kronecker", Counted)
    rng = random.Random(25)
    cases = [
        # lopsided and dense: 2 x 40 terms in a 7 x 7 box
        (random_multipoly(rng, ("L", "M"), 6, 40, 1 << 64), 3 * L + M ** 2),
        # sparse: few terms spread over a large box
        (L ** 30 + M ** 25 * L - 2, M ** 17 + L ** 9),
        # coefficients cancel: (1 + L)(1 - L + L^2 - ... + L^10) = 1 + L^11
        (1 + L, sum(((-L) ** i for i in range(11)), MultiPoly.constant(0))),
        (L + M, L - M),
        # differing variable sets and constants
        (random_multipoly(rng, ("L", "M"), 3, 12, 1 << 50),
         random_multipoly(rng, ("M", "u"), 3, 12, 1 << 50)),
        (MultiPoly.constant(7), random_multipoly(rng, ("L", "u"), 3, 10, 100)),
        (MultiPoly.constant(-(1 << 90)), MultiPoly.constant(3, ("L", "M"))),
        (random_multipoly(rng, ("L", "M"), 3, 8, 5), MultiPoly.constant(0, ("M",))),
    ]
    for _ in range(40):
        cases.append(tuple(
            random_multipoly(rng, ("L", "M", "u"), rng.randint(1, 5), rng.randint(2, 30),
                             1 << rng.choice((3, 40, 130)))
            for _ in range(2)))
    sides = set()
    for a, b in cases:
        before = len(packed)
        expected = schoolbook_product(a, b)
        assert a * b == expected, (a, b)
        assert b * a == expected, (a, b)
        sides.add(len(packed) - before)
    assert sides == {0, 2}


def test_cleanup_examples():
    f = 6 * M + 9 * L
    assert f.content() == 3
    assert f.primitive_part() == 2 * M + 3 * L
    g = (L - 1) ** 2 * M
    sq = poly_squarefree_part(g)
    assert sq == (L - 1) * M


def test_squarefree_division_oracle():
    g = (L - 1) ** 2 * M
    sq = poly_squarefree_part(g)
    # sq divides g, the cofactor divides sq, and sq^2 does not divide g
    cofactor = g.exact_div(sq)
    sq.exact_div(cofactor)
    with pytest.raises((ExactDivisionError, ZeroDivisionError)):
        g.exact_div(sq * sq)
    joint = sq
    for var in ("L", "M"):
        joint = poly_gcd(joint, sq.derivative(var))
    assert joint.is_constant()


def test_cleanup_zero_is_error():
    with pytest.raises(ValueError):
        poly_squarefree_part(MultiPoly.constant(0))


def test_exact_division_failure():
    with pytest.raises(ExactDivisionError):
        (L ** 2 + 1).exact_div(L + 1)


def test_gcd_basic():
    f = (L + M) * (L - 2 * M) ** 2
    g = (L + M) * (L - 2 * M) * (M + 1)
    assert poly_gcd(f, g) == (L + M) * (L - 2 * M)


def test_apoly_format_roundtrip():
    poly = L ** 2 * M ** 4 - 17 * L + M
    text = format_apoly(poly)
    lines = text.splitlines()
    assert lines[0] == "# apoly v1"
    assert lines[1] == "vars L M"
    assert parse_apoly(text) == poly
    # exponent-sorted term lines are bit-exact
    assert format_apoly(parse_apoly(text)) == text


def test_apoly_format_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_apoly("vars L M\nterm 0 0 1\n")
    with pytest.raises(ValueError):
        parse_apoly("# apoly v1\nvars L M\nterm 0 0 0\n")
    with pytest.raises(ValueError):
        parse_apoly("# apoly v1\nvars L M\nterm 0 1\n")


def test_gcd_chain_referenced_only_by_its_module():
    # the multivariate gcds are test oracles: no module of the package but
    # multipoly.py, which defines them, names them
    import ast
    from pathlib import Path

    names = {"poly_gcd", "poly_prem", "poly_squarefree_part", "_primitive_in",
             "_coeff_gcd"}
    root = Path(__file__).resolve().parents[1] / "src" / "tbk"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "exactnum" / "multipoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "asname", None)}
            if named & names:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert len(list(root.rglob("*.py"))) > 10
    assert not offenders, offenders


def test_unchecked_constructor_only_ever_gets_clean_terms(monkeypatch):
    # MultiPoly._of skips the public constructor's checks, so every caller
    # must hand it tuple keys as long as the variables and nonzero int
    # coefficients.  Patched with a checking version, it sees the whole
    # pipeline: the Riley walk and factoring, both engines (6/35 and the
    # q <= 17 factors of u-degree above 6 run the modular one) and the split
    from fractions import Fraction
    from math import gcd

    from tbk.charvar import a_polynomial, apoly, split_components

    unchecked = MultiPoly._of.__func__
    built = []

    def checked(cls, variables, terms):
        assert type(variables) is tuple, variables
        for exps, c in terms.items():
            assert type(exps) is tuple and len(exps) == len(variables), (variables, exps)
            assert type(c) is int and c != 0, (variables, exps, c)
        built.append(len(terms))
        return unchecked(cls, variables, terms)

    engines = set()

    def recording(name):
        engine = getattr(apoly, name)

        def run(component):
            engines.add(name)
            return engine(component)
        return run

    for name in ("_apoly_direct", "_apoly_modular"):
        monkeypatch.setattr(apoly, name, recording(name))
    monkeypatch.setattr(MultiPoly, "_of", classmethod(checked))
    fractions = [Fraction(p, q) for q in range(3, 18, 2) for p in range(1, q) if gcd(p, q) == 1]
    for pq in fractions + [Fraction(6, 35)]:
        ap = a_polynomial(pq)
        parts = split_components(ap)
        assert parts is None or len(parts) == len(ap.factors) > 1, pq
    assert engines == {"_apoly_direct", "_apoly_modular"}
    assert len(built) > 1000

    # the public constructor still checks what it is given, and a sum
    # still drops the terms that cancel
    with pytest.raises(ValueError, match="does not match"):
        MultiPoly(("L", "M"), {(1,): 2})
    assert MultiPoly(("L", "M"), {(1, 0): 0, (0, 2): 3}).terms == {(0, 2): 3}
    assert MultiPoly(("L", "M"), {(1, 0): 2, (0, 0): -2}) - 2 * L == -2


def test_normalized_is_the_strip_primitive_sign_chain():
    rng = random.Random(26)
    cases = [MultiPoly.constant(0, ("L", "M")), -6 * L * M ** 2 + 4 * M, 3 * L + 5]
    cases += [random_multipoly(rng, ("L", "M", "u"), 4, rng.randint(1, 12), 1 << 20)
              * rng.choice((1, -1, 6, -10)) * rng.choice((1, L, M ** 3, L * u))
              for _ in range(60)]
    for f in cases:
        expected = f.strip_monomial().primitive_part().sign_normalized()
        assert f.normalized() == expected, f
        assert f.normalized().variables == f.variables
