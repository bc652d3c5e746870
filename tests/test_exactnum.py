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
from tbk.exactnum.multipoly import poly_gcd, poly_squarefree_part

from oracles import random_multipoly, sylvester_resultant

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
