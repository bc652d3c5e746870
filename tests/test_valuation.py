import math
import random
from fractions import Fraction

import pytest

from tbk.slopes import Slope
from tbk.valuation import (
    MAX_ENTRY_LENGTH,
    MAX_POWER,
    Mat2,
    QPoly,
    RatFunc,
    Strict,
    Weak,
    classify_detection,
    fixes_vertex,
    nontriviality_certificate,
    ord_at_zero,
    parse_matrix_line,
    parse_ratfunc,
    translation_length,
)

T = RatFunc.t()


def rand_ratfunc(rng, allow_zero=True):
    def rand_poly():
        return QPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 5))])

    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    if not allow_zero and num.is_zero():
        num = QPoly.const(1)
    return RatFunc(num, den)


def test_ord_examples():
    assert ord_at_zero(T ** 2 / (1 + T)) == 2
    assert ord_at_zero(RatFunc(3)) == 0
    assert ord_at_zero(1 / T) == -1
    assert ord_at_zero(RatFunc(0)) == math.inf


def test_ord_is_a_valuation():
    rng = random.Random(3)
    done = 0
    while done < 500:
        f = rand_ratfunc(rng)
        g = rand_ratfunc(rng)
        of, og = ord_at_zero(f), ord_at_zero(g)
        assert ord_at_zero(f * g) == of + og
        osum = ord_at_zero(f + g)
        assert osum >= min(of, og)
        if of != og:
            assert osum == min(of, og)
        done += 1


def test_fixes_vertex_examples():
    assert fixes_vertex(Mat2.identity())
    assert not fixes_vertex(Mat2(T, 0, 0, 1 / T))
    assert fixes_vertex(Mat2(1, 1 / T, 0, 1))


def test_fixing_is_not_closed_under_products():
    a = Mat2(1, 1 / T ** 2, 0, 1)
    b = Mat2(1, 0, T, 1)
    assert fixes_vertex(a) and fixes_vertex(b)
    assert not fixes_vertex(a * b)


def test_certificate_examples():
    assert nontriviality_certificate([Mat2(T, 0, 0, 1 / T)]) == (0,)
    assert nontriviality_certificate([Mat2.identity()]) is None
    a = Mat2(1, 1 / T ** 2, 0, 1)
    b = Mat2(1, 0, T, 1)
    assert nontriviality_certificate([a, b]) == (0, 1)


def test_certificate_depth_flag():
    a = Mat2(1, 1 / T ** 2, 0, 1)
    b = Mat2(1, 0, T, 1)
    assert nontriviality_certificate([a, b], depth=1) is None
    assert nontriviality_certificate([a, b], depth=2) == (0, 1)


def test_classify_examples():
    assert classify_detection(0, 0) == Weak()
    assert classify_detection(1, -4) == Strict(Slope(4, 1))
    n = 2
    assert classify_detection(1, 8 * n - 2) == Strict(Slope(-8 * n + 2, 1))
    assert classify_detection(0, 3) == Strict(Slope.INFINITY)


def test_classify_scaling_invariance():
    rng = random.Random(9)
    for _ in range(100):
        vm = rng.randint(-6, 6)
        vl = rng.randint(-6, 6)
        if vm == 0 and vl == 0:
            continue
        base = classify_detection(vm, vl)
        for c in (2, 3, 7):
            assert classify_detection(c * vm, c * vl) == base


def test_trace_valuation_is_conjugation_invariant():
    rng = random.Random(10)
    mats = [Mat2(T, 0, 0, 1 / T), Mat2(1, 1 / T, 0, 1),
            Mat2(1 + T, 1, T, 1, check_det=False)]
    # conjugators with determinant 1
    conjugators = [Mat2(1, T, 0, 1), Mat2(1, 0, 1 / T, 1), Mat2(T, 0, 0, 1 / T)]
    for a in mats:
        for p in conjugators:
            conj = p * a * p.inverse()
            assert ord_at_zero(conj.trace()) == ord_at_zero(a.trace())


def test_translation_length_on_diagonals():
    # here the lattice-distance definition can be read off directly
    for k in range(0, 5):
        d = Mat2(T ** k, 0, 0, RatFunc(1) / T ** k)
        assert translation_length(d) == 2 * k


def test_mat2_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2(T, 0, 0, T)


def test_parse_ratfunc():
    assert ord_at_zero(parse_ratfunc("t^2/(1+t)")) == 2
    assert parse_ratfunc("3") == RatFunc(3)
    assert parse_ratfunc("1/t") == 1 / T
    assert parse_ratfunc("-(t - 1)*(t + 1)") == 1 - T ** 2
    # a negated integer constant is an exponent too
    assert parse_ratfunc("t^-2") == parse_ratfunc("t^(-2)") == 1 / T ** 2
    assert parse_ratfunc("(3/(1+t))^-3") == ((1 + T) / 3) ** 3
    with pytest.raises(ValueError, match="exponent must be an integer"):
        parse_ratfunc("t^-t")
    with pytest.raises(ValueError):
        parse_ratfunc("__import__('os')")
    with pytest.raises(ValueError):
        parse_ratfunc("x + 1")
    for text in ("not t", "~t"):  # unary operators other than + and -
        with pytest.raises(ValueError, match="unsupported syntax"):
            parse_ratfunc(text)


def test_parse_ratfunc_entry_length_cap():
    # the parser and the evaluator recurse once per operator: an entry at
    # the cap parses, even as 499 nested unary minus signs, and one
    # character more is refused before parsing
    odd = MAX_ENTRY_LENGTH % 2
    assert parse_ratfunc("-" * (MAX_ENTRY_LENGTH - 1) + "t") == (T if odd else -T)
    assert parse_ratfunc("+".join(["t"] * (MAX_ENTRY_LENGTH // 2))) == MAX_ENTRY_LENGTH // 2 * T
    for text in ("t" + "+t" * (MAX_ENTRY_LENGTH // 2), "-" * MAX_ENTRY_LENGTH + "t"):
        with pytest.raises(ValueError, match=f"passes MAX_ENTRY_LENGTH = {MAX_ENTRY_LENGTH}"):
            parse_ratfunc(text)


def test_power_by_squaring():
    # agrees with repeated products, in lowest terms with a monic
    # denominator; a power past MAX_POWER in exponent or degree is refused
    rng = random.Random(11)
    for _ in range(100):
        f = rand_ratfunc(rng, allow_zero=False)
        n = rng.randint(-6, 6)
        ref = RatFunc(1)
        for _ in range(abs(n)):
            ref = ref * f
        if n < 0:
            ref = 1 / ref
        assert f ** n == ref, (f, n)
    assert RatFunc(0) ** 0 == RatFunc(1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(0) ** -1
    assert (T ** MAX_POWER).num.degree() == MAX_POWER
    for text in (f"t^{MAX_POWER + 1}", f"(t^2)^{MAX_POWER // 2 + 1}",
                 f"2^{MAX_POWER + 1}", "t^100000", "t^-100000"):
        with pytest.raises(ValueError, match="MAX_POWER"):
            parse_ratfunc(text)


def test_parse_matrix_line():
    m = parse_matrix_line("t ; 0 ; 0 ; 1/t")
    assert not fixes_vertex(m)
    with pytest.raises(ValueError):
        parse_matrix_line("t ; 0 ; 0")
    with pytest.raises(ValueError):
        parse_matrix_line("t ; 0 ; 0 ; t")  # determinant t^2
