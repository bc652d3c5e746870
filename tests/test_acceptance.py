"""Acceptance suite: one timed criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every check is exact (integer or rational equality);
the only tolerances are the stated wall-clock budgets and the 1e-8
relative residual of the numeric representation oracle.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from tbk.confrac import (
    ContinuedFraction,
    ZeroDenominatorError,
    enumerate_admissible,
    evaluate,
    evaluate_with_tail,
    expand_repetition,
    negate,
)
from tbk.idealpoints import (
    count_classes_by_orbits,
    detected_slopes_with_counts,
    ideal_point_classes,
    ideal_point_count,
)
from tbk.knots import double_twist_fraction
from tbk.regression import expected_expansions
from tbk.surfaces import (
    BranchedSurface,
    boundary_slope,
    flip,
    is_symmetric,
    slope_report,
    symmetric_slopes,
)

from oracles import dfs_expansion_oracle, random_cf_entries


@contextmanager
def criterion(num, description, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s / budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s (> {budget}s)"


def test_criterion_1_four_expansions():
    import io
    import json
    from contextlib import redirect_stdout

    from tbk.cli import main

    with criterion(1, "tbk expand gives the four expansions of 2n/(4n^2-1), n=2..10", 1.0):
        for n in range(2, 11):
            expected = sorted(cf.entries for cf in expected_expansions(n))
            fraction = double_twist_fraction(n)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["expand", f"{fraction.numerator}/{fraction.denominator}",
                             "--json"])
            assert code == 0
            record = json.loads(buf.getvalue())
            computed = sorted(tuple(e["entries"]) for e in record["expansions"])
            assert computed == expected, n
            assert computed == sorted(
                cf.entries for cf in enumerate_admissible(fraction))


def test_criterion_2_slope_formula():
    with criterion(2, "slopes (0, -4n, -4n, -8n+2) for the four expansions", 5.0):
        for n in range(2, 11):
            fraction = double_twist_fraction(n)
            e1, e2, e3, e4 = expected_expansions(n)
            slopes = [boundary_slope(BranchedSurface(e, fraction))
                      for e in (e1, e2, e3, e4)]
            assert slopes == [0, -4 * n, -4 * n, -8 * n + 2], n


def test_criterion_3_continued_fraction_identities():
    with criterion(3, "negation, repeated-block, tail and composition identities", 5.0):
        rng = random.Random(2024)
        done = 0
        while done < 1000:  # negation identity
            entries = random_cf_entries(rng)
            cf = ContinuedFraction(entries)
            try:
                value = evaluate(cf)
            except ZeroDenominatorError:
                continue
            assert evaluate(negate(cf)) == -value
            done += 1
        for s in range(1, 51):  # repeated blocks
            assert evaluate(ContinuedFraction(tuple(expand_repetition([-2, 2], s)))) \
                == Fraction(-2 * s, 2 * s + 1)
            assert evaluate(ContinuedFraction(tuple(expand_repetition([2, -2], s)))) \
                == Fraction(2 * s, 2 * s + 1)
        for k in range(0, 21):  # closed form for [(2,-2)_k, 2, x]
            entries = expand_repetition([2, -2], k) + [2]
            done = 0
            while done < 50:
                x = Fraction(rng.randint(-60, 60), rng.randint(1, 15))
                den = (2 * k + 2) * x + 2 * k + 1
                if x == 0 or den == 0:
                    continue
                try:
                    got = evaluate_with_tail(entries, x)
                except ZeroDenominatorError:
                    continue
                assert got == ((2 * k + 1) * x + 2 * k) / den
                done += 1
        done = 0
        while done < 200:  # composition identity
            entries = random_cf_entries(rng, max_len=9)
            if len(entries) < 3:
                continue
            i = rng.randint(2, len(entries) - 1)
            try:
                whole = evaluate(ContinuedFraction(entries))
                tail = evaluate(ContinuedFraction(entries[i - 1:]))
                if tail == 0:
                    continue
                composed = evaluate_with_tail(entries[:i - 1], 1 / tail)
            except ZeroDenominatorError:
                continue
            assert composed == whole
            done += 1


def test_criterion_4_flip_symmetry():
    with criterion(4, "flip exchanges the -4n pair and fixes the other two", 5.0):
        for n in range(2, 11):
            fraction = double_twist_fraction(n)
            e1, e2, e3, e4 = expected_expansions(n)
            s = {e.entries: BranchedSurface(e, fraction)
                 for e in (e1, e2, e3, e4)}
            assert flip(s[e2.entries]).expansion == e3
            assert flip(s[e3.entries]).expansion == e2
            assert not is_symmetric(s[e2.entries])
            assert not is_symmetric(s[e3.entries])
            assert flip(s[e1.entries]).expansion == e1
            assert flip(s[e4.entries]).expansion == e4
            assert is_symmetric(s[e1.entries]) and is_symmetric(s[e4.entries])


def test_criterion_5_ideal_point_counts():
    with criterion(5, "n-1 residue classes per slope -4n expansion; methods agree", 10.0):
        for n in range(2, 11):
            fraction = double_twist_fraction(n)
            for cf in enumerate_admissible(fraction):
                by_canon = len(ideal_point_classes(cf))
                by_orbits = count_classes_by_orbits(cf)
                assert ideal_point_count(cf) == by_canon == by_orbits, (n, cf)
            _, e2, e3, _ = expected_expansions(n)
            assert len(ideal_point_classes(e2)) == n - 1
            assert len(ideal_point_classes(e3)) == n - 1
            assert ideal_point_count(e2) == ideal_point_count(e3) == n - 1


def test_criterion_6_detected_slopes():
    with criterion(6, "detected slopes {0,-4n,-8n+2}, symmetric subset {0,-8n+2}", 10.0):
        for n in range(2, 11):
            fraction = double_twist_fraction(n)
            assert sorted(detected_slopes_with_counts(fraction)) \
                == sorted({0, -4 * n, -8 * n + 2})
            report = slope_report(fraction)
            assert symmetric_slopes(report) == sorted({0, -8 * n + 2})


def test_criterion_7_enumeration_oracle():
    with criterion(7, "enumeration matches the exhaustive oracle for q <= 45", 60.0):
        for q in range(3, 46, 2):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                fraction = Fraction(p, q)
                mine = [cf.entries for cf in enumerate_admissible(fraction)]
                oracle = [cf.entries for cf in dfs_expansion_oracle(fraction)]
                assert mine == oracle, fraction


def test_criterion_8_a_polynomials():
    from tbk.charvar import (
        a_polynomial,
        finite_edge_slopes_as_ints,
        newton_polygon,
        split_components,
    )

    with criterion(8, "figure-eight edge slopes contain +-4", 30.0):
        polygon = newton_polygon(a_polynomial(Fraction(2, 5)))
        assert {4, -4} <= finite_edge_slopes_as_ints(polygon)

    # component bidegrees (L, M) for n = 4, as found by sympy.factor_list
    bidegrees = {4: [(7, 30), (12, 48)]}
    for n in (2, 3, 4):
        with criterion(8, f"K_{n} edge-slope set equals {{0, {-4*n}, {-8*n+2}}}", 300.0):
            fraction = double_twist_fraction(n)
            ap = a_polynomial(fraction)
            polygon = newton_polygon(ap)
            assert finite_edge_slopes_as_ints(polygon) == {0, -4 * n, -8 * n + 2}
            parts = split_components(ap, canonical_slopes={0, -8 * n + 2})
            assert parts is not None and len(parts) == 2
            assert parts[0].poly * parts[1].poly == ap.poly
            slopes = {p.component_tag: finite_edge_slopes_as_ints(newton_polygon(p))
                      for p in parts}
            assert slopes == {"canonical": {0, -8 * n + 2}, "other": {0, -4 * n}}
            if n in bidegrees:
                assert [(p.poly.degree("L"), p.poly.degree("M"))
                        for p in parts] == bidegrees[n]


def test_criterion_9_valuation_properties():
    from tbk.slopes import Slope
    from tbk.valuation import (
        Mat2,
        QPoly,
        RatFunc,
        Strict,
        Weak,
        classify_detection,
        fixes_vertex,
        ord_at_zero,
    )

    with criterion(9, "valuation axioms, fixed-vertex examples, classify scaling", 5.0):
        rng = random.Random(99)

        def rand_ratfunc():
            def poly():
                return QPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 5))])
            den = poly()
            while den.is_zero():
                den = poly()
            return RatFunc(poly(), den)

        for _ in range(500):
            f, g = rand_ratfunc(), rand_ratfunc()
            assert ord_at_zero(f * g) == ord_at_zero(f) + ord_at_zero(g)
            s = ord_at_zero(f + g)
            assert s >= min(ord_at_zero(f), ord_at_zero(g))
            if ord_at_zero(f) != ord_at_zero(g):
                assert s == min(ord_at_zero(f), ord_at_zero(g))

        t = RatFunc.t()
        assert fixes_vertex(Mat2.identity())
        assert not fixes_vertex(Mat2(t, 0, 0, 1 / t))
        assert fixes_vertex(Mat2(1, 1 / t, 0, 1))

        assert classify_detection(0, 0) == Weak()
        assert classify_detection(1, -4) == Strict(Slope(4, 1))
        for _ in range(100):
            vm, vl = rng.randint(-9, 9), rng.randint(-9, 9)
            if (vm, vl) == (0, 0):
                continue
            base = classify_detection(vm, vl)
            for c in (2, 5):
                assert classify_detection(c * vm, c * vl) == base


def test_criterion_10_polygon_minkowski_law():
    from tbk.charvar import edge_slopes, newton_polygon
    from tbk.exactnum import MultiPoly

    with criterion(10, "edge slopes of a product are the union of the factors'", 5.0):
        rng = random.Random(123)
        done = 0
        while done < 100:
            terms_f = {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-9, 9)
                       for _ in range(rng.randint(1, 6))}
            terms_g = {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-9, 9)
                       for _ in range(rng.randint(1, 6))}
            f = MultiPoly(("L", "M"), terms_f)
            g = MultiPoly(("L", "M"), terms_g)
            if f.is_zero() or g.is_zero():
                continue
            union = edge_slopes(newton_polygon(f)) | edge_slopes(newton_polygon(g))
            assert edge_slopes(newton_polygon(f * g)) == union
            done += 1
