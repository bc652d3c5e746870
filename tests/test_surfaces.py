from fractions import Fraction
from math import gcd

import pytest

from tbk.confrac import ContinuedFraction, enumerate_admissible
from tbk.surfaces import (
    BranchedSurface,
    alternate_signs,
    boundary_slope,
    flip,
    is_symmetric,
    slope_report,
    symmetric_slopes,
)


def cf(*entries):
    return ContinuedFraction(tuple(entries))


def surfaces_for(fraction):
    return [BranchedSurface(c, fraction) for c in enumerate_admissible(fraction)]


def all_reduced_fractions(q_max):
    for q in range(3, q_max + 1, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def test_alternate_signs_examples():
    assert alternate_signs([-2, 2, -3, 2, -2]) == [-2, -2, -3, -2, -2]
    assert alternate_signs([4, -4]) == [4, 4]
    assert alternate_signs([7]) == [7]


def test_boundary_slope_examples():
    f = Fraction(4, 15)
    assert boundary_slope(BranchedSurface(cf(4, -4), f)) == 0
    assert boundary_slope(BranchedSurface(cf(3, 2, -2, 2), f)) == -8
    assert boundary_slope(BranchedSurface(cf(-2, 2, -3, 2, -2), f)) == -14


def test_flip_examples():
    f = Fraction(4, 15)
    assert flip(BranchedSurface(cf(3, 2, -2, 2), f)).expansion == cf(-2, 2, -2, -3)
    assert flip(BranchedSurface(cf(4, -4), f)).expansion == cf(4, -4)
    assert flip(BranchedSurface(cf(-2, 2, -3, 2, -2), f)).expansion == cf(-2, 2, -3, 2, -2)


def test_is_symmetric_examples():
    f = Fraction(4, 15)
    assert is_symmetric(BranchedSurface(cf(4, -4), f))
    assert not is_symmetric(BranchedSurface(cf(3, 2, -2, 2), f))
    assert is_symmetric(BranchedSurface(cf(-3), Fraction(2, 3)))


def test_surface_invariants_enforced():
    with pytest.raises(ValueError):
        BranchedSurface(cf(1, 3), Fraction(4, 15))  # not admissible
    with pytest.raises(ValueError):
        BranchedSurface(cf(4, -4), Fraction(2, 5))  # wrong fraction


def test_flip_is_involution_up_to_q45():
    for fraction in all_reduced_fractions(45):
        for s in surfaces_for(fraction):
            assert flip(flip(s)).expansion == s.expansion


def test_flip_preserves_boundary_slope_up_to_q45():
    for fraction in all_reduced_fractions(45):
        for s in surfaces_for(fraction):
            assert boundary_slope(flip(s)) == boundary_slope(s), s


def test_slopes_are_even_up_to_q45():
    for fraction in all_reduced_fractions(45):
        for s in surfaces_for(fraction):
            assert boundary_slope(s) % 2 == 0


def test_slope_report_examples():
    report = slope_report(Fraction(4, 15))
    assert sorted(d.slope for d in report) == [-14, -8, -8, 0]
    assert symmetric_slopes(report) == [-14, 0]

    report = slope_report(Fraction(6, 35))
    assert sorted(d.slope for d in report) == [-22, -12, -12, 0]
    assert symmetric_slopes(report) == [-22, 0]

    # figure-eight, after normalizing J(2, -2) to 2/5
    report = slope_report(Fraction(2, 5))
    slopes = {d.slope for d in report}
    assert {4, -4} <= slopes


def test_double_twist_flip_exchange():
    for n in range(2, 11):
        f = Fraction(2 * n, 4 * n * n - 1)
        report = slope_report(f)
        minus4n = [d for d in report if d.slope == -4 * n]
        assert len(minus4n) == 2
        assert all(not d.symmetric for d in minus4n)
        a, b = (BranchedSurface(d.expansion, f) for d in minus4n)
        assert flip(a).expansion == b.expansion
        assert flip(b).expansion == a.expansion
        fixed = [d for d in report if d.slope != -4 * n]
        assert all(d.symmetric for d in fixed)


def test_slope_report_matches_surface_oracles_up_to_q45():
    # slope_report's shared all-even balance and entry-level flip against
    # boundary_slope and is_symmetric on each expansion's own surface
    for fraction in all_reduced_fractions(45):
        report = slope_report(fraction)
        assert [d.expansion for d in report] == enumerate_admissible(fraction)
        for d in report:
            s = BranchedSurface(d.expansion, fraction)
            assert d.slope == boundary_slope(s), d
            assert d.symmetric == is_symmetric(s), d
