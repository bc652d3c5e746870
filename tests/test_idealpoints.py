import random
from fractions import Fraction
from math import gcd, prod

import pytest

from tbk.confrac import ContinuedFraction, enumerate_admissible
from tbk.idealpoints import (
    count_classes_by_orbits,
    detected_slopes_with_counts,
    ideal_point_classes,
    ideal_point_count,
)

from oracles import orbit_count_oracle


def cf(*entries):
    return ContinuedFraction(tuple(entries))


def all_reduced_fractions(q_max):
    for q in range(3, q_max + 1, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def test_class_count_examples():
    assert len(ideal_point_classes(cf(3, 2, -2, 2))) == 1
    assert len(ideal_point_classes(cf(5, 2, -2, 2, -2, 2))) == 2
    assert len(ideal_point_classes(cf(2, -2))) == 0
    assert len(ideal_point_classes(cf(4, -4))) == 3


def test_class_representatives_are_canonical():
    classes = ideal_point_classes(cf(4, -4))
    assert [c.residues for c in classes] == [(1, 1), (1, 2), (2, 1)]


def test_rejects_non_admissible():
    with pytest.raises(ValueError):
        ideal_point_classes(cf(1, 3))
    with pytest.raises(ValueError):
        ideal_point_count(cf(1, 3))
    with pytest.raises(ValueError):
        ideal_point_count(cf(4, -1, 2))


def test_detected_slopes_examples():
    assert detected_slopes_with_counts(Fraction(4, 15)) == {-14: 1, -8: 2, 0: 3}
    detected = detected_slopes_with_counts(Fraction(6, 35))
    assert set(detected) == {0, -12, -22}
    assert detected[-12] == 4  # two classes per slope -12 expansion


def test_counting_methods_agree_up_to_q45():
    for fraction in all_reduced_fractions(45):
        for c in enumerate_admissible(fraction):
            n1 = len(ideal_point_classes(c))
            n2 = count_classes_by_orbits(c)
            n3 = orbit_count_oracle(c)
            assert n1 == n2 == n3, c


def test_orbit_sizes_divide_four():
    from tbk.idealpoints import _orbit, _valid_tuples

    for fraction in all_reduced_fractions(29):
        for c in enumerate_admissible(fraction):
            moduli = tuple(abs(a) for a in c.entries)
            for tup in _valid_tuples(moduli):
                assert len(_orbit(tup, moduli)) in (1, 2, 4)


def test_double_twist_counts():
    for n in range(2, 11):
        f = Fraction(2 * n, 4 * n * n - 1)
        for c in enumerate_admissible(f):
            if len(c.entries) in (2 * n,):  # the two slope -4n expansions
                if abs(c.entries[0]) == 2 * n - 1 or abs(c.entries[-1]) == 2 * n - 1:
                    assert len(ideal_point_classes(c)) == n - 1


def test_parity_convention_agrees_on_reference_counts():
    # negating the even positions instead of the odd ones gives the same
    # classes, so the production count matches the even-parity oracle
    for entries in ((3, 2, -2, 2), (5, 2, -2, 2, -2, 2), (4, -4), (2, -2)):
        c = cf(*entries)
        assert len(ideal_point_classes(c)) == orbit_count_oracle(c, parity="even")


def assert_count_matches_enumeration(c):
    assert ideal_point_count(c) == count_classes_by_orbits(c) == len(ideal_point_classes(c)), c


def test_closed_form_count_random_expansions():
    # lengths 1-7, |entries| 2-9, random signs; expansions with more than
    # 1500 residue tuples are redrawn to keep the enumerations cheap
    rng = random.Random(401)
    lengths = {n: 0 for n in range(1, 8)}
    checked = 0
    while checked < 500:
        length = rng.randint(1, 7)
        entries = [rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(length)]
        if prod(abs(a) - 1 for a in entries) > 1500:
            continue
        assert_count_matches_enumeration(cf(*entries))
        lengths[length] += 1
        checked += 1
    assert all(lengths.values()), lengths


def test_closed_form_count_forced_cases():
    rng = random.Random(402)
    for _ in range(60):
        length = rng.randint(1, 4)
        signs = [rng.choice((-1, 1)) for _ in range(length)]
        evens = [s * rng.choice((2, 4, 6, 8)) for s in signs]  # all-half excluded
        odds = [s * rng.choice((3, 5, 7, 9)) for s in signs]
        assert_count_matches_enumeration(cf(*evens))
        assert_count_matches_enumeration(cf(*odds))
    for a in range(-9, 10):
        if abs(a) >= 2:
            assert_count_matches_enumeration(cf(a))  # a single entry
    assert ideal_point_count(cf(2, -2)) == 0
