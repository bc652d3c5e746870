import random
from fractions import Fraction
from math import gcd

import pytest

from tbk.confrac import (
    ContinuedFraction,
    InvalidFractionError,
    ZeroDenominatorError,
    all_even_expansion,
    all_positive_expansion,
    enumerate_admissible,
    evaluate,
    evaluate_with_tail,
    expand_repetition,
    format_cf,
    negate,
    parse_cf,
)

from oracles import all_even_oracle, dfs_expansion_oracle, random_cf_entries


def cf(*entries):
    return ContinuedFraction(tuple(entries))


def all_reduced_fractions(q_max):
    for q in range(3, q_max + 1, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def test_evaluate_examples():
    assert evaluate(cf(4, -4)) == Fraction(4, 15)
    assert evaluate(cf(-2, 2)) == Fraction(-2, 3)
    assert evaluate(cf(2)) == Fraction(1, 2)
    assert evaluate(ContinuedFraction((), integer_part=5)) == 5


def test_evaluate_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        evaluate(cf(1, -1))


def test_evaluate_with_tail_examples():
    assert evaluate_with_tail([2, -2, 2, -2, 2], Fraction(5)) == Fraction(29, 35)
    assert evaluate_with_tail([], Fraction(7)) == Fraction(1, 7)
    # a fractional tail equals the expansion with the tail's own expansion
    # appended: 1/(-3/2) = -2/3 = [-2, 2]
    assert (evaluate_with_tail([2, -2, 2], Fraction(-3, 2))
            == evaluate(cf(2, -2, 2, -2, 2)))


def test_negate_examples():
    assert negate(cf(3, 2, -2, 2)).entries == (-3, -2, 2, -2)
    assert evaluate(cf(3, 2, -2, 2)) == Fraction(4, 15)
    assert evaluate(negate(cf(3, 2, -2, 2))) == Fraction(-4, 15)
    assert negate(cf(2)).entries == (-2,)
    block = tuple(expand_repetition([-2, 2], 3))
    assert evaluate(cf(*block)) == Fraction(-6, 7)
    assert evaluate(negate(cf(*block))) == Fraction(6, 7)


def test_negation_identity_random():
    rng = random.Random(5)
    done = 0
    while done < 1000:
        entries = random_cf_entries(rng)
        try:
            value = evaluate(cf(*entries))
        except ZeroDenominatorError:
            continue
        assert evaluate(negate(cf(*entries))) == -value
        done += 1


def test_expand_repetition():
    assert expand_repetition([2, -2], 2) == [2, -2, 2, -2]
    assert expand_repetition([7], 0) == []
    assert expand_repetition([-2, 2], 2) == [-2, 2, -2, 2]
    with pytest.raises(ValueError):
        expand_repetition([2], -1)


def test_repeated_block_closed_form():
    for s in range(1, 51):
        neg_block = cf(*expand_repetition([-2, 2], s))
        pos_block = cf(*expand_repetition([2, -2], s))
        assert evaluate(neg_block) == Fraction(-2 * s, 2 * s + 1)
        assert evaluate(pos_block) == Fraction(2 * s, 2 * s + 1)


def test_tail_closed_form():
    rng = random.Random(6)
    for k in range(0, 21):
        entries = expand_repetition([2, -2], k) + [2]
        done = 0
        while done < 50:
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if x == 0:
                continue
            expect_den = (2 * k + 2) * x + 2 * k + 1
            if expect_den == 0 or (2 * x + 1) == 0:
                continue
            try:
                got = evaluate_with_tail(entries, x)
            except ZeroDenominatorError:
                continue
            assert got == ((2 * k + 1) * x + 2 * k) / expect_den
            done += 1


def test_composition_identity_random():
    rng = random.Random(7)
    done = 0
    while done < 200:
        entries = random_cf_entries(rng, max_len=9)
        if len(entries) < 3:
            continue
        i = rng.randint(2, len(entries) - 1)  # split position, 1-based
        try:
            whole = evaluate(cf(*entries))
            tail_value = evaluate(cf(*entries[i - 1:]))
            if tail_value == 0:
                continue
            composed = evaluate_with_tail(entries[:i - 1], 1 / tail_value)
        except ZeroDenominatorError:
            continue
        assert composed == whole
        done += 1


def test_enumerate_examples():
    got = {c.entries for c in enumerate_admissible(Fraction(4, 15))}
    assert got == {(4, -4), (3, 2, -2, 2), (-2, 2, -2, -3), (-2, 2, -3, 2, -2)}
    got = {c.entries for c in enumerate_admissible(Fraction(1, 3))}
    assert got == {(3,), (-2, 2)}
    n = 3
    got = {c.entries for c in enumerate_admissible(Fraction(2 * n, 4 * n * n - 1))}
    assert got == {
        (6, -6),
        (5, 2, -2, 2, -2, 2),
        (-2, 2, -2, 2, -2, -5),
        (-2, 2, -2, 2, -3, 2, -2, 2, -2),
    }


def test_enumerate_output_is_sorted_and_admissible():
    for fraction in all_reduced_fractions(25):
        cfs = enumerate_admissible(fraction)
        entries = [c.entries for c in cfs]
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries)
        for c in cfs:
            assert c.admissible
            assert (evaluate(c) - fraction).denominator == 1


def test_enumerate_matches_oracle_small():
    for fraction in all_reduced_fractions(15):
        mine = [c.entries for c in enumerate_admissible(fraction)]
        oracle = [c.entries for c in dfs_expansion_oracle(fraction)]
        assert mine == oracle, fraction


def test_enumerate_long_expansions():
    # 1/1749 - 1 = [-2,2,...,-2,-3]: 1748 entries, deeper than the default
    # recursion limit, so the walk must not recurse once per entry
    expansions = enumerate_admissible(Fraction(1, 1749))
    assert [len(e) for e in expansions] == [1748, 1]
    assert expansions[1] == cf(1749)
    long = expansions[0]
    assert long.admissible
    assert long.entries[:-1] == (-2, 2) * 873 + (-2,)
    assert evaluate(long) == Fraction(1, 1749) - 1


def test_enumerate_invalid_inputs():
    for bad in (Fraction(1, 4), Fraction(5, 3), Fraction(0), Fraction(1)):
        with pytest.raises(InvalidFractionError):
            enumerate_admissible(bad)


def test_all_even_examples():
    assert all_even_expansion(Fraction(4, 15)).entries == (4, -4)
    assert all_even_expansion(Fraction(2, 3)).entries == (2, -2)
    for n in range(2, 11):
        e = all_even_expansion(Fraction(2 * n, 4 * n * n - 1))
        assert e.entries == (2 * n, -2 * n)


def test_all_even_matches_oracle_and_unique():
    for fraction in all_reduced_fractions(45):
        found = all_even_oracle(fraction)
        assert len(found) == 1, fraction
        assert all_even_expansion(fraction).entries == found[0]
        assert all(a % 2 == 0 for a in found[0])


def test_all_positive_examples():
    assert all_positive_expansion(Fraction(4, 15)).entries == (3, 1, 3)
    assert all_positive_expansion(Fraction(11, 15)).entries == (1, 2, 1, 3)
    assert all_positive_expansion(Fraction(1, 5)).entries == (5,)
    with pytest.raises(InvalidFractionError):
        all_positive_expansion(Fraction(5, 3))


def test_all_positive_properties():
    for fraction in all_reduced_fractions(25):
        e = all_positive_expansion(fraction).entries
        assert all(a >= 1 for a in e)
        assert e[-1] != 1
        assert evaluate(cf(*e)) == fraction


def test_cf_text_syntax():
    assert parse_cf("[4,-4]").entries == (4, -4)
    assert parse_cf("[(-2,2)_3,-3]").entries == (-2, 2, -2, 2, -2, 2, -3)
    assert parse_cf("[(2,-2)_2]").entries == (2, -2, 2, -2)
    assert format_cf(cf(3, 2, -2, 2)) == "[3,2,-2,2]"
    assert parse_cf(format_cf(cf(-2, 2, -3))) == cf(-2, 2, -3)
    with pytest.raises(ValueError):
        parse_cf("4,-4")
    with pytest.raises(ValueError):
        parse_cf("[]")
