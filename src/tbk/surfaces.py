"""Branched surfaces from admissible expansions: boundary slopes and the
4-plat flip.

The slope of the branched surface carried by an admissible expansion is

    2*((n+ - n-) - (n0+ - n0-))

where n+/n- count positive/negative entries of the expansion after the
signs of the even-numbered entries are swapped, and n0+/n0- do the same
for the unique all-even expansion of the knot fraction.

Turning the 4-plat upside down sends the surface of [b1, ..., bs] to
(-1)^(s+1) times the surface of the reversed expansion; the sign is
absorbed with the negation identity -[c1,...,cs] = [-c1,...,-cs].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .confrac import (
    ContinuedFraction,
    all_even_expansion,
    enumerate_admissible,
    evaluate,
)


@dataclass(frozen=True)
class BranchedSurface:
    expansion: ContinuedFraction
    knot_fraction: Fraction

    def __post_init__(self):
        if not self.expansion.admissible:
            raise ValueError(f"{self.expansion} is not admissible")
        if (evaluate(self.expansion) - self.knot_fraction).denominator != 1:
            raise ValueError(
                f"{self.expansion} does not evaluate to {self.knot_fraction} mod Z")


@dataclass(frozen=True)
class SlopeDatum:
    slope: int
    expansion: ContinuedFraction
    symmetric: bool
    ideal_point_count: int

    def __post_init__(self):
        if self.slope % 2:
            raise ValueError(f"boundary slope {self.slope} is not even")


def alternate_signs(entries) -> list:
    """Swap the signs of the even-numbered entries (2nd, 4th, ...)."""
    return [a if i % 2 == 0 else -a for i, a in enumerate(entries)]


def _sign_balance(entries) -> int:
    """n+ - n-: positive minus negative entries after alternate_signs."""
    alt = alternate_signs(entries)
    return 2 * sum(1 for a in alt if a > 0) - len(alt)


def _slope(entries, even_balance) -> int:
    """2*((n+ - n-) - (n0+ - n0-)), given the all-even expansion's n0+ - n0-."""
    return 2 * (_sign_balance(entries) - even_balance)


def _flipped_entries(entries) -> tuple:
    """The entries reversed, and negated when their number is even."""
    flipped = entries[::-1]
    return flipped if len(flipped) % 2 else tuple(-a for a in flipped)


def boundary_slope(surface: BranchedSurface) -> int:
    even = all_even_expansion(surface.knot_fraction)
    return _slope(surface.expansion.entries, _sign_balance(even.entries))


def flip(surface: BranchedSurface) -> BranchedSurface:
    """The image of the surface under turning the 4-plat upside down.

    Even-length expansions pick up a sign, handled by negating every
    entry; the result is a branched surface for the flipped knot's
    fraction (the evaluation of the flipped expansion, reduced mod Z
    into (0, 1)).
    """
    flipped = ContinuedFraction(_flipped_entries(surface.expansion.entries))
    value = evaluate(flipped)
    fraction = value - math.floor(value)
    return BranchedSurface(flipped, fraction)


def is_symmetric(surface: BranchedSurface) -> bool:
    return flip(surface).expansion == surface.expansion


def slope_report(p_over_q: Fraction) -> list:
    """One SlopeDatum per admissible expansion of p/q.

    Gives the same data as ``boundary_slope``, ``is_symmetric`` and
    ``ideal_point_classes`` on each expansion's surface, more cheaply: the
    knot's all-even sign balance is computed once for the whole report,
    symmetry compares the entries with their flipped entries without
    building the flipped surface, and the ideal points are counted in
    closed form.
    """
    from .idealpoints import ideal_point_count

    p_over_q = Fraction(p_over_q)
    expansions = enumerate_admissible(p_over_q)
    even_balance = _sign_balance(all_even_expansion(p_over_q).entries)
    data = []
    for cf in expansions:
        BranchedSurface(cf, p_over_q)  # each expansion must evaluate to p/q mod Z
        data.append(SlopeDatum(
            slope=_slope(cf.entries, even_balance),
            expansion=cf,
            symmetric=_flipped_entries(cf.entries) == cf.entries,
            ideal_point_count=ideal_point_count(cf),
        ))
    return data


def symmetric_slopes(report) -> list:
    """Sorted, deduplicated slopes of the symmetric surfaces in a report."""
    return sorted({d.slope for d in report if d.symmetric})


def all_slopes(report) -> list:
    return sorted({d.slope for d in report})
