"""Slopes on the boundary torus: rationals extended by 1/0.

A slope is a primitive pair (num, den) with den >= 0, den == 0 only for
the infinite slope 1/0.  Finite slopes compare by value; 1/0 sorts last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True, order=False)
class Slope:
    num: int
    den: int

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a slope")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(abs(num), den)
            if g > 1:
                num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    INFINITY: "Slope" = None  # set below

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def _key(self):
        return (1, 0) if self.is_infinite else (0, Fraction(self.num, self.den))

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __neg__(self):
        if self.is_infinite:
            return self
        return Slope(-self.num, self.den)

    def half(self) -> "Slope":
        if self.is_infinite:
            return self
        return Slope(self.num, 2 * self.den)

    def __str__(self):
        if self.is_infinite:
            return "1/0"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Slope({self})"


Slope.INFINITY = Slope(1, 0)
