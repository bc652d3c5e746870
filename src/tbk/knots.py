"""Two-bridge knot identifiers and the double twist family map.

K(p, q) and K(p', q') are the same knot exactly when q = q' and
p' = p^(+-1) mod q; the mirror image corresponds to q - p.  Canonical
ids minimize p over these moves and the mirror moves, matching how the
double twist fractions are normally quoted.

The double twist knot J(k, l) is two-bridge with fraction l / (1 - l*k)
taken mod Z; k*l must be even or the diagram closes to a two-component
link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class TwoComponentLinkError(ValueError):
    """J(k, l) with k*l odd is a link, not a knot."""


class NotHyperbolicError(ValueError):
    """Degenerate twist parameters (unknot or trivial diagram)."""


@dataclass(frozen=True)
class KnotId:
    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q < 3 or q % 2 == 0:
            raise ValueError(f"q = {q} must be odd and >= 3")
        if not (0 < p < q) or math.gcd(p, q) != 1:
            raise ValueError(f"p = {p} must be a unit in (0, {q})")

    @classmethod
    def canonical(cls, p: int, q: int) -> "KnotId":
        """The least p' over p^(+-1) and their mirrors q - p^(+-1), mod q."""
        p %= q
        inv = pow(p, -1, q)
        return cls(min(p, inv, q - p, q - inv), q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def knot_equivalent(a: KnotId, b: KnotId) -> bool:
    """Same knot (orientation conventions fixed): q = q', p' = p^(+-1)."""
    if a.q != b.q:
        return False
    return b.p % a.q in (a.p % a.q, pow(a.p, -1, a.q))


def double_twist_to_two_bridge(k: int, l: int) -> KnotId:
    """Canonical two-bridge id of the double twist knot J(k, l), up to
    mirror image."""
    if (k * l) % 2:
        raise TwoComponentLinkError(
            f"J({k},{l}) has odd twist product; it is a two-component link")
    if abs(k) <= 1 and abs(l) <= 1:
        raise NotHyperbolicError(f"J({k},{l}) is not a hyperbolic knot")
    denom = 1 - l * k
    if denom == 0:
        raise NotHyperbolicError(f"J({k},{l}) degenerates (1 - kl = 0)")
    f = Fraction(l, denom)
    f -= math.floor(f)
    if f.denominator < 3:
        raise NotHyperbolicError(f"J({k},{l}) is the unknot")
    return KnotId.canonical(f.numerator, f.denominator)


def double_twist_fraction(n: int) -> Fraction:
    """Fraction 2n/(4n^2 - 1) of the symmetric double twist knot J(2n, 2n)."""
    if n < 2:
        raise ValueError("symmetric double twist knots here require n >= 2")
    return Fraction(2 * n, 4 * n * n - 1)
