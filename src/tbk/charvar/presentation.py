"""Two-bridge group presentations in the standard normal form.

For a reduced fraction p/q with q odd, let beta be the odd representative
of p modulo 2q chosen in (-q, q) (beta = p when p is odd, p - q when p is
even).  The relator data are the signs

    eps_i = (-1)^floor(i*beta/q),   i = 1, ..., q-1,

and the group is

    < g1, g2 | w g1 = g2 w >,   w = g1^eps1 g2^eps2 g1^eps3 ... g2^eps(q-1),

with the word alternating between the generators.  The odd choice of beta
makes the sign sequence palindromic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..confrac import _check_fraction


@dataclass(frozen=True)
class TwoBridgePresentation:
    fraction: Fraction
    epsilons: tuple

    def __post_init__(self):
        if len(self.epsilons) != self.fraction.denominator - 1:
            raise ValueError("relator length must be q - 1")

    def relator_word(self):
        """The word w as (generator index 0/1, exponent +-1) letters."""
        return tuple((i % 2, e) for i, e in enumerate(self.epsilons))

    def exponent_sum(self) -> int:
        return sum(self.epsilons)

    def longitude_word(self):
        """Longitude as letters: reversed(w) then w then g1^(-2e).

        The relator-derived word w~ w is corrected by a meridian power
        so the total exponent sum vanishes.
        """
        w = self.relator_word()
        e = self.exponent_sum()
        correction = tuple((0, -1 if e > 0 else 1) for _ in range(2 * abs(e)))
        return tuple(reversed(w)) + w + correction


def presentation(p_over_q: Fraction) -> TwoBridgePresentation:
    p_over_q = _check_fraction(p_over_q)
    p, q = p_over_q.numerator, p_over_q.denominator
    beta = p if p % 2 == 1 else p - q
    eps = tuple(-1 if ((i * beta) // q) % 2 else 1 for i in range(1, q))
    return TwoBridgePresentation(p_over_q, eps)
