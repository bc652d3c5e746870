"""Ideal points of the character variety, counted through residue tuples.

For an admissible expansion with entries (n1, ..., nN), the ideal points
of the containing components correspond one to one with equivalence
classes of tuples (k1, ..., kN), where ki is a nonzero residue mod |ni|,
some position must avoid the half-modulus value |ni|/2, and the relation
is generated by global negation (kj) -> (-kj) together with alternating
negation (kj) -> ((-1)^j kj).

Moduli are taken for |ni| (the residue ring of n and -n coincide), and
alternating negation negates the odd positions (j counted from 1).
Negating the even positions instead gives the same group, since that
map is the odd-position one composed with global negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .surfaces import slope_report


@dataclass(frozen=True)
class IdealPointClass:
    """Canonical (lexicographically minimal) representative of an orbit."""

    residues: tuple


def _orbit(tup, moduli):
    negate_all = tuple((m - k) % m for k, m in zip(tup, moduli))

    def alt(t):
        out = []
        for j, (k, m) in enumerate(zip(t, moduli), start=1):
            out.append((m - k) % m if j % 2 == 1 else k)
        return tuple(out)

    return {tup, negate_all, alt(tup), alt(negate_all)}


def _valid_tuples(moduli):
    """Tuples of nonzero residues with some ki != |ni|/2."""
    ranges = [range(1, m) for m in moduli]
    for tup in product(*ranges):
        if all(m % 2 == 0 and 2 * k == m for k, m in zip(tup, moduli)):
            continue
        yield tup


def ideal_point_classes(expansion) -> list:
    """All residue-tuple classes of an admissible expansion, sorted by
    canonical representative."""
    if not expansion.admissible:
        raise ValueError(f"{expansion} is not admissible")
    moduli = tuple(abs(a) for a in expansion.entries)
    reps = {min(_orbit(t, moduli)) for t in _valid_tuples(moduli)}
    return [IdealPointClass(r) for r in sorted(reps)]


def count_classes_by_orbits(expansion) -> int:
    """Second, orbit-enumeration count (kept independent of the
    canonicalization path above for cross-checking)."""
    if not expansion.admissible:
        raise ValueError(f"{expansion} is not admissible")
    moduli = tuple(abs(a) for a in expansion.entries)
    remaining = set(_valid_tuples(moduli))
    count = 0
    while remaining:
        tup = remaining.pop()
        remaining -= _orbit(tup, moduli)
        count += 1
    return count


def detected_slopes_with_counts(p_over_q: Fraction) -> dict:
    """Total ideal-point count per boundary slope over all admissible
    expansions of p/q."""
    totals = {}
    for d in slope_report(p_over_q):
        totals[d.slope] = totals.get(d.slope, 0) + d.ideal_point_count
    return dict(sorted(totals.items()))
