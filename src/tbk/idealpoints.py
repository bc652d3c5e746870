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

The number of classes has a closed form by Burnside's lemma over the
Klein four-group {id, neg, alt, neg∘alt}.  With mi = |ni| and
E = [every mi is even] (the all-half tuple is then the excluded one):

    |X|           = prod(mi - 1) - E
    Fix(neg)      = 0   (only the all-half tuple is fixed, and it is excluded)
    Fix(alt)      = prod_{j odd} [mj even] * prod_{j even} (mj - 1) - E
    Fix(neg∘alt)  = prod_{j odd} (mj - 1) * prod_{j even} [mj even] - E

    classes = (|X| + Fix(alt) + Fix(neg∘alt)) / 4

``ideal_point_count`` evaluates it in O(N) integer steps; the orbit walk
``count_classes_by_orbits`` is its oracle, and ``ideal_point_classes``
still enumerates the class representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

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


def ideal_point_count(expansion) -> int:
    """Number of residue-tuple classes of an admissible expansion, by the
    Burnside formula of the module docstring; equals
    ``len(ideal_point_classes(expansion))`` without walking the tuples."""
    if not expansion.admissible:
        raise ValueError(f"{expansion} is not admissible")
    moduli = [abs(a) for a in expansion.entries]
    odd_pos, even_pos = moduli[0::2], moduli[1::2]  # positions 1, 3, ... and 2, 4, ...
    all_half = all(m % 2 == 0 for m in moduli)
    total = prod(m - 1 for m in moduli) - all_half
    fix_alt = all(m % 2 == 0 for m in odd_pos) * prod(m - 1 for m in even_pos) - all_half
    fix_neg_alt = prod(m - 1 for m in odd_pos) * all(m % 2 == 0 for m in even_pos) - all_half
    return (total + fix_alt + fix_neg_alt) // 4


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
