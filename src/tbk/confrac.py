"""Continued fractions with signed integer entries.

A fraction p/q is written r + [a1, a2, ..., as] for the nested form

    r + 1/(a1 + 1/(a2 + ... + 1/as)).

Expansions with every |ai| >= 2 are called admissible; those are the ones
that carry branched surfaces, and for a fixed p/q (taken mod Z, with q odd)
there are finitely many of them.  This module evaluates, negates and
composes expansions, and enumerates the complete admissible set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


class InvalidFractionError(ValueError):
    """Input fraction is not a reduced p/q with q odd and 0 < p < q."""


class ExpansionUniquenessError(RuntimeError):
    """p/q has no all-even expansion, or more than one (an internal fault)."""


class ZeroDenominatorError(ZeroDivisionError, ValueError):
    """A partial denominator vanished while evaluating an expansion.  It is
    a ValueError too: continued-fraction text such as [1,-1] that names no
    number is invalid input, which the CLI reports as such."""


@dataclass(frozen=True)
class ContinuedFraction:
    """Signed-entry continued fraction r + [a1, ..., as]."""

    entries: tuple
    integer_part: int = 0

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        if any(a == 0 for a in entries):
            raise ValueError("continued fraction entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @property
    def admissible(self) -> bool:
        return all(abs(a) >= 2 for a in self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        body = "[" + ",".join(str(a) for a in self.entries) + "]"
        if self.integer_part:
            return f"{self.integer_part}+{body}"
        return body

    def __repr__(self):
        return f"ContinuedFraction({self})"


def evaluate(cf: ContinuedFraction) -> Fraction:
    """Exact value of r + [a1, ..., as]; [] evaluates to r alone."""
    x = Fraction(0)
    for a in reversed(cf.entries):
        if a + x == 0:
            raise ZeroDenominatorError(f"zero partial denominator in {cf}")
        x = 1 / (a + x)
    return cf.integer_part + x


def evaluate_with_tail(entries, x: Fraction) -> Fraction:
    """Value of [a1, ..., ak, x] with a rational x as the final entry."""
    if x == 0:
        raise ZeroDenominatorError("tail entry x must be nonzero")
    t = Fraction(1, 1) / x
    for a in reversed(tuple(entries)):
        if a + t == 0:
            raise ZeroDenominatorError("zero partial denominator")
        t = 1 / (a + t)
    return t


def negate(cf: ContinuedFraction) -> ContinuedFraction:
    """[a1,...,as] = -[-a1,...,-as]; negates the integer part too."""
    return ContinuedFraction(tuple(-a for a in cf.entries), -cf.integer_part)


def expand_repetition(pattern, k: int) -> list:
    """Pattern repeated k times; k = 0 gives []."""
    if k < 0:
        raise ValueError("repetition count must be >= 0")
    return list(pattern) * k


def _check_fraction(p_over_q: Fraction) -> Fraction:
    p_over_q = Fraction(p_over_q)
    p, q = p_over_q.numerator, p_over_q.denominator
    if q % 2 == 0:
        raise InvalidFractionError(f"{p_over_q}: denominator must be odd")
    if not (0 < p < q):
        raise InvalidFractionError(f"{p_over_q}: need 0 < p < q")
    return p_over_q


def _representatives(p_over_q: Fraction):
    """The two representatives of p/q mod Z inside (-1, 1)."""
    return (p_over_q, p_over_q - 1)


def _admissible_tails(x: Fraction):
    """All admissible entry lists whose value is exactly x in (-1,1)\\{0}.

    The head entry a of [a, tail] satisfies a = 1/x - value(tail) with
    |value(tail)| < 1, so a lies in the open interval (1/x - 1, 1/x + 1);
    the walk goes on with the leftover 1/x - a, whose denominator strictly
    decreases.  Expansions can be thousands of entries long, so the walk
    is a loop over an explicit stack, not a recursion: each visited entry
    is a node (entry, parent node), and a finished expansion is read back
    along the parent links.  Lists come out in depth-first order, smallest
    head entry first.
    """
    nodes = []
    found = []
    stack = [(x, -1)]  # (leftover value, node it hangs from); 0 = finished
    start = x
    while stack:
        if len(nodes) > MAX_WALK_NODES:
            bits = start.denominator.bit_length()  # no decimal text for huge ones
            name = start if bits <= 256 else f"a fraction with a {bits}-bit denominator"
            raise ValueError(f"admissible enumeration of {name} visits more "
                             f"than {MAX_WALK_NODES} nodes")
        x, node = stack.pop()
        if x == 0:
            entries = []
            while node >= 0:
                a, node = nodes[node]
                entries.append(a)
            found.append(tuple(reversed(entries)))
            continue
        c = 1 / x
        lo = math.floor(c - 1) + 1
        hi = math.ceil(c + 1) - 1
        for a in range(hi, lo - 1, -1):  # pushed largest first, popped smallest first
            if abs(a) < 2:
                continue
            t = c - a
            if t == 0 or abs(t) < 1:
                nodes.append((a, node))
                stack.append((t, len(nodes) - 1))
    return found


def enumerate_admissible(p_over_q: Fraction) -> list:
    """Every admissible expansion whose value is p/q mod Z.

    Both representatives of p/q in (-1, 1) are expanded; results are sorted
    lexicographically by entries and are duplicate-free.  Each returned
    expansion has integer part 0, so evaluate() recovers the representative
    it stands for.  A walk of more than MAX_WALK_NODES nodes raises
    ValueError.
    """
    p_over_q = _check_fraction(p_over_q)
    seen = set()
    for rep in _representatives(p_over_q):
        for entries in _admissible_tails(rep):
            seen.add(entries)
    return [ContinuedFraction(e) for e in sorted(seen)]


def _all_even_greedy(x: Fraction):
    """Greedy all-even expansion of the exact value x, or None.

    At each step the unique even integer within distance 1 of 1/x is
    taken; the attempt fails when 1/x lands exactly on an odd integer
    (two even integers tie at distance 1).
    """
    entries = []
    while x != 0:
        c = 1 / x
        b = 2 * math.floor(c / 2)
        if c - b > 1:
            b += 2
        elif c - b == 1:
            return None  # tie: 1/x is an odd integer
        entries.append(b)
        x = c - b
    return tuple(entries)


def all_even_expansion(p_over_q: Fraction) -> ContinuedFraction:
    """The unique expansion with all even entries and value p/q mod Z.

    Any representative with odd denominator is accepted; the class mod Z
    is what matters.
    """
    p_over_q = Fraction(p_over_q)
    p_over_q -= math.floor(p_over_q)
    if p_over_q == 0:
        raise InvalidFractionError("integers have no admissible expansion")
    p_over_q = _check_fraction(p_over_q)
    hits = []
    for rep in _representatives(p_over_q):
        entries = _all_even_greedy(rep)
        if entries is not None:
            hits.append(entries)
    if len(hits) != 1:
        raise ExpansionUniquenessError(
            f"all-even expansion of {p_over_q} is not unique: {hits}")
    return ContinuedFraction(hits[0])


def all_positive_expansion(p_over_q: Fraction) -> ContinuedFraction:
    """Euclidean expansion with all positive entries, never ending in 1."""
    p_over_q = Fraction(p_over_q)
    if not (0 < p_over_q < 1):
        raise InvalidFractionError(f"{p_over_q}: need 0 < p/q < 1")
    entries = []
    x = p_over_q
    while x != 0:
        c = 1 / x
        a = math.floor(c)
        entries.append(a)
        x = c - a
    return ContinuedFraction(tuple(entries))


# -- text syntax -------------------------------------------------------------

_GROUP = re.compile(r"\(([^()]*)\)_(\d+)")

# Longest expansion parse_cf builds: far above the admissible expansions
# met in practice (3200/3203 has one of about 1,070 entries).
MAX_CF_ENTRIES = 100_000

# Most nodes one admissible walk may visit: 57 times the longest walk in
# the slopes benchmark's pool of 4,145 fractions (1/1749, 1,748 nodes).
# Literals well under MAX_CF_ENTRIES, such as [(2)_30], can denote
# fractions whose walk does not finish.
MAX_WALK_NODES = 100_000


def _items(text):
    return [p for p in text.split(",") if p]


def parse_cf(text: str) -> ContinuedFraction:
    """Parse CF text like ``[4,-4]`` or ``[(-2,2)_3,-3]``.

    ``(pattern)_k`` groups expand to the pattern repeated k times; groups
    may nest.  A Unicode minus sign is accepted as well.  Text that
    expands to more than MAX_CF_ENTRIES entries raises ValueError; the
    size is checked before each round of group expansion, so a huge
    repetition count is refused without being built.
    """
    s = text.replace("−", "-").replace(" ", "")
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected [...] continued fraction, got {text!r}")
    body = s[1:-1]

    def check_size(size):
        if size > MAX_CF_ENTRIES:
            raise ValueError(f"continued fraction {text[:40]!r} expands to "
                             f"more than {MAX_CF_ENTRIES} entries")

    def expand(match):
        pattern, k = match.group(1), int(match.group(2))
        return ",".join(_items(pattern) * k)

    while groups := list(_GROUP.finditer(body)):
        # innermost groups are expanded first; outer text keeps its size
        check_size(len(_items(_GROUP.sub("", body))) + sum(
            len(_items(g.group(1))) * int(g.group(2)) for g in groups))
        body = _GROUP.sub(expand, body)
    items = _items(body)
    if not items:
        raise ValueError(f"empty continued fraction {text!r}")
    check_size(len(items))
    try:
        entries = tuple(int(p) for p in items)
    except ValueError:
        raise ValueError(f"malformed continued fraction {text!r}") from None
    return ContinuedFraction(entries)


def format_cf(cf: ContinuedFraction) -> str:
    """Canonical fully expanded form, e.g. ``[3,2,-2,2]``."""
    return "[" + ",".join(str(a) for a in cf.entries) + "]"
