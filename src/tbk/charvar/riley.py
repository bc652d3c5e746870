"""Riley polynomial: the single condition cutting out nonabelian reps.

Generators go to

    g1 -> [[M, 1], [0, 1/M]],      g2 -> [[M, 0], [-u, 1/M]],

and every word of length n is computed as M^n times its image, clearing
all denominators.  With W = M^n rho(w) = [[w11, w12], [w21, w22]], the
relation w g1 = g2 w gives four entry conditions in Z[M, u]:

    d11 = M^2 w11 - M^2 w11, which vanishes identically,
    d22 = M (w21 + u w12), which vanishes for a two-bridge relator,
    d21 = u d12, with d12 = M w11 + (1 - M^2) w12.

So d12, with monomial and integer content stripped, is the Riley
polynomial, of degree (q-1)/2 in u.
"""

from __future__ import annotations

from ..exactnum import MultiPoly
from .presentation import TwoBridgePresentation

_VARS = ("M", "u")

# The scaled letters M * rho(letter) act on a row (x, y) as
#     g1: (M^2 x, M x + y)          g1^-1: (x, M^2 y - M x)
#     g2: (M^2 x - M u y, y)        g2^-1: (x + M u y, M^2 y)
# so each letter scales one entry by M^2 and adds +-M u^j times the other
# entry's old value into one entry: (entry scaled, source, target, sign, j).
_LETTER_ACTIONS = {
    (0, 1): (0, 0, 1, 1, 0),
    (0, -1): (1, 0, 1, -1, 0),
    (1, 1): (0, 1, 0, -1, 1),
    (1, -1): (1, 1, 0, 1, 1),
}


def _word_rows(letters, count=2):
    """The first ``count`` rows of M^n * rho(word), n = len(letters), as
    pairs of MultiPolys.

    An entry is a dict of terms keyed by the packed exponent i + j*stride
    of its term M^i u^j, less a pending M-offset, so a letter's M^2 is an
    offset bump and its add runs in place over the source's terms; the
    MultiPolys are built once at the end, from the nonzero terms, unchecked
    (MultiPoly._of).  A key may be negative, but the true i lies in [0,
    2n], below stride, so key + offset decodes."""
    stride = 2 * len(letters) + 1
    rows = [([{0: 1}, {}], [0, 0]), ([{}, {0: 1}], [0, 0])][:count]
    for letter in letters:
        scaled, src, dst, sign, du = _LETTER_ACTIONS[letter]
        base = 1 + du * stride - (2 if scaled == dst else 0)
        for entries, offsets in rows:
            shift = base + offsets[src] - offsets[dst]
            offsets[scaled] += 2
            target = entries[dst]
            get = target.get
            if sign > 0:
                for k, c in entries[src].items():
                    k += shift
                    target[k] = get(k, 0) + c
            else:
                for k, c in entries[src].items():
                    k += shift
                    target[k] = get(k, 0) - c
    return [tuple(MultiPoly._of(_VARS, {((k + off) % stride, (k + off) // stride): c
                                        for k, c in terms.items() if c})
                  for terms, off in zip(entries, offsets))
            for entries, offsets in rows]


def scaled_word_matrix(letters):
    """(matrix, n) with matrix = M^n * rho(word) over Z[M, u]."""
    (a, b), (c, d) = _word_rows(letters)
    return (a, b, c, d), len(letters)


class PresentationError(ValueError):
    """The relator entry conditions degenerated (convention bug guard)."""


def riley_polynomial(pres: TwoBridgePresentation) -> MultiPoly:
    """The Riley polynomial of the presentation, in (M, u).

    Its leading u-coefficient is checked to be +-M^a, so phi(m, u) keeps
    its u-degree at every integer m >= 1.  Both A-polynomial engines rely
    on this: the direct one for a resultant whose only pure-M factors are
    integers and powers of M, the modular one for images that are
    +-A mod p (see tbk.charvar.apoly).  d22 and d12 are read off the
    terms of w11, w12 and w21 (module docstring), and d12 is normalized
    in one pass (MultiPoly.normalized)."""
    (w11, w12, w21, _), _ = scaled_word_matrix(pres.relator_word())
    w11, w12, w21 = w11.terms, w12.terms, w21.terms
    if w21 != {(i, j + 1): -c for (i, j), c in w12.items()}:  # d22 / M = w21 + u w12
        raise PresentationError(
            f"diagonal entry condition d22 for {pres.fraction} does not vanish")
    d12 = {(i + 1, j): c for (i, j), c in w11.items()}  # M w11 + (1 - M^2) w12
    for (i, j), c in w12.items():
        d12[i, j] = d12.get((i, j), 0) + c
        d12[i + 2, j] = d12.get((i + 2, j), 0) - c
    phi = MultiPoly._of(_VARS, {k: c for k, c in d12.items() if c}).normalized()

    q = pres.fraction.denominator
    if phi.is_constant() or phi.degree("u") != (q - 1) // 2:
        raise PresentationError(
            f"entry condition for {pres.fraction} gives {phi} "
            f"(expected u-degree {(q - 1) // 2})")
    lead = [c for (_, j), c in phi.terms.items() if j == (q - 1) // 2]
    if len(lead) != 1 or abs(lead[0]) != 1:
        raise PresentationError(
            f"leading u-coefficient {phi.coefficients_in('u')[-1]} of the Riley "
            f"polynomial of {pres.fraction} is not +-M^a")
    return phi
