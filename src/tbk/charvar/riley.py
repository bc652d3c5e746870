"""Riley polynomial: the single condition cutting out nonabelian reps.

Generators go to

    g1 -> [[M, 1], [0, 1/M]],      g2 -> [[M, 0], [-u, 1/M]],

and every word of length n is computed as M^n times its image, clearing
all denominators.  With W = M^n rho(w) = [[w11, w12], [w21, w22]], the
relation w g1 = g2 w gives four entry conditions in Z[M, u]: d11 = 0,
d22 = M (w21 + u w12), which vanishes for a two-bridge relator, and then
d21 = u d12 with d12 = M w11 + (1 - M^2) w12.  So d12, with monomial and
integer content stripped, is the Riley polynomial, of degree (q-1)/2 in u.
"""

from __future__ import annotations

from ..exactnum import MultiPoly
from .presentation import TwoBridgePresentation

_VARS = ("M", "u")


def _p(terms):
    return MultiPoly(_VARS, terms)


# scaled generator images M * rho(letter): each entry is one monomial
# coeff * M^i * u^j, written ((i, j), coeff), or None for a zero entry
_LETTER_TERMS = {
    (0, 1): (((2, 0), 1), ((1, 0), 1), None, ((0, 0), 1)),
    (0, -1): (((0, 0), 1), ((1, 0), -1), None, ((2, 0), 1)),
    (1, 1): (((2, 0), 1), None, ((1, 1), -1), ((0, 0), 1)),
    (1, -1): (((0, 0), 1), None, ((1, 1), 1), ((2, 0), 1)),
}
_LETTERS = {letter: tuple(_p(dict([e]) if e else {}) for e in entries)
            for letter, entries in _LETTER_TERMS.items()}


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _combine(x, mx, y, my):
    """x * mx + y * my on term dicts, mx and my monomials or None."""
    out = {}
    get = out.get
    for terms, monomial in ((x, mx), (y, my)):
        if monomial is None:
            continue
        (di, dj), coeff = monomial
        for (i, j), c in terms.items():
            key = (i + di, j + dj)
            out[key] = get(key, 0) + c * coeff
    return out


def _word_rows(rows, letters):
    """rows * M^n * rho(word), rows given as pairs of term dicts.

    Every letter's image is a matrix of monomials, so the product is
    carried as term dicts, each letter an exponent shift plus adds, and
    each MultiPoly is built once at the end."""
    for letter in letters:
        e, f, g, h = _LETTER_TERMS[letter]
        rows = [(_combine(x, e, y, g), _combine(x, f, y, h)) for x, y in rows]
    return [(_p(x), _p(y)) for x, y in rows]


def scaled_word_matrix(letters):
    """(matrix, n) with matrix = M^n * rho(word) over Z[M, u]."""
    (a, b), (c, d) = _word_rows([({(0, 0): 1}, {}), ({}, {(0, 0): 1})], letters)
    return (a, b, c, d), len(letters)


class PresentationError(ValueError):
    """The relator entry conditions degenerated (convention bug guard)."""


def riley_polynomial(pres: TwoBridgePresentation) -> MultiPoly:
    """The Riley polynomial of the presentation, in (M, u).

    Its leading u-coefficient is checked to be +-M^a, so phi(m, u) keeps
    its u-degree at every integer m >= 1.  Both A-polynomial engines rely
    on this: the direct one for a resultant whose only pure-M factors are
    integers and powers of M, the modular one for images that are
    +-A mod p (see tbk.charvar.apoly)."""
    w, _ = scaled_word_matrix(pres.relator_word())
    lhs = _mat_mul(w, _LETTERS[(0, 1)])
    rhs = _mat_mul(_LETTERS[(1, 1)], w)
    d11, d12, _, d22 = (x - y for x, y in zip(lhs, rhs))
    if not (d11.is_zero() and d22.is_zero()):
        raise PresentationError(
            f"diagonal entry conditions for {pres.fraction} do not vanish")
    phi = d12.strip_monomial().primitive_part().sign_normalized()

    q = pres.fraction.denominator
    if phi.is_constant() or phi.degree("u") != (q - 1) // 2:
        raise PresentationError(
            f"entry condition for {pres.fraction} gives {phi} "
            f"(expected u-degree {(q - 1) // 2})")
    lead = phi.coefficients_in("u")[-1]
    if len(lead.terms) != 1 or abs(*lead.terms.values()) != 1:
        raise PresentationError(
            f"leading u-coefficient {lead} of the Riley polynomial of "
            f"{pres.fraction} is not +-M^a")
    return phi
