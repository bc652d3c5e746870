"""Riley polynomial: the single condition cutting out nonabelian reps.

Generators go to

    g1 -> [[M, 1], [0, 1/M]],      g2 -> [[M, 0], [-u, 1/M]],

and every word of length n is computed as M^n times its image, clearing
all denominators.  Imposing the relation w g1 = g2 w yields four entry
conditions in Z[M, u]; their gcd (with monomial and integer content
stripped) is the Riley polynomial, of degree (q-1)/2 in u.
"""

from __future__ import annotations

from ..exactnum import MultiPoly, poly_gcd, poly_prem
from .presentation import TwoBridgePresentation

_VARS = ("M", "u")


def _p(terms):
    return MultiPoly(_VARS, terms)


# scaled generator images: M * rho(letter), entries in Z[M, u]
_LETTERS = {
    (0, 1): (_p({(2, 0): 1}), _p({(1, 0): 1}), _p({}), _p({(0, 0): 1})),
    (0, -1): (_p({(0, 0): 1}), _p({(1, 0): -1}), _p({}), _p({(2, 0): 1})),
    (1, 1): (_p({(2, 0): 1}), _p({}), _p({(1, 1): -1}), _p({(0, 0): 1})),
    (1, -1): (_p({(0, 0): 1}), _p({}), _p({(1, 1): 1}), _p({(2, 0): 1})),
}


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def scaled_word_matrix(letters):
    """(matrix, n) with matrix = M^n * rho(word) over Z[M, u]."""
    out = (_p({(0, 0): 1}), _p({}), _p({}), _p({(0, 0): 1}))
    for letter in letters:
        out = _mat_mul(out, _LETTERS[letter])
    return out, len(letters)


class PresentationError(ValueError):
    """The relator entry conditions degenerated (convention bug guard)."""


def _normalized(poly):
    return poly.strip_monomial().primitive_part().sign_normalized()


def riley_polynomial(pres: TwoBridgePresentation) -> MultiPoly:
    """Generating polynomial of the relator entry conditions, in (M, u)."""
    w, _ = scaled_word_matrix(pres.relator_word())
    a = _LETTERS[(0, 1)]
    b = _LETTERS[(1, 1)]
    lhs = _mat_mul(w, a)
    rhs = _mat_mul(b, w)
    entries = [x - y for x, y in zip(lhs, rhs)]

    candidate = None
    d11, d12, d21, d22 = entries
    if d11.is_zero() and d22.is_zero() and not d12.is_zero() and not d21.is_zero():
        # usual shape: off-diagonal conditions share the full gcd
        cand = _normalized(d12)
        rem = poly_prem(d21, cand, "u")
        if rem.is_zero():
            candidate = cand
    if candidate is None:
        g = MultiPoly.constant(0)
        for e in entries:
            if not e.is_zero():
                g = poly_gcd(g, e)
        candidate = _normalized(g)

    q = pres.fraction.denominator
    if candidate.is_constant() or candidate.degree("u") != (q - 1) // 2:
        raise PresentationError(
            f"entry conditions for {pres.fraction} give gcd {candidate} "
            f"(expected u-degree {(q - 1) // 2})")
    return candidate
