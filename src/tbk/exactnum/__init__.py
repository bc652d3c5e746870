"""Exact arithmetic foundation: rationals, sparse integer polynomials,
dense polynomials over exact rings, resultant elimination and normalization.

``Rational`` is the stdlib Fraction: arbitrary precision, always in lowest
terms with positive denominator, which is exactly the canonical form the
rest of the library expects.
"""

from fractions import Fraction as Rational

from .multipoly import ExactDivisionError, MultiPoly
from .resultants import poly_resultant
from .textio import format_apoly, parse_apoly, read_apoly, write_apoly
from .upoly import QPoly

__all__ = [
    "Rational",
    "MultiPoly",
    "QPoly",
    "ExactDivisionError",
    "poly_resultant",
    "format_apoly",
    "parse_apoly",
    "read_apoly",
    "write_apoly",
]
