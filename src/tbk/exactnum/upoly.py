"""Dense univariate polynomials over exact rings.

Coefficients are ascending and stored as a tuple without trailing zeros.
They come from one exact ring: Z, Q (ints and Fractions mix freely), or
Z[L, M] as ``MultiPoly`` values, which is how ``poly_prem`` and the gcd
oracles run (the resultant packs its coefficients into integers first).
The constructor only trims, and tests a coefficient with ``not c``: it
never converts one, so integer polynomials stay integer through +, -, *,
shift and prem, and any other operand of * is a scalar of the
coefficient ring.  Only the operations that divide (divmod
by a leading coefficient other than +-1, monic, gcd) bring Fractions in;
each divides by Fraction(lc), so an integer input never yields a float.
The algorithms are the classical dense ones (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 2-3 and 6).
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITE_ORDER = math.inf


class QPoly:
    """Univariate polynomial over an exact ring, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def valuation(self):
        """Index of the lowest nonzero coefficient; inf for 0."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INFINITE_ORDER

    def __call__(self, x):
        """Value at x, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return QPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """(quotient, remainder) with deg remainder < deg other.

        A divisor with leading coefficient +-1 keeps Z[x] inputs in Z[x]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return QPoly(), self
        quot = [0] * (dq + 1)
        inv = div[-1] if div[-1] in (1, -1) else 1 / Fraction(div[-1])
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv
            quot[k] = c
            if c:
                for i, d in enumerate(div):
                    rem[k + i] -= c * d
        return QPoly(quot), QPoly(rem)

    def prem(self, other):
        """Pseudo-remainder lc(other)^(deg self - deg other + 1) * self mod other.

        Exact over any coefficient ring.  Each step pops the leading term it
        cancels, and the lc powers of the steps that a degree drop skips are
        applied once at the end."""
        if other.is_zero():
            raise ZeroDivisionError("pseudo-division by zero")
        g = other.coeffs
        dg = len(g) - 1
        steps = len(self.coeffs) - dg
        if steps <= 0:
            return self
        lc, low = g[-1], g[:-1]
        r = list(self.coeffs)
        while len(r) > dg:
            steps -= 1
            top = r.pop()
            r = [c * lc for c in r]
            k = len(r) - dg
            for i, b in enumerate(low):
                r[k + i] -= top * b
            while r and not r[-1]:
                r.pop()
        if steps:
            scale = lc ** steps
            r = [c * scale for c in r]
        return QPoly(r)

    def monic(self):
        if self.is_zero():
            return self
        return self * (1 / Fraction(self.coeffs[-1]))

    def gcd(self, other):
        """Monic greatest common divisor; 0 when both are 0."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def shift(self, c):
        """p(t + c), by the Horner-scheme Taylor shift."""
        a = list(self.coeffs)
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += c * a[j + 1]
        return QPoly(a)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if abs(c) != 1 else ("t" if c > 0 else "-t"))
            else:
                parts.append(f"{c}*t^{i}" if abs(c) != 1 else
                             (f"t^{i}" if c > 0 else f"-t^{i}"))
        return " + ".join(parts).replace("+ -", "- ")
