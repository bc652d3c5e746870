"""Order-of-vanishing valuations and tree-action diagnostics.

The working field is the rational functions in one parameter t over Q,
with the valuation ord = order of vanishing at t = 0 (negative for
poles, +infinity for 0).  A determinant-one 2x2 matrix over this field
fixes a vertex of the associated tree exactly when ord(trace) >= 0; an
element with ord(trace) < 0 certifies a nontrivial action.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum.upoly import INFINITE_ORDER, QPoly
from .slopes import Slope


# Largest exponent, and largest degree of the result, that RatFunc.__pow__
# computes: matrix entries are short words in t, and a text such as t^100000
# would otherwise build a dense polynomial of that degree.
MAX_POWER = 1000

# Longest matrix entry, in characters, that parse_ratfunc reads.  Python's
# parser and parse_ratfunc's evaluator recurse once per operator, and a
# sum of 1,200 t's already passes the interpreter's default limit of 1,000
# frames; an entry this short stays well inside it.
MAX_ENTRY_LENGTH = 500


class RatFunc:
    """Rational function num/den over Q(t), stored in lowest terms with a
    monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = QPoly.const(num)
        if den is None:
            den = QPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = QPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = QPoly(), QPoly.const(1)
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = Fraction(den.coeffs[-1])
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def t(cls):
        return cls(QPoly.t())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def __pow__(self, n):
        """self^n by repeated squaring of the numerator and denominator.

        A power whose exponent or degree passes MAX_POWER raises ValueError
        before any product is formed."""
        num, den = self.num, self.den
        if n < 0:
            if num.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            num, den, n = den, num, -n
        degree = n * max(num.degree(), den.degree())
        if n > MAX_POWER or degree > MAX_POWER:
            raise ValueError(f"power with exponent {n} and degree {degree} passes "
                             f"MAX_POWER = {MAX_POWER}")
        out_num, out_den = QPoly.const(1), QPoly.const(1)
        while n:
            if n & 1:
                out_num, out_den = out_num * num, out_den * den
            n >>= 1
            if n:
                num, den = num * num, den * den
        # num/den is in lowest terms, so its powers are: skip the gcd
        lc = Fraction(out_den.coeffs[-1])
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", out_num * (1 / lc))
        object.__setattr__(out, "den", out_den * (1 / lc))
        return out

    def __str__(self):
        if self.den == QPoly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def ord_at_zero(f: RatFunc):
    """Order of vanishing at t = 0; +inf for the zero function."""
    if f.is_zero():
        return INFINITE_ORDER
    return f.num.valuation() - f.den.valuation()


class Mat2:
    """2x2 determinant-one matrix over the rational function field."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, check_det=True):
        conv = lambda x: x if isinstance(x, RatFunc) else RatFunc(x)
        a, b, c, d = conv(a), conv(b), conv(c), conv(d)
        if check_det and a * d - b * c != RatFunc(1):
            raise ValueError("matrix determinant is not 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *x):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __mul__(self, o):
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d,
                    check_det=False)

    def inverse(self):
        return Mat2(self.d, -self.b, -self.c, self.a, check_det=False)

    def trace(self) -> RatFunc:
        return self.a + self.d

    def det(self) -> RatFunc:
        return self.a * self.d - self.b * self.c

    def __eq__(self, o):
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def fixes_vertex(matrix: Mat2) -> bool:
    """True when the matrix fixes a vertex of the tree: ord(trace) >= 0."""
    return ord_at_zero(matrix.trace()) >= 0


def translation_length(matrix: Mat2) -> int:
    """max(0, -2*ord(trace)): the distance the matrix shifts its axis."""
    o = ord_at_zero(matrix.trace())
    if o is INFINITE_ORDER or o >= 0:
        return 0
    return -2 * int(o)


def nontriviality_certificate(gens, depth=3):
    """Shortest product of generators with negative trace valuation.

    Searches words in the generators (no inverses) breadth-first up to the
    given length and returns the witnessing index tuple, or None.
    """
    frontier = [((), Mat2.identity())]
    for _ in range(depth):
        nxt = []
        for word, mat in frontier:
            for i, g in enumerate(gens):
                w, m = word + (i,), mat * g
                if ord_at_zero(m.trace()) < 0:
                    return w
                nxt.append((w, m))
        frontier = nxt
    return None


@dataclass(frozen=True)
class Strict:
    """The point detects surfaces of a single boundary slope."""

    slope: Slope


@dataclass(frozen=True)
class Weak:
    """Every peripheral trace is finite: a closed surface is detected."""


def classify_detection(v_meridian: int, v_longitude: int):
    """Strict/weak classification from eigenvalue valuations.

    (0, 0) is weak; otherwise the detected slope is the primitive (p, q)
    with p*vM + q*vL = 0, i.e. -vL/vM, with 1/0 when vM = 0.
    """
    if v_meridian == 0 and v_longitude == 0:
        return Weak()
    if v_meridian == 0:
        return Strict(Slope.INFINITY)
    g = math.gcd(abs(v_meridian), abs(v_longitude))
    return Strict(Slope(-v_longitude // g, v_meridian // g))


# -- text form of matrix entries --------------------------------------------

_ALLOWED = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
            ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse entries such as ``t^2/(1+t)``, ``3``, ``1/t`` or ``t^-1``.

    An entry longer than MAX_ENTRY_LENGTH characters raises ValueError
    before it is parsed."""
    src = text.strip()
    if len(src) > MAX_ENTRY_LENGTH:
        raise ValueError(f"entry of {len(src)} characters passes "
                         f"MAX_ENTRY_LENGTH = {MAX_ENTRY_LENGTH}")
    src = src.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed rational function {text!r}") from exc

    def ev(node):
        if not isinstance(node, _ALLOWED):
            raise ValueError(f"unsupported syntax in {text!r}")
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise ValueError(f"only integer constants allowed in {text!r}")
            return RatFunc(node.value)
        if isinstance(node, ast.Name):
            if node.id != "t":
                raise ValueError(f"unknown symbol {node.id!r} in {text!r}")
            return RatFunc.t()
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            lhs, rhs = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return lhs + rhs
            if isinstance(node.op, ast.Sub):
                return lhs - rhs
            if isinstance(node.op, ast.Mult):
                return lhs * rhs
            if isinstance(node.op, ast.Div):
                return lhs / rhs
            if isinstance(node.op, ast.Pow):
                exponent, sign = node.right, 1
                if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub):
                    exponent, sign = exponent.operand, -1
                if not (isinstance(exponent, ast.Constant)
                        and isinstance(exponent.value, int)):
                    raise ValueError(f"exponent must be an integer in {text!r}")
                return lhs ** (sign * exponent.value)
        raise ValueError(f"unsupported syntax in {text!r}")

    return ev(tree)


def parse_matrix_line(line: str) -> Mat2:
    """Parse ``a11 ; a12 ; a21 ; a22`` into a determinant-one matrix."""
    fields = [f for f in line.split(";")]
    if len(fields) != 4:
        raise ValueError(f"expected 4 ';'-separated entries, got {line!r}")
    return Mat2(*[parse_ratfunc(f) for f in fields])
