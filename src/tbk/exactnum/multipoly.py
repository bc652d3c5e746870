"""Sparse multivariate polynomials over the integers.

Terms are stored as a dict mapping exponent tuples to nonzero integer
coefficients.  The variable order is fixed globally as (L, M, u); any
other variable names sort after these, alphabetically.  All values are
immutable after construction, so they can be shared freely between
threads.

Arithmetic in one variable over the others is not restated here:
``coefficients_in`` gives the dense coefficient list that ``QPoly``
takes, and ``poly_prem`` runs on that.  ``MultiPoly._of`` builds a value
with no check, from terms that are already clean (the class docstring
says which).  ``Kronecker`` packs a polynomial into one integer: the
resultant packs its coefficients before its PRS over Z, and a product
whose term pairs outnumber the slots of the packed result is one integer
product.  The gcd and squarefree routines at the
end serve the tests as oracles; no production path calls them.
"""

from __future__ import annotations

from itertools import product
from math import gcd as int_gcd, prod
from operator import itemgetter, mul, sub

from .upoly import QPoly

#: canonical global variable order (L, M, u), then everything else by name
_VAR_RANK = {"L": 0, "M": 1, "u": 2}


def _var_key(name: str):
    return (_VAR_RANK.get(name, len(_VAR_RANK)), name)


def merge_variables(a, b):
    """Union of two variable tuples in canonical order."""
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b), key=_var_key))


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class Kronecker:
    """Kronecker substitution x_i -> B^(s_i), B = 2^(8 * width), on
    polynomials whose exponents e_i lie in lo_i .. lo_i + spans[i] - 1,
    with s_k = 1 and s_i = s_(i+1) * spans[i+1] (von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4).  ``pack`` is evaluation at
    those powers, a ring homomorphism once the exponents are shifted by
    lo.  ``unpack`` inverts it on every polynomial with exponents in the
    box and coefficients of absolute value at most ``bound``: the digits
    in base B are balanced, |d| < B/2, and 8 * width - 1 exceeds bound's
    bit length, so the balanced base-B expansion, which is unique, is the
    coefficient list.  Both go through bytes, one digit per ``width``."""

    __slots__ = ("spans", "strides", "width")

    def __init__(self, spans, bound):
        self.spans = spans
        self.width = (bound.bit_length() + 8) // 8
        strides, s = [], 1
        for span in reversed(spans):
            strides.append(s)
            s *= span
        self.strides = strides[::-1]

    def pack(self, terms, lo=(), strides=None):
        """The packed value of ``terms``, their exponents shifted by lo (none
        by default).  ``strides``, one per exponent and 0 for a variable left
        out, replaces the box's for terms in other variables than it, as
        poly_resultant's inputs are."""
        if not terms:
            return 0
        w = self.width
        strides = self.strides if strides is None else strides
        base = sum(map(mul, lo, strides))
        slots = {(sum(map(mul, exps, strides)) - base) * w: c for exps, c in terms.items()}
        if min(slots) < 0:
            raise ValueError("exponent below the packing box")
        size = max(slots) + w
        pos, neg = bytearray(size), bytearray(size)
        for k, c in slots.items():
            if c > 0:
                pos[k:k + w] = c.to_bytes(w, "little")
            else:
                neg[k:k + w] = (-c).to_bytes(w, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    def unpack(self, n, lo):
        """{exponents: coefficient} of the packed value n; digit j of
        n + sum_j (B/2) B^j is the coefficient at slot j plus B/2."""
        w = self.width
        half = 1 << (8 * w - 1)
        zero = half.to_bytes(w, "little")
        size = w * prod(self.spans)
        data = (n + int.from_bytes(zero * (size // w), "little")).to_bytes(size, "little")
        terms = {}
        for exps, k in zip(product(*(range(l, l + s) for l, s in zip(lo, self.spans))),
                           range(0, size, w)):
            digit = data[k:k + w]
            if digit != zero:
                terms[exps] = int.from_bytes(digit, "little") - half
        return terms


class MultiPoly:
    """A polynomial over Z: ``variables``, a tuple of names, and ``terms``,
    {exponent tuple: nonzero int}.

    The constructor takes any exponent sequences, checks their length and
    drops zero coefficients.  ``_of`` trusts its terms instead: every key a
    tuple as long as ``variables`` and every coefficient a nonzero int.
    Only code whose terms are clean by construction calls it: negation,
    sums, both product paths, ``coefficients_in``, ``primitive_part``,
    ``strip_monomial`` and ``normalized`` here, the resultant's unpacked
    result, and the A-polynomial pipeline from the Riley word walk to the
    A-factor (tbk.charvar), each after dropping any zeros its own
    cancellations leave.  Nothing outside the package should call it."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        clean = {}
        if terms:
            n = len(variables)
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(
                        f"exponent tuple {exps} does not match variables {variables}"
                    )
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _of(cls, variables, terms):
        """A MultiPoly on ``variables`` (a tuple) and ``terms`` as they are,
        unchecked and uncopied (class docstring)."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, variables=()):
        variables = tuple(variables)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): int(c)})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, coeff, variables, exponents):
        return cls(tuple(variables), {tuple(exponents): int(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in k) for k in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        [(exps, coeff)] = self.terms.items()
        if any(exps):
            raise ValueError(f"{self} is not a constant")
        return coeff

    def degree(self, var):
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.variables:
            return 0
        return max(map(itemgetter(self.variables.index(var)), self.terms))

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    # -- canonical form / equality ----------------------------------------

    def drop_unused(self):
        """Remove variables that never appear with positive exponent."""
        if not self.terms:
            return MultiPoly((), {})
        used = [i for i, _ in enumerate(self.variables)
                if any(k[i] for k in self.terms)]
        if len(used) == len(self.variables):
            return self
        newvars = tuple(self.variables[i] for i in used)
        newterms = {tuple(k[i] for i in used): c for k, c in self.terms.items()}
        return MultiPoly(newvars, newterms)

    def in_variables(self, variables):
        """Re-embed into a larger variable tuple (canonical order)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        idx = []
        for v in self.variables:
            if v not in variables and self.degree(v) > 0:
                raise ValueError(f"cannot drop variable {v!r} still in use")
            idx.append(variables.index(v) if v in variables else None)
        n = len(variables)
        newterms = {}
        for k, c in self.terms.items():
            exps = [0] * n
            for e, j in zip(k, idx):
                if j is not None:
                    exps[j] = e
            newterms[tuple(exps)] = newterms.get(tuple(exps), 0) + c
        return MultiPoly(variables, newterms)

    def _aligned(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.variables)
        if self.variables == other.variables:
            return self, other
        common = merge_variables(self.variables, other.variables)
        return self.in_variables(common), other.in_variables(common)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.drop_unused().terms == MultiPoly.constant(other).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        c = self.drop_unused()
        return hash((c.variables, frozenset(c.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return MultiPoly._of(self.variables, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            elif k in terms:
                del terms[k]
        return MultiPoly._of(a.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly._of(self.variables, {})
            return MultiPoly._of(self.variables,
                                 {k: c * other for k, c in self.terms.items()})
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        if len(b.terms) > 1 and a.variables:
            (lo_a, hi_a), (lo_b, hi_b) = a._box(), b._box()
            spans = [ha + hb - la - lb + 1 for ha, hb, la, lb in zip(hi_a, hi_b, lo_a, lo_b)]
            if len(a.terms) * len(b.terms) > prod(spans):  # dense: one integer product
                va, vb = a.terms.values(), b.terms.values()
                bound = min(sum(map(abs, va)) * max(map(abs, vb)),
                            max(map(abs, va)) * sum(map(abs, vb)))
                kr = Kronecker(spans, bound)
                return MultiPoly._of(a.variables, kr.unpack(
                    kr.pack(a.terms, lo_a) * kr.pack(b.terms, lo_b),
                    [x + y for x, y in zip(lo_a, lo_b)]))
        terms = {}
        get = terms.get
        for kb, cb in b.terms.items():
            for ka, ca in a.terms.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                s = get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
        return MultiPoly._of(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _box(self):
        """(least, largest) exponent of each variable over the terms."""
        cols = list(zip(*self.terms))
        return [min(c) for c in cols], [max(c) for c in cols]

    # -- structure ---------------------------------------------------------

    def coefficients_in(self, var):
        """Coefficient list [c0, c1, ...] of powers of var.

        Coefficients are polynomials in the remaining variables.  The zero
        polynomial yields [].
        """
        if not self.terms:
            return []
        if var not in self.variables:
            return [self]
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1:]
        deg = max(k[i] for k in self.terms)
        buckets = [{} for _ in range(deg + 1)]
        for k, c in self.terms.items():  # terms differing only at i: no clash
            buckets[k[i]][k[:i] + k[i + 1:]] = c
        return [MultiPoly._of(rest, b) for b in buckets]

    @classmethod
    def from_coefficients(cls, var, coeffs):
        """Inverse of coefficients_in: assemble sum(coeffs[i] * var**i)."""
        allvars = (var,)
        for c in coeffs:
            if isinstance(c, MultiPoly):
                allvars = merge_variables(allvars, c.variables)
        i = allvars.index(var)
        terms = {}
        for e, c in enumerate(coeffs):
            if isinstance(c, int):
                c = MultiPoly.constant(c)
            c = c.in_variables(tuple(v for v in allvars if v != var))
            for k, coeff in c.terms.items():
                kk = k[:i] + (e,) + k[i:]
                terms[kk] = terms.get(kk, 0) + coeff
        return cls(allvars, terms)

    def evaluate(self, assignment):
        """Fully evaluate at numeric values (Fraction, float or complex)."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"missing values for {missing}")
        vals = [assignment[v] for v in self.variables]
        total = 0
        for k, c in self.terms.items():
            t = c
            for x, e in zip(vals, k):
                if e:
                    t = t * x ** e
            total += t
        return total

    def derivative(self, var):
        if var not in self.variables:
            return MultiPoly(self.variables, {})
        i = self.variables.index(var)
        terms = {}
        for k, c in self.terms.items():
            if k[i] == 0:
                continue
            kk = k[:i] + (k[i] - 1,) + k[i + 1:]
            terms[kk] = terms.get(kk, 0) + c * k[i]
        return MultiPoly(self.variables, terms)

    # -- content and division ----------------------------------------------

    def content(self):
        """Nonnegative gcd of the integer coefficients (0 for the zero poly)."""
        return int_gcd(*self.terms.values())

    def primitive_part(self):
        g = self.content()
        if g <= 1:
            return self
        return MultiPoly._of(self.variables, {k: c // g for k, c in self.terms.items()})

    def strip_monomial(self):
        """Divide out the largest common monomial factor."""
        return self._divided(1)

    def _divided(self, g):
        """self over g and its largest common monomial factor, g dividing
        every coefficient, with the terms built once."""
        mins = tuple(map(min, zip(*self.terms)))  # the exponents' least values
        if g == 1 and not any(mins):
            return self
        return MultiPoly._of(self.variables, {tuple(map(sub, k, mins)): c // g
                                              for k, c in self.terms.items()})

    def _lex_leading(self):
        """(exponents, coefficient) of the lex-largest term."""
        k = max(self.terms)
        return k, self.terms[k]

    def sign_normalized(self):
        """Flip sign so the lex-leading coefficient is positive."""
        if not self.terms:
            return self
        _, c = self._lex_leading()
        return -self if c < 0 else self

    def normalized(self):
        """strip_monomial().primitive_part().sign_normalized() in one pass:
        the common monomial, the content and the sign of the lex-leading
        coefficient, which stripping the monomial keeps leading, come from
        the terms as they are, and the result's terms are built once."""
        if not self.terms:
            return self
        return self._divided(self.content() * (1 if self._lex_leading()[1] > 0 else -1))

    def exact_div(self, divisor):
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        if isinstance(divisor, int):
            if divisor == 0:
                raise ZeroDivisionError("polynomial division by zero")
            terms = {}
            for k, c in self.terms.items():
                q, r = divmod(c, divisor)
                if r:
                    raise ExactDivisionError(f"coefficient {c} not divisible by {divisor}")
                terms[k] = q
            return MultiPoly(self.variables, terms)
        a, b = self._aligned(divisor)
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if a.is_zero():
            return a
        quot = {}
        rem = dict(a.terms)
        lead_b, lc_b = b._lex_leading()
        while rem:
            lead_r = max(rem)
            lc_r = rem[lead_r]
            k = tuple(er - eb for er, eb in zip(lead_r, lead_b))
            if any(e < 0 for e in k):
                raise ExactDivisionError("division is not exact")
            q, r = divmod(lc_r, lc_b)
            if r:
                raise ExactDivisionError("division is not exact")
            quot[k] = quot.get(k, 0) + q
            for kb, cb in b.terms.items():
                kk = tuple(x + y for x, y in zip(k, kb))
                s = rem.get(kk, 0) - q * cb
                if s:
                    rem[kk] = s
                elif kk in rem:
                    del rem[kk]
        return MultiPoly(a.variables, quot)

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        """Terms sorted lexicographically by exponent tuple."""
        return sorted(self.terms.items())

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for v, e in zip(self.variables, k):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(f"{c:+d}")
            elif abs(c) == 1:
                parts.append(("+" if c > 0 else "-") + "*".join(factors))
            else:
                parts.append(f"{c:+d}*" + "*".join(factors))
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s


# -- gcd and squarefree machinery -------------------------------------------


def _coeff_gcd(polys):
    """gcd of a list of polynomials (recursive poly_gcd fold)."""
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p.sign_normalized() if g is None else poly_gcd(g, p)
        if g.is_constant() and abs(g.constant_value()) == 1:
            break
    if g is None:
        return MultiPoly.constant(0)
    return g.sign_normalized()


def poly_prem(f, g, var):
    """Pseudo-remainder of f by g with respect to var."""
    gc = g.coefficients_in(var)
    if not gc:
        raise ZeroDivisionError("pseudo-division by zero")
    r = QPoly(f.coefficients_in(var)).prem(QPoly(gc)).coeffs
    return MultiPoly.from_coefficients(var, r) if r else MultiPoly.constant(0)


def _primitive_in(f, var):
    """Remove the content of f viewed as a polynomial in var."""
    coeffs = f.coefficients_in(var)
    cont = _coeff_gcd(coeffs)
    if cont.is_zero() or (cont.is_constant() and abs(cont.constant_value()) == 1):
        return f.primitive_part()
    return f.exact_div(cont.in_variables(f.variables)).primitive_part()


def poly_gcd(f, g):
    """gcd in Z[variables], normalized with positive lex-leading coefficient."""
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    a, b = f._aligned(g)
    main = None
    for v in a.variables:
        if a.degree(v) > 0 or b.degree(v) > 0:
            main = v
            break
    if main is None:  # both constants in disguise
        return MultiPoly.constant(int_gcd(abs(a.constant_value()),
                                          abs(b.constant_value())))
    ac = a.coefficients_in(main)
    bc = b.coefficients_in(main)
    cont_a = _coeff_gcd(ac)
    cont_b = _coeff_gcd(bc)
    cont = poly_gcd(cont_a, cont_b)
    pa = a.exact_div(cont_a.in_variables(a.variables)) if cont_a != 1 else a
    pb = b.exact_div(cont_b.in_variables(b.variables)) if cont_b != 1 else b
    if pa.degree(main) < pb.degree(main):
        pa, pb = pb, pa
    # primitive PRS in the main variable
    while True:
        if pb.is_zero():
            result = _primitive_in(pa, main)
            break
        if pb.degree(main) == 0:
            result = MultiPoly.constant(1, a.variables)
            break
        r = poly_prem(pa, pb, main)
        pa, pb = pb, (_primitive_in(r, main) if not r.is_zero() else r)
    return (cont * result).sign_normalized()


def poly_squarefree_part(f):
    """Product of the distinct irreducible factors of f (primitive, lex-positive).

    Computed by dividing out gcd(f, df/dv over every variable), which removes
    every repeated factor in characteristic zero.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = f
    for v in f.variables:
        if f.degree(v) > 0:
            g = poly_gcd(g, f.derivative(v))
    if g.is_constant():
        return f.primitive_part().sign_normalized()
    return f.exact_div(g.in_variables(f.variables)).primitive_part().sign_normalized()

