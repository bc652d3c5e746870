"""GF(p) univariate polynomial helpers for the modular elimination engine
and for factoring the Riley polynomial (powering and inverses modulo a
polynomial, distinct-degree and Cantor-Zassenhaus equal-degree factoring).

Polynomials are plain lists of ints (ascending powers, trimmed).  The
elimination's primes lie just above 2^29 (apoly._ELIMINATION_PRIMES_FROM),
so every residue is a one-digit CPython int and every product of two fits
in two digits; the Riley factorization's Hensel primes stay around 2^61
(prime_stream's default), where fewer lifts pass its bound.

Inverses go through ``pinv``: pow(x, -1, p) costs about 1.8 us at 29 bits
and 6 us at 61 bits, against 2.6 and 27 us for the Fermat power
pow(x, p - 2, p) (2-core x86-64, Python 3.11), and 0 is refused rather
than mapped to 0.  pdivmod reduces a working coefficient only when
it becomes the next quotient coefficient.  apoly._slice_squarefree takes
each slice as a minimal polynomial, from the first d/k power sums of a
characteristic polynomial and Newton's identities.
cauchy_interpolate fits by one rule: the first extended-Euclid pair whose
quotient is large, so a fit costs only the Euclid steps down to it.  The
fits of one prime share their nodes, so the node product prod(X - x_i)
and the Lagrange basis are built once per node set (InterpolationNodes).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these bases
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream(start=(1 << 61) + 1):
    n = start | 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def psub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return ptrim(out)


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim([c % p for c in out])


def pinv(x, p, caller):
    """Inverse of x mod p; ZeroDivisionError naming ``caller`` when x = 0."""
    x %= p
    if not x:
        raise ZeroDivisionError(f"{caller}: 0 has no inverse mod {p}")
    return pow(x, -1, p)


def pscale(a, c, p):
    c %= p
    return ptrim([x * c % p for x in a])


def pdivmod(a, b, p):
    """(quotient, remainder) of a by b over GF(p).

    The working coefficients are reduced mod p only when one is read as
    the next quotient coefficient, and the remainder once at the end: a
    reduction per inner-loop update cost half of a ppowmod."""
    if not b:
        raise ZeroDivisionError("GF(p)[x] division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], ptrim(a)
    inv = pinv(b[-1], p, "pdivmod")
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db] % p * inv % p
        if c:
            q[k] = c
            a[k:k + db] = [x - c * y for x, y in zip(a[k:k + db], b)]
    return ptrim(q), ptrim([x % p for x in a[:db]])


def pgcd_monic(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    if a:
        a = pscale(a, pinv(a[-1], p, "pgcd_monic"), p)
    return a


def pderiv(a, p):
    return ptrim([i * c % p for i, c in enumerate(a)][1:])


def ppowmod(a, e, f, p):
    """a^e mod f over GF(p), by repeated squaring."""
    out = [1]
    a = pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = pdivmod(pmul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = pdivmod(pmul(a, a, p), f, p)[1]
    return out


def pinvmod(a, f, p):
    """Inverse of a modulo f over GF(p); ZeroDivisionError unless coprime.

    Extended Euclid on (f, a mod f) down to a constant remainder r, with
    r = t * a mod f."""
    r0, r1 = list(f), pdivmod(a, f, p)[1]
    t0, t1 = [], [1]
    while len(r1) > 1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if not r1:
        raise ZeroDivisionError(f"pinvmod: not invertible modulo a degree "
                                f"{len(f) - 1} polynomial mod {p}")
    return pscale(t1, pinv(r1[0], p, "pinvmod"), p)


def distinct_degree(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p).

    Returns [(d, g_d)] with g_d the monic product of f's irreducible
    factors of degree d, using that x^(p^d) - x is the product of all
    monic irreducibles of degree dividing d.  An irreducible f gives
    [(deg f, f)] after deg f / 2 Frobenius steps h -> h^p mod f.  The map
    is GF(p)-linear and h(x)^p = h(x^p), so each step is one product with
    the Frobenius matrix, whose rows x^(ip) mod f are built once from x^p
    mod f and reduced when a factor leaves f (von zur Gathen and Gerhard,
    Modern Computer Algebra, 14.2 and 14.7), instead of log2 p modular
    squarings."""
    out = []
    rows = [[1]]  # x^(ip) mod f for i < deg f, the Frobenius matrix
    if len(f) > 2:
        xp = ppowmod([0, 1], p, f, p)
        rows.append(xp)
        while len(rows) < len(f) - 1:
            rows.append(pdivmod(pmul(rows[-1], xp, p), f, p)[1])
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        columns = zip(*(r + [0] * (len(f) - 1 - len(r)) for r in rows))
        h = ptrim([sum(map(mul, h, col)) % p for col in columns])
        g = pgcd_monic(f, psub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = pdivmod(f, g, p)[0]
            h = pdivmod(h, f, p)[1]
            rows = [pdivmod(r, f, p)[1] for r in rows[:len(f) - 1]]  # x^(ip) mod the cofactor
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def equal_degree(f, d, p, rng):
    """Monic irreducible factors of a monic squarefree f over GF(p), p odd,
    whose irreducible factors all have degree d (Cantor-Zassenhaus).

    A random a < f splits f through gcd(f, a^((p^d - 1)/2) - 1) with
    probability about 1/2; ``rng`` (a random.Random) draws the a's."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = ptrim([rng.randrange(p) for _ in range(len(f) - 1)])
        b = ppowmod(a, (p ** d - 1) // 2, f, p)
        g = pgcd_monic(f, psub(b, [1], p), p)
        if 1 < len(g) < len(f):
            return (equal_degree(g, d, p, rng)
                    + equal_degree(pdivmod(f, g, p)[0], d, p, rng))


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def resultant_scalar(f, g, p):
    """Resultant of two GF(p)[x] polynomials, classically signed.

    The elimination no longer calls it (its slices are characteristic
    polynomials); perfbench/tracing.py names it as the ``modp.resultant``
    span, and the tests use it to check those slices."""
    if not f or not g:
        return 0
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return res * pow(g[0], df, p) % p
        r = pdivmod(f, g, p)[1]
        if not r:
            return 0
        dr = len(r) - 1
        if df * dg % 2:
            res = -res % p
        res = res * pow(g[-1], df - dr, p) % p
        f, g = g, r


def _mul_linear(a, x, p):
    """a * (X - x) over GF(p), a new list one longer than a."""
    return [(s - x * t) % p for s, t in zip([0, *a], a + [0])]


class InterpolationNodes(tuple):
    """Nodes x_0..x_(n-1) over GF(p) with what interpolating at them needs,
    built once and shared by every fit at them: the engine fits all the
    coefficient functions of a prime at one node set.

    ``product`` is prod(X - x_i); ``rows[k]`` holds the X^k coefficients
    of the Lagrange basis l_i = w_i * q_i, q_i = product / (X - x_i) by
    synthetic division and w_i = 1/q_i(x_i) = 1/prod_(j != i) (x_i - x_j)
    (a repeated node raises ZeroDivisionError).  Neither is changed after
    construction (von zur Gathen and Gerhard, Modern Computer Algebra, 5.2)."""

    def __new__(cls, xs, p):
        self = super().__new__(cls, xs)
        self.p = p
        product = [1]
        for x in self:
            product = _mul_linear(product, x, p)
        basis = []
        for x in self:
            quotient = [1]  # product / (X - x), from the top
            for c in product[-2:0:-1]:
                quotient.append((c + x * quotient[-1]) % p)
            quotient.reverse()
            w = pinv(peval(quotient, x, p), p, "newton_interp")
            basis.append([c * w % p for c in quotient])
        self.rows = list(zip(*basis))
        self.product = product
        return self

    @classmethod
    def of(cls, xs, p):
        """xs itself when it already holds the nodes' work mod p."""
        return xs if isinstance(xs, cls) and xs.p == p else cls(xs, p)


def newton_interp(xs, ys, p):
    """Interpolating polynomial sum_i y_i * l_i through (xs, ys) over GF(p).

    xs may be InterpolationNodes, whose Lagrange basis is then reused, so a
    fit is one dot product per power of X.  The Newton-form name stays for
    perfbench/tracing.py, which times it as the ``modp.interp`` span.
    """
    nodes = InterpolationNodes.of(xs, p)
    return ptrim([sum(map(mul, row, ys)) % p for row in nodes.rows])


# Points a fit must leave over: it counts only when its Euclid quotient has
# degree SPARE_POINTS + 2 or more, i.e. with deg num + deg den + 2 +
# SPARE_POINTS points.
SPARE_POINTS = 8


def cauchy_interpolate(xs, ys, p):
    """Rational function num/den with num(x_i) = y_i * den(x_i).

    Returns (num, den) with den monic, or None when no such function
    fits.  Extended Euclid on (prod(x - x_i), interpolant) over GF(p)
    stops at the first pair (r_i, t_i), r_i = t_i * interpolant mod the
    product, whose quotient r_(i-1) div r_i has degree at least
    SPARE_POINTS + 2.  On n points deg r_i + deg t_i = n - deg q, so the
    pair fits with SPARE_POINTS points over the deg num + deg den + 2 it
    needs; a function with that many spare points has such a quotient,
    and random data almost never does (von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.7).  As r_i = t_i * interpolant mod the product,
    r_i(x_i) = y_i * t_i(x_i): the pair fits every node where t_i does not
    vanish, and a fit is refused where t_i does.  An accepted pair is
    coprime: r_i = s_i * prod(x - x_j) + t_i * interpolant with
    gcd(s_i, t_i) = 1, so a common factor of r_i and t_i divides the
    product, and t_i, nonzero at every node, shares no factor with it.
    The zero interpolant gives ([], [1]); a zero remainder after it has
    t_i = 0 at some node.  xs may be InterpolationNodes, whose product and
    Lagrange basis are then reused.
    """
    xs = InterpolationNodes.of(xs, p)
    r0, r1 = xs.product, newton_interp(xs, ys, p)
    t0, t1 = [], [1]
    while r1 and len(r0) - len(r1) < SPARE_POINTS + 2:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if len(r0) - len(r1) < SPARE_POINTS + 2 or not all(peval(t1, x, p) for x in xs):
        return None
    inv = pinv(t1[-1], p, "cauchy_interpolate")
    return pscale(r1, inv, p), pscale(t1, inv, p)


def crt_pair(r1, m1, r2, m2):
    """Combine residues r1 mod m1 and r2 mod m2 (coprime moduli)."""
    inv = pow(m1, -1, m2)
    t = (r2 - r1) % m2 * inv % m2
    return r1 + m1 * t, m1 * m2


def reconstruction_pair(r, m):
    """(n, d) with n = d * r mod m and n^2, d^2 <= m/2, from the
    half-extended Euclid on (m, r mod m) stopped at the first remainder
    n with n^2 <= m/2 (Wang's rational reconstruction); None when that
    step's d is past the bound.  The pair is not reduced and d may be
    negative: a common factor of n and d shared with m means r is
    congruent to n/d only modulo m over that factor."""
    a0, a1 = m, r % m
    b0, b1 = 0, 1
    bound = m // 2
    while a1 * a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if b1 * b1 > bound:
        return None
    return a1, b1


def rational_reconstruct(r, m):
    """Fraction n/d with n^2, d^2 <= m/2 congruent to r mod m, or None."""
    pair = reconstruction_pair(r, m)
    if pair is None or gcd(*pair) != 1:
        return None
    return Fraction(*pair)
