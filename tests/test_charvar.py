import random
from fractions import Fraction

import pytest

from tbk.charvar import (
    DEFAULT_CONVENTION,
    SlopeConvention,
    a_polynomial,
    edge_slopes,
    finite_edge_slopes_as_ints,
    longitude_data,
    newton_polygon,
    presentation,
    riley_polynomial,
    split_components,
)
from tbk.confrac import InvalidFractionError
from tbk.exactnum import MultiPoly
from tbk.exactnum.multipoly import poly_prem
from tbk.slopes import Slope

from childproc import run_python
from oracles import (
    direct_cleanup_oracle,
    letter_images,
    mat_mul,
    prs_resultant,
    random_multipoly,
    relative_apoly_residual,
    sample_representations,
    u_coefficients_at,
    vanishing_failure_oracle,
    vanishing_remainder_oracle,
    word_matrix_oracle,
)

L = MultiPoly.variable("L")
M = MultiPoly.variable("M")


def test_presentation_examples():
    pres = presentation(Fraction(1, 3))
    assert pres.epsilons == (1, 1)
    pres = presentation(Fraction(2, 5))
    assert len(pres.epsilons) == 4
    assert pres.epsilons == (-1, 1, 1, -1)
    assert presentation(Fraction(4, 15)).epsilons == tuple(
        reversed(presentation(Fraction(4, 15)).epsilons))


def test_presentation_floor_formula():
    # eps_i = (-1)^floor(i*beta/q) for the odd representative beta
    pres = presentation(Fraction(4, 15))
    beta = 4 - 15
    expected = tuple(-1 if ((i * beta) // 15) % 2 else 1 for i in range(1, 15))
    assert pres.epsilons == expected


def test_presentation_palindromic_sweep():
    for q in range(3, 46, 2):
        for p in (1, 2, q - 2):
            if p < q and Fraction(p, q).denominator == q:
                eps = presentation(Fraction(p, q)).epsilons
                assert eps == tuple(reversed(eps)), (p, q)


def test_presentation_invalid():
    with pytest.raises(InvalidFractionError):
        presentation(Fraction(1, 4))


def test_riley_degrees():
    assert riley_polynomial(presentation(Fraction(1, 3))).degree("u") == 1
    assert riley_polynomial(presentation(Fraction(2, 5))).degree("u") == 2
    assert riley_polynomial(presentation(Fraction(4, 15))).degree("u") == 7


def test_riley_degree_sweep_q45():
    for q in range(3, 46, 2):
        phi = riley_polynomial(presentation(Fraction(2, q)))
        assert phi.degree("u") == (q - 1) // 2, q


def test_riley_is_one_entry_condition():
    # with W = M^n rho(w), W a - b W has d11 = d22 = 0 and d21 = u * d12,
    # so the Riley polynomial is d12 normalized; its leading u-coefficient
    # is +-M^k, which riley_polynomial checks and both engines rely on
    from tbk.charvar.riley import scaled_word_matrix

    u = MultiPoly.variable("u")
    letters = letter_images()
    for p, q in reduced_fractions(25):
        pres = presentation(Fraction(p, q))
        w, _ = scaled_word_matrix(pres.relator_word())
        lhs = mat_mul(w, letters[(0, 1)])
        rhs = mat_mul(letters[(1, 1)], w)
        d11, d12, d21, d22 = (x - y for x, y in zip(lhs, rhs))
        assert d11.is_zero() and d22.is_zero(), (p, q)
        assert d21 == u * d12, (p, q)
        phi = riley_polynomial(pres)
        assert phi == d12.strip_monomial().primitive_part().sign_normalized()
        [coeff] = phi.coefficients_in("u")[-1].terms.values()
        assert abs(coeff) == 1, (p, q)


def test_riley_refuses_a_leading_coefficient_that_is_no_monomial(monkeypatch):
    # W scaled by M + 2 keeps d11 = d22 = 0 and multiplies d12, so phi,
    # by M + 2: lc_u(phi) = (M + 2) * M^a, which riley_polynomial refuses
    from tbk.charvar import riley

    word_matrix = riley.scaled_word_matrix

    def scaled(letters):
        mat, n = word_matrix(letters)
        return tuple(x * (M + 2) for x in mat), n

    pres = presentation(Fraction(4, 15))
    assert riley_polynomial(pres).degree("u") == 7
    monkeypatch.setattr(riley, "scaled_word_matrix", scaled)
    with pytest.raises(riley.PresentationError, match=r"is not \+-M\^a$"):
        riley_polynomial(pres)


def test_scaled_word_matrix_matches_multipoly_products():
    from tbk.charvar.riley import scaled_word_matrix

    for p, q in reduced_fractions(25):
        pres = presentation(Fraction(p, q))
        for word in (pres.relator_word(), pres.longitude_word()):
            mat, n = scaled_word_matrix(word)
            assert n == len(word)
            assert mat == word_matrix_oracle(word), (p, q)


def test_reversed_word_matrix_is_the_reversed_transpose():
    # W~ = M^n rho(reversed word) is [[rev W22, rev W12], [rev W21, rev W11]]
    # with rev f = M^(2n) f(M^-1): each scaled letter X has that relation
    # to itself, and X -> J X^T J reverses products; every p/q with q < 40
    from tbk.charvar.riley import scaled_word_matrix

    count = 0
    for p, q in reduced_fractions(39):
        word = presentation(Fraction(p, q)).relator_word()
        (a, b, c, d), n = scaled_word_matrix(word)
        rev_mat, _ = scaled_word_matrix(tuple(reversed(word)))
        i = a.variables.index("M")

        def rev(f):
            return MultiPoly(f.variables, {e[:i] + (2 * n - e[i],) + e[i + 1:]: x
                                           for e, x in f.terms.items()})

        assert rev_mat == (rev(d), rev(b), rev(c), rev(a)), (p, q)
        count += 1
    assert count == 316


def test_canonical_riley_factor_of_double_twist_knots_in_closed_form():
    # J(2n, 2n) = K(2n / (4n^2 - 1)): with z = u + 2, S_0 = 1, S_1 = z and
    # S_(k+1) = z S_k - S_(k-1), C_n = S_(n-1)(z)^2 (M^4 - z M^2 + 1) + M^2
    # divides the Riley polynomial exactly for n = 2..6 and is one of its
    # irreducible factors for n = 2..4, while C_n + M^2 and C_n + 1 divide
    # it for no n
    from tbk.charvar.apoly import _riley_factors
    from tbk.exactnum import ExactDivisionError

    u = MultiPoly.variable("u")
    z = u + 2
    s_prev, s = MultiPoly.constant(1), z  # S_0, S_1
    for n in range(2, 7):
        c_n = s * s * (M ** 4 - z * M ** 2 + 1) + M ** 2
        phi = riley_polynomial(presentation(Fraction(2 * n, 4 * n * n - 1)))
        assert phi.exact_div(c_n) * c_n == phi, n
        if n <= 4:
            factors = _riley_factors(phi, 1)
            assert c_n in factors or -c_n in factors, n
        for wrong in (c_n + M ** 2, c_n + 1):
            with pytest.raises(ExactDivisionError):
                phi.exact_div(wrong)
        s_prev, s = s, z * s - s_prev


def test_riley_trefoil_exact():
    u = MultiPoly.variable("u")
    phi = riley_polynomial(presentation(Fraction(1, 3)))
    assert phi == M ** 4 - M ** 2 * u - M ** 2 + 1


def test_longitude_upper_triangular_on_curve():
    # the (2,1) entry of the longitude matrix is divisible by the Riley
    # polynomial: exact pseudo-remainder check at small sizes
    from tbk.charvar.riley import scaled_word_matrix

    for pq in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(2, 7),
               Fraction(4, 9)):
        pres = presentation(pq)
        phi = riley_polynomial(pres)
        (_, _, lower, _), _ = scaled_word_matrix(pres.longitude_word())
        assert poly_prem(lower, phi, "u").is_zero(), pq


def test_longitude_entry_from_the_relator_matrix():
    """P, the (1, 1) entry of M^len * rho(longitude), from the relator's
    scaled matrix W = M^n rho(w) = [[w11, w12], [w21, w22]] alone.

    With J = [[0, 1], [1, 0]], tau(X) = J X^T J = [[d, b], [c, a]] for
    X = [[a, b], [c, d]] sends rho at 1/M of each generator to its rho at
    M (g1: [[1/M, 1], [0, M]] -> [[M, 1], [0, 1/M]], and likewise g2), and
    tau(XY) = tau(Y) tau(X).  So rho_M(reversed w) = tau(rho_(1/M)(w)) =
    M^n tau(W(1/M)), whose top row, scaled by M^n, is (r11, r12) =
    (M^(2n) w22(1/M, u), M^(2n) w12(1/M, u)): polynomials, as W has
    M-degree at most 2n.  The longitude is reversed(w) w g1^(-2e), e the
    exponent sum, and the scaled letter M rho(g1^-1) fixes the first entry
    of a row while M rho(g1) multiplies it by M^2, so
        P = M^(4|e| if e < 0 else 0) (r11 w11 + r12 w21)
    with len = 2n + 2|e|.  The product here is MultiPoly arithmetic, not
    the word walk that longitude_data runs."""
    from tbk.charvar.riley import scaled_word_matrix

    letters = [(g, e) for g in (0, 1) for e in (1, -1)]
    for letter in letters:  # tau(M^2 X(1/M)) = X(M) for each scaled letter X
        (a, b, c, d), n = scaled_word_matrix((letter,))
        flipped = [MultiPoly(x.variables, {(2 * n - i, j): y for (i, j), y in x.terms.items()})
                   for x in (d, b, c, a)]
        assert flipped == [a, b, c, d], letter

    count = 0
    for p, q in reduced_fractions(33):
        pres = presentation(Fraction(p, q))
        (w11, w12, w21, w22), n = scaled_word_matrix(pres.relator_word())
        r11, r12 = (MultiPoly(x.variables, {(2 * n - i, j): y for (i, j), y in x.terms.items()})
                    for x in (w22, w12))
        e = pres.exponent_sum()
        expected = M ** (4 * abs(e) if e < 0 else 0) * (r11 * w11 + r12 * w21)
        assert longitude_data(pres) == (expected, 2 * n + 2 * abs(e)), (p, q)
        count += 1
    assert count == 232


def test_a_polynomial_trefoils():
    assert a_polynomial(Fraction(1, 3)).poly == L * M ** 6 + 1
    assert a_polynomial(Fraction(2, 3)).poly == L + M ** 6
    assert a_polynomial(Fraction(1, 3), keep_abelian=True).poly == (
        (L * M ** 6 + 1) * (L - 1)).sign_normalized()


def test_a_polynomial_figure_eight_exact():
    known = (L ** 2 * M ** 4
             - L * (M ** 8 - M ** 6 - 2 * M ** 4 - M ** 2 + 1)
             + M ** 4)
    assert a_polynomial(Fraction(2, 5)).poly == known


# values of apoly._DIRECT_MAX_DEGREE that send every Riley factor to one
# engine: a factor's u-degree is at least 1
ALL_DIRECT, ALL_MODULAR = 10 ** 9, 0


def reduced_fractions(q_max):
    from math import gcd

    for q in range(3, q_max + 1, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_a_polynomial_engines_agree(monkeypatch):
    # every knot fraction with q <= 11: 28 of them; the two engines agree
    # on each (the default runs all of them direct, see
    # test_auto_engine_choice)
    from tbk.charvar import apoly

    fractions = [Fraction(p, q) for p, q in reduced_fractions(11)]
    assert len(fractions) == 28
    for pq in fractions:
        monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_DIRECT)
        direct = a_polynomial(pq).poly
        monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
        modular = a_polynomial(pq).poly
        assert direct == modular, pq


def small_riley_factors(q_max, max_product):
    """(p/q, phi_i, P, length) for each Riley factor of p/q, q odd and at
    most q_max, whose u-degree times deg_u(P) is at most max_product."""
    from tbk.charvar import apoly

    for p, q in reduced_fractions(q_max):
        pres = presentation(Fraction(p, q))
        p11, length = longitude_data(pres)
        for phi_i in apoly._riley_factors(riley_polynomial(pres), 1):
            if phi_i.degree("u") * max(p11.degree("u"), 1) <= max_product:
                yield Fraction(p, q), phi_i, p11, length


def test_direct_squarefree_proof_matches_gcd_oracle():
    # on the 52 Riley factors of odd q <= 17 with du * du_P <= 66 the
    # direct engine's exact root gives the oracle's squarefree part, and
    # the first point's exponent k exceeds 1 exactly on the 16 resultants
    # that are proper powers g^k: the torus knots 1/q and their mirrors,
    # and the u-degree-4 factors of 4/15 and 11/15
    from tbk.charvar import apoly

    powers = set()
    count = 0
    for pq, phi_i, p11, length in small_riley_factors(17, 66):
        lm = MultiPoly.monomial(1, ("L", "M"), (1, length))
        r = prs_resultant(phi_i, lm - p11, "u")
        component = apoly.RileyComponent.of(phi_i, p11, length, in_s=False)
        assert apoly._apoly_direct(component)[0] == direct_cleanup_oracle(r), pq
        r = r.strip_monomial().in_variables(("L", "M")).primitive_part().sign_normalized()
        if apoly._power_at(r, 2) > 1:
            powers.add((pq, phi_i.degree("u")))
        count += 1
    assert count == 52
    torus = {(Fraction(p, q), d)
             for q, d in ((5, 2), (7, 3), (9, 3), (11, 5), (13, 6), (15, 2), (15, 4))
             for p in (1, q - 1)}
    assert powers == torus | {(Fraction(4, 15), 4), (Fraction(11, 15), 4)}
    assert len(powers) == 16


def test_reduced_direct_resultant_matches_the_unreduced_one(monkeypatch):
    # every factor the direct engine eliminates under a_polynomial for q <=
    # 15, in the engine's variable: the resultant of phi and P mod phi,
    # cleared by a power of M, is Res_u(phi, L*M^len - P) up to +-M^j
    from tbk.charvar import apoly

    inputs = []
    direct = apoly._apoly_direct

    def recorded(component):
        inputs.append(component)
        return direct(component)

    monkeypatch.setattr(apoly, "_apoly_direct", recorded)
    for p, q in reduced_fractions(15):
        a_polynomial(Fraction(p, q))
    reduced = 0
    for component in inputs:
        p11 = longitude_in_s(component)
        lm = MultiPoly.monomial(1, ("L", "M"), (1, component.length))
        old = prs_resultant(component.phi, lm - p11, "u").strip_monomial()
        new = apoly._direct_resultant(component).strip_monomial()
        assert old in (new, -new), (component.phi, component.length)
        reduced += p11.degree("u") >= component.du
    assert len(inputs) == 52
    assert reduced == 52


def test_reduced_longitude_is_p_mod_phi_on_every_riley_factor():
    # on every Riley component of the 64 p/q with q <= 17, in s = M^2: R
    # has u-degree below phi's and no negative exponent, b is the least
    # such power (an exponent or length' is 0), and M^length * R =
    # M^length' * P modulo phi(m) in Q[u] at m = 1..6
    from tbk.charvar import apoly
    from tbk.exactnum import QPoly

    factors = 0
    for p, q in reduced_fractions(17):
        for component in apoly.riley_components(Fraction(p, q)):
            factors += 1
            phi, p11, length = component.phi, longitude_in_s(component), component.length
            r_terms, length_r = component.r_terms, component.r_length
            assert component.g == 2, (p, q, phi)
            assert all(e_u < phi.degree("u") for e_u, _, _ in r_terms), (p, q, phi)
            assert min([length_r, *(e_m for _, e_m, _ in r_terms)]) == 0, (p, q, phi)
            r = MultiPoly(("M", "u"), {(e_m, e_u): c for e_u, e_m, c in r_terms})
            for m in range(1, 7):
                pm, rm = u_coefficients_at(p11, m), u_coefficients_at(r, m)
                rm += [0] * (len(pm) - len(rm))
                diff = QPoly([m ** length * a - m ** length_r * b for a, b in zip(rm, pm)])
                assert diff.divmod(QPoly(u_coefficients_at(phi, m)))[1].is_zero(), (p, q, m)
    assert factors == 72


def test_a_polynomial_reduces_and_converts_the_longitude_once(monkeypatch):
    # per a_polynomial call, each Riley factor's P mod phi_i is reduced
    # once (_reduced_longitude) and P is converted to terms once, shared by
    # the factors, each of which is converted once too: 6/35 (u-degrees 5
    # and 12) and 1/9 (u-degrees 1 and 3, both giving L*M^18 + 1)
    from tbk.charvar import apoly

    reduced, converted = [], []
    reduced_longitude, convert = apoly._reduced_longitude, apoly._u_M_terms

    def counted_reduce(phi_terms, du, p_terms, length):
        reduced.append(du)
        return reduced_longitude(phi_terms, du, p_terms, length)

    def counted_convert(poly):
        converted.append(poly)
        return convert(poly)

    monkeypatch.setattr(apoly, "_reduced_longitude", counted_reduce)
    monkeypatch.setattr(apoly, "_u_M_terms", counted_convert)
    for pq, degrees in (("6/35", [5, 12]), ("1/9", [1, 3])):
        pres = presentation(Fraction(pq))
        p11 = longitude_data(pres)[0]
        riley = apoly._riley_factors(riley_polynomial(pres), 1)
        reduced.clear()
        converted.clear()
        a_polynomial(Fraction(pq))
        assert sorted(reduced) == sorted(f.degree("u") for f in riley) == degrees, pq
        assert [poly for poly in converted if poly == p11] == [p11], pq
        assert len(converted) == 1 + len(riley), pq


def test_direct_squarefree_proof_falls_back(monkeypatch):
    # phi = u^2 - (M - 2)^2 and P = u give the squarefree resultant
    # L^2 - (M - 2)^2 = (L - M + 2)(L + M - 2), whose image at M = 2 is
    # L^2: k reads 2 there, the square root fails, and M = 3 proves R
    # squarefree; the gcds never run
    from tbk.charvar import apoly
    from tbk.exactnum import multipoly

    u = MultiPoly.variable("u")

    def forbidden(*args):
        raise AssertionError("the multivariate gcd ran")

    monkeypatch.setattr(multipoly, "poly_gcd", forbidden)
    points = []
    power_at = apoly._power_at

    def recorded(r, m):
        points.append((m, power_at(r, m)))
        return points[-1][1]

    monkeypatch.setattr(apoly, "_power_at", recorded)
    out = apoly._apoly_direct(apoly.RileyComponent.of(u ** 2 - (M - 2) ** 2, u, 0))
    assert out == (((L - M + 2) * (L + M - 2)).sign_normalized(), 1)
    assert points == [(2, 2), (3, 1)]


def test_direct_engine_refuses_without_a_root(monkeypatch):
    # phi = u^2 - M and P = u^2 give R = (L - M)^2, with k = 2 at every
    # point; with no root found the engine raises after (2 * 2 - 1) * 2 + 1
    # points and names them
    from tbk.charvar import apoly

    u = MultiPoly.variable("u")
    component = apoly.RileyComponent.of(u ** 2 - M, u ** 2, 0)
    assert apoly._apoly_direct(component) == (L - M, 2)
    monkeypatch.setattr(apoly, "_kth_root", lambda r, k: None)
    with pytest.raises(apoly.EliminationError, match=r"at M = 2\.\.8$"):
        apoly._apoly_direct(component)


def test_kth_root_exact():
    # seeded random g in Z[L, M] with a monomial leading L-coefficient:
    # the root of g^k is g for k = 2..5, and there is none for g^k + M,
    # for g * h with h != g, or when lc_L is no k-th power
    from tbk.charvar import apoly

    rng = random.Random(11)
    for trial in range(40):
        k = 2 + trial % 4
        e = rng.randint(1, 4)
        terms = {(e, rng.randint(0, 3)): rng.choice((1, 1, 2, 3))}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, e - 1), rng.randint(0, 5))] = rng.randint(-9, 9)
        g = MultiPoly(("L", "M"), terms).primitive_part()
        assert apoly._kth_root(g ** k, k) == g, (g, k)
        assert apoly._kth_root(g ** k + M, k) is None
        h = g + MultiPoly(("L", "M"), {(0, 0): rng.choice((-1, 1))})
        assert apoly._kth_root(g ** (k - 1) * h, k) is None
        lead = g.coefficients_in("L")[-1]
        assert apoly._kth_root(g ** k + lead ** k * L ** (e * k), k) is None


def test_auto_engine_choice(monkeypatch):
    # a_polynomial runs a Riley factor direct when its u-degree is at
    # most 6: every factor with q <= 11 (u-degrees up to 5), both of
    # 4/15's (3 and 4), both of 8/21's (4 and 6) and 6/35's u-degree-5
    # one; 6/35's u-degree-12 factor runs modular
    from tbk.charvar import apoly

    runs = []
    for name in ("_apoly_direct", "_apoly_modular"):
        def counted(component, name=name, engine=getattr(apoly, name)):
            runs.append((name, component.du))
            return engine(component)

        monkeypatch.setattr(apoly, name, counted)
    for p, q in reduced_fractions(11):
        a_polynomial(Fraction(p, q))
    assert len(runs) == 30
    assert {name for name, _ in runs} == {"_apoly_direct"}
    runs.clear()
    a_polynomial(Fraction(4, 15))
    assert sorted(runs) == [("_apoly_direct", 3), ("_apoly_direct", 4)]
    runs.clear()
    a_polynomial(Fraction(8, 21))
    assert sorted(runs) == [("_apoly_direct", 4), ("_apoly_direct", 6)]
    runs.clear()
    a_polynomial(Fraction(6, 35))
    assert sorted(runs) == [("_apoly_direct", 5), ("_apoly_modular", 12)]


def test_riley_and_longitude_are_even_in_M():
    # the parity RileyComponent relies on: for every knot fraction with
    # q <= 25, length and every M-exponent of P, of phi and of each Riley
    # factor are even, so a_polynomial eliminates in M^2
    from tbk.charvar import apoly

    count = 0
    for p, q in reduced_fractions(25):
        pres = presentation(Fraction(p, q))
        phi = riley_polynomial(pres)
        p11, length = longitude_data(pres)
        assert length % 2 == 0, (p, q)
        for poly in [phi, p11] + apoly._riley_factors(phi, 1):
            i = poly.variables.index("M")
            assert all(e[i] % 2 == 0 for e in poly.terms), (p, q, poly)
        count += 1
    assert count == 136


def test_engines_in_M_match_the_factors_eliminated_in_M_squared():
    # on the Riley factors of every knot fraction with q <= 13, each
    # engine run on the unsubstituted (phi_i, P, length) gives the factor
    # a_polynomial records from phi_i(M^2, u), P(M^2, u) and length / 2
    from tbk.charvar import apoly

    count = 0
    for p, q in reduced_fractions(13):
        pq = Fraction(p, q)
        pres = presentation(pq)
        p11, length = longitude_data(pres)
        recorded = a_polynomial(pq).factors
        found = []
        for phi_i in apoly._riley_factors(riley_polynomial(pres), 1):
            component = apoly.RileyComponent.of(phi_i, p11, length, in_s=False)
            direct, k = apoly._apoly_direct(component)
            assert apoly._apoly_modular(component) == (direct, k), pq
            assert direct in recorded, pq
            found.append(direct)
            count += 1
        assert set(found) == set(recorded), pq
    assert count == 42


@pytest.mark.parametrize("rule", (ALL_DIRECT, ALL_MODULAR), ids=("direct", "modular"))
def test_map_degree_is_u_degree_over_L_degree(monkeypatch, rule):
    # every Riley factor of every knot fraction with q <= 17, under each
    # engine: the k the engine reads (the direct one by _power_at, the
    # modular one by the probe) is du(phi_i) / deg_L(A_i), and a_polynomial
    # records beside each A-factor the least k of the Riley factors giving it
    from tbk.charvar import apoly

    runs = []
    engines = []
    a_factor = apoly.a_factor

    def recorded(component):
        factor, k = a_factor(component)
        runs.append((engines[-1], component.du, factor, k))
        return factor, k

    for name in ("_apoly_direct", "_apoly_modular"):
        def named(component, name=name, engine=getattr(apoly, name)):
            engines.append(name)
            return engine(component)

        monkeypatch.setattr(apoly, name, named)
    monkeypatch.setattr(apoly, "a_factor", recorded)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", rule)
    engine = "_apoly_direct" if rule == ALL_DIRECT else "_apoly_modular"
    count = 0
    for p, q in reduced_fractions(17):
        runs.clear()
        engines.clear()
        ap = a_polynomial(Fraction(p, q))
        assert len(engines) == len(runs), (p, q)
        least = {}
        for name, du, factor, k in runs:
            assert name == engine
            assert k * factor.degree("L") == du, (p, q, du, k)
            least[factor] = min(k, least.get(factor, k))
        assert ap.map_degrees == tuple(least[f] for f in ap.factors), (p, q)
        count += len(runs)
    assert count == 72


def test_symmetric_double_twist_a_factors_have_the_pinned_bidegrees():
    # J(2n, 2n) for n = 2..5 (4/15, 6/35, 8/63, 10/99): exactly two
    # A-factors, of (L, M)-bidegree (2n - 1, 8n - 2) with map degree 1
    # and (n(n - 1), 4n(n - 1)) with map degree 2
    from tbk.knots import double_twist_fraction

    for n in range(2, 6):
        ap = a_polynomial(double_twist_fraction(n))
        found = {(f.degree("L"), f.degree("M"), k) for f, k in zip(ap.factors, ap.map_degrees)}
        assert len(ap.factors) == 2, n
        assert found == {(2 * n - 1, 8 * n - 2, 1), (n * (n - 1), 4 * n * (n - 1), 2)}, n


def test_duplicated_a_factor_records_the_least_map_degree():
    # 1/9: the u-degree-1 Riley factor (k = 1) and the u-degree-3 one
    # (k = 3) both give L*M^18 + 1, recorded once with k = 1; keep_abelian
    # records k = 1 for L - 1
    from tbk.charvar import apoly

    riley = sorted(apoly.riley_components(Fraction(1, 9)), key=lambda c: c.du)
    assert [c.du for c in riley] == [1, 3]
    assert 3 <= apoly._DIRECT_MAX_DEGREE  # both run direct
    eliminated = [apoly.a_factor(c) for c in riley]
    assert eliminated == [(L * M ** 18 + 1, 1), (L * M ** 18 + 1, 3)]
    ap = a_polynomial(Fraction(1, 9))
    assert ap.factors == (L * M ** 18 + 1,) and ap.map_degrees == (1,)
    ap = a_polynomial(Fraction(6, 35), keep_abelian=True)
    assert [f.degree("L") for f in ap.factors] == [6, 5, 1]
    assert ap.map_degrees == (2, 1, 1)


@pytest.mark.parametrize("wrong", ("double", "one"))
def test_modular_engine_refuses_a_wrong_map_degree(monkeypatch, wrong):
    # 6/35's large factor has k = 2: read as 4, its slices are no minimal
    # polynomials and not reciprocal, so the first fit fails and the slice
    # at 1/2 computed differs from its mirror, which names k after the
    # probe's four slices, the first fit's real points and that one; read
    # as 1, the engine lifts A^2, which vanishes on the curve, and
    # _power_root refuses it
    from tbk.charvar import apoly

    probe = apoly._PointCache.probe
    slice_squarefree = apoly._slice_squarefree
    read = []
    sliced = []

    def counted_slice(cache, m, p):
        sliced.append(m)
        return slice_squarefree(cache, m, p)

    def patched(cache, p):
        out = probe(cache, p)
        if cache.component.du == 12:
            read.append(cache.k)
            cache.k = 2 * cache.k if wrong == "double" else 1
            out = {}
        return out

    monkeypatch.setattr(apoly._PointCache, "probe", patched)
    monkeypatch.setattr(apoly, "_slice_squarefree", counted_slice)
    with pytest.raises(apoly.EliminationError) as err:
        a_polynomial(Fraction(6, 35))
    assert read == [2]
    if wrong == "one":
        assert "map degree 1 was read too small" in str(err.value)
    else:
        assert "the map degree 4 is wrong" in str(err.value)
        assert "the slice at 1/2 is not the mirror" in str(err.value)
        assert len(sliced) <= 4 + apoly._FIRST_POINTS // 2 + 1 + 1


def test_eliminate_substitutes_the_gcd_of_the_M_exponents(monkeypatch):
    # phi = u^2 - M^2, P = u^2 and length 0 reach the engine as u^2 - M,
    # u^2 and 0, and its L - M, with k = 2 as the resultant is (L - M)^2,
    # returns from a_factor as L - M^2; an odd M-exponent (g = 1) passes
    # everything through unchanged
    from tbk.charvar import apoly

    u = MultiPoly.variable("u")
    calls = []
    direct = apoly._apoly_direct

    def engine(component):
        calls.append((component.phi, longitude_in_s(component), component.length))
        return direct(component)

    monkeypatch.setattr(apoly, "_apoly_direct", engine)
    component = apoly.RileyComponent.of(u ** 2 - M ** 2, u ** 2, 0)
    assert component.g == 2
    assert apoly.a_factor(component) == (L - M ** 2, 2)
    assert calls == [(u ** 2 - M, u ** 2, 0)]
    calls.clear()
    assert apoly.a_factor(apoly.RileyComponent.of(u ** 2 - M, u ** 2, 0)) == (L - M, 2)
    assert calls == [(u ** 2 - M, u ** 2, 0)]
    calls.clear()
    odd, p11 = u ** 2 - M ** 3 * u - M ** 2, u * M ** 2
    component = apoly.RileyComponent.of(odd, p11, 4)
    assert component.g == 1
    assert apoly.a_factor(component) == direct(component)
    assert calls == [(odd, p11, 4)]


def test_modular_cauchy_fails_only_on_first_prime(monkeypatch):
    # every prime after a factor's first starts its fits at the point count
    # the prime before it returned, max_j(a_j + b_j) + 2 + SPARE_POINTS
    # over the degrees it reconstructed, so only first primes fail a fit,
    # and a later prime samples no more slices than that count.  The
    # engine's primes lift 4/15's and 6/35's factors from one image each;
    # primes from 2^12, which reconstruct coefficients only up to about
    # 45, make 7/19's factor take two, so the carried count is used, and
    # its first prime fails two fits.  The slice that screens each lift,
    # at the next prime, is taken outside _ahat_mod_p and not counted
    from tbk.charvar import _modp, apoly

    primes = []  # [count argument, slices sampled] per prime
    failures = []
    inside = []
    ahat_mod_p = apoly._ahat_mod_p
    cauchy_interpolate = _modp.cauchy_interpolate
    slice_squarefree = apoly._slice_squarefree

    def counted_prime(cache, p, count):
        primes.append([count, 0])
        inside.append(True)
        try:
            return ahat_mod_p(cache, p, count)
        finally:
            inside.pop()

    def counted_cauchy(*args):
        out = cauchy_interpolate(*args)
        if out is None:
            failures.append(len(primes))
        return out

    def counted_slice(*args):
        if inside:
            primes[-1][1] += 1
        return slice_squarefree(*args)

    monkeypatch.setattr(apoly, "_ahat_mod_p", counted_prime)
    monkeypatch.setattr(_modp, "cauchy_interpolate", counted_cauchy)
    monkeypatch.setattr(apoly, "_slice_squarefree", counted_slice)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    # (p/q, where the primes start, True for each factor's first prime)
    engine = apoly._ELIMINATION_PRIMES_FROM
    cases = [(Fraction(4, 15), engine, [True, True]), (Fraction(6, 35), engine, [True, True]),
             (Fraction(7, 19), 2 ** 12, [True, False])]
    for pq, start, firsts in cases:
        monkeypatch.setattr(apoly, "_ELIMINATION_PRIMES_FROM", start)
        primes.clear()
        failures.clear()
        a_polynomial(pq)
        assert [count is None for count, _ in primes] == firsts, pq
        assert all(primes[i - 1][0] is None for i in failures), pq
        for count, n in primes:
            if count is not None:
                assert n <= count, (pq, count, n)
    assert failures == [1, 1]  # 7/19's first prime


@pytest.mark.parametrize("pq, work", (
    ("4/15", {"_ahat_mod_p": 2, "_slice_squarefree": 36, "cauchy_interpolate": 5,
              "failed fits": 0}),
    ("6/35", {"_ahat_mod_p": 2, "_slice_squarefree": 36, "cauchy_interpolate": 11,
              "failed fits": 0}),
))
def test_modular_engine_work_is_pinned(monkeypatch, pq, work):
    # every factor modular: the primes, slices and Cauchy fits (and the
    # fits that fail) the engine spends on the ladder, so a change that
    # means to keep the engine's work can show it does.  Each of the two
    # Riley factors takes one prime, as its first lift passes the screen
    # and the proof (it took a second, confirming prime, 4 primes, 57 and
    # 63 slices and 10 and 22 fits, while two consecutive lifts had to
    # agree).  The slices count the map degree probe: four on each
    # factor's first prime, which are also that prime's slices at M^2 =
    # 2..5, read from the probe's power sums on the k = 2 factor; and the
    # one slice that screens each lift, at M^2 = 2 mod the next prime.
    # Every Riley factor here is palindromic, so a fit on n nodes computes
    # the slices at M^2 = 1..n/2 + 1 and mirrors the rest
    from tbk.charvar import _modp, apoly

    counts = dict.fromkeys(work, 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            out = fn(*args)
            counts[name] += 1
            if name == "cauchy_interpolate" and out is None:
                counts["failed fits"] += 1
            return out

        monkeypatch.setattr(module, name, wrapper)

    counted(apoly, "_ahat_mod_p")
    counted(apoly, "_slice_squarefree")
    counted(_modp, "cauchy_interpolate")
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    a_polynomial(Fraction(pq))
    assert counts == work


@pytest.mark.parametrize("pq", ("4/15", "6/35"))
def test_modular_output_does_not_depend_on_prime_size(monkeypatch, pq):
    # every factor modular: the engine's primes lie between 2^29 and 2^30,
    # so every residue is a one-digit int; started at 2^12 instead, where
    # one prime reconstructs coefficients only up to about 45, the output
    # is the same apoly v1 text, factor by factor, with the same map degrees
    from tbk.charvar import apoly
    from tbk.exactnum.textio import format_apoly

    primes = []
    ahat_mod_p = apoly._ahat_mod_p

    def recorded(cache, p, count):
        primes.append(p)
        return ahat_mod_p(cache, p, count)

    def text(ap):
        return [format_apoly(f) for f in (ap.poly,) + ap.factors], ap.map_degrees

    monkeypatch.setattr(apoly, "_ahat_mod_p", recorded)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    default = text(a_polynomial(Fraction(pq)))
    assert primes and all(2 ** 29 < p < 2 ** 30 for p in primes)
    primes.clear()
    monkeypatch.setattr(apoly, "_ELIMINATION_PRIMES_FROM", 2 ** 12)
    assert text(a_polynomial(Fraction(pq))) == default
    assert primes and all(2 ** 12 < p < 2 ** 13 for p in primes)


def test_modular_degrees_carry_only_from_kept_images(monkeypatch):
    # an image with a lower (d, dden) signature comes from an unlucky prime
    # and is discarded; its point count must not reach the next prime.
    # Primes from 2^12 make 5/17's factor take two kept images
    from tbk.charvar import apoly

    monkeypatch.setattr(apoly, "_ELIMINATION_PRIMES_FROM", 2 ** 12)
    calls = []
    ahat_mod_p = apoly._ahat_mod_p

    def unlucky_second(cache, p, count):
        calls.append(count)
        image = ahat_mod_p(cache, p, count)
        if len(calls) == 2:
            d, dden, coeffs, _ = image
            return d - 1, dden, coeffs, 11
        return image

    monkeypatch.setattr(apoly, "_ahat_mod_p", unlucky_second)
    component = riley_factor_data(Fraction(5, 17))
    first = ahat_mod_p(apoly._PointCache(component), engine_prime(), None)
    apoly._apoly_modular(component)
    assert len(calls) >= 3
    assert calls[0] is None
    assert calls[1] == calls[2] == first[3]


def test_modular_image_refuses_a_denominator_that_is_no_power_of_M(monkeypatch):
    # lc_L(A) = +-M^b makes every coefficient function's denominator a
    # power of M; one fit returned as num * (M + 1) / (M + 1), which still
    # matches every point, rejects the prime
    from tbk.charvar import _modp, apoly

    data = riley_factor_data(Fraction(4, 15))
    p = engine_prime()
    assert apoly._ahat_mod_p(apoly._PointCache(data), p, None) is not None
    cauchy_interpolate = _modp.cauchy_interpolate
    changed = []

    def once(xs, ys, p):
        fit = cauchy_interpolate(xs, ys, p)
        if fit is not None and not changed:
            num, den = fit
            assert den == [1]
            changed.append(fit)
            fit = _modp.pmul(num, [1, 1], p), [1, 1]
        return fit

    monkeypatch.setattr(_modp, "cauchy_interpolate", once)
    assert apoly._ahat_mod_p(apoly._PointCache(data), p, None) is None
    assert changed


def engine_prime():
    """The modular engine's first prime, just above _ELIMINATION_PRIMES_FROM
    (2^29, unless a test patches it)."""
    from tbk.charvar import _modp, apoly

    return next(_modp.prime_stream(apoly._ELIMINATION_PRIMES_FROM))


def riley_factor_data(pq):
    """The component, kept in M, of the Riley factor of p/q of largest
    u-degree."""
    from tbk.charvar import apoly

    pres = presentation(pq)
    p11, length = longitude_data(pres)
    factors = apoly._riley_factors(riley_polynomial(pres), 1)
    phi = max(factors, key=lambda f: f.degree("u"))
    return apoly.RileyComponent.of(phi, p11, length, in_s=False)


def longitude_in_s(component):
    """The component's P(s, u), written in M, as a MultiPoly in M and u."""
    return MultiPoly(("M", "u"), {(e_m, e_u): c for e_u, e_m, c in component.p_terms})


@pytest.mark.parametrize("pq", (Fraction(5, 17), Fraction(8, 27)))
@pytest.mark.parametrize("corrupt", (1, 2))
def test_modular_stability_survives_a_wrong_image(monkeypatch, pq, corrupt):
    # primes from 2^12 make 5/17's factor take two images and 8/27's
    # u-degree-10 one three.  One coefficient of the first or second
    # image, on 8/27 the middle one, is off by one: no lift it enters may
    # be returned, and the wrong image must not poison the lift for good
    from tbk.charvar import apoly

    monkeypatch.setattr(apoly, "_ELIMINATION_PRIMES_FROM", 2 ** 12)
    data = max(apoly.riley_components(pq), key=lambda c: c.du)
    calls = []
    wrong = []  # the number of the image to corrupt, once set
    ahat_mod_p = apoly._ahat_mod_p

    def corrupted(cache, p, count):
        calls.append(p)
        image = ahat_mod_p(cache, p, count)
        if [len(calls)] == wrong:
            d, dden, coeffs, carried = image
            coeffs = dict(coeffs)
            key = sorted(k for k in coeffs if k != (d, dden))[len(coeffs) // 2]
            coeffs[key] = (coeffs[key] + 1) % p
            image = d, dden, coeffs, carried
        return image

    monkeypatch.setattr(apoly, "_ahat_mod_p", corrupted)
    expected = apoly._apoly_modular(data)
    clean = len(calls)
    assert clean == (2 if pq == Fraction(5, 17) else 3)
    calls.clear()
    wrong.append(corrupt)
    assert apoly._apoly_modular(data) == expected
    assert len(calls) > clean


def test_exact_check_matches_fraction_oracle(monkeypatch):
    # the proof over Z[s, 1/s][u]/phi against the six-point Fraction check
    # over Q[u] it replaced, on every modular A-factor with q <= 15, 6/35
    # and 8/63, then on two wrong lifts of each: one coefficient off by 1,
    # and off by p * k with p the first engine prime (so right mod p).
    # The proof accepts every true factor and refuses every wrong lift,
    # each of which the oracle refuses too
    from tbk.charvar import apoly

    checked = []
    verify = apoly._verify_vanishing

    def recorded(apoly_poly, cache):
        component = cache.component  # P and length for the oracle
        checked.append((apoly_poly, cache, longitude_in_s(component), component.length))
        return verify(apoly_poly, cache)

    monkeypatch.setattr(apoly, "_verify_vanishing", recorded)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    fractions = [Fraction(p, q) for p, q in reduced_fractions(15)]
    for pq in fractions + [Fraction(6, 35), Fraction(8, 63)]:
        a_polynomial(pq)
    assert len(checked) >= len(fractions) + 4

    p = engine_prime()
    rng = random.Random(5)
    for poly, cache, p11, length in checked:
        assert vanishing_failure_oracle(poly, cache, p11, length) is None
        assert verify(poly, cache) is True
        key = rng.choice(sorted(poly.terms))
        for delta in (1, p * rng.randint(1, 9)):
            terms = dict(poly.terms)
            terms[key] += delta * rng.choice((-1, 1))
            wrong = MultiPoly(poly.variables, terms)
            assert vanishing_failure_oracle(wrong, cache, p11, length) is not None
            assert verify(wrong, cache) is False, (poly, delta)


def test_proof_matches_sympy_remainder_over_QQ_s(monkeypatch):
    # every Riley factor with q <= 13, each forced modular: sympy's
    # remainder of c^dL A(s, R/c) by phi over QQ(s) (tests/oracles.py) is
    # zero exactly when the proof accepts, on the true lift, on the lift
    # with its constant term moved by +-1, and on the lift with one
    # coefficient off by p * k, p the first engine prime (so right mod p)
    from tbk.charvar import apoly

    checked = []
    verify = apoly._verify_vanishing

    def recorded(apoly_poly, cache):
        checked.append((apoly_poly, cache))
        return verify(apoly_poly, cache)

    monkeypatch.setattr(apoly, "_verify_vanishing", recorded)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    for p, q in reduced_fractions(13):
        a_polynomial(Fraction(p, q))
    assert len(checked) == 42

    p = engine_prime()
    rng = random.Random(31)
    verdicts = []
    for poly, cache in checked:
        constant, off = dict(poly.terms), dict(poly.terms)
        constant[(0, 0)] = constant.get((0, 0), 0) + rng.choice((-1, 1))
        off[rng.choice(sorted(off))] += p * rng.randint(1, 9) * rng.choice((-1, 1))
        for terms in (poly.terms, constant, off):
            lift = MultiPoly(poly.variables, terms)
            verdicts.append(verify(lift, cache))
            assert verdicts[-1] == vanishing_remainder_oracle(lift, cache.component), lift
    assert verdicts == [True, False, False] * len(checked)


@pytest.mark.parametrize("palindromic", (True, False))
def test_modular_engine_refuses_a_map_degree_read_too_large_within_two_primes(
        monkeypatch, palindromic):
    # 6/35's large factor has k = 2, read as 4.  Its slices are then no
    # minimal polynomials: on the palindromic factor the mirror check
    # refuses them on the first prime; on a cache told the factor is not
    # palindromic, they are images of one polynomial with non-integer
    # coefficients, whose lift from the first prime passes the screen at
    # the second and is refused there, not after _MAX_PRIMES primes
    from tbk.charvar import apoly

    init = apoly._PointCache.__init__
    probe = apoly._PointCache.probe
    slice_squarefree = apoly._slice_squarefree
    primes = set()

    def told(cache, component):
        init(cache, component._replace(palindromic=palindromic and component.palindromic))

    def doubled(cache, p):
        probe(cache, p)
        cache.k *= 2
        return {}

    def recorded(cache, m, p):
        primes.add(p)
        return slice_squarefree(cache, m, p)

    monkeypatch.setattr(apoly._PointCache, "__init__", told)
    monkeypatch.setattr(apoly._PointCache, "probe", doubled)
    monkeypatch.setattr(apoly, "_slice_squarefree", recorded)
    component = max(apoly.riley_components(Fraction(6, 35)), key=lambda c: c.du)
    with pytest.raises(apoly.EliminationError, match="map degree 4") as err:
        apoly._apoly_modular(component)
    assert len(primes) == (1 if palindromic else 2)
    assert str(max(primes)) in str(err.value)
    if not palindromic:
        assert "failed at its screen" in str(err.value)


@pytest.mark.parametrize("stage", ("reconstruction", "screen", "proof"))
def test_modular_engine_errors_name_the_stage_the_prime_and_k(monkeypatch, stage):
    # a lift not proved within _MAX_PRIMES primes, whether no image lifts
    # (reconstruction) or no lift passes the screen, and a screened lift
    # that fails the proof: each EliminationError names the stage, the
    # last prime and the map degree (6/35's large factor, k = 2)
    from tbk.charvar import apoly

    ahat_mod_p = apoly._ahat_mod_p
    primes = []

    def recorded(cache, p, count):
        primes.append(p)
        image = ahat_mod_p(cache, p, count)
        return None if stage == "reconstruction" else image

    monkeypatch.setattr(apoly, "_ahat_mod_p", recorded)
    monkeypatch.setattr(apoly, "_MAX_PRIMES", 3)
    if stage == "screen":
        monkeypatch.setattr(apoly, "_screened", lambda *args: False)
    if stage == "proof":
        monkeypatch.setattr(apoly, "_verify_vanishing", lambda *args: False)
    component = max(apoly.riley_components(Fraction(6, 35)), key=lambda c: c.du)
    with pytest.raises(apoly.EliminationError) as err:
        apoly._apoly_modular(component)
    text = str(err.value)
    assert f"failed at its {stage}, mod {primes[-1]}, with map degree 2" in text
    assert len(primes) == (1 if stage == "proof" else 3)
    if stage != "proof":
        assert "no lift proved within 3 primes" in text


def test_modular_reconstruction_cap_fails_fast(monkeypatch):
    # the coefficient degrees do not depend on the prime, so a fit past the
    # cap ends the elimination on its first prime, not after 400 primes;
    # the cap counts degrees in s = M^2, where 6/35's reach 12
    from tbk.charvar import apoly

    primes = []
    ahat_mod_p = apoly._ahat_mod_p

    def counted_prime(cache, p, count):
        primes.append(p)
        return ahat_mod_p(cache, p, count)

    monkeypatch.setattr(apoly, "_MAX_RECON_DEGREE", 8)
    monkeypatch.setattr(apoly, "_ahat_mod_p", counted_prime)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    with pytest.raises(apoly.EliminationError,
                       match=r"degree \d+, past the cap _MAX_RECON_DEGREE = 8") as err:
        a_polynomial(Fraction(6, 35))
    assert len(primes) == 1
    assert str(primes[-1]) in str(err.value)


def test_modular_sample_points_lie_below_every_prime(monkeypatch):
    # _ahat_mod_p computes slices at the real points M = 1, 2, ..., fits on
    # them and on the inverses mod p of 2, 3, ... (the mirrored nodes),
    # with n - 2 - SPARE_POINTS <= 2 * _MAX_RECON_DEGREE nodes (larger n
    # raises the cap).  So no p it runs on divides a real point m:
    # lc_u(phi_i(m)) and c stay units and no slice is degenerate.  Nor is a mirrored node 1/m a real point m',
    # as 1 < m * m' < p, so all nodes are distinct.  The prime-size test
    # starts the primes at 2^12
    from tbk.charvar import _modp, apoly

    largest = 2 * apoly._MAX_RECON_DEGREE + 2 + _modp.SPARE_POINTS
    assert largest < 1 << 12
    assert largest ** 2 < apoly._ELIMINATION_PRIMES_FROM
    points = {}
    nodes = {}
    slice_squarefree = apoly._slice_squarefree
    cauchy_interpolate = _modp.cauchy_interpolate

    def recorded_slice(cache, m, p):
        points.setdefault(p, set()).add(m)
        return slice_squarefree(cache, m, p)

    def recorded_fit(xs, ys, p):
        nodes.setdefault(p, []).append(list(xs))
        return cauchy_interpolate(xs, ys, p)

    monkeypatch.setattr(apoly, "_slice_squarefree", recorded_slice)
    monkeypatch.setattr(_modp, "cauchy_interpolate", recorded_fit)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    a_polynomial(Fraction(6, 35))
    # both factors fit at the first prime only, and the second only
    # screens their lifts, by the slice at 2
    assert len(nodes) == 1 and len(points) == 2 and set(nodes) < set(points)
    for p, ms in points.items():
        if p not in nodes:
            assert ms == {2}, p
            continue
        assert ms == set(range(1, max(ms) + 1)) and max(ms) < p, p
        for xs in nodes[p]:
            assert len(set(xs)) == len(xs), p
            mirrored = set(xs) - ms
            assert mirrored and not mirrored & ms, p
            assert {pow(x, -1, p) for x in mirrored} <= ms - {1}, p


def test_modular_engine_mirrors_only_palindromic_factors(monkeypatch):
    # a Riley factor that were not palindromic in M^2 would keep the
    # unmirrored nodes M^2 = 1..n and compute every slice; no Riley factor
    # with q <= 33 is one, so the cache is told so here: 6/35 then takes
    # the 66 slices of the unmirrored engine, two of them screens (119
    # while a second prime confirmed each lift), against 36 mirrored, and
    # gives the same factors
    from tbk.charvar import _modp, apoly

    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    mirrored = a_polynomial(Fraction(6, 35))
    init = apoly._PointCache.__init__
    caches = []

    def not_palindromic(cache, component):
        init(cache, component._replace(palindromic=False))
        caches.append(component.palindromic)

    slices = []
    slice_squarefree = apoly._slice_squarefree
    cauchy_interpolate = _modp.cauchy_interpolate
    nodes = []

    def recorded_slice(cache, m, p):
        slices.append(m)
        return slice_squarefree(cache, m, p)

    def recorded_fit(xs, ys, p):
        nodes.append(list(xs))
        return cauchy_interpolate(xs, ys, p)

    monkeypatch.setattr(apoly._PointCache, "__init__", not_palindromic)
    monkeypatch.setattr(apoly, "_slice_squarefree", recorded_slice)
    monkeypatch.setattr(_modp, "cauchy_interpolate", recorded_fit)
    plain = a_polynomial(Fraction(6, 35))
    assert caches == [True, True]
    assert len(slices) == 66
    assert all(xs == list(range(1, len(xs) + 1)) for xs in nodes)
    assert plain == mirrored


def test_elimination_error_under_a_polynomial_names_the_engine_variable(monkeypatch):
    # the engine counts in s = M^2; a_polynomial's EliminationError says so,
    # while the engine's own text is kept as its cause
    from tbk.charvar import apoly

    monkeypatch.setattr(apoly, "_MAX_RECON_DEGREE", 8)
    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", ALL_MODULAR)
    with pytest.raises(apoly.EliminationError) as err:
        a_polynomial(Fraction(6, 35))
    cause = err.value.__cause__
    assert isinstance(cause, apoly.EliminationError)
    assert "M^2" not in str(cause)
    assert str(err.value) == f"{cause} (in the engine's variable s = M^2)"


def test_a_polynomial_knot_symmetries():
    # p/q and p^-1 mod q / q are the same knot; the mirror (q-p)/q
    # reverses the meridian: A'(L, M) = M^deg_M(A) * A(L, 1/M)
    apolys = {(p, q): a_polynomial(Fraction(p, q)).poly
              for p, q in reduced_fractions(11)}
    assert len(apolys) == 28
    for (p, q), A in apolys.items():
        assert apolys[(pow(p, -1, q), q)] == A, (p, q)
        dM = A.degree("M")
        reversed_m = MultiPoly(("L", "M"),
                               {(i, dM - j): c for (i, j), c in A.terms.items()})
        assert apolys[(q - p, q)] == reversed_m, (p, q)


def test_a_polynomial_numeric_oracle():
    for pq in (Fraction(2, 5), Fraction(4, 15), Fraction(6, 35)):
        samples = sample_representations(pq, count=20)
        assert max(s[-1] for s in samples) < 1e-10  # longitude upper-triangular
        residual = relative_apoly_residual(a_polynomial(pq).poly, samples)
        assert residual < 1e-8, (pq, residual)


def test_newton_polygon_examples():
    poly = MultiPoly(("L", "M"), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert set(newton_polygon(poly).corners) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert edge_slopes(newton_polygon(poly)) == {Slope(0, 1), Slope.INFINITY}

    poly = MultiPoly(("L", "M"), {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 5})
    assert set(newton_polygon(poly).corners) == {(0, 0), (2, 0), (0, 2)}

    # parallelogram with corners (0,14),(1,14),(1,0),(2,0): slopes {0, -14}
    poly = MultiPoly(("L", "M"), {(0, 14): 1, (1, 14): 1, (1, 0): 1, (2, 0): 1})
    assert finite_edge_slopes_as_ints(newton_polygon(poly)) == {0, -14}


def test_newton_polygon_counterclockwise():
    polygon = newton_polygon(a_polynomial(Fraction(2, 5)).poly)
    corners = list(polygon.corners)
    area2 = sum(x0 * y1 - x1 * y0
                for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]))
    assert area2 > 0  # counterclockwise orientation
    assert corners[0] == min(corners)


def test_edge_slope_conventions():
    poly = MultiPoly(("L", "M"), {(0, 0): 1, (1, 4): 1})
    polygon = newton_polygon(poly)
    assert edge_slopes(polygon) == {Slope(4, 1)}
    assert edge_slopes(polygon, SlopeConvention(axis="ml")) == {Slope(1, 4)}
    assert edge_slopes(polygon, SlopeConvention(negate=True)) == {Slope(-4, 1)}
    assert edge_slopes(polygon, SlopeConvention(half=True)) == {Slope(2, 1)}
    assert DEFAULT_CONVENTION == SlopeConvention("lm", False, False)


def test_minkowski_edge_slope_union():
    rng = random.Random(17)
    done = 0
    while done < 100:
        f = random_multipoly(rng, variables=("L", "M"), max_degree=5, terms=5)
        g = random_multipoly(rng, variables=("L", "M"), max_degree=5, terms=5)
        if f.is_zero() or g.is_zero():
            continue
        union = edge_slopes(newton_polygon(f)) | edge_slopes(newton_polygon(g))
        assert edge_slopes(newton_polygon(f * g)) == union
        done += 1


def test_degenerate_polygons():
    point = MultiPoly(("L", "M"), {(2, 3): 5})
    assert newton_polygon(point).corners == ((2, 3),)
    assert edge_slopes(newton_polygon(point)) == set()
    segment = MultiPoly(("L", "M"), {(0, 0): 1, (1, 6): 1, (2, 12): 1})
    assert newton_polygon(segment).corners == ((0, 0), (2, 12))
    assert edge_slopes(newton_polygon(segment)) == {Slope(6, 1)}


def test_split_components_k2():
    ap = a_polynomial(Fraction(4, 15))
    parts = split_components(ap, canonical_slopes={0, -14})
    assert parts is not None and len(parts) == 2
    product = parts[0].poly * parts[1].poly
    assert product.sign_normalized() == ap.poly.sign_normalized()
    tags = {p.component_tag for p in parts}
    assert tags == {"canonical", "other"}
    for p in parts:
        slopes = finite_edge_slopes_as_ints(newton_polygon(p))
        if p.component_tag == "canonical":
            assert slopes == {0, -14}
        else:
            assert slopes == {0, -8}


def test_split_components_carry_map_degrees():
    # 6/35: the (5, 22) part is the k = 1 Riley factor's image and the
    # (6, 24) part the k = 2 one's; each part carries its factor's k, with
    # or without the slope tags, and none when the APoly records none
    from tbk.charvar import APoly

    ap = a_polynomial(Fraction(6, 35))
    ks = dict(zip(ap.factors, ap.map_degrees))
    for parts in (split_components(ap), split_components(ap, canonical_slopes={0, -22})):
        assert [(p.poly.degree("L"), p.poly.degree("M")) for p in parts] == [(5, 22), (6, 24)]
        assert [p.map_degrees for p in parts] == [(1,), (2,)]
        assert all(p.map_degrees == (ks[p.poly],) for p in parts)
    bare = split_components(APoly(ap.poly, "full", ap.factors))
    assert [p.map_degrees for p in bare] == [(), ()]


def test_split_components_irreducible():
    for fraction in (Fraction(2, 5), Fraction(5, 13)):
        ap = a_polynomial(fraction)
        assert ap.factors == (ap.poly,)
        assert split_components(ap) is None


def sympy_factor_set(poly):
    import sympy

    Ls, Ms = sympy.symbols("L M")
    expr = sympy.sympify(str(poly).replace("^", "**"))
    _, factors = sympy.factor_list(expr)
    out = set()
    for g, e in factors:
        assert e == 1
        terms = {tuple(k): int(c) for k, c in sympy.Poly(g, Ls, Ms).terms()}
        out.add(MultiPoly(("L", "M"), terms).sign_normalized())
    return out


def test_split_components_matches_sympy_8_21():
    ap = a_polynomial(Fraction(8, 21))
    parts = split_components(ap)
    assert [(p.poly.degree("L"), p.poly.degree("M")) for p in parts] == [(3, 10), (4, 28)]
    assert {p.component_tag for p in parts} == {"full"}
    assert {p.poly for p in parts} == sympy_factor_set(ap.poly)
    assert parts[0].poly * parts[1].poly == ap.poly


def test_split_components_deduplicates_riley_factors():
    # the torus knot 1/9: both Riley factors give L*M^18 + 1
    from tbk.charvar.apoly import _riley_factors

    phi = riley_polynomial(presentation(Fraction(1, 9)))
    assert len(_riley_factors(phi, 1)) == 2
    ap = a_polynomial(Fraction(1, 9))
    assert ap.poly == L * M ** 18 + 1
    assert ap.factors == (ap.poly,)
    assert split_components(ap) is None


def test_split_does_not_import_numpy():
    code = ("import sys; from fractions import Fraction; "
            "from tbk.charvar import a_polynomial, split_components; "
            "parts = split_components(a_polynomial(Fraction(4, 15))); "
            "print(len(parts), 'numpy' in sys.modules)")
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False"]


def test_a_polynomial_structure():
    # knot A-polynomials carry only even meridian exponents and are
    # palindromic under (i, j) -> (dL - i, dM - j)
    from math import gcd

    for q in range(3, 14, 2):
        for p in range(1, q):
            if gcd(p, q) != 1 or p > q - p:
                continue
            A = a_polynomial(Fraction(p, q)).poly
            dL, dM = A.degree("L"), A.degree("M")
            assert all(j % 2 == 0 for (_, j) in A.terms)
            for (i, j), c in A.terms.items():
                assert A.terms.get((dL - i, dM - j)) == c, (p, q, i, j)


def test_a_factors_are_reciprocal():
    # the modular engine's mirrored nodes rest on each factor, not only on
    # the product: A_i(1/L, 1/M) L^dL M^dM = +-A_i(L, M), as the Riley
    # points (M, u) and (1/M, u) of a component carry L and 1/L; every
    # A-factor of every p/q with q <= 17
    count = 0
    for p, q in reduced_fractions(17):
        for A in a_polynomial(Fraction(p, q)).factors:
            dL, dM = A.degree("L"), A.degree("M")
            flipped = {(dL - i, dM - j): c for (i, j), c in A.terms.items()}
            sign = flipped[max(A.terms)] // A.terms[max(A.terms)]
            assert sign in (1, -1), (p, q, A)
            assert flipped == {key: sign * c for key, c in A.terms.items()}, (p, q, A)
            count += 1
    assert count == 66


def test_edge_slopes_are_boundary_slopes():
    # every Newton-polygon edge slope must appear among the surface slopes
    # of the same fraction; only the fiber slope 0 may go undetected
    from math import gcd

    from tbk.surfaces import slope_report

    for q in range(3, 14, 2):
        for p in range(1, q):
            if gcd(p, q) != 1 or p > q - p:
                continue
            fraction = Fraction(p, q)
            boundary = {d.slope for d in slope_report(fraction)}
            edges = finite_edge_slopes_as_ints(
                newton_polygon(a_polynomial(fraction)))
            assert edges <= boundary, fraction
            assert boundary - edges <= {0}, fraction


def test_edge_slopes_are_the_detected_slopes():
    # tbk finds the detected slopes twice: algebraically, as the edge slopes
    # of the A-polynomial, and combinatorially, as the boundary slopes with
    # a nonzero ideal-point count.  For a two-bridge knot they agree: a
    # slope an ideal point detects is an edge slope (Culler-Shalen; CCGLS,
    # Invent. Math. 118, 1994), and each edge slope comes from an ideal
    # point of the kind counted (Ohtsuki, J. Math. Soc. Japan 46, 1994).
    # Every p/q with q <= 17; a mismatch names the branch and the slope.
    from tbk.idealpoints import detected_slopes_with_counts

    mismatches = []
    count = 0
    for p, q in reduced_fractions(17):
        fraction = Fraction(p, q)
        algebraic = set()
        for s in edge_slopes(newton_polygon(a_polynomial(fraction))):
            if s.is_infinite or s.den != 1:
                mismatches.append(f"{fraction}: the algebraic branch gives the "
                                  f"edge slope {s}, which is no integer")
            else:
                algebraic.add(s.num)
        counts = detected_slopes_with_counts(fraction)
        combinatorial = {s for s, c in counts.items() if c}
        mismatches += [f"{fraction}: slope {s} is detected only by the algebraic branch "
                       f"(an edge slope; ideal-point count {counts.get(s, 'none')})"
                       for s in sorted(algebraic - combinatorial)]
        mismatches += [f"{fraction}: slope {s} is detected only by the combinatorial "
                       f"branch ({counts[s]} ideal points; no edge slope)"
                       for s in sorted(combinatorial - algebraic)]
        count += 1
    assert count == 64
    assert not mismatches, "\n".join(mismatches)
