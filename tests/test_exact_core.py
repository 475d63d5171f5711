"""Exact scalar and polynomial algebra: arithmetic, divrem, gcd, factored
rational functions, composition, and the text format."""

from fractions import Fraction
from random import Random

import pytest

from gfdiag import (
    BiPoly,
    ParseError,
    Poly,
    RatFunc,
    compose_rational,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    poly_xgcd,
)
from helpers import rand_bipoly, rand_fraction, rand_poly, rand_univariate_ratfunc


# -- basic arithmetic --------------------------------------------------------

def test_add_cancellation():
    assert parse_poly("1-z-z^2") + parse_poly("z^2") == parse_poly("1-z")


def test_mul_expands_diagonal_denominator():
    got = parse_poly("1-z") * parse_poly("1-2*z-4*z^2")
    assert got == parse_poly("1-3*z-2*z^2+4*z^3")


def test_mul_by_zero_absorbs():
    p = parse_poly("1-2*z-4*z^2")
    assert (p * Poly.zero("z")).is_zero


def test_power_equals_repeated_product():
    bipoly = BiPoly.from_monomials("x", "y", {(0, 0): Fraction(-3, 2), (1, 0): Fraction(1, 3),
                                              (0, 2): Fraction(5, 7), (2, 1): 1})
    for p, product in ((parse_poly("2/3 - z/5 + 7/2*z^2"), Poly.one("z")),
                       (bipoly, BiPoly.one("x", "y"))):
        for n in range(10):
            assert p ** n == product
            product = product * p
    with pytest.raises(ValueError):
        parse_poly("1-z") ** -1


def test_variable_mismatch_raises():
    with pytest.raises(ValueError, match="variable mismatch"):
        parse_poly("1+z") * Poly("t", [1, 1])


def test_rational_invariants():
    # Fraction keeps gcd(|num|, den) = 1 with positive denominator.
    q = Fraction(-6, 4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)


# -- divrem ------------------------------------------------------------------

def test_divrem_monomial_divisor():
    q, r = Poly("t", [-1, -1, 1]).divrem(Poly("t", [0, 1]))
    assert q == Poly("t", [-1, 1])
    assert r == Poly("t", [-1])


def test_divrem_round_trip_example():
    a = parse_poly("1-t-t^2-t^3", "t")
    b = parse_poly("1-t", "t")
    q, r = a.divrem(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divrem_self():
    a = parse_poly("1-2*z-4*z^2")
    q, r = a.divrem(a)
    assert q == Poly.one("z")
    assert r.is_zero


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        parse_poly("1+z").divrem(Poly.zero("z"))


def test_divrem_round_trip_randomized():
    rng = Random(101)
    for _ in range(200):
        a = rand_poly(rng, max_deg=6)
        b = rand_poly(rng, max_deg=4, nonzero=True)
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.degree < b.degree


# -- gcd ---------------------------------------------------------------------

def test_gcd_of_the_two_cubic_denominators_is_one():
    a = parse_poly("1-2*z-4*z^2-8*z^3")
    b = parse_poly("1-2*z+2*z^3")
    assert poly_gcd(a, b) == Poly.one("z")


def test_gcd_with_zero_is_monic_argument():
    p = parse_poly("2-2*z")
    assert poly_gcd(p, Poly.zero("z")) == p.monic()


def test_gcd_square_with_base():
    p = parse_poly("1+2*z")
    assert poly_gcd(p * p, p) == p.monic()


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero("z"), Poly.zero("z"))


def test_gcd_common_factor_randomized():
    rng = Random(202)
    for _ in range(200):
        a = rand_poly(rng, max_deg=3, nonzero=True)
        b = rand_poly(rng, max_deg=3, nonzero=True)
        g = rand_poly(rng, max_deg=2, nonzero=True).monic()
        got = poly_gcd(a * g, b * g)
        want = (g * poly_gcd(a, b)).monic()
        # got is a monic multiple of want; equality holds when a, b coprime
        assert got.divrem(want)[1].is_zero


def test_xgcd_bezout():
    rng = Random(303)
    for _ in range(100):
        a = rand_poly(rng, max_deg=4, nonzero=True)
        b = rand_poly(rng, max_deg=3, nonzero=True)
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)


# -- factored rational functions --------------------------------------------

def test_expand_single_fraction_diagonal_denominator():
    f = RatFunc(1, denom=[(parse_poly("1-z"), 1), (parse_poly("1-2*z-4*z^2"), 1)])
    num, den = f.expand_to_single_fraction()
    assert num == Poly.one("z")
    assert den == parse_poly("1-3*z-2*z^2+4*z^3")


def test_expand_constant_only():
    num, den = RatFunc(Fraction(3, 2)).expand_to_single_fraction()
    assert num == Poly.const("z", Fraction(3, 2))
    assert den == Poly.one("z")


def test_expand_numerator_only():
    f = RatFunc(1, numer=[(parse_poly("z^2"), 1)])
    num, den = f.expand_to_single_fraction()
    assert num == parse_poly("z^2")
    assert den == Poly.one("z")


def test_zero_factor_collapses_to_zero():
    assert RatFunc(1, numer=[(Poly.zero("z"), 1)]).is_zero


def test_zero_denominator_factor_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, denom=[(Poly.zero("z"), 1)])


def test_factored_vs_expanded_evaluation_randomized():
    rng = Random(404)
    checked = 0
    while checked < 200:
        f = rand_univariate_ratfunc(rng)
        x0 = rand_fraction(rng, -9, 9, 5)
        num, den = f.expand_to_single_fraction()
        if den.evaluate(x0) == 0:
            continue
        assert f.evaluate({"z": x0}) == num.evaluate(x0) / den.evaluate(x0)
        checked += 1


# -- composition -------------------------------------------------------------

def test_compose_identity_function():
    f = RatFunc(1, numer=[(Poly("w", [0, 1]), 1)])
    s_num = BiPoly("x", "y", [Poly.zero("y"), Poly("y", [0, 1])])  # x*y
    s_den = Poly("x", [1, -1])
    got = compose_rational(f, s_num, s_den)
    assert len(got.numer) == 1 and got.numer[0][0] == s_num
    assert len(got.denom) == 1
    assert got.denom[0][0] == BiPoly.embed(s_den, "x", "y")


def test_compose_fibonacci_construction():
    f = parse_ratfunc("w/(1-w-w^2)")
    s_num = BiPoly("x", "y", [Poly.zero("y"), Poly("y", [0, 1])])  # x*y
    s_den = Poly("x", [1, -1])
    got = compose_rational(f, s_num, s_den)
    target = parse_ratfunc("x*y*(1-x) / ((1-x)^2 - x*y*(1-x) - x^2*y^2)")
    num_g, den_g = got.expand_to_single_fraction()
    num_t, den_t = target.expand_to_single_fraction()
    assert num_g * den_t == num_t * den_g


def test_compose_evaluation_point_check():
    f = parse_ratfunc("w/(1-w-w^2)")
    s_num = BiPoly("x", "y", [Poly.zero("y"), Poly("y", [0, 1])])
    s_den = Poly("x", [1, -1])
    got = compose_rational(f, s_num, s_den)
    x0, y0 = Fraction(1, 7), Fraction(1, 5)
    w0 = (x0 * y0) / (1 - x0)
    assert got.evaluate({"x": x0, "y": y0}) == f.evaluate({"w": w0})


def test_compose_evaluation_commutes_randomized():
    rng = Random(505)
    checked = 0
    while checked < 200:
        f = rand_univariate_ratfunc(rng, var="w", n_denom=1)
        s_num = rand_bipoly(rng)
        s_den = rand_bipoly(rng, nonzero_at_0=True)
        x0 = rand_fraction(rng, -4, 4, 3)
        y0 = rand_fraction(rng, -4, 4, 3)
        if s_den.evaluate(x0, y0) == 0:
            continue
        w0 = s_num.evaluate(x0, y0) / s_den.evaluate(x0, y0)
        try:
            want = f.evaluate({"w": w0})
            got = compose_rational(f, s_num, s_den).evaluate({"x": x0, "y": y0})
        except ZeroDivisionError:
            continue
        assert got == want
        checked += 1


def test_compose_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        compose_rational(parse_ratfunc("w"), Poly("x", [0, 1]), Poly.zero("x"))


# -- text format -------------------------------------------------------------

def test_parse_poly_examples():
    p = parse_poly("1 - 2*z - 4*z^2")
    assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(-4))


def test_poly_print_parse_round_trip_randomized():
    rng = Random(606)
    for _ in range(200):
        p = rand_poly(rng, var=rng.choice(["x", "y", "z", "t", "w"]), max_deg=5)
        assert parse_poly(str(p), p.var) == p


def test_bipoly_print_parse_round_trip():
    rng = Random(707)
    for _ in range(100):
        p = rand_bipoly(rng)
        if p.degree < 1 or p.inner_degree < 1:
            continue
        f = parse_ratfunc(str(p))
        num, den = f.expand_to_single_fraction()
        assert den == BiPoly.one("x", "y")
        assert num == p


def test_parse_rational_scalars():
    f = parse_ratfunc("3/2")
    assert f.constant == Fraction(3, 2) and not f.numer and not f.denom


def test_parse_rational_coefficient_binds_tightly():
    p = parse_poly("2/5*z^2 - 1/5")
    assert p.coeffs == (Fraction(-1, 5), Fraction(0), Fraction(2, 5))


def test_parse_keeps_denominator_factored():
    f = parse_ratfunc("z^2/((1-z)*(1-2*z-4*z^2))")
    assert len(f.denom) == 2
    # Powers scale multiplicities in one step and equal the repeated product.
    for g in (parse_ratfunc("(2/3)*(x-y)*x^2/((1-x*y)*(1-x-y^2)^2)"), RatFunc(5),
              RatFunc.zero()):
        product = RatFunc.one()
        for n in range(4):
            assert g ** n == product
            product = product * g
    big = parse_ratfunc("1/(1-x)^1000000")
    assert big.constant == 1 and not big.numer
    assert big.denom == ((Poly("x", [1, -1]), 10 ** 6),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfunc("1 +")
    with pytest.raises(ParseError):
        parse_ratfunc("q + 1")
    with pytest.raises(ParseError):
        parse_ratfunc("z^(2)")
    with pytest.raises(ParseError):
        parse_ratfunc("1/0")


def test_ratfunc_display_round_trips_by_value():
    rng = Random(808)
    for _ in range(50):
        f = rand_univariate_ratfunc(rng)
        g = parse_ratfunc(str(f))
        num_f, den_f = f.expand_to_single_fraction()
        num_g, den_g = g.expand_to_single_fraction()
        assert num_f * den_g == num_g * den_f


# -- package surface ---------------------------------------------------------

def test_public_names_resolve_once():
    import gfdiag
    assert len(gfdiag.__all__) == len(set(gfdiag.__all__))
    for name in gfdiag.__all__:
        assert getattr(gfdiag, name) is not None, name
