"""Exact scalar and polynomial algebra: arithmetic, divrem, gcd, factored
rational functions, composition, and the text format."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gfdiag import (
    BiPoly,
    ParseError,
    Poly,
    RatFunc,
    compose_rational,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    textform,
)
from gfdiag.claims import Claim, ClaimReport
from gfdiag.gfbuild import CatalogEntry, ConvolutionGF
from gfdiag.poly import VARIABLES
from gfdiag.residues import DiagnosticReport, PartialFractions, PoleClass
from gfdiag.series import SequenceSpec
from helpers import (
    identity_equal,
    poly_xgcd,
    rand_bipoly,
    rand_fraction,
    rand_poly,
    rand_univariate_ratfunc,
    ref_parse_ratfunc,
)

REPO = Path(__file__).resolve().parents[1]


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


# Factors are lifted to one shape before equal ones merge, so a factor in
# one variable and its lift to two are one factor.
def test_ratfunc_merges_a_poly_with_its_bipoly_lift():
    x, u, v = Poly("x", [0, 1]), Poly("x", [1, -1]), Poly("y", [1, -1])
    x2, u2, v2 = (BiPoly.embed(p, "x", "y") for p in (x, u, v))
    f = RatFunc(1, [(x, 1), (x2, 1)], [(u, 1), (v, 1), (u2, 2)])
    assert f.numer == ((x2, 2),)
    assert f.denom == ((u2, 3), (v2, 1))


def test_parse_merges_a_variable_repeated_across_shapes():
    assert parse_ratfunc("x*y*x") == parse_ratfunc("x^2*y")
    assert str(parse_ratfunc("x*y*x")) == "(x)^2*(y)"


def test_parse_merges_a_factor_repeated_across_shapes():
    assert str(parse_ratfunc("(1-x)*(1-y)*(1-x)")) == "(1 - x)^2*(1 - y)"


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
    big = parse_ratfunc("1/(1-x)^1000")
    assert big.constant == 1 and not big.numer
    assert big.denom == ((Poly("x", [1, -1]), 1000),)
    assert (big ** 1000).denom == ((Poly("x", [1, -1]), 10 ** 6),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfunc("1 +")
    with pytest.raises(ParseError):
        parse_ratfunc("q + 1")
    with pytest.raises(ParseError):
        parse_ratfunc("z^(2)")
    with pytest.raises(ParseError):
        parse_ratfunc("1/0")
    # Powers above MAX_EXPONENT, directly or as a power of a power.
    with pytest.raises(ParseError, match="cap 1000"):
        parse_ratfunc("1/(1-x)^1001")
    with pytest.raises(ParseError, match="cap 1000"):
        parse_ratfunc("((1-x)^1000*y)^2")
    # A product or a quotient adds the multiplicities of equal factors.
    with pytest.raises(ParseError, match="cap 1000"):
        parse_ratfunc("1/((1-z)^1000*(1-z)^500)")
    with pytest.raises(ParseError, match="cap 1000"):
        parse_ratfunc("1/(1-z)^600/(1-z)^600")
    # A power of a scalar, or of a function's constant factor, whose bits
    # (exponent times bit length) would pass MAX_SCALAR_BITS.
    with pytest.raises(ParseError, match="14285 bits"):
        parse_ratfunc("((2^1000)^1000)^100")
    with pytest.raises(ParseError, match="14285 bits"):
        parse_ratfunc("(2^1000*z)^15")
    assert parse_ratfunc("(2^1000*z)^14").constant == 2 ** 14000
    # A third variable, in a sum, a product or a quotient.
    for text in ("x+y+z", "x*y*z", "x*y + z", "(1-x)*(1-y)/(1-z)", "x/(y*z)", "1/(1-x-y) + z"):
        with pytest.raises(ParseError, match="at most two variables are supported, found x, y, z"):
            parse_ratfunc(text)
    # A literal longer than Python's default 4300-digit limit of int().
    for text in (f"1/(1-{'7' * 4301}*z)", f"z^{'0' * 4300}1"):
        with pytest.raises(ParseError, match="literal of 4301 digits exceeds the limit of 4300 digits"):
            parse_ratfunc(text)


def test_parse_nesting_cap():
    # Each open parenthesis and each unary minus sign that applies nests one
    # level; MAX_NESTING (100) levels parse, one more is a ParseError.
    z = parse_ratfunc("z")
    assert parse_ratfunc("(" * 100 + "z" + ")" * 100) == z
    assert parse_ratfunc("-" * 100 + "z") == z
    assert parse_ratfunc("-(" * 50 + "z" + ")" * 50) == z
    assert parse_ratfunc("(" * 99 + "-z" + ")" * 99 + "*" + "-" * 99 + "z") == parse_ratfunc("z^2")
    for text in ("(" * 101 + "z" + ")" * 101, "-" * 101 + "z", "-(" * 50 + "-z" + ")" * 50,
                 "(" * 100 + "-z" + ")" * 100, "1 - (" * 101 + "z" + ")" * 101):
        with pytest.raises(ParseError, match="nest deeper than the cap 100"):
            parse_ratfunc(text)


# -- the parser against the fold through RatFunc's + ------------------------------

def _same_parse(text: str) -> None:
    """parse_ratfunc(text) equals ref_parse_ratfunc(text), or both raise one ParseError."""
    try:
        want = ref_parse_ratfunc(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_ratfunc(text)
        assert str(got.value) == str(exc)
        return
    got = parse_ratfunc(text)
    # RatFunc equality compares the constant and the factor tuples in
    # order, and a factor's type, variable or variable pair with it.
    assert got == want, text
    assert str(got) == str(want)


def _atom(draw, names: list[str], depth: int) -> str:
    kind = draw(st.integers(0, 3 if depth else 2))
    if kind == 0:
        return str(draw(st.integers(0, 9)))
    if kind == 1:
        return draw(st.sampled_from(names))
    if kind == 2:
        return f"{draw(st.sampled_from(names))}^{draw(st.integers(0, 3))}"
    power = draw(st.sampled_from(["", "", "^0", "^1", "^2"]))
    return f"({_expression(draw, names, depth - 1)}){power}"


def _expression(draw, names: list[str], depth: int) -> str:
    """A sum of products and quotients of scalars, variables, powers and nested sums."""
    text = ""
    for k in range(draw(st.integers(1, 3))):
        term = _atom(draw, names, depth)
        for _ in range(draw(st.integers(0, 2))):
            term += draw(st.sampled_from("**/")) + _atom(draw, names, depth)
        sign = draw(st.sampled_from(["", "", "-"]))
        text += (sign if k == 0 else draw(st.sampled_from("+-")) + sign) + term
    return text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_parse_matches_fold_through_ratfunc_add(data):
    names = data.draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=2, unique=True))
    _same_parse(_expression(data.draw, names, data.draw(st.integers(0, 2))))


@pytest.mark.parametrize("text", [
    # Cancellation to zero, or to a constant, starts the variables afresh.
    "x - x + y", "x*y - x*y + y", "x*y + y - x*y", "x*y + 1 - x*y + z", "3 + x - x",
    # A zero term keeps the other one factored.
    "0 + (1-x)*(1-y)", "(1-x)^2 + 0", "1 - 1 + (1-x)^2", "x - x + (1-y)^2", "0*x*y*z",
    # A power 0 of a function is a function, not a scalar.
    "x^0 + 1", "(x-x+3)^2", "1/(x^0 - 1)", "1/(1 - 1)",
    # A factor repeated across one- and two-variable parts merges once lifted.
    "x*y*x", "x*y*x*y", "(x*y*x)^2", "-(x*y*x)", "x*y*x/(1-x-y)", "2*x*y/(1-x)",
    # Sums with denominators, and rational scalars.
    "1/x + 1/y + x", "x + 1/(1-x) - 1/(1-x)", "(1/2)*x + (1/3)*y - x/2", "w - x", "t*z - 1",
    # A factor equal to another only once lifted passes the cap with it,
    # before the rest of the text is read.
    "x^600*(x+y-y)^600", "(x+y-y)^600*x^600 + 1/0",
    # A sum drops a variable that cancels out of it, before a denominator
    # comes and after one.
    "(x+z-x)/(1-z)", "x + z - x + 1/(1-z)", "y*x + y - x*y + x", "x*y - x + x",
    "1/(1/(1-z) + x - x) + 1", "1/(1-z) + x - x", "x/(1-z) + z - x/(1-z)",
    # The caps, checked inside a run of literals and variable powers: a
    # variable's exponent summed over the run and after '^', a literal's
    # power and digits, and the minus signs of each factor.
    "x^600*x^600", "x^1001", "3*2^20000*x",
    pytest.param(f"3*{'9' * 1500}^10*x", id="3*9{1500}^10*x"),
    pytest.param(f"2*{'7' * 4301}*x", id="2*7{4301}*x"),
    pytest.param("-" * 101 + "x*y", id="-{101}x*y"),
    pytest.param("-" * 100 + "x*y", id="-{100}x*y"),
    pytest.param("x*" + "-" * 101 + "y", id="x*-{101}y"),
    pytest.param("x*" + "-" * 101 + "(1-y)", id="x*-{101}(1-y)"),
    # Minus signs inside a run, a zero coefficient, which drops the variables,
    # and a power 0 of a variable, which is a function and no factor.
    "-x*-y", "x*--y^2*-3", "x*y*0*z", "x^0*y", "y*x^0*x", "x^0", "-0*x/(x-x)",
    # A run that ends at '/' or '(' becomes one product, its variables in the
    # order they came; a sum's only term stays factored.
    "2*x/3", "(1/2)*x*y", "-1*(1 - x)", "y*x*y/(1-x)", "3*x*-(1-y)^2", "(x*y)",
])
def test_parse_matches_fold_on_edge_cases(text):
    _same_parse(text)


@st.composite
def _printed_ratfunc(draw) -> str:
    """str of a factored RatFunc: 1-4 Poly or BiPoly factors in one variable pair."""
    names = draw(st.lists(st.sampled_from(VARIABLES), min_size=2, max_size=2, unique=True))
    sides: tuple[list, list] = ([], [])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 2))
        rows = [draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
                for _ in range(draw(st.integers(1, 4)) if kind == 2 else 1)]
        p = (BiPoly(*names, [Poly(names[1], row) for row in rows]) if kind == 2
             else Poly(names[kind], rows[0]))
        if not p.is_zero:
            sides[draw(st.booleans())].append((p, draw(st.integers(1, 3))))
    constant = Fraction(draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1])),
                        draw(st.integers(1, 12)))
    return str(RatFunc(constant, *sides))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=_printed_ratfunc())
def test_parse_matches_fold_on_printed_factored_functions(text):
    _same_parse(text)


def test_a_printed_polynomial_builds_no_term_per_monomial(monkeypatch):
    # 40 terms with signs, unit and other coefficients, and powers of both
    # variables: the text reads as monomials, added into one sum.
    p = BiPoly("x", "y", [Poly("y", [(-1) ** (i * j) * (i + j) for j in range(1, 6)])
                          for i in range(8)])
    text = str(p)
    assert text.count("*") > 40
    built = []
    init = textform._Term.__init__
    monkeypatch.setattr(textform._Term, "__init__",
                        lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    got = parse_ratfunc(text)
    monkeypatch.undo()
    assert len(built) <= 2
    assert got == ref_parse_ratfunc(text) == RatFunc(1, [(p, 1)])


def test_a_variable_that_cancels_out_of_a_sum_is_dropped():
    got, want = parse_ratfunc("(x+z-x)/(1-z)"), parse_ratfunc("z/(1-z)")
    assert identity_equal(got, want)
    assert got.variables == want.variables == ("z",)
    assert parse_ratfunc("(1/2)*x + (1/3)*y - x/2").variables == ("y",)
    assert parse_ratfunc("x^2*y + x - x^2*y").variables == ("x",)
    assert parse_ratfunc("1/(1-z) + x - x").variables == ("z",)
    assert parse_ratfunc("x/(1-x) + y - y").variables == ("x",)
    # A sum that passes three variables before one cancels takes the ones left.
    for text in ("x*y + z - x*y", "z + x - x + y"):
        assert parse_ratfunc(text) == parse_ratfunc(text.replace("x", "0"))
    assert parse_ratfunc("x*y + z - x*y").variables == ("z",)
    assert parse_ratfunc("z + x - x + y").variables == ("y", "z")


def _catalog_texts() -> list[str]:
    """Every literal text the package passes to parse_ratfunc."""
    texts = []
    for path in sorted((REPO / "src" / "gfdiag").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "parse_ratfunc"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                texts.append(node.args[0].value)
    return texts


def _bench_texts(monkeypatch) -> list[str]:
    """The function texts of the residue and univariate benchmark passes, seeds 1-3."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import oracles
    import workloads
    # Only the argv lists are read: skip the order-5 convolution oracle at n = 1000.
    monkeypatch.setattr(oracles, "binomial_convolution", lambda *args: [])
    texts = []
    for workload in ("residue", "univariate"):
        for seed in (1, 2, 3):
            for op in workloads.build(workload, seed):
                if op.argv[0] == "expand":
                    texts.append(op.argv[1])
                texts += [a.split("=", 1)[1] for a in op.argv if a.startswith("--gf-text=")]
    return texts


def test_parse_matches_fold_on_catalog_and_bench_texts(monkeypatch):
    catalog, bench = _catalog_texts(), _bench_texts(monkeypatch)
    assert len(catalog) >= 10 and len(bench) == 96
    for text in catalog + bench:
        _same_parse(text)


def test_ratfunc_display_round_trips_by_value():
    rng = Random(808)
    for _ in range(50):
        f = rand_univariate_ratfunc(rng)
        g = parse_ratfunc(str(f))
        num_f, den_f = f.expand_to_single_fraction()
        num_g, den_g = g.expand_to_single_fraction()
        assert num_f * den_g == num_g * den_f
    # Two variables, every factor with a negative constant term: the printer
    # negates each one and flips the constant once per odd multiplicity.
    parities = set()
    for _ in range(50):
        factors = []
        for _ in range(3):
            p = rand_bipoly(rng, nonzero_at_0=True)
            factors.append((-p if p.coeff(0).coeff(0) > 0 else p, rng.randint(1, 4)))
        parities.update(m % 2 for _, m in factors)
        f = RatFunc(rand_fraction(rng) or 1, factors[:1], factors[1:])
        assert identity_equal(parse_ratfunc(str(f)), f)
    assert parities == {0, 1}


# -- records -----------------------------------------------------------------

# Each record with its fields, in order, and its optional fields' defaults.
# SequenceSpec derives its defaults from order in its own constructor (see
# the test after this one).
RECORDS = [
    (SequenceSpec, "order coeffs initial", {}),
    (PoleClass, "factor multiplicity kept reason leading_at_zero",
     {"leading_at_zero": None}),
    (DiagnosticReport, "poles status checked_terms first_mismatch lhs rhs",
     {"first_mismatch": None, "lhs": None, "rhs": None}),
    (PartialFractions, "poly_part parts", {}),
    (Claim, "id description expected_status check conventions note",
     {"conventions": (), "note": ""}),
    (ClaimReport, "id status first_mismatch lhs rhs runtime_ms expected_status "
                  "matched_expected note conventions", {"note": "", "conventions": None}),
    (ConvolutionGF, "F spec_a spec_b provenance", {}),
    (CatalogEntry, "id kind provenance description build", {"build": None}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_are_immutable_values(cls, fields, defaults):
    fields = tuple(fields.split())
    assert tuple(cls.__annotations__) == fields
    values = ((2, (Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1, 2)))
              if cls is SequenceSpec else tuple(f"v{i}" for i in range(len(fields))))
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert [getattr(a, name) for name in fields] == list(values)
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert getattr(a, fields[0]) == values[0]
    required = [name for name in fields if name not in defaults]
    short = cls(*values[:len(required)])
    assert {name: getattr(short, name) for name in defaults} == defaults
    for bad_args, bad_kwargs in [((), {}), (values[:1], {fields[0]: values[0]}),
                                 (values, {"unknown": 1}), (values + (0,), {})]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_sequence_spec_checks_and_normalises():
    spec = SequenceSpec(2, initial=[0, "1/2"])
    assert spec.coeffs == (1, 1) and spec.initial == (0, Fraction(1, 2))
    assert all(type(v) is Fraction for v in spec.coeffs + spec.initial)
    assert spec == SequenceSpec(2, (1, 1), (0, Fraction(1, 2)))
    assert SequenceSpec(0) == SequenceSpec(0, (), ())
    for args, message in [((-1,), "order must be >= 0"),
                          ((2, (1,), (0, 1)), "need 2 recurrence coefficients, got 1"),
                          ((2, (), (0,)), "need 2 initial terms, got 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SequenceSpec(*args)


# -- package surface ---------------------------------------------------------

def test_public_names_resolve_once():
    import gfdiag
    assert len(gfdiag.__all__) == len(set(gfdiag.__all__))
    for name in gfdiag.__all__:
        assert getattr(gfdiag, name) is not None, name


def test_import_loads_no_test_only_package():
    # pyproject.toml declares dependencies = []: sympy, hypothesis and pytest
    # serve the tests only, so importing the package and its CLI loads none.
    code = ("import sys, gfdiag, gfdiag.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'sympy', 'hypothesis', 'pytest'}))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_cli_import_loads_only_what_start_up_uses():
    # Every command pays for import gfdiag.cli: the records are built on
    # poly._Frozen, not dataclasses (which loads inspect), the annotations
    # name collections.abc, not typing, and --json imports json in cli._emit.
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport gfdiag.cli\n"
            "gfdiag.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(REPO / "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
