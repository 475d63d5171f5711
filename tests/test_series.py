"""Series engine: univariate/bivariate expansion, diagonals, sequences,
and the binomial-convolution oracles."""

from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gfdiag import (
    BiPoly,
    PoleAtOriginError,
    RatFunc,
    SequenceSpec,
    binomial_convolution_sequence,
    bivariate_series,
    build_convolution_gf,
    convolution_grid,
    diagonal_series,
    generate_sequence,
    gf_of_sequence,
    kbonacci,
    parse_ratfunc,
    printed_gf,
    series_of_rational,
)
from gfdiag.series import _series_div, pascal_rows
from helpers import (
    rand_sequence_spec,
    rand_univariate_ratfunc,
    ref_bivariate_series,
    ref_pascal_sum,
    ref_series_div,
)


def F(*vals):
    return [Fraction(v) for v in vals]


# -- series_of_rational ------------------------------------------------------

def test_series_u_sequence():
    s = series_of_rational(parse_ratfunc("1/(1-2*z+2*z^3)"), 7)
    assert list(s) == F(1, 2, 4, 6, 8, 8, 4)


def test_series_fibonacci():
    s = series_of_rational(parse_ratfunc("z/(1-z-z^2)"), 6)
    assert list(s) == F(0, 1, 1, 2, 3, 5)


def test_series_constant():
    s = series_of_rational(parse_ratfunc("5/3"), 3)
    assert list(s) == [Fraction(5, 3), 0, 0]


def test_series_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        series_of_rational(parse_ratfunc("1/z"), 4)


def test_series_removable_pole_is_fine():
    s = series_of_rational(parse_ratfunc("z/(z*(1-z))"), 3)
    assert list(s) == F(1, 1, 1)


def test_series_satisfies_denominator_recurrence_randomized():
    rng = Random(111)
    for _ in range(200):
        f = rand_univariate_ratfunc(rng)
        num, den = f.expand_to_single_fraction()
        if den.coeff(0) == 0:
            continue
        n = num.degree + den.degree + 12
        c = list(series_of_rational(f, n))
        for m in range(num.degree + 1, n):
            acc = sum(den.coeff(i) * c[m - i]
                      for i in range(den.degree + 1) if m - i >= 0)
            assert acc == 0


# -- bivariate expansion ------------------------------------------------------

def test_bivariate_printed_h_lowest_term():
    grid = bivariate_series(printed_gf("fib.H.printed"), 4, 4)
    assert grid[1][2] == 1
    assert all(grid[0][m] == 0 for m in range(4))


def test_bivariate_geometric_grid():
    grid = bivariate_series(parse_ratfunc("1/((1-x)*(1-y))"), 5, 5)
    assert all(grid[n][m] == 1 for n in range(5) for m in range(5))


def test_bivariate_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        bivariate_series(parse_ratfunc("1/(x+y)"), 3, 3)


# -- diagonals ----------------------------------------------------------------

def test_diagonal_of_tribonacci_conv_gf():
    g = build_convolution_gf(kbonacci(3, shifted=True), kbonacci(3, shifted=True)).F
    assert list(diagonal_series(g, 6)) == F(0, 0, 2, 6, 22, 80)


def test_diagonal_of_geometric_product_all_ones():
    d = diagonal_series(parse_ratfunc("1/((1-x)*(1-y))"), 6)
    assert list(d) == [1] * 6


def test_diagonal_off_support_is_zero():
    d = diagonal_series(parse_ratfunc("x/(1-x*y)"), 6)
    assert list(d) == [0] * 6


def test_diagonal_matches_grid_entries():
    rng = Random(222)
    for _ in range(20):
        a = rand_sequence_spec(rng, unit_coeffs=True)
        g = build_convolution_gf(a, a).F
        if g.is_zero:
            continue
        n = 8
        grid = bivariate_series(g, n, n)
        diag = diagonal_series(g, n)
        assert all(diag[i] == grid[i][i] for i in range(n))


# -- sequences ----------------------------------------------------------------

def test_generate_shifted_tribonacci():
    s = generate_sequence(SequenceSpec(3, (1, 1, 1), (0, 1, 1)), 8)
    assert list(s) == F(0, 1, 1, 2, 4, 7, 13, 24)


def test_generate_lucas():
    s = generate_sequence(SequenceSpec(2, (1, 1), (2, 1)), 6)
    assert list(s) == F(2, 1, 3, 4, 7, 11)


def test_generate_powers_of_two():
    s = generate_sequence(SequenceSpec(1, (2,), (1,)), 4)
    assert list(s) == F(1, 2, 4, 8)


def test_kbonacci_conventions():
    assert list(generate_sequence(kbonacci(3, shifted=False), 6)) == F(1, 1, 2, 4, 7, 13)
    assert list(generate_sequence(kbonacci(3, shifted=True), 6)) == F(0, 1, 1, 2, 4, 7)


def test_kbonacci_gf_matches_series():
    for k in (1, 2, 3, 4):
        for shifted in (False, True):
            spec = kbonacci(k, shifted=shifted)
            via_gf = series_of_rational(gf_of_sequence(spec), 20)
            via_rec = generate_sequence(spec, 20)
            assert list(via_gf) == list(via_rec)


def test_gf_of_random_specs_matches_generation():
    rng = Random(333)
    for _ in range(100):
        spec = rand_sequence_spec(rng)
        gf = gf_of_sequence(spec)
        want = list(generate_sequence(spec, 15))
        if gf.is_zero:
            assert all(v == 0 for v in want)
        else:
            assert list(series_of_rational(gf, 15)) == want


# -- binomial convolutions ------------------------------------------------------

def test_binomial_convolution_fibonacci_anchors():
    fib = generate_sequence(kbonacci(2, shifted=True), 10)
    assert binomial_convolution_sequence(fib, fib, 4)[2:] == F(2, 6)


def test_binomial_convolution_zero_sequence():
    z = [Fraction(0)] * 8
    fib = list(generate_sequence(kbonacci(2, shifted=True), 8))
    assert binomial_convolution_sequence(z, fib, 6) == F(0, 0, 0, 0, 0, 0)


def test_binomial_convolution_needs_enough_terms():
    with pytest.raises(ValueError):
        binomial_convolution_sequence([Fraction(1)] * 3, [Fraction(1)] * 3, 4)


def test_binomial_convolution_symmetry_randomized():
    rng = Random(444)
    for _ in range(200):
        n = rng.randint(0, 12)
        a = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
        assert binomial_convolution_sequence(a, b, n + 1) == \
            binomial_convolution_sequence(b, a, n + 1)


def test_convolution_sequence_matches_single_calls():
    fib = list(generate_sequence(kbonacci(2, shifted=True), 12))
    seq = binomial_convolution_sequence(fib, fib, 12)
    assert seq == [sum(comb(n, k) * fib[k] * fib[n - k] for k in range(n + 1))
                   for n in range(12)]
    assert seq[:4] == F(0, 0, 2, 6)


def test_convolution_grid_entries():
    fib = list(generate_sequence(kbonacci(2, shifted=True), 8))
    h = convolution_grid(fib, fib, 6, 6)
    assert h[2][3] == 3
    for n in range(6):
        assert h[n][n] == sum(comb(n, k) * fib[k] * fib[n - k] for k in range(n + 1))


def test_convolution_grid_row_zero_reads_off_b():
    # With a_0 = 1 the only k = 0 term survives in row zero.
    a = list(generate_sequence(kbonacci(2, shifted=False), 8))
    b = list(generate_sequence(SequenceSpec(2, (1, 1), (2, 1)), 8))
    h = convolution_grid(a, b, 4, 8)
    assert all(h[0][m] == b[m] for m in range(8))


# -- integer kernels against their Fraction references ---------------------------
#
# Coefficients are rationals with distinct small denominators and constant
# terms include values other than +-1, negative ones too, so that a wrong
# power of the constant term or of a cleared denominator shows.

_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))
_constant_term = st.sampled_from((1, -1, 2, -3, 6, Fraction(5, 2), Fraction(-2, 3)))
_kernel_settings = settings(max_examples=80, derandomize=True, database=None, deadline=None)


@_kernel_settings
@given(num=st.lists(_rational, max_size=6), d0=_constant_term,
       den_rest=st.lists(_rational, max_size=4), n=st.integers(0, 14))
def test_series_div_matches_fraction_reference(num, d0, den_rest, n):
    den = [d0, *den_rest]
    assert _series_div(num, den, n) == ref_series_div(num, den, n)


@_kernel_settings
@given(numer=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 4)), _rational,
                             min_size=1, max_size=5),
       d00=_constant_term,
       denom=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _rational,
                             max_size=5),
       nx=st.integers(0, 8), ny=st.integers(0, 8))
def test_bivariate_series_matches_fraction_reference(numer, d00, denom, nx, ny):
    den = BiPoly.from_monomials("x", "y", {**denom, (0, 0): d00})
    f = RatFunc(1, [(BiPoly.from_monomials("x", "y", numer), 1)], [(den, 1)])
    assert bivariate_series(f, nx, ny) == ref_bivariate_series(f, nx, ny)


@_kernel_settings
@given(a=st.lists(_rational, min_size=10, max_size=10),
       b=st.lists(_rational, min_size=10, max_size=10),
       count=st.integers(0, 10), nn=st.integers(0, 10), nm=st.integers(0, 10))
def test_convolution_oracles_match_fraction_reference(a, b, count, nn, nm):
    rows = list(pascal_rows(10))
    assert binomial_convolution_sequence(a, b, count) == [
        ref_pascal_sum(rows[n], a, b, n) for n in range(count)]
    assert convolution_grid(a, b, nn, nm) == [
        [ref_pascal_sum(rows[n], a, b, m) for m in range(nm)] for n in range(nn)]
