"""Series engine: univariate/bivariate expansion, diagonals, sequences,
and the binomial-convolution oracles."""

import copy
import pickle
from fractions import Fraction
from math import comb
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gfdiag import (
    BiPoly,
    PoleAtOriginError,
    Poly,
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
from gfdiag import _division, series
from gfdiag.series import _first_mismatch, _unscaled, pascal_rows
from helpers import (
    rand_sequence_spec,
    rand_univariate_ratfunc,
    ref_bivariate_series,
    ref_generate_sequence,
    ref_pascal_sum,
    ref_series_div,
    ref_series_of_rational,
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



def test_first_mismatch_gives_the_first_index_and_both_values():
    assert _first_mismatch([Fraction(0), Fraction(1), Fraction(1), Fraction(3)],
                           [0, 1, 1, 2, 4]) == (3, "3", "2")
    assert _first_mismatch([Fraction(1, 2)], [Fraction(2, 4), 7]) is None  # shorter side ends
    assert _first_mismatch([], [1]) is None

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
            via_rec = ref_generate_sequence(spec, 20)
            assert list(via_gf) == via_rec


def test_gf_of_random_specs_matches_generation():
    rng = Random(333)
    for _ in range(100):
        spec = rand_sequence_spec(rng)
        gf = gf_of_sequence(spec)
        want = ref_generate_sequence(spec, 15)
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


@pytest.mark.parametrize("call", [
    lambda: binomial_convolution_sequence(F(1, 2), F(1, 2), -1),
    lambda: convolution_grid(F(1, 2), F(1, 2), -1, 1),
    lambda: convolution_grid(F(1, 2), F(1, 2), 1, -1)])
def test_convolution_oracles_reject_negative_n(call):
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        call()


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
    f = RatFunc(1, [(Poly("z", num), 1)], [(Poly("z", den), 1)])
    assert series_of_rational(f, n) == ref_series_div(num, den, n)


@st.composite
def _z_factor(draw):
    """(z^k * (c0 + ...), multiplicity, k): k = 0 and c0 alone give a constant."""
    k = draw(st.integers(0, 2))
    c = [draw(_constant_term), *draw(st.lists(_rational, max_size=2))]
    return Poly("z", [0] * k + c), draw(st.integers(1, 4)), k


@_kernel_settings
@given(constant=st.sampled_from((1, -2, Fraction(3, 5))),
       numer=st.lists(_z_factor(), max_size=2), denom=st.lists(_z_factor(), max_size=3),
       n=st.integers(0, 12))
def test_factored_series_matches_reduced_fraction(constant, numer, denom, n):
    # The kernel reads the factors as they are, with no gcd: a power of z
    # in a factor shifts the series, and the net order alone decides a pole.
    f = RatFunc(constant, [(p, m) for p, m, _ in numer], [(p, m) for p, m, _ in denom])
    order = sum(k * m for _, m, k in numer) - sum(k * m for _, m, k in denom)
    if order < 0:
        with pytest.raises(PoleAtOriginError, match="^pole at the origin$"):
            series_of_rational(f, n)
        with pytest.raises(PoleAtOriginError):
            ref_series_of_rational(f, n)
    else:
        assert series_of_rational(f, n) == ref_series_of_rational(f, n)


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
@given(constant=st.sampled_from((0, 1, -2, Fraction(3, 5))),
       numer=st.lists(_z_factor(), max_size=2), denom=st.lists(_z_factor(), max_size=3),
       n=st.integers(0, 12))
@example(constant=1, numer=[(Poly("z", [1, Fraction(-1, 3)]), 1, 0)],
         denom=[(Poly("z", [Fraction(5, 2), Fraction(-1, 7), 0, 0, 3]), 1, 0)], n=300)
@example(constant=0, numer=[], denom=[(Poly("z", [2, 1]), 1, 0)], n=0)
@example(constant=1, numer=[(Poly("z", [0, 0, 3]), 1, 2)], denom=[], n=1)
def test_integer_exit_matches_series_of_rational(constant, numer, denom, n):
    # The claims read a series as ints over one denominator, d0 ** (n - 1)
    # times the row's: constant terms such as 2, 5/2 and 6 clear to d0 != 1.
    order = sum(k * m for _, m, k in numer) - sum(k * m for _, m, k in denom)
    assume(order >= 0 or constant == 0)
    f = RatFunc(constant, [(p, m) for p, m, _ in numer], [(p, m) for p, m, _ in denom])
    ints, den = series._integers(*series._taylor(f, n))
    assert len(ints) == n
    assert [Fraction(v, den) for v in ints] == series_of_rational(f, n)


@_kernel_settings
@given(coeffs=st.lists(_rational, max_size=3), data=st.data(), n=st.integers(0, 12))
def test_integer_exit_matches_generate_sequence(coeffs, data, n):
    initial = data.draw(st.lists(_rational, min_size=len(coeffs), max_size=len(coeffs)))
    spec = SequenceSpec(len(coeffs), coeffs, initial)
    ints, den = series._integers(*series._sequence(spec, n))
    assert [Fraction(v, den) for v in ints] == generate_sequence(spec, n)


@st.composite
def _factor(draw):
    """(factor, multiplicity): a Poly in x or in y, or a BiPoly in both."""
    kind = draw(st.sampled_from(("x", "y", "xy")))
    c0 = draw(_constant_term)
    if kind == "xy":
        key = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
        rest = draw(st.dictionaries(key, _rational, min_size=1, max_size=4))
        p = BiPoly.from_monomials("x", "y", {**rest, (0, 0): c0})
    else:
        p = Poly(kind, [c0, *draw(st.lists(_rational, min_size=1, max_size=2))])
    return p, draw(st.integers(1, 2))


@_kernel_settings
@given(constant=st.sampled_from((1, -2, Fraction(3, 5))),
       numer=st.lists(_factor(), max_size=1),
       denom=st.lists(_factor(), min_size=2, max_size=3),
       nx=st.integers(0, 7), ny=st.integers(0, 7))
def test_bivariate_series_per_factor_division_matches_reference(constant, numer, denom, nx, ny):
    # Several denominator factors with constant terms other than +-1, some
    # repeated: each division must rescale by the constant terms before it.
    f = RatFunc(constant, numer, denom)
    assert bivariate_series(f, nx, ny) == ref_bivariate_series(f, nx, ny)


@st.composite
def _shared_factors(draw):
    """(numer, denom): univariate factors of multiplicity 1-4, one or two in
    x and one or two in y, and at most one mixed factor; the numerator
    repeats some of them, scaled by 1, -1 or -2/3, with a multiplicity
    below, equal to or above theirs, and may carry a monomial and one factor
    of its own."""
    denom = [(Poly(v, [draw(_constant_term), *draw(st.lists(_rational, min_size=1, max_size=2))]),
              draw(st.integers(1, 4)))
             for v in "xy" + draw(st.sampled_from(("", "x", "y")))]
    denom += draw(st.lists(_factor(), max_size=1))
    numer = [(p.scale(draw(st.sampled_from((1, -1, Fraction(-2, 3))))), k)
             for p, m in denom if (k := draw(st.integers(0, m + 1)))]
    numer += draw(st.lists(_factor(), max_size=1))
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if a or b:
        numer.append((BiPoly.from_monomials("x", "y", {(a, b): 1}), 1))
    return numer, denom


@_kernel_settings
@given(constant=st.sampled_from((1, -2, Fraction(3, 5))), factors=_shared_factors(),
       nx=st.integers(0, 8), ny=st.integers(0, 8))
def test_bivariate_series_cancels_and_orders_factors_like_reference(constant, factors, nx, ny):
    # A numerator factor equal to a denominator factor up to sign cancels
    # fully or in part, and the univariate classes are divided in either
    # order with the rows or columns they reach; the reference divides the
    # expanded fraction over the whole grid.
    f = RatFunc(constant, *factors)
    assert bivariate_series(f, nx, ny) == ref_bivariate_series(f, nx, ny)


def test_a_factor_equal_past_its_monomial_cancels_before_any_division(monkeypatch):
    # x - x^2 is x*(1 - x): its 1 - x cancels against the denominator's and
    # its x against x^1000, so the box is divided by 1 - x*y alone, not
    # 1000 times by 1 - x as well.
    steps = []
    packable = _division._packable
    monkeypatch.setattr(_division, "_packable",
                        lambda terms, f0: steps.append(terms) or packable(terms, f0))
    f = parse_ratfunc("(x-x^2)^1000/(x^1000*(1-x)^1000*(1-x*y))")
    assert diagonal_series(f, 20) == [1] * 20
    assert steps and all(terms == [(0, 0, 1), (1, 1, -1)] for terms in steps)


# -- Fractions built in lowest terms without the constructor --------------------
#
# _unscaled sets a bare Fraction's two slots; every value must be the one
# Fraction's constructor gives, in every field and through every protocol.

def _exact(q):
    return type(q), type(q.numerator), q.numerator, type(q.denominator), q.denominator


def _fields(q):
    return (*_exact(q), hash(q), str(q), repr(q), _exact(pickle.loads(pickle.dumps(q))),
            _exact(copy.copy(q)), _exact(copy.deepcopy(q)))


def test_fraction_slot_layout_is_pinned():
    assert Fraction.__slots__ == ("_numerator", "_denominator")


_D0S = (1, 2, 4, 6, 12, 35, 1024)


@st.composite
def _screened_terms(draw):
    """(e, d0, den): d0 and den share primes, and the terms are zeros or carry
    powers of those primes up to well past what den * d0^m holds."""
    d0 = draw(st.sampled_from(_D0S))
    den = draw(st.sampled_from((1, 2, 3, 6, 7, 10, 12, 35, 48, 1024, 2 * 3 * 5 * 7)))
    term = st.one_of(
        st.just(0),
        st.builds(lambda s, a, b, c, d, u: s * 2 ** a * 3 ** b * 5 ** c * 7 ** d * u,
                  st.sampled_from((1, -1)), *[st.integers(0, 60)] * 4,
                  st.integers(1, 10 ** 6)))
    return draw(st.lists(term, max_size=12)), d0, den


@_kernel_settings
@given(terms=_screened_terms())
def test_unscaled_is_fraction_field_by_field(terms):
    e, d0, den = terms
    got = _unscaled(e, d0, den)
    assert list(map(_fields, got)) == [_fields(Fraction(v, den * d0 ** m)) for m, v in enumerate(e)]


def _monomial(a: int, b: int) -> BiPoly:
    return BiPoly.from_monomials("x", "y", {(a, b): 1})


@_kernel_settings
@given(constant=st.sampled_from((1, -2, Fraction(3, 5), 0)),
       shift=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       pole=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       numer=st.lists(_factor(), max_size=1), denom=st.lists(_factor(), max_size=3),
       n=st.integers(0, 12), nx=st.integers(0, 12), ny=st.integers(0, 12))
@example(constant=0, shift=(1, 0), pole=(0, 0), numer=[], denom=[], n=5, nx=3, ny=6)
@example(constant=Fraction(3, 5), shift=(0, 0), pole=(0, 0), numer=[], denom=[], n=5, nx=6, ny=3)
def test_diagonal_matches_the_reference_grid_field_by_field(constant, shift, pole, numer, denom,
                                                           n, nx, ny):
    # The numerator's monomial x^a * y^b, with a != b, starts the diagonal
    # off the box's corner; constant terms other than +-1 make the diagonal
    # step D^2 with D != 1.  A denominator monomial beyond it is a pole at
    # the origin, and one within it only shifts the reference's numerator.
    (a, b), (c, e) = shift, pole
    f = RatFunc(constant, [*numer, (_monomial(a, b), 1)], [*denom, (_monomial(c, e), 1)])
    if constant and (c > a or e > b):
        with pytest.raises(PoleAtOriginError):
            diagonal_series(f, n)
        with pytest.raises(PoleAtOriginError):
            bivariate_series(f, n, n)
        return
    reduced = RatFunc(constant, [*numer, (_monomial(max(a - c, 0), max(b - e, 0)), 1)], denom)
    grid = ref_bivariate_series(reduced, n, n)
    want = [row[i] for i, row in enumerate(grid)]
    assert list(map(_fields, diagonal_series(f, n))) == list(map(_fields, want))
    grid = ref_bivariate_series(reduced, nx, ny)
    got = bivariate_series(f, nx, ny, diagonal=True)
    assert list(map(_fields, got)) == [_fields(grid[i][i]) for i in range(min(nx, ny))]


def test_diagonal_builds_one_fraction_per_term(monkeypatch):
    built = []
    coprime = series._coprime

    def counted(nums, dens):
        built.append(len(nums))
        return coprime(nums, dens)

    monkeypatch.setattr(series, "_coprime", counted)
    # The grid builds every cell off the monomial's zero rows and columns:
    # x*y^3 leaves 49 rows of 47.
    for text, cells in (("1/(1-x-y)", 2500), ("1/((2-x)*(3-y)*(1-x*y))", 2500),
                        ("x*y^3/((2-x)*(3-y))", 49 * 47)):
        f = parse_ratfunc(text)
        built.clear()
        diagonal_series(f, 50)
        assert sum(built) <= 50, text
        built.clear()
        bivariate_series(f, 50, 50)
        assert sum(built) == cells, text


@pytest.mark.parametrize("text, grid", [
    ("(-1/2)/(-3+z)", False),
    ("-1/(-(2/3)+z-z^2)", False),
    ("1/((-2+x)*(-3-y))", True),
])
def test_negative_constant_terms_and_contents_give_reduced_fractions(text, grid):
    # _unscaled assumes den > 0 and d0 > 0: the kernel moves a factor's
    # negative constant term into its content, so the scale carries the sign.
    f = parse_ratfunc(text)
    if grid:
        got, want = bivariate_series(f, 12, 12), ref_bivariate_series(f, 12, 12)
    else:
        got, want = [series_of_rational(f, 40)], [ref_series_of_rational(f, 40)]
    assert [list(map(_fields, row)) for row in got] == [list(map(_fields, row)) for row in want]


# -- Outer-only factors divide whole packed rows ----------------------------------
#
# A denominator factor with constant term 1 and outer in every other term
# divides rows packed into one integer each (_division._divide_packed), when
# _division._packs finds that it pays.  Each case runs with that cost test and
# with packing forced, against the reference's cell-by-cell division.

def _xy(terms: dict) -> BiPoly:
    return BiPoly.from_monomials("x", "y", terms)


_outer_terms = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                               st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


@st.composite
def _outer_only(draw):
    """1 + a signed sum of x^i * y^j, i >= 1: general, x*y-type or in x alone."""
    shape = draw(st.sampled_from(("mixed", "xy", "x")))
    if shape == "xy":
        terms = {(k, k): draw(st.integers(-5, 5).filter(bool))
                 for k in (1, draw(st.integers(1, 3)))}
    elif shape == "x":
        terms = {(i, 0): v for (i, _), v in draw(_outer_terms).items()}
    else:
        terms = draw(_outer_terms)
    return _xy({(0, 0): 1, **terms}), draw(st.integers(1, 3))


# Factors that divide cell by cell: a constant term 2 or 3 (1 - x/3 clears
# to 3 - x), or a term in y alone.
_other = st.sampled_from((Poly("x", [2, -1]), Poly("x", [1, Fraction(-1, 3)]), Poly("y", [1, -2]),
                          _xy({(0, 0): 2, (1, 1): -1}), _xy({(0, 0): 1, (1, 0): -1, (0, 1): 3})))


@st.composite
def _outer_run(draw):
    """(numer, denom): a run of outer-only factors, with a factor that is not
    one before or after it or both, and a numerator with a monomial shift."""
    run = draw(st.lists(_outer_only(), min_size=1, max_size=3))
    before, after = ([(p, 1)] if (p := draw(st.one_of(st.none(), _other))) else []
                     for _ in range(2))
    numer = [(_xy({(draw(st.integers(0, 3)), draw(st.integers(0, 3))): 1}), 1)]
    numer += [(_xy(t), 1) for t in draw(st.lists(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3).filter(bool),
        min_size=1, max_size=3), max_size=1))]
    return numer, before + run + after


@_kernel_settings
@given(constant=st.sampled_from((1, -2, Fraction(3, 5), 2 ** 1300 + 1)), factors=_outer_run(),
       nx=st.integers(0, 10), ny=st.integers(0, 10))
# Every contribution to a cell has one sign, so no cancellation keeps the
# cells small.
@example(constant=1, factors=([], [(_xy({(0, 0): 1, (1, 0): -1, (1, 1): -1}), 3)]), nx=9, ny=9)
# Row 7's bound, 2^7, is its one cell: 8-bit digits would leave no sign bit.
@example(constant=1, factors=([], [(_xy({(0, 0): 1, (1, 1): -2}), 1)]), nx=8, ny=8)
def test_packed_division_matches_the_reference_field_by_field(constant, factors, nx, ny):
    # The numerator's monomial and a second numerator factor start the
    # bound from rows of their own; a factor with constant term 2 before the
    # run scales its steps by a power of 2, and one after it unpacks the
    # run mid-box.  The constant 2^1300 + 1 puts the digit width past the
    # crossover, where the cost test divides cell by cell.
    f = RatFunc(constant, *factors)
    grid = ref_bivariate_series(f, nx, ny)
    want = [list(map(_fields, row)) for row in grid]
    for packs in (_division._packs, lambda *args: True):
        with mock.patch.object(_division, "_packs", packs):
            assert [list(map(_fields, row)) for row in bivariate_series(f, nx, ny)] == want
            got = bivariate_series(f, nx, ny, diagonal=True)
            assert list(map(_fields, got)) == [want[i][i] for i in range(min(nx, ny))]


# A diagonal reads cell [n][n + si - sj] of each row, si and sj the net
# monomial's powers.  When every term (i, j, v) of the divisions from some
# run on has j <= i, a cell on or right of that line reads only cells on or
# right of it, and those runs divide each row from the line on: the packed
# path (_division._divide_packed) where _division._bands finds that it
# pays, the per-cell path (_division._divide_box) always.

_band_terms = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(0, 3)).filter(
    lambda t: t[1] <= t[0]), st.integers(-4, 4).filter(bool), min_size=1, max_size=4)


@st.composite
def _band_factor(draw):
    """A factor whose terms all have j <= i: general, or in x alone, with
    constant term 1 (packable) or 2 (divided cell by cell)."""
    terms = draw(_band_terms)
    if draw(st.booleans()):
        terms = {(i, 0): v for (i, _), v in terms.items()}
    return _xy({(0, 0): draw(st.sampled_from((1, 1, 2))), **terms}), draw(st.integers(1, 2))


@st.composite
def _band_run(draw):
    """(numer, denom): band factors after an optional factor in y alone or
    with j > i, and a numerator monomial x^a * y^b, so the diagonal line
    m = n + a - b starts left of the box (a < b), at its corner or right of
    it, with an optional numerator factor in y that widens the rows."""
    run = draw(st.lists(_band_factor(), min_size=1, max_size=3))
    before = draw(st.sampled_from(([], [(Poly("y", [1, -1]), 1)], [(Poly("y", [1, -1, 2]), 2)],
                                   [(_xy({(0, 0): 1, (1, 2): -1}), 1)])))
    numer = [(_monomial(draw(st.integers(0, 4)), draw(st.integers(0, 4))), 1)]
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        numer.append((Poly("y", [1, *tail]), 1))
    return numer, before + run


@_kernel_settings
@given(constant=st.sampled_from((1, -3, Fraction(2, 7), 2 ** 1300 + 1)), factors=_band_run(),
       nx=st.integers(0, 30), ny=st.integers(0, 30))
# The line starts two columns right of the corner, and 1 - x - x*y keeps
# j <= i with j > 0: band rows shift right.
@example(constant=1, factors=([(_monomial(2, 0), 1)],
                              [(_xy({(0, 0): 1, (1, 0): -1, (1, 1): -1}), 2)]), nx=30, ny=30)
# The line starts three rows below the corner: c0 stays 0 for three rows.
@example(constant=1, factors=([(_monomial(0, 3), 1)],
                              [(_xy({(0, 0): 1, (2, 1): -2, (1, 0): 1}), 1)]), nx=25, ny=30)
# In x alone the rows keep the numerator's 3 columns, and c0 reaches them.
@example(constant=1, factors=([(_monomial(1, 0), 1), (Poly("y", [1, 2, -1]), 1)],
                              [(Poly("x", [1, -2, 1]), 2)]), nx=20, ny=20)
def test_diagonal_band_matches_the_reference_field_by_field(constant, factors, nx, ny):
    # Each case runs with the cost tests as they are, with packing and the
    # band forced (in x alone too, where the band ends at the numerator's
    # columns), and with packing forced and the band refused.
    f = RatFunc(constant, *factors)
    grid = ref_bivariate_series(f, nx, ny)
    want = [_fields(grid[i][i]) for i in range(min(nx, ny))]
    force = lambda *args: True
    for packs, bands in ((_division._packs, _division._bands), (force, force),
                         (force, lambda *args: False)):
        with mock.patch.object(_division, "_packs", packs), \
                mock.patch.object(_division, "_bands", bands):
            assert list(map(_fields, bivariate_series(f, nx, ny, diagonal=True))) == want


@_kernel_settings
@given(e=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12), j=st.integers(1, 14))
@example(e=[], j=1)
@example(e=[5, -2], j=3)
def test_a_unit_inner_step_is_a_running_sum(e, j):
    # Division by 1 - inner^j: e[m] += e[m - j], which _solve_row takes by
    # itertools.accumulate over each class of m mod j.  Against the step
    # loop, with an empty row and rows shorter than j among the cases.
    want = e[:]
    for m in range(j, len(want)):
        want[m] += want[m - j]
    got = e[:]
    _division._solve_row(got, [(j, -1)])
    assert got == want


def test_the_cost_test_packs_where_it_pays(monkeypatch):
    runs = []
    divide = _division._divide_packed
    monkeypatch.setattr(_division, "_divide_packed",
                        lambda *args: runs.append(args[5]) or divide(*args))
    trib = printed_gf("trib.G")
    # trib.G's mixed factor is outer-only: the diagonal at n = 200 takes
    # 82-byte digits, under the crossover.
    diagonal_series(trib, 200)
    assert runs == [82]
    # The same factor past the crossover, and a grid that unpacks 40,000
    # cells for one step each, stay cell by cell.
    runs.clear()
    diagonal_series(trib.scale(2 ** 1300), 200)
    bivariate_series(parse_ratfunc("1/(1-x*y)"), 200, 200)
    assert runs == []
    # A factor in x alone keeps only the diagonal's band cell by cell, but
    # packed it shifts no column and keeps whole rows: its packed cost
    # counts twice, and 76-byte digits (n = 300) stay cell by cell.
    f = parse_ratfunc("1/((1+2*x)*(1-2*y)^2)")
    diagonal_series(f, 200)
    diagonal_series(f, 300)
    assert runs == [51]


def test_pascal_rows_match_math_comb():
    rows = list(pascal_rows(60))
    assert len(rows) == 60
    for n, row in enumerate(rows):
        assert row == [comb(n, k) for k in range(n + 1)]


def test_half_rows_match_math_comb():
    # Rows of both parities: an odd row's successor ends in twice its last entry.
    rows = list(series._half_rows(60))
    assert len(rows) == 60
    for n, row in enumerate(rows):
        assert row == [comb(n, k) for k in range(n // 2 + 1)]


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


@_kernel_settings
@given(a=st.integers(0, 41).flatmap(lambda c: st.lists(_rational, min_size=c, max_size=c)),
       tails=st.tuples(_rational, _rational).filter(lambda t: t[0] != t[1]))
def test_folded_self_convolution_matches_fraction_reference(a, tails):
    # Each row is read for k <= n/2 only: both parities of n occur, and a
    # self-convolution takes the one-product path, whether a and b are one
    # list, two lists that agree on the first count terms, or a and a/11,
    # which clear to the same integers over different denominators.
    count = len(a)
    rows = list(pascal_rows(count))
    want = [ref_pascal_sum(rows[n], a, a, n) for n in range(count)]
    assert binomial_convolution_sequence(a, a, count) == want
    assert binomial_convolution_sequence(a + [tails[0]], a + [tails[1]], count) == want
    b = [v / 11 for v in a]
    assert binomial_convolution_sequence(a, b, count) == [
        ref_pascal_sum(rows[n], a, b, n) for n in range(count)]
