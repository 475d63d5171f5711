"""Convolution GF construction and the catalog."""

from fractions import Fraction
from random import Random

import pytest

from gfdiag import (
    SequenceSpec,
    bivariate_series,
    build_convolution_gf,
    catalog_entry,
    catalog_ids,
    convolution_grid,
    generate_sequence,
    kbonacci,
    parse_poly,
    printed_gf,
    series_of_rational,
)
from helpers import identity_equal, rand_sequence_spec


def _grid_matches(a: SequenceSpec, b: SequenceSpec, size: int) -> bool:
    f = build_convolution_gf(a, b).F
    ta = list(generate_sequence(a, size))
    tb = list(generate_sequence(b, size))
    want = convolution_grid(ta, tb, size, size)
    if f.is_zero:
        return all(v == 0 for row in want for v in row)
    return bivariate_series(f, size, size) == want


def test_fibonacci_grid_40x40():
    fib = kbonacci(2, shifted=True)
    assert _grid_matches(fib, fib, 40)


def test_tribonacci_grid_40x40():
    trib = kbonacci(3, shifted=True)
    assert _grid_matches(trib, trib, 40)


def test_mixed_pair_grid_40x40():
    assert _grid_matches(kbonacci(2, shifted=False), kbonacci(3, shifted=True), 40)


def test_custom_initial_grid_40x40():
    spec = SequenceSpec(3, (1, 1, 1), (1, 0, 2))
    assert _grid_matches(spec, spec, 40)


def test_grid_entry_anchor():
    fib = kbonacci(2, shifted=True)
    f = build_convolution_gf(fib, fib).F
    grid = bivariate_series(f, 4, 4)
    assert grid[2][3] == 3


def test_diagonal_anchor_tribonacci():
    trib = kbonacci(3, shifted=True)
    f = build_convolution_gf(trib, trib).F
    grid = bivariate_series(f, 6, 6)
    assert [grid[i][i] for i in range(6)] == [0, 0, 2, 6, 22, 80]


def test_zero_sequence_gives_zero_function():
    zero = SequenceSpec(2, (1, 1), (0, 0))
    assert build_convolution_gf(zero, kbonacci(2)).F.is_zero
    assert build_convolution_gf(kbonacci(2), zero).F.is_zero


# The residue benchmark passes str(F) as --gf-text, so a change in how F's
# factors are merged or ordered would change the benchmark's inputs.
def test_printed_form_of_shifted_tribonacci_is_pinned():
    trib = kbonacci(3, shifted=True)
    assert str(build_convolution_gf(trib, trib).F) == (
        "(y)*(x*y)*(1 - x)^2 / ((1 - y - y^2 - y^3)*(1 - x)"
        "*(1 - 3*x - x*y + 3*x^2 + 2*x^2*y - x^2*y^2 - x^3 - x^3*y + x^3*y^2 - x^3*y^3))")


def test_printed_form_of_a_repeated_root_pair_is_pinned():
    # b_n = 2*b_(n-1) - b_(n-2) from 0, 1: the natural numbers, double root 1.
    naturals = SequenceSpec(2, (2, -1), (0, 1))
    assert str(build_convolution_gf(kbonacci(3, shifted=True), naturals).F) == (
        "(y)*(x*y)*(1 - x)^2 / ((1 - 2*y + y^2)*(1 - x)"
        "*(1 - 3*x - x*y + 3*x^2 + 2*x^2*y - x^2*y^2 - x^3 - x^3*y + x^3*y^2 - x^3*y^3))")


def test_builder_random_pairs_small_grid():
    rng = Random(555)
    for _ in range(25):
        a = rand_sequence_spec(rng)
        b = rand_sequence_spec(rng)
        assert _grid_matches(a, b, 10)


def test_bilinearity_in_initial_terms():
    rng = Random(666)
    for _ in range(25):
        a = rand_sequence_spec(rng)
        b = rand_sequence_spec(rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = SequenceSpec(a.order, a.coeffs, tuple(c * v for v in a.initial))
        fa = build_convolution_gf(a, b).F
        fs = build_convolution_gf(scaled, b).F
        ga = bivariate_series(fa, 8, 8) if not fa.is_zero else [[Fraction(0)] * 8] * 8
        gs = bivariate_series(fs, 8, 8) if not fs.is_zero else [[Fraction(0)] * 8] * 8
        assert all(gs[n][m] == c * ga[n][m] for n in range(8) for m in range(8))


# -- catalog -----------------------------------------------------------------

def test_catalog_contains_the_stable_ids():
    ids = set(catalog_ids())
    for required in ("fib.H.printed", "fib.diag.printed", "fib.closed_form",
                     "trib.G", "trib.diag.printed", "trib.first_term_closed_form",
                     "trib.U_binomial", "trib.second_term", "tetra.diag.printed",
                     "penta.diag.printed"):
        assert required in ids


def test_printed_gf_fib_diag():
    f = printed_gf("fib.diag.printed")
    assert f.constant == 1
    assert [(str(p), m) for p, m in f.numer] == [("z", 2)]
    assert {str(p) for p, _ in f.denom} == {"1 - z", "1 - 2*z - 4*z^2"}


def test_printed_trib_diag_is_single_fraction_over_product():
    f = printed_gf("trib.diag.printed")
    num, _ = (lambda pair: pair)(f.expand_to_single_fraction())
    assert num == parse_poly("2*z^2-2*z^3-2*z^4-4*z^5")
    assert {str(p) for p, _ in f.denom} == {"1 - 2*z - 4*z^2 - 8*z^3", "1 - 2*z + 2*z^3"}


def test_printed_tetra_anchor_coefficients():
    s = series_of_rational(printed_gf("tetra.diag.printed"), 6)
    assert list(s) == [0, 0, 2, 6, 22, 80]


def test_printed_gf_unknown_id():
    with pytest.raises(ValueError, match="unknown catalog id"):
        printed_gf("no.such.id")


def test_printed_gf_formula_entry_rejected():
    with pytest.raises(ValueError, match="formula"):
        printed_gf("fib.closed_form")


def test_display_prefers_positive_constant_terms():
    from gfdiag import parse_ratfunc
    t = printed_gf("tetra.diag.printed")
    text = str(t)
    assert "(1 - 2*z - 4*z^2 - 8*z^3 - 16*z^4)" in text
    assert identity_equal(parse_ratfunc(text), t)


def test_catalog_entries_have_descriptions():
    for catalog_id in catalog_ids():
        entry = catalog_entry(catalog_id)
        assert entry.kind in ("bivariate-gf", "univariate-gf", "formula")
        assert entry.provenance in ("printed", "derived")
        assert entry.description
