"""Recurrence detection: Berlekamp-Massey over the rationals and GF
reconstruction."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gfdiag import (
    Poly,
    SequenceSpec,
    binomial_convolution_sequence,
    build_convolution_gf,
    convolution_terms,
    diagonal_series,
    find_min_recurrence,
    generate_sequence,
    gf_of_sequence,
    kbonacci,
    parse_poly,
    parse_ratfunc,
    series_of_rational,
)
from gfdiag.recurrences import _berlekamp_massey
from helpers import rand_sequence_spec, ref_berlekamp_massey, ref_generate_sequence


def test_fibonacci_detection():
    rec = find_min_recurrence([0, 1, 1, 2, 3, 5, 8, 13])
    assert rec.order == 2
    assert rec.coeffs == (1, 1)


def test_u_sequence_detection():
    # Terms recomputed from the stated oracle 1/(1-2z+2z^3).
    terms = list(series_of_rational(parse_ratfunc("1/(1-2*z+2*z^3)"), 10))
    assert terms[:7] == [1, 2, 4, 6, 8, 8, 4]
    rec = find_min_recurrence(terms)
    assert rec.order == 3
    assert rec.coeffs == (2, 0, -2)


def test_tribonacci_diagonal_order_six_with_product_denominator():
    g = build_convolution_gf(kbonacci(3, shifted=True), kbonacci(3, shifted=True)).F
    terms = list(diagonal_series(g, 60))
    rec = find_min_recurrence(terms)
    assert rec.order == 6
    _num, den = gf_of_sequence(rec).reduced_fraction()
    assert den == parse_poly("(1-2*z-4*z^2-8*z^3)*(1-2*z+2*z^3)")


def test_requires_four_terms():
    with pytest.raises(ValueError):
        find_min_recurrence([1, 2, 3])


def test_insufficient_evidence_returns_none():
    # Order 3 needs at least 6 terms of evidence.
    assert find_min_recurrence([1, 0, 0, 1]) is None


def test_zero_evidence_returns_none():
    # 1, 2, 3, 4 fits a(n) = 2a(n-1) - a(n-2), but four terms are no
    # evidence for an order-2 recurrence: 2*order must stay below the count.
    assert find_min_recurrence([1, 2, 3, 4]) is None
    assert find_min_recurrence([1, 2, 3, 4, 5]).order == 2


def test_all_zero_terms_give_order_zero_spec():
    rec = find_min_recurrence([0] * 6)
    assert rec == SequenceSpec(0, (), ())
    assert gf_of_sequence(rec).is_zero
    assert list(generate_sequence(rec, 3)) == [0, 0, 0]


def test_recurrence_to_gf_fibonacci():
    gf = gf_of_sequence(SequenceSpec(2, (1, 1), (0, 1)))
    num, den = gf.reduced_fraction()
    assert num == parse_poly("z") and den == parse_poly("1-z-z^2")


def test_recurrence_to_gf_u_sequence():
    gf = gf_of_sequence(SequenceSpec(3, (2, 0, -2), (1, 2, 4)))
    num, den = gf.reduced_fraction()
    assert num == parse_poly("1") and den == parse_poly("1-2*z+2*z^3")


def test_recurrence_to_gf_constant():
    gf = gf_of_sequence(SequenceSpec(1, (1,), (1,)))
    num, den = gf.reduced_fraction()
    assert num == parse_poly("1") and den == parse_poly("1-z")


def test_round_trip_randomized():
    rng = Random(777)
    for _ in range(200):
        spec = rand_sequence_spec(rng, max_order=6)
        terms = list(generate_sequence(spec, 2 * spec.order + 10))
        rec = find_min_recurrence(terms)
        assert rec is not None
        assert rec.order <= spec.order
        assert list(series_of_rational(gf_of_sequence(rec), len(terms))) == terms


def _order_fits(terms, order) -> bool:
    """Solve for an order-r recurrence from the leading window, then check all."""
    if order == 0:
        return all(v == 0 for v in terms)
    if len(terms) < 2 * order:
        return False
    rows = [terms[i:i + order] for i in range(order)]
    rhs = [terms[i + order] for i in range(order)]
    # Gaussian elimination over Fraction.
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    n = order
    col_of_row = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        col_of_row.append(col)
        r += 1
    if r < n:
        # Underdetermined window: accept any solution of the consistent system.
        for i in range(r, n):
            if m[i][n] != 0:
                return False
    sol = [Fraction(0)] * n
    for i, col in enumerate(col_of_row):
        sol[col] = m[i][n] / m[i][col]
    coeffs = sol[::-1]
    for k in range(order, len(terms)):
        if terms[k] != sum(coeffs[j] * terms[k - 1 - j] for j in range(order)):
            return False
    return True


def test_minimality_randomized():
    rng = Random(888)
    for _ in range(100):
        spec = rand_sequence_spec(rng, max_order=5)
        terms = list(generate_sequence(spec, 2 * spec.order + 12))
        rec = find_min_recurrence(terms)
        assert rec is not None
        assert _order_fits(terms, rec.order)
        if rec.order > 0:
            assert not _order_fits(terms, rec.order - 1)


def test_redetection_is_idempotent():
    rng = Random(999)
    for _ in range(100):
        spec = rand_sequence_spec(rng, max_order=5)
        terms = list(generate_sequence(spec, 2 * spec.order + 12))
        rec = find_min_recurrence(terms)
        regenerated = list(series_of_rational(gf_of_sequence(rec), len(terms))) \
            if not gf_of_sequence(rec).is_zero else [Fraction(0)] * len(terms)
        again = find_min_recurrence(regenerated)
        assert again is not None
        assert again.order == rec.order


# -- fraction-free Berlekamp-Massey against its Fraction reference --------------

_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def _recurrent(draw):
    """Terms of a random recurrence with rational coefficients and initial terms."""
    coeffs = draw(st.lists(_rational, min_size=1, max_size=4))
    terms = draw(st.lists(_rational, min_size=len(coeffs), max_size=len(coeffs)))
    while len(terms) < 2 * len(coeffs) + 6:
        terms.append(sum(c * terms[-1 - i] for i, c in enumerate(coeffs)))
    return terms


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(zeros=st.integers(0, 5),
       terms=st.one_of(st.lists(_rational, max_size=14),
                       st.lists(st.just(Fraction(0)), max_size=8), _recurrent()))
def test_berlekamp_massey_matches_fraction_reference(zeros, terms):
    s = [Fraction(0)] * zeros + terms
    assert _berlekamp_massey(s) == ref_berlekamp_massey(s)


# -- convolution_terms against the Pascal-row oracle ------------------------------

@st.composite
def _spec(draw):
    """Order 1..5 recurrence whose characteristic polynomial is (1 - r*z)^m * R(z).

    m >= 2 gives a repeated root; R's last coefficient, and so the
    recurrence's, is often 0; the initial terms are all 0 about one time
    in four.
    """
    k = draw(st.integers(1, 5))
    m = draw(st.integers(0, k))
    r = draw(_rational.filter(bool))
    tail = draw(st.lists(_rational, min_size=k - m, max_size=k - m))
    if tail and draw(st.booleans()):
        tail[-1] = Fraction(0)
    char = Poly("z", [1, -r]) ** m * Poly("z", [1, *tail])
    coeffs = tuple(-char.coeff(i) for i in range(1, k + 1))
    initial = draw(st.lists(_rational, min_size=k, max_size=k))
    if draw(st.sampled_from((False, False, False, True))):
        initial = [Fraction(0)] * k
    elif not any(initial):
        initial[-1] = Fraction(1)
    return SequenceSpec(k, coeffs, tuple(initial))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(a=_spec(), b=_spec(), data=st.data())
def test_convolution_terms_match_pascal_oracle(a, b, data):
    # a and b are drawn independently, so the order bound a.order * b.order
    # is exercised, not only k(k+1)/2 of a self-convolution; n runs on both
    # sides of the 2 * a.order * b.order Pascal sums.
    n = max(0, 2 * a.order * b.order + data.draw(st.integers(-8, 12), label="offset"))
    want = binomial_convolution_sequence(ref_generate_sequence(a, n),
                                         ref_generate_sequence(b, n), n)
    assert convolution_terms(a, b, n) == want
