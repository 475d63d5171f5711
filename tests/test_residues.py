"""Residue-method diagonal extraction: the t-substitution, pole
classification, residue sums, and partial fractions."""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gfdiag import (
    BiPoly,
    DegeneratePoleError,
    Poly,
    PoleAtOriginError,
    RatFunc,
    bivariate_series,
    build_convolution_gf,
    classify_poles,
    diagonal_rational,
    diagonal_series,
    hk_transform,
    parse_poly,
    parse_ratfunc,
    partial_fractions,
    poly_gcd,
    printed_gf,
    series_of_rational,
)
from gfdiag.poly import _cleared, _int_add, _int_mul, _int_prem, _int_resultant
from gfdiag import residues
from gfdiag.residues import (
    PoleClass,
    _at,
    _interpolate,
    _part_numerator,
    _residue_sum,
    _values_at,
)
from helpers import (
    identity_equal,
    rand_fraction,
    rand_poly,
    rand_sequence_spec,
    ref_divided_differences,
    ref_part_numerator,
    ref_residue_sum_at,
    ref_sylvester,
)


def _fib_h() -> RatFunc:
    return printed_gf("fib.H.derived")


def _trib_g() -> RatFunc:
    return printed_gf("trib.G")


def _numerator(h: RatFunc) -> BiPoly:
    """h's numerator in (t, z) expanded, its constant included, as _residue_sum expands it."""
    out = BiPoly.const("t", "z", h.constant)
    for p, m in h.numer:
        out *= p ** m
    return out


# -- hk_transform -------------------------------------------------------------

def test_transform_clears_golden_factor():
    h = hk_transform(parse_ratfunc("1/(1-y-y^2)"))
    assert [str(p) for p, _ in h.denom if p.degree > 0 and p.coeffs[0].degree >= 0] \
        .count("-1 - t + t^2") == 1


def test_transform_x_factor_needs_no_clearing():
    # 1 - x becomes 1 - t*z with no power of t: the one t is the extra 1/t.
    h = hk_transform(parse_ratfunc("1/(1-x)"))
    assert (h.constant, h.numer, [(str(p), m) for p, m in h.denom]) == (
        1, (), [("1 - t*z", 1), ("t", 1)])


def test_transform_pure_y_numerator_moves_t_to_denominator():
    h = hk_transform(parse_ratfunc("y"))
    # y becomes 1/t after clearing, so a t^2 factor lands in the denominator
    # (one t from the cleared numerator factor, one from the global 1/t).
    pure = [p for p, _ in h.denom if p.leading.degree == 0 and p.degree > 0]
    assert len(pure) == 1 and pure[0].degree == 2
    assert (BiPoly.from_monomials("t", "z", {(2, 0): 1}), 1) in h.denom
    assert h.numer == ()


def test_transform_represents_the_substitution_randomized():
    rng = Random(1212)
    checked = 0
    while checked < 200:
        spec_a = rand_sequence_spec(rng, unit_coeffs=True)
        spec_b = rand_sequence_spec(rng, unit_coeffs=True)
        f = build_convolution_gf(spec_a, spec_b).F
        if f.is_zero:
            continue
        h = hk_transform(f)
        t0 = rand_fraction(rng, -5, 5, 3)
        z0 = rand_fraction(rng, -5, 5, 3)
        if t0 == 0:
            continue
        try:
            want = f.evaluate({"x": z0 * t0, "y": 1 / t0}) / t0
            got = h.evaluate({"t": t0, "z": z0})
        except ZeroDivisionError:
            continue
        assert got == want
        checked += 1


# -- classification -----------------------------------------------------------

def test_classification_counts_fibonacci():
    poles = classify_poles(hk_transform(_fib_h()))
    kept = [p for p in poles if p.kept]
    assert len(kept) == 1 and kept[0].factor.degree == 2
    assert str(kept[0].factor) == "-1 - t + t^2"


def test_classification_counts_tribonacci():
    poles = classify_poles(hk_transform(_trib_g()))
    kept = [p for p in poles if p.kept]
    assert len(kept) == 1 and kept[0].factor.degree == 3
    assert str(kept[0].factor) == "-1 - t - t^2 + t^3"


def test_classification_discards_z_leading_factor():
    poles = classify_poles(hk_transform(_fib_h()))
    discarded = [p for p in poles if not p.kept and p.factor.degree == 2]
    assert discarded and discarded[0].leading_at_zero == 0


def test_classification_keeps_pure_t_power():
    h = hk_transform(parse_ratfunc("x/(1-x*y)"))
    poles = classify_poles(h)
    assert any(p.reason == "pole at the origin" and p.kept for p in poles)


def test_classification_reports_mixed_factor():
    poles = classify_poles(hk_transform(parse_ratfunc("1/(1-x-y)")))
    assert [(p.kept, p.reason) for p in poles] == [
        (False, "mixed: 1 bounded roots, 1 escaping; diagonal is likely algebraic")]


# -- residue sums -------------------------------------------------------------

def test_fibonacci_residue_is_twice_the_transcribed_diagonal():
    h = hk_transform(_fib_h())
    got = _residue_sum(h, classify_poles(h))
    assert identity_equal(got, parse_ratfunc("2*z^2/((1-z)*(1-2*z-4*z^2))"))


def test_tribonacci_residue_matches_two_term_form():
    rat, report = diagonal_rational(_trib_g(), check_terms=60)
    assert report.status == "ok"
    assert identity_equal(rat, printed_gf("trib.diag.printed"))


def test_zero_numerator_gives_zero_residue():
    # fib.H's poles over a zero numerator: the sum is zero.
    poles = classify_poles(hk_transform(_fib_h()))
    assert any(pole.kept for pole in poles)
    assert _residue_sum(RatFunc.zero(), poles).is_zero


def test_residue_additive_in_numerator():
    rng = Random(1313)
    h0 = hk_transform(_fib_h())
    poles = classify_poles(h0)
    for _ in range(50):
        n1 = BiPoly("t", "z", [rand_poly(rng, "z", 2) for _ in range(3)])
        n2 = BiPoly("t", "z", [rand_poly(rng, "z", 2) for _ in range(3)])
        tr = lambda num: _residue_sum(RatFunc(1, [(num, 1)], h0.denom), poles)
        lhs = tr(n1 + n2)
        rhs = tr(n1) + tr(n2)
        assert identity_equal(lhs, rhs)


def test_residue_invariant_under_common_coprime_factor():
    h0 = hk_transform(_fib_h())
    q = BiPoly.from_monomials("t", "z", {(1, 1): Fraction(1), (0, 0): Fraction(1)})  # 1 + t*z
    scaled = RatFunc(h0.constant, h0.numer + ((q, 1),), h0.denom + ((q, 1),))
    assert identity_equal(_residue_sum(h0, classify_poles(h0)),
                          _residue_sum(scaled, classify_poles(scaled)))


def test_multiplicity_two_kept_factor_summed():
    # 1/(1-y-y^2)^2 depends on y alone: the diagonal is the constant term, 1.
    f = RatFunc(1, denom=[(parse_poly("1-y-y^2", "y"), 2)])
    h = hk_transform(f)
    poles = classify_poles(h)
    assert [p.multiplicity for p in poles if p.kept][0] == 2
    assert identity_equal(_residue_sum(h, poles), RatFunc.one())


def test_non_squarefree_kept_factor_summed_exactly():
    # 1/(1-y)^2 as a single factor: the diagonal is the constant term, 1.
    f = RatFunc(1, denom=[(parse_poly("1-2*y+y^2", "y"), 1)])
    h = hk_transform(f)
    assert identity_equal(_residue_sum(h, classify_poles(h)), RatFunc.one())


@pytest.mark.parametrize("k", [1, 40])
def test_factor_without_t_is_not_interpolated(k, monkeypatch):
    # (1-x*y)^k becomes (1-z)^k, which has no t: it divides the residue sum
    # and must not raise the number of points the route evaluates.
    calls = []
    values_at = residues._values_at
    monkeypatch.setattr(residues, "_values_at", lambda *a: calls.append(a) or values_at(*a))
    f = parse_ratfunc(f"(2+x*y)/((1-x*y)^{k}*(1-2*x)*(1-3*y))")
    rat, report = diagonal_rational(f, check_terms=50)
    assert report.status == "ok"
    assert series_of_rational(rat, 50) == diagonal_series(f, 50)
    # The same count at k = 1 and k = 40: P = t - 3 and Q = 1 - 2*t*z need 2 points.
    assert len(calls) == 2


# A convolution GF keeps 1 - x on both sides (gfbuild.build_convolution_gf).
_CONVOLUTION_TEXT = "-9*(1-x)/((1-y)*(1-x)*(1-x-2*x*y))"


@pytest.mark.parametrize("source, calls", [
    ("trib.G", 10), ("penta.G", 26), ("1/((1+2*x)*(1-2*y)^2)", 3), ("1/((1-x)^6*(1-y)^6)", 38),
    (_CONVOLUTION_TEXT, 2),
])
def test_residue_sum_takes_the_points_its_factor_degrees_prove(source, calls, monkeypatch):
    # P and Q are multiplied out before any point is read; degrees add in
    # Z[z][t], so the bounds read off the products, and the points, one
    # _int_resultant each, are those of the factors' degrees summed to
    # their multiplicities.  A factor on both sides cancels first: 1 - x
    # in trib.G, penta.G and the convolution GF took 13, 31 and 4 points.
    got = []
    resultant = residues._int_resultant
    monkeypatch.setattr(residues, "_int_resultant", lambda *a: got.append(a) or resultant(*a))
    f = printed_gf(source) if source.endswith(".G") else parse_ratfunc(source)
    diagonal_rational(f, check_terms=0)
    assert len(got) == calls


@pytest.mark.parametrize("text", [
    _CONVOLUTION_TEXT,
    "(1-y)^2/((1-x)*(1-y)^3)",
    "y^3*(1-x)*(1-x*y)/((1-x)^2*(1-2*y)*(1-x*y))",
    "(3*x-3)*(1-y)/((1-y)^2*(1-x)^2)",
])
def test_a_factor_on_both_sides_is_reported_but_not_summed(text):
    # A factor on both sides is reported and summed only to its net
    # multiplicity: it cancels by the smaller one, up to sign and content,
    # which go into the constant.  The report and the sum are both those of
    # the cancelled function (a t^k factor from y^3 after its poles), and no
    # reported factor is a factor of its numerator.
    f = parse_ratfunc(text)
    reduced = f.cancelled()
    assert reduced is not f
    assert not {p.rows for p, _ in reduced.numer} & {p.rows for p, _ in reduced.denom}
    rat, report = diagonal_rational(f, check_terms=30)
    assert report.status == "ok"
    assert [p.to_json_dict() for p in report.poles] == [
        p.to_json_dict() for p in classify_poles(hk_transform(reduced))]
    numer = {p.rows for p, _ in hk_transform(reduced).numer}
    assert not numer & {pole.factor.rows for pole in report.poles}
    assert str(rat) == str(diagonal_rational(reduced, check_terms=0)[0])


def test_a_factor_that_cancels_up_to_its_content_goes_into_the_constant():
    f = parse_ratfunc("(3*x - 3)*(1 - y) / ((1 - y)^2*(1 - x)^2)")
    reduced = f.cancelled()
    assert str(reduced) == "-3 / ((1 - y)*(1 - x))"
    assert reduced.cancelled() is reduced


@pytest.mark.parametrize("text, poles", [
    # trib.G's numerator has (1 - x)^2 and its denominator 1 - x, so 1 - x,
    # (1 - t*z) after the substitution, is not a pole.
    ("trib.G", ["(-1 - t - t^2 + t^3)", "(1 - z - z^2 - z^3 - 3*t*z + 2*t*z^2 + t*z^3 "
                "+ 3*t^2*z^2 - t^2*z^3 - t^3*z^3)"]),
    ("(1-y)^2/((1-x)*(1-y)^3)", ["(1 - t*z)", "(-1 + t)"]),
    # y - x*y and 1 - x both become 1 - t*z, which the transform lists once.
    ("y/((y-x*y)*(1-x))", ["(1 - t*z)^2", "(t)"]),
])
def test_the_pole_report_lists_the_cancelled_function_to_net_multiplicities(text, poles):
    f = printed_gf(text) if text.endswith(".G") else parse_ratfunc(text)
    _, report = diagonal_rational(f, check_terms=30)
    assert [f"({pole.factor})" + (f"^{pole.multiplicity}" if pole.multiplicity > 1 else "")
            for pole in report.poles] == poles


def test_factors_sharing_a_root_for_every_z_rejected():
    # 1 - y divides the mixed factor 1 - x - y + x*y = (1-x)*(1-y): after the
    # substitution both vanish at t = 1, and the mixed one is not kept.
    with pytest.raises(DegeneratePoleError, match="shares roots"):
        diagonal_rational(parse_ratfunc("1/((1-y)*(1-x-y+x*y))"), check_terms=5)


# -- integer kernels against their Fraction references --------------------------

# Rationals with distinct denominators, zero included.
_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 7)))
# The residue sum's evaluation points, negative ones included.
_POINTS = (1, -1, 2, -2, 3, -3)


def _z_poly(draw, min_size: int = 0, max_size: int = 3) -> Poly:
    return Poly("z", draw(st.lists(_RATIONALS, min_size=min_size, max_size=max_size)))


@st.composite
def _tz_factor(draw, degrees) -> BiPoly:
    """A factor in (t, z) whose leading coefficient in t is a nonzero Poly in z."""
    degree = draw(degrees)
    lead = _z_poly(draw, 1)
    assume(not lead.is_zero)
    return BiPoly("t", "z", [_z_poly(draw) for _ in range(degree)] + [lead])


@st.composite
def _transform(draw, kept_degrees, other_degrees):
    """(h, poles): random factors in (t, z) with multiplicities 1-2, the first ones kept.

    h is the drawn numerator over the factors, and poles classify h's
    denominator, where a constant factor has gone into h's constant.
    """
    n_kept = draw(st.integers(1, 2))
    multiplicities = st.integers(1, 2)
    factors = [(draw(_tz_factor(kept_degrees)), draw(multiplicities)) for _ in range(n_kept)]
    factors += [(draw(_tz_factor(other_degrees)), draw(multiplicities))
                for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        # The first and the last factor share the root t = c at z = c.
        c = draw(st.sampled_from(_POINTS))
        (p, m), (q, k) = factors[0], factors[-1]
        factors[0] = (p * BiPoly("t", "z", [Poly("z", [0, -1]), 1]), m)
        factors[-1] = (q * BiPoly("t", "z", [-c, 1]), k)
    numer = BiPoly("t", "z", [_z_poly(draw, 1) for _ in range(draw(st.integers(0, 8)))])
    h = RatFunc(1, [(numer, 1)], factors)
    kept = [p for p, _ in factors[:n_kept]]
    return h, [PoleClass(p, m, p in kept, "drawn") for p, m in h.denom]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_residue_values_at_match_fraction_reference(data):
    h, poles = data.draw(_transform(st.sampled_from((1, 2, 3, 4)), st.sampled_from((0, 1, 2))))
    # A zero numerator makes h zero, with no poles left to classify.
    assume(not h.is_zero)
    z0 = data.draw(st.sampled_from(_POINTS))
    numerator = _numerator(h)
    kappa = numerator.content
    p, q = [1], [1]
    for pole in poles:
        f, m = pole.factor, pole.multiplicity
        kappa /= f.content ** m
        for _ in range(m):
            if pole.kept:
                p = _int_mul(p, _at(f.rows, z0))
            else:
                q = _int_mul(q, _at(f.rows, z0))
    # The route skips a point where P loses t-degree.
    assume(len(p) == 1 + sum(pole.multiplicity * pole.factor.degree
                             for pole in poles if pole.kept))
    # N is an integer from e = max(0, d_N - d_P - d_Q + 1) on.
    num = _at(numerator.rows, z0)
    e = max(0, len(num) - len(p) - len(q) + 2) + data.draw(st.integers(0, 1))
    got = _values_at(num, p, q, e)
    want = ref_residue_sum_at(h, poles, z0)
    if want is not None:
        assert got is not None and kappa * Fraction(*got) == want
    if got is None:
        assert want is None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_residue_sum_from_proved_point_count_matches_reference(data):
    # _residue_sum reads exactly the proved number of points; the function
    # it interpolates must hold at points it never read.
    h, poles = data.draw(_transform(st.sampled_from((1, 2, 3)), st.sampled_from((0, 1, 2))))
    checks = [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(13, 4), Fraction(-9, 7)]
    try:
        got = _residue_sum(h, poles)
    except DegeneratePoleError:
        # Res(P, Q) = 0 for every z: kept factors share roots with the others.
        assert all(ref_residue_sum_at(h, poles, z) is None for z in checks)
        return
    for z in checks:
        want = ref_residue_sum_at(h, poles, z)
        if want is not None:
            assert got.evaluate({"z": z}) == want


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_int_resultant_matches_sylvester_determinant(data):
    def int_poly(min_degree, max_degree):
        degree = data.draw(st.integers(min_degree, max_degree))
        return (data.draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
                + [data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))])

    # Zero coefficients make degree gaps; b may be constant or of higher degree.
    a, b = int_poly(1, 6), int_poly(0, 7)
    if data.draw(st.booleans()):
        shared = int_poly(1, 2)
        a, b = _int_mul(a, shared), _int_mul(b, shared)
    r, u = _int_resultant(a, b)
    assert r == ref_sylvester(a, b)
    assert not any(_int_prem(_int_add(_int_mul(u, b), [-r]), a)[1])
    assert _int_resultant(a, []) == (0, [])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_interpolate_matches_divided_differences(data):
    count = data.draw(st.integers(1, 24))
    coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=count, max_size=count))
    # The residue route's points, some of them skipped.
    zs = [z for i in range(3 * count)
          if data.draw(st.booleans()) for z in [(i // 2 + 1) * (-1) ** i]][:count]
    assume(len(zs) == count)
    want = Poly("z", coeffs)
    vs = [int(want.evaluate(z)) for z in zs]
    newton, basis = Poly.zero("z"), Poly.one("z")
    for zi, c in zip(zs, ref_divided_differences(zs, [Fraction(v) for v in vs])):
        newton, basis = newton + basis.scale(c), basis * Poly("z", (-zi, 1))
    got = Poly.from_ints("z", _interpolate(zs, vs))
    assert got == newton == want


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_part_numerator_matches_fraction_reference(data):
    num = _z_poly(data.draw, 0, 7)
    cof = _z_poly(data.draw, 1, 5)
    base = _z_poly(data.draw, 2, 5)
    assume(base.degree >= 1)
    if data.draw(st.booleans()):
        shared = Poly("z", [data.draw(_RATIONALS), 1])
        cof, base = cof * shared, base * shared
    (ni, ln), (ci, lc), (bi, _) = (_cleared(p.coeffs) for p in (num, cof, base))
    got = _part_numerator(ni, ci, bi)
    want = ref_part_numerator(num, cof, base)
    if want is None:
        assert got is None
    else:
        a, c, r = got
        assert Poly("z", [Fraction(v * lc, c * r * ln) for v in a]) == want


# -- diagonal_rational ---------------------------------------------------------

def test_diagonal_rational_fibonacci_reduced_denominator():
    rat, report = diagonal_rational(_fib_h(), check_terms=100)
    assert report.status == "ok"
    num, den = rat.reduced_fraction()
    assert num == parse_poly("2*z^2")
    assert den == parse_poly("(1-z)*(1-2*z-4*z^2)")


def test_diagonal_rational_printed_vs_derived_h_reports_both_outcomes():
    # The transcribed double GF and the derived one encode different
    # diagonals; each residue run self-validates against its own series.
    rat_p, rep_p = diagonal_rational(printed_gf("fib.H.printed"), check_terms=60)
    rat_d, rep_d = diagonal_rational(printed_gf("fib.H.derived"), check_terms=60)
    assert rep_p.status == "ok" and rep_d.status == "ok"
    assert not identity_equal(rat_p, rat_d)
    assert rat_p.reduced_fraction()[1] == parse_poly("1-4*z+3*z^2-8*z^3+4*z^4")
    assert rat_d.reduced_fraction()[1] == parse_poly("(1-z)*(1-2*z-4*z^2)")


def test_diagonal_rational_violation_reports_the_first_witness():
    # The diagonal of 1/(1-x-y) is algebraic, not rational: the kept-pole
    # rule keeps no pole here, and the cross-check catches it at index 0.
    rat, report = diagonal_rational(parse_ratfunc("1/(1-x-y)"), check_terms=30)
    assert rat.is_zero
    assert report.status == "method-assumption-violated"
    assert report.checked_terms == 30
    assert report.first_mismatch == 0
    assert (report.lhs, report.rhs) == ("0", "1")
    assert report.to_json_dict()["first_mismatch"] == 0


def test_diagonal_rational_univariate_in_x_is_one():
    # The diagonal of 1/(1-x) is its constant term: the residue at t = 0.
    rat, report = diagonal_rational(parse_ratfunc("1/(1-x)"), check_terms=10)
    assert identity_equal(rat, RatFunc.one())
    assert report.status == "ok"
    assert [(str(p.factor), p.kept) for p in report.poles] == [("1 - t*z", False), ("t", True)]


@pytest.mark.parametrize("text, diagonal", [
    ("1/(1-x*y-x^2*y^2)", "1/(1-z-z^2)"),
    ("y/(1-x)", "z"),
    ("1/(1-x)", "1"),
    ("x^2*y^3/((1-x)*(1-y))", "z^3/(1-z)"),
    ("1/((1-2*x)*(1-2*y+y^2))", "1/(1-2*z)^2"),
    ("1/((1-y)*(1-y^2))", "1"),
])
def test_diagonal_rational_origin_pole_and_repeated_root(text, diagonal):
    rat, report = diagonal_rational(parse_ratfunc(text), check_terms=30)
    assert report.status == "ok"
    assert identity_equal(rat, parse_ratfunc(diagonal))


# Monomials x^i*y^j of a denominator factor.  A factor with j >= i in every
# monomial keeps all its roots bounded as z -> 0, one with i >= j loses them
# all, and one with i == j (a function of x*y) does not depend on t, so no
# drawn factor is mixed.
_FACTOR_SHAPES = {
    "x*y": lambda i, j: i == j,
    "y-heavy": lambda i, j: j >= i,
    "x-heavy": lambda i, j: i >= j,
}


@st.composite
def _denominator_factor(draw) -> BiPoly:
    allowed = _FACTOR_SHAPES[draw(st.sampled_from(sorted(_FACTOR_SHAPES)))]
    exponents = [(i, j) for i in range(3) for j in range(3) if (i or j) and allowed(i, j)]
    terms = draw(st.dictionaries(st.sampled_from(exponents), st.sampled_from((-2, -1, 1, 2)),
                                 min_size=1, max_size=2))
    p = BiPoly.from_monomials("x", "y", {(0, 0): 1, **terms})
    # A square kept as one factor has repeated roots in t for every z.
    return p * p if draw(st.integers(0, 3)) == 0 else p


def _at_z(p: BiPoly, z0) -> Poly:
    return Poly("t", [c.evaluate(z0) for c in p.coeffs])


_NUMERATOR = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=3)
_DENOMINATOR = st.lists(st.tuples(_denominator_factor(), st.integers(1, 3)),
                        min_size=1, max_size=3)


def _beyond_convolutions(numer: dict, denom: list, share: bool) -> RatFunc:
    if share:
        # p*q shares roots with p and with q for every z.
        denom = denom + [(denom[0][0] * denom[-1][0], 1)]
    return RatFunc(1, [(BiPoly.from_monomials("x", "y", numer), 1)], denom)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(numer=_NUMERATOR, denom=_DENOMINATOR, share=st.booleans())
def test_diagonal_rational_matches_series_beyond_convolutions(numer, denom, share):
    f = _beyond_convolutions(numer, denom, share)
    h = hk_transform(f)
    poles = classify_poles(h)
    assume(not any(p.reason.startswith("mixed") for p in poles))
    # A kept factor with a common factor in t with one that is not kept
    # shares a root with it for every z, which the residue route rejects;
    # coprime at z = 7/3 means coprime for all but finitely many z.
    kept = [_at_z(p.factor, Fraction(7, 3)) for p in poles if p.kept]
    others = [_at_z(p.factor, Fraction(7, 3)) for p in poles if not p.kept and p.factor.degree > 0]
    assume(all(poly_gcd(a, b).degree == 0 for a in kept for b in others))
    rat, report = diagonal_rational(f, check_terms=12)
    assert report.status == "ok"
    assert list(series_of_rational(rat, 12)) == list(diagonal_series(f, 12))


def _both_routes(f: RatFunc) -> tuple:
    rat, report = diagonal_rational(f, check_terms=12)
    return (str(rat), report.status, [p.to_json_dict() for p in report.poles],
            diagonal_series(f, 12), bivariate_series(f, 6, 6))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(numer=_NUMERATOR, denom=_DENOMINATOR, share=st.booleans(),
       p=st.one_of(st.sampled_from(({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -2},
                                    {(1, 0): 2, (0, 2): 1})).map(
                       lambda terms: BiPoly.from_monomials("x", "y", terms)),
                   _denominator_factor()),
       k=st.integers(1, 3), extra=st.sampled_from((0, 0, 1, -1)),
       shift=st.sampled_from(((0, 0), (0, 0), (1, 0), (0, 1), (2, 1))))
def test_a_spurious_common_factor_changes_neither_route(numer, denom, share, p, k, extra,
                                                        shift):
    # g * p^k / p^k is g, for p without a constant term (x + y, x - 2*y,
    # 2*x + y^2) or from _denominator_factor, so both routes must give what
    # they give for g: the same GF, status and pole report, the same series
    # terms, or the same refusal.  g is a drawn function, in some draws
    # times p or over p.  In some, the numerator's factor is x^a*y^b*p, one
    # polynomial, which past its monomial is p: it cancels all the same and
    # leaves x^(a*k)*y^(b*k), by which g is multiplied for the comparison.
    g = _beyond_convolutions(numer, denom, share)
    if extra:
        g = g * (RatFunc(1, [(p, 1)]) if extra > 0 else RatFunc(1, (), [(p, 1)]))
    monomial = BiPoly.from_monomials("x", "y", {shift: 1})
    spurious = RatFunc(g.constant, g.numer + ((monomial * p, k),), g.denom + ((p, k),))
    g = g * RatFunc(1, [(BiPoly.from_monomials("x", "y", {v: 1}), e * k)
                        for v, e in zip(((1, 0), (0, 1)), shift) if e])
    try:
        want = _both_routes(g)
    except (PoleAtOriginError, DegeneratePoleError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _both_routes(spurious)
        return
    assert _both_routes(spurious) == want


def test_diagonal_rational_master_invariant_randomized():
    rng = Random(1414)
    checked = 0
    while checked < 40:
        a = rand_sequence_spec(rng, unit_coeffs=True)
        b = rand_sequence_spec(rng, unit_coeffs=True)
        f = build_convolution_gf(a, b).F
        if f.is_zero:
            continue
        rat, report = diagonal_rational(f, check_terms=25)
        assert report.status == "ok"
        assert list(series_of_rational(rat, 25)) == list(diagonal_series(f, 25))
        checked += 1


# -- partial fractions -----------------------------------------------------------

def test_partial_fractions_fibonacci_diagonal():
    f = parse_ratfunc("2*z^2/((1-z)*(1-2*z-4*z^2))")
    pf = partial_fractions(f)
    assert pf.poly_part.is_zero
    by_base = {str(base): num for num, base, _ in pf.parts}
    assert by_base["1 - z"] == Poly.const("z", Fraction(-2, 5))
    assert by_base["1 - 2*z - 4*z^2"] == parse_poly("2/5 - 2/5*z")


def test_partial_fractions_two_term_tribonacci():
    pf = partial_fractions(printed_gf("trib.diag.printed"))
    by_base = {str(base): num for num, base, _ in pf.parts}
    assert by_base["1 - 2*z - 4*z^2 - 8*z^3"] == parse_poly("1/11 + 1/11*z + 10/11*z^2")
    assert by_base["1 - 2*z + 2*z^3"] == parse_poly("-1/11 - 1/11*z + 8/11*z^2")


def test_partial_fractions_single_factor_passthrough():
    f = parse_ratfunc("(1+z)/(1-2*z-4*z^2)")
    pf = partial_fractions(f)
    assert pf.poly_part.is_zero
    assert len(pf.parts) == 1
    num, base, power = pf.parts[0]
    assert num == parse_poly("1+z") and base == parse_poly("1-2*z-4*z^2") and power == 1


def test_partial_fractions_non_coprime_rejected():
    f = RatFunc(1, numer=[(parse_poly("z"), 1)],
                denom=[(parse_poly("1-z"), 1), (parse_poly("1-2*z+z^2"), 1)])
    with pytest.raises(ValueError, match="coprime"):
        partial_fractions(f)


def test_partial_fractions_resum_randomized():
    rng = Random(1515)
    checked = 0
    while checked < 200:
        numer = rand_poly(rng, max_deg=5)
        bases = []
        for _ in range(rng.randint(1, 3)):
            bases.append((rand_poly(rng, max_deg=2, nonzero=True), rng.randint(1, 2)))
        from gfdiag import poly_gcd
        if any(b.degree < 1 for b, _ in bases):
            continue
        if any(poly_gcd(bases[i][0], bases[j][0]).degree > 0
               for i in range(len(bases)) for j in range(i + 1, len(bases))):
            continue
        if numer.is_zero:
            continue
        f = RatFunc(1, numer=[(numer, 1)], denom=bases)
        pf = partial_fractions(f)
        total = RatFunc(1, [(pf.poly_part, 1)]) if not pf.poly_part.is_zero else RatFunc.zero()
        for pnum, base, power in pf.parts:
            if pnum.is_zero:
                continue
            total = total + RatFunc(1, numer=[(pnum, 1)], denom=[(base, power)])
        assert identity_equal(total, f)
        checked += 1
