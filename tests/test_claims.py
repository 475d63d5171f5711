"""The verification suite: expected outcomes, witnesses, determinism."""

import re
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gfdiag import claim_ids, claims, get_claim, run_all, run_claim
from gfdiag import bivariate_series, gfbuild, parse_ratfunc, printed_gf, series_of_rational
from gfdiag.poly import Poly
from gfdiag.ratfunc import RatFunc
from gfdiag.recurrences import _berlekamp_massey
from gfdiag.series import SequenceSpec

from helpers import identity_equal, rand_bipoly, rand_fraction, rand_univariate_ratfunc


EXPECTED = {
    "fib.closed_form": "pass",
    "fib.diag.printed": "fail",
    "fib.H.printed": "fail",
    "trib.diag.printed": "pass",
    "trib.first_term": "fail",        # annotated expected_status is "either"
    "trib.U_binomial": "pass",
    "trib.second_term": "pass",
    "trib.U_gf_identity": "pass",
    "tetra.diag.printed": "pass",
    "penta.diag.printed": "pass",
    "trib.arbitrary_init": "pass",
}


def _strip_runtime(report):
    d = report.to_json_dict()
    d.pop("runtime_ms")
    return d


def test_registry_contains_all_claims():
    assert set(claim_ids()) == set(EXPECTED)


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("no.such")


def test_negative_n_is_rejected_before_any_check_runs(monkeypatch):
    def never(n, convention):
        raise AssertionError(f"a check ran at n = {n}")

    for claim_id in claim_ids():
        claim = get_claim(claim_id)
        monkeypatch.setitem(claims._CLAIMS, claim_id, claims.Claim(
            claim.id, claim.description, claim.expected_status, never, claim.conventions))
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            run_claim(claim_id, -3)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        run_all(-1)


def test_all_claims_match_expected_status():
    for report in run_all(60):
        assert report.status == EXPECTED[report.id], report
        assert report.matched_expected, report


def test_fib_diag_witness():
    report = run_claim("fib.diag.printed", 50)
    assert report.status == "fail"
    assert report.first_mismatch == 2
    assert (report.lhs, report.rhs) == ("1", "2")
    # The note's normalization statement is a checkable fact.
    doubled = parse_ratfunc("2*z^2/((1-z)*(1-2*z-4*z^2))")
    from gfdiag import kbonacci, generate_sequence, binomial_convolution_sequence
    fib = list(generate_sequence(kbonacci(2, shifted=True), 60))
    brute = binomial_convolution_sequence(fib, fib, 50)
    assert series_of_rational(doubled, 50) == brute


def test_fib_h_witness_is_x3y3():
    report = run_claim("fib.H.printed", 50)
    assert report.status == "fail"
    assert report.first_mismatch == "x^3*y^3"
    assert (report.lhs, report.rhs) == ("8", "6")


def test_trib_first_term_fails_under_both_conventions():
    report = run_claim("trib.first_term", 30)
    assert report.status == "fail"
    assert report.expected_status == "either"
    assert report.matched_expected
    # Each convention maps to its check's witness (index, lhs, rhs).
    assert report.conventions == {"A": (0, "1/11", "5/22"), "B": (0, "1/11", "2/11")}


def test_trib_first_term_desk_values_at_n2():
    # The transcribed series coefficient vs the formula under both conventions.
    from gfdiag import series_of_rational, generate_sequence, kbonacci
    series = series_of_rational(printed_gf("trib.diag.term1"), 3)
    assert series[2] == Fraction(20, 11)
    for shifted, want in ((False, Fraction(41, 11)), (True, Fraction(23, 11))):
        t = list(generate_sequence(kbonacci(3, shifted=shifted), 5))
        got = (Fraction(8) * t[3] + Fraction(2) * t[2] + Fraction(5) * t[1]) / 11
        assert got == want


def test_convention_sensitive_claims_record_which_passes():
    for claim_id in ("trib.diag.printed", "trib.U_binomial",
                     "tetra.diag.printed", "penta.diag.printed"):
        report = run_claim(claim_id, 40)
        assert report.conventions["B"] is None
        assert report.conventions["A"] is not None
        assert "passes under convention B" in report.note


def test_run_all_is_deterministic():
    a = [_strip_runtime(r) for r in run_all(40)]
    b = [_strip_runtime(r) for r in run_all(40)]
    assert a == b
    assert [r["id"] for r in a] == sorted(r["id"] for r in a)


def test_run_all_builds_each_catalog_entry_once(monkeypatch):
    # trib.U_gf serves three checks and each *.diag.printed both conventions;
    # a RatFunc is immutable, so one build per process serves every run.
    built = Counter()
    for catalog_id, entry in list(gfbuild._ENTRIES.items()):
        if entry.build is not None:
            def counting(build=entry.build, catalog_id=catalog_id):
                built[catalog_id] += 1
                return build()
            monkeypatch.setitem(gfbuild._ENTRIES, catalog_id, gfbuild.CatalogEntry(
                entry.id, entry.kind, entry.provenance, entry.description, counting))
    run_all(10)
    run_all(10)
    assert "trib.U_gf" in built and set(built.values()) == {1}


def test_single_runs_agree_with_run_all_in_any_order():
    batch = {r.id: _strip_runtime(r) for r in run_all(40)}
    for claim_id in reversed(claim_ids()):
        assert _strip_runtime(run_claim(claim_id, 40)) == batch[claim_id]


def test_failures_are_monotone_in_truncation():
    for n_small, n_large in ((30, 80),):
        small = {r.id: r for r in run_all(n_small)}
        large = {r.id: r for r in run_all(n_large)}
        for claim_id, r_small in small.items():
            if r_small.status == "fail":
                assert large[claim_id].status == "fail"
                assert large[claim_id].first_mismatch == r_small.first_mismatch


def test_identity_claim_ignores_truncation():
    assert run_claim("trib.U_gf_identity", 1).status == "pass"
    assert run_claim("trib.U_gf_identity", 500).status == "pass"


def test_claim_descriptions_present():
    for claim_id in claim_ids():
        claim = get_claim(claim_id)
        assert claim.description
        assert claim.expected_status in ("pass", "fail", "either")


def _side_terms(side, convention, count):
    """The first count terms of a claims side, as Fractions."""
    ints, den = side(convention)[2](count)
    return [Fraction(v, den) for v in ints]


def test_u_binomial_rhs_matches_comb_formula():
    # The binomial-transform right-hand side against the formula summed term by term.
    from math import comb
    from gfdiag import generate_sequence, kbonacci
    for convention in ("A", "B"):
        t = generate_sequence(kbonacci(3, shifted=convention == "B"), 43)
        for n in range(41):
            want = [sum(t[k - 1] * (-1) ** k * comb(m + 2, k) for k in range(1, m + 3))
                    for m in range(n + 1)]
            assert _side_terms(claims._U_BINOMIAL, convention, n + 1) == want


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(a=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40), den=st.integers(1, 60))
def test_binomial_transform_side_matches_math_comb(a, den):
    # The transform built by additions against sum_j C(m,j) a_j by math.comb,
    # for an integer side over den and every count from 0 to 40.
    from math import comb
    side = claims._binomial(lambda convention: (0, 1, lambda count: (a[:count], den)))
    want = [sum(comb(m, j) * a[j] for j in range(m + 1)) for m in range(len(a))]
    assert side(None)[2](len(a)) == (want, den)


def test_first_term_rhs_matches_fraction_formula():
    from gfdiag import generate_sequence, kbonacci
    for convention in ("A", "B"):
        t = generate_sequence(kbonacci(3, shifted=convention == "B"), 43)

        def tt(i):
            return t[i] if i >= 0 else Fraction(0)

        for n in range(41):
            want = [(Fraction(2) ** (m + 1) * tt(m + 1)
                     + Fraction(1, 2) * Fraction(2) ** m * tt(m)
                     + Fraction(5, 2) * Fraction(2) ** (m - 1) * tt(m - 1)) / 11
                    for m in range(n + 1)]
            assert _side_terms(claims._FIRST_TERM, convention, n + 1) == want


def test_termwise_passes_compare_a_proof_length_at_n0(monkeypatch):
    # Two sides P1/Q1 and P2/Q2 that agree on d + 1 terms, with
    # d = max(nu1 + delta2, nu2 + delta1), agree everywhere; at n = 0 each
    # termwise PASS must still compare that many.
    from gfdiag import SequenceSpec, build_convolution_gf, claims, diagonal_rational
    spec = SequenceSpec(3, (1, 1, 1), (1, 0, 2))
    diag, _ = diagonal_rational(build_convolution_gf(spec, spec).F, check_terms=0)
    nu, delta = (sum(m * p.degree for p, m in fs) for fs in (diag.numer, diag.denom))
    proof = {
        "fib.closed_form": 7,
        "trib.U_gf_identity": 7,
        "trib.U_binomial": 6,
        "trib.second_term": 6,
        "trib.diag.printed": 15,
        "tetra.diag.printed": 26,
        "penta.diag.printed": 40,
        "trib.arbitrary_init": 9 + max(nu + 1, delta),
    }
    compared = []

    def spy(lhs, rhs):
        lhs, rhs = list(lhs), list(rhs)
        compared.append(min(len(lhs), len(rhs)))
        return first_mismatch(lhs, rhs)

    first_mismatch = claims._first_mismatch
    monkeypatch.setattr(claims, "_first_mismatch", spy)
    passed = set()
    for claim_id in claim_ids():
        compared.clear()
        report = run_claim(claim_id, 0)
        if report.status == "pass" and compared:
            passed.add(claim_id)
            assert min(compared) >= proof[claim_id], (claim_id, compared)
    assert passed == set(proof)


# -- the sides' degree bounds --------------------------------------------------
#
# Every termwise verdict is a proof only if each side's GF P/Q has deg P <= nu
# and deg Q <= delta.  Berlekamp-Massey on 2(nu + delta) + 10 terms, more
# than twice the sequence's linear complexity max(deg P + 1, deg Q), returns
# its reduced GF: the connection polynomial Q and P = (series * Q) below the
# complexity.  A delay's complexity exceeds delta, its denominator's degree
# does not.

_small = st.integers(-3, 3)


@st.composite
def _specs(draw):
    k = draw(st.integers(1, 3))
    coeffs = draw(st.lists(_small, min_size=k, max_size=k).filter(any))
    initial = draw(st.lists(st.builds(Fraction, _small, st.sampled_from((1, 2, 3))),
                            min_size=k, max_size=k))
    return SequenceSpec(k, coeffs, initial)


# A spec argument of a side: a SequenceSpec, or k for the k-bonacci
# sequence under the drawn convention.
_spec_args = st.one_of(st.integers(2, 4), _specs())


@st.composite
def _sides(draw, depth=2):
    """A random side of any kind, with sides nested up to depth deep."""
    kinds = ["rat", "scaled", "brute"] + (["binomial", "combo"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "rat":
        f = rand_univariate_ratfunc(Random(draw(st.integers(0, 10 ** 6))))
        return claims._rat(lambda: f)
    if kind == "scaled":
        return claims._scaled(draw(_spec_args), draw(st.sampled_from((1, -1, 2, 3))))
    if kind == "brute":
        return claims._brute(draw(_spec_args), draw(_spec_args))
    if kind == "binomial":
        return claims._binomial(draw(_sides(depth - 1)))
    parts = draw(st.lists(st.tuples(_sides(depth - 1), st.dictionaries(
        st.integers(-2, 2), _small.filter(bool), min_size=1, max_size=3)), min_size=1, max_size=2))
    return claims._combo(draw(st.integers(1, 5)), *parts)


def _degree_of(coeffs):
    return max((i for i, c in enumerate(coeffs) if c), default=-1)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(side=_sides(), convention=st.sampled_from(("A", "B")))
def test_side_bounds_hold_for_berlekamp_massey(side, convention):
    nu, delta, make = side(convention)
    ints, den = make(2 * (nu + delta) + 10)
    terms = [Fraction(v, den) for v in ints]
    connection, complexity = _berlekamp_massey(terms)
    assert 2 * complexity < len(terms)
    assert _degree_of(connection) <= delta
    numerator = [sum(connection[j] * terms[i - j] for j in range(min(i, len(connection) - 1) + 1))
                 for i in range(complexity)]
    assert _degree_of(numerator) <= nu


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 10 ** 6), e=st.integers(0, 8), differ=st.booleans())
def test_rational_sides_agreeing_on_the_proof_length_are_identical(seed, e, differ):
    # g is f + z^e h, a different function, or f times p/p, the same one in
    # an unreduced form.  Their series agree on max(nu1 + delta2, nu2 + delta1) + 1
    # terms exactly when they are identical, the degrees read as _rat reads them.
    rng = Random(seed)
    f, h, p = (rand_univariate_ratfunc(rng) for _ in range(3))
    if differ:
        g = f + RatFunc(1, [(Poly.monomial("z", e), 1)]) * h
    else:
        g = f * p * p.inverse()
    (nu1, delta1, _), (nu2, delta2, _) = claims._rat(lambda: f)(None), claims._rat(lambda: g)(None)
    count = max(nu1 + delta2, nu2 + delta1) + 1
    agree = series_of_rational(f, count) == series_of_rational(g, count)
    assert agree == identity_equal(f, g) == (not differ)


# -- the rule in two variables -------------------------------------------------

_MIXED = parse_ratfunc("1/(1-x+2*y)")


def _rand_bivariate(rng):
    """A random function of x and y with a series at the origin; its
    denominator always holds 1 - x + 2y, so no sum narrows it to one variable."""
    return RatFunc(rand_fraction(rng) or 1, [(rand_bipoly(rng), 1)],
                   [(rand_bipoly(rng, nonzero_at_0=True), rng.randint(1, 2))]) * _MIXED


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 10 ** 6), i=st.integers(0, 6), j=st.integers(0, 6),
       differ=st.booleans())
def test_cellwise_rule_agrees_with_identity_equal(seed, i, j, differ):
    # g is f + x^i y^j h, a function first differing from f at total degree
    # i + j or above, up to 12, or f times p/p, the same function unreduced.
    # Compared on the cells of total degree at most
    # max(deg P1 + deg Q2, deg P2 + deg Q1), the two series agree exactly
    # when identity_equal says the functions are identical.
    rng = Random(seed)
    f, h = _rand_bivariate(rng), _rand_bivariate(rng)
    if differ:
        g = f + parse_ratfunc(f"x^{i}*y^{j}") * h
    else:
        p = RatFunc(1, [(rand_bipoly(rng, nonzero_at_0=True), 1)])
        g = f * p * p.inverse()
    hit = claims._cellwise(f, g, lambda size: bivariate_series(g, size, size))
    assert (hit is None) == identity_equal(f, g) == (not differ)
    if differ:
        x, y = (int(e) for e in re.fullmatch(r"x\^(\d+)\*y\^(\d+)", hit[0]).groups())
        assert x + y >= i + j
        assert Fraction(hit[1]) != Fraction(hit[2])
