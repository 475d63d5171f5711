"""The verification suite: expected outcomes, witnesses, determinism."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from gfdiag import claim_ids, get_claim, run_all, run_claim
from gfdiag import gfbuild, parse_ratfunc, printed_gf, series_of_rational


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
    assert set(report.conventions) == {"A", "B"}
    for res in report.conventions.values():
        assert not res.passed
        assert res.first_mismatch == 0
    assert report.conventions["A"].rhs == "5/22"
    assert report.conventions["B"].rhs == "2/11"


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
        assert report.conventions["B"].passed
        assert not report.conventions["A"].passed
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
            monkeypatch.setitem(gfbuild._ENTRIES, catalog_id,
                                dataclasses.replace(entry, build=counting))
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
