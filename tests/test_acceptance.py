"""Acceptance criteria, one test per criterion.

Every comparison is exact (zero tolerance); each test prints a PASS line
when its criterion holds.  Criteria 1-10 pin the headline identities and
discrepancy reports; criterion 11 runs the randomized property families
at 200 instances each.
"""

from fractions import Fraction
from math import comb
from random import Random

from gfdiag import (
    RatFunc,
    SequenceSpec,
    binomial_convolution_sequence,
    build_convolution_gf,
    compose_rational,
    diagonal_rational,
    diagonal_series,
    find_min_recurrence,
    generate_sequence,
    gf_of_sequence,
    kbonacci,
    parse_poly,
    parse_ratfunc,
    partial_fractions,
    poly_gcd,
    printed_gf,
    run_all,
    run_claim,
    series_of_rational,
)
from gfdiag.residues import classify_poles, hk_transform
from helpers import (
    identity_equal,
    rand_bipoly,
    rand_fraction,
    rand_poly,
    rand_sequence_spec,
    rand_univariate_ratfunc,
)


def _ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def _kb_terms(k: int, shifted: bool, count: int):
    return list(generate_sequence(kbonacci(k, shifted=shifted), count))


def test_c01_fibonacci_closed_form_to_300():
    n = 300
    fib = _kb_terms(2, True, n + 1)
    lucas = list(generate_sequence(SequenceSpec(2, (1, 1), (2, 1)), n + 1))
    brute = binomial_convolution_sequence(fib, fib, n + 1)
    assert brute[:4] == [0, 0, 2, 6]
    for m in range(n + 1):
        assert brute[m] == (Fraction(-2) + Fraction(2) ** m * lucas[m]) / 5
    assert brute[300].denominator == 1 and brute[300].numerator > 10 ** 80
    _ok(1, "closed form (-2 + 2^n L_n)/5 for n = 0..300, exact")


def test_c02_tribonacci_two_term_diagonal_to_200():
    trib = _kb_terms(3, True, 201)
    brute = binomial_convolution_sequence(trib, trib, 201)
    assert brute[:6] == [0, 0, 2, 6, 22, 80]
    got = list(series_of_rational(printed_gf("trib.diag.printed"), 201))
    assert got == brute
    _ok(2, "two-term diagonal GF equals brute force for n = 0..200 (shifted)")


def test_c03_u_sequence_binomial_formula_to_200():
    u = list(series_of_rational(printed_gf("trib.U_gf"), 201))
    assert u[:4] == [1, 2, 4, 6]
    t = _kb_terms(3, True, 204)
    for m in range(201):
        rhs = sum((t[k - 1] * (-1) ** k * comb(m + 2, k) for k in range(1, m + 3)),
                  Fraction(0))
        assert u[m] == rhs
    _ok(3, "U_m = sum T_{k-1} (-1)^k C(m+2,k) for m = 0..200 (shifted)")


def test_c04_second_contribution_to_200():
    second = list(series_of_rational(printed_gf("trib.second_term"), 201))
    u = list(series_of_rational(printed_gf("trib.U_gf"), 201))

    def uu(i):
        return u[i] if i >= 0 else Fraction(0)

    for m in range(201):
        assert second[m] == (uu(m) + uu(m - 1) - 8 * uu(m - 2)) / 11
    _ok(4, "coefficients of (1/11)(1+z-8z^2)/(1-2z+2z^3) match the U combination")


def test_c05_substitution_identity_exact():
    f = parse_ratfunc("z^3/(1-z-z^2-z^3)")
    composed = compose_rational(f, parse_poly("-x", "x"), parse_poly("1-x", "x"))
    assert identity_equal(composed, parse_ratfunc("-x^3/(1-2*x+2*x^3)"))
    _ok(5, "substitution identity holds as a cross-multiplied polynomial identity")


def test_c06_tetranacci_printed_gf_to_200():
    tetra = _kb_terms(4, True, 201)
    brute = binomial_convolution_sequence(tetra, tetra, 201)
    assert brute[2:6] == [2, 6, 22, 80]
    got = list(series_of_rational(printed_gf("tetra.diag.printed"), 201))
    assert got == brute
    _ok(6, "transcribed Tetranacci GF equals brute force for n = 0..200 (shifted)")


def test_c07_pentanacci_report_is_deterministic_and_witnessed():
    first = run_claim("penta.diag.printed", 200)
    second = run_claim("penta.diag.printed", 200)
    assert first.to_json_dict() | {"runtime_ms": 0} == \
        second.to_json_dict() | {"runtime_ms": 0}
    assert first.conventions["B"] is None
    assert first.conventions["A"] == (0, "0", "1")
    assert first.matched_expected
    _ok(7, "Pentanacci-type claim recorded: pass under B, witnessed fail under A")


def test_c08_residue_master_invariant():
    h = printed_gf("fib.H.derived")
    g = printed_gf("trib.G")

    rat_h, rep_h = diagonal_rational(h, check_terms=100)
    assert rep_h.status == "ok"
    fib = _kb_terms(2, True, 101)
    assert list(series_of_rational(rat_h, 101)) == \
        binomial_convolution_sequence(fib, fib, 101)
    num_h, den_h = rat_h.reduced_fraction()
    assert den_h == parse_poly("(1-z)*(1-2*z-4*z^2)")
    assert num_h == parse_poly("2*z^2")

    rat_g, rep_g = diagonal_rational(g, check_terms=100)
    assert rep_g.status == "ok"
    trib = _kb_terms(3, True, 101)
    assert list(series_of_rational(rat_g, 101)) == \
        binomial_convolution_sequence(trib, trib, 101)
    _num_g, den_g = rat_g.reduced_fraction()
    assert den_g == parse_poly("(1-2*z-4*z^2-8*z^3)*(1-2*z+2*z^3)")

    kept_h = [p for p in classify_poles(hk_transform(h)) if p.kept]
    kept_g = [p for p in classify_poles(hk_transform(g)) if p.kept]
    assert sum(p.factor.degree for p in kept_h) == 2
    assert sum(p.factor.degree for p in kept_g) == 3
    _ok(8, "residue diagonals match series and oracles; denominators as stated")


def test_c09_recurrence_orders_3_6_10_15():
    want = {2: 3, 3: 6, 4: 10, 5: 15}
    for k, order in want.items():
        terms = _kb_terms(k, True, 80)
        brute = binomial_convolution_sequence(terms, terms, 70)
        rec = find_min_recurrence(brute)
        assert rec is not None and rec.order == order, (k, rec)
    _ok(9, "minimal orders on brute-force diagonals: 3, 6, 10, 15")


def test_c10_discrepancy_reports_and_suite_exit():
    h_report = run_claim("fib.H.printed", 200)
    assert h_report.status == "fail"
    assert h_report.first_mismatch == "x^3*y^3"
    assert (h_report.lhs, h_report.rhs) == ("8", "6")

    d_report = run_claim("fib.diag.printed", 200)
    assert d_report.status == "fail"
    assert d_report.first_mismatch == 2
    assert (d_report.lhs, d_report.rhs) == ("1", "2")
    doubled = parse_ratfunc("2*z^2/((1-z)*(1-2*z-4*z^2))")
    fib = _kb_terms(2, True, 210)
    assert series_of_rational(doubled, 201) == binomial_convolution_sequence(fib, fib, 201)

    f_report = run_claim("trib.first_term", 200)
    assert f_report.status == "fail" and f_report.matched_expected
    series = series_of_rational(printed_gf("trib.diag.term1"), 3)
    assert series[2] == Fraction(20, 11)
    t_a = _kb_terms(3, False, 5)
    t_b = _kb_terms(3, True, 5)
    formula = lambda t: (Fraction(8) * t[3] + Fraction(2) * t[2] + Fraction(5) * t[1]) / 11
    assert formula(t_a) == Fraction(41, 11)
    assert formula(t_b) == Fraction(23, 11)

    reports = run_all(200)
    assert all(r.matched_expected for r in reports)
    _ok(10, "witnessed discrepancy reports reproduce the recorded findings; "
            "all claims match their expected status")


# -- criterion 11: randomized property suites, 200 instances each -------------

def test_c11_series_recurrence_round_trips_200():
    rng = Random(2024)
    for _ in range(200):
        spec = rand_sequence_spec(rng, max_order=6)
        terms = list(generate_sequence(spec, 2 * spec.order + 10))
        rec = find_min_recurrence(terms)
        assert rec is not None and rec.order <= spec.order
        gf = gf_of_sequence(rec)
        regenerated = list(series_of_rational(gf, len(terms)))
        assert regenerated == terms
    _ok(11, "series/recurrence round trips: 200 randomized instances")


def test_c11_partial_fraction_resummation_200():
    rng = Random(2025)
    checked = 0
    while checked < 200:
        numer = rand_poly(rng, max_deg=5)
        bases = [(rand_poly(rng, max_deg=2, nonzero=True), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))]
        if numer.is_zero or any(b.degree < 1 for b, _ in bases):
            continue
        if any(poly_gcd(bases[i][0], bases[j][0]).degree > 0
               for i in range(len(bases)) for j in range(i + 1, len(bases))):
            continue
        f = RatFunc(1, numer=[(numer, 1)], denom=bases)
        pf = partial_fractions(f)
        total = RatFunc(1, [(pf.poly_part, 1)]) if not pf.poly_part.is_zero \
            else RatFunc.zero()
        for pnum, base, power in pf.parts:
            assert pnum.degree < base.degree * power
            if not pnum.is_zero:
                total = total + RatFunc(1, numer=[(pnum, 1)], denom=[(base, power)])
        assert identity_equal(total, f)
        checked += 1
    _ok(11, "partial-fraction re-summation: 200 randomized instances")


def test_c11_composition_evaluation_commutation_200():
    rng = Random(2026)
    checked = 0
    while checked < 200:
        f = rand_univariate_ratfunc(rng, var="w", n_denom=1)
        s_num = rand_bipoly(rng)
        s_den = rand_bipoly(rng, nonzero_at_0=True)
        x0, y0 = rand_fraction(rng, -4, 4, 3), rand_fraction(rng, -4, 4, 3)
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
    _ok(11, "composition/evaluation commutation: 200 randomized instances")


def test_c11_diagonal_cross_checks_200():
    rng = Random(2027)
    checked = 0
    while checked < 200:
        a = rand_sequence_spec(rng, unit_coeffs=True)
        b = rand_sequence_spec(rng, unit_coeffs=True)
        f = build_convolution_gf(a, b).F
        if f.is_zero:
            continue
        rat, report = diagonal_rational(f, check_terms=10)
        assert report.status == "ok"
        ta = list(generate_sequence(a, 10))
        tb = list(generate_sequence(b, 10))
        diag = [sum(comb(n, k) * ta[k] * tb[n - k] for k in range(n + 1)) for n in range(10)]
        assert list(series_of_rational(rat, 10)) == diag
        assert list(diagonal_series(f, 10)) == diag
        checked += 1
    _ok(11, "diagonal cross-checks (residue vs series vs oracle): 200 instances")


def test_c11_remaining_exact_core_invariants_200():
    rng = Random(2028)
    for _ in range(200):
        a = rand_poly(rng, max_deg=6)
        b = rand_poly(rng, max_deg=4, nonzero=True)
        q, r = a.divrem(b)
        assert q * b + r == a and r.degree < b.degree
    rng = Random(2029)
    for _ in range(200):
        a = rand_poly(rng, max_deg=3, nonzero=True)
        b = rand_poly(rng, max_deg=3, nonzero=True)
        g = rand_poly(rng, max_deg=2, nonzero=True).monic()
        assert poly_gcd(a * g, b * g).divrem((g * poly_gcd(a, b)).monic())[1].is_zero
    rng = Random(2030)
    checked = 0
    while checked < 200:
        f = rand_univariate_ratfunc(rng)
        x0 = rand_fraction(rng, -9, 9, 5)
        num, den = f.expand_to_single_fraction()
        if den.evaluate(x0) == 0:
            continue
        assert f.evaluate({"z": x0}) == num.evaluate(x0) / den.evaluate(x0)
        checked += 1
    rng = Random(2031)
    for _ in range(200):
        n = rng.randint(0, 10)
        a = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
        assert binomial_convolution_sequence(a, b, n + 1) == \
            binomial_convolution_sequence(b, a, n + 1)
    _ok(11, "divrem/gcd/evaluation/symmetry invariants: 200 instances each")
