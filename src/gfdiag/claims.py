"""The claims catalog: every transcribed identity checked exactly.

Each claim compares two exactly computed objects, either termwise up to a
truncation or as a cross-multiplied rational-function identity.  Claims
whose transcribed form is known (from recomputation) to disagree with the
brute-force oracles carry an expected_status annotation, so the suite is
deterministic: it exits cleanly when every claim matches its recorded
expectation, and a failing claim always carries an exact witness.

k-bonacci claims run under both index conventions:
    A:  a_0 = 1, generating function 1/(1 - z - ... - z^k)
    B:  a_0 = 0, generating function z/(1 - z - ... - z^k)
and the report records which convention passes.  A claim without
conventions is about the shifted sequence, convention B.

Every termwise claim finds its witness with series._first_mismatch, the
comparison that the residue route's cross-check uses too.  Each compares
max(n + 1, d + 1) terms, d the degree bound of the difference of its two
sides' GFs (see _printed_vs_brute), so every PASS is a proof at every n.
A transcribed diagonal GF is compared with the brute-force
self-convolution in this way, and the transcribed double GF is decided by
a rational-function identity with the derived one, its witness searched
only up to the total degree of the difference's numerator, so neither
verdict depends on the truncation n.

The oracles' right-hand sides are computed with Python ints over one
cleared denominator, and each term becomes a Fraction only at the end, as
in series._pascal_sum: a power of 2 is a shift, and the binomial sum of
trib.U_binomial sums each integer Pascal row against the signed terms, so
its cost is quadratic in n.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction
from itertools import islice
from operator import add, mul

from .gfbuild import build_convolution_gf, printed_gf
from .poly import Poly, _Frozen, _cleared
from .ratfunc import compose_rational, identity_equal
from .residues import diagonal_rational
from .series import (
    SequenceSpec,
    binomial_convolution_sequence,
    bivariate_series,
    convolution_grid,
    generate_sequence,
    kbonacci,
    pascal_rows,
    _first_mismatch,
    series_of_rational,
)
from .textform import parse_ratfunc

CONVENTIONS = ("A", "B")


class CheckResult(_Frozen):
    __slots__ = _fields = ("passed", "first_mismatch", "lhs", "rhs")
    _defaults = {"first_mismatch": None, "lhs": None, "rhs": None}
    passed: bool
    first_mismatch: int | str | None
    lhs: str | None
    rhs: str | None

    def to_json_dict(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "first_mismatch": self.first_mismatch,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class Claim(_Frozen):
    __slots__ = _fields = ("id", "description", "expected_status", "check", "conventions",
                           "note")
    _defaults = {"conventions": (), "note": ""}
    id: str
    description: str
    expected_status: str                       # "pass", "fail", or "either"
    check: Callable[[int, str | None], CheckResult]
    conventions: tuple[str, ...]
    note: str


class ClaimReport(_Frozen):
    __slots__ = _fields = ("id", "status", "first_mismatch", "lhs", "rhs", "runtime_ms",
                           "expected_status", "matched_expected", "note", "conventions")
    _defaults = {"note": "", "conventions": None}
    id: str
    status: str                                # "pass" or "fail"
    first_mismatch: int | str | None
    lhs: str | None
    rhs: str | None
    runtime_ms: int
    expected_status: str
    matched_expected: bool
    note: str
    conventions: dict | None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "first_mismatch": self.first_mismatch,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "runtime_ms": self.runtime_ms,
            "expected_status": self.expected_status,
            "matched_expected": self.matched_expected,
            "note": self.note,
        }
        if self.conventions is not None:
            out["conventions"] = {k: v.to_json_dict() for k, v in self.conventions.items()}
        return out


def _compare_terms(lhs, rhs) -> CheckResult:
    hit = _first_mismatch(lhs, rhs)
    return CheckResult(True) if hit is None else CheckResult(False, *hit)


def _kbonacci_terms(k: int, convention: str | None, count: int) -> list[Fraction]:
    """The first count k-bonacci terms; no convention means convention B."""
    return generate_sequence(kbonacci(k, shifted=convention != "A"), count)


def _self_convolution(k: int, convention: str | None, count: int) -> list[Fraction]:
    terms = _kbonacci_terms(k, convention, count)
    return binomial_convolution_sequence(terms, terms, count)


def _degree(factors) -> int:
    """The total degree of a product of (polynomial, multiplicity) factors."""
    return sum(m * max(i + len(row) - 1 for i, row in enumerate(p.rows) if row)
               for p, m in factors)


def _printed_vs_brute(catalog_id: str, k: int):
    """The check of a printed diagonal GF against the brute-force self-convolution.

    It compares max(n + 1, max(nu + 1, delta) + k^2) terms, nu and delta the
    degrees of the printed GF's numerator and denominator, and that many
    prove the two equal.  The self-convolution's GF has a denominator of
    degree at most k^2 and a numerator of lower degree (the EGF argument of
    recurrences.convolution_terms), and both denominators are nonzero at 0.
    So the difference of the two series is N/D with deg N <= max(nu + k^2,
    delta + k^2 - 1), and a nonzero such series has a nonzero coefficient
    at or below deg N.

    The same argument bounds every termwise claim below: sides P1/Q1 and
    P2/Q2 with Q1(0) Q2(0) != 0 and degrees nu_i, delta_i differ, if at
    all, within the first d + 1 terms, d = max(nu1 + delta2, nu2 + delta1).
    So each compares max(n + 1, d + 1) terms, and its PASS is a proof at
    every n.
    """
    def check(n: int, convention: str | None) -> CheckResult:
        f = printed_gf(catalog_id)
        nu, delta = _degree(f.numer), _degree(f.denom)
        count = max(n + 1, max(nu + 1, delta) + k * k)
        return _compare_terms(series_of_rational(f, count), _self_convolution(k, convention, count))
    return check


# -- individual checks -------------------------------------------------------

def _check_fib_closed_form(n: int, convention=None) -> CheckResult:
    """Compares max(n + 1, 7) terms.

    The brute-force side has a denominator of degree at most 4 and a
    numerator of degree at most 3; the closed form's GF is
    -2/(5(1 - z)) + L(2z)/5 = N/((1 - z)(1 - 2z - 4z^2)) with deg N <= 2.
    So d = max(3 + 3, 2 + 4) = 6.
    """
    count = max(n + 1, 7)
    fib = _kbonacci_terms(2, convention, count)
    lucas, den = _cleared(generate_sequence(SequenceSpec(2, (1, 1), (2, 1)), count))
    lhs = binomial_convolution_sequence(fib, fib, count)
    rhs = [Fraction((v << m) - 2 * den, 5 * den) for m, v in enumerate(lucas)]
    return _compare_terms(lhs, rhs)


def _check_fib_h_printed(n: int, convention=None) -> CheckResult:
    # The derived GF's grid is the brute-force convolution grid, so the
    # identity decides the claim at every n; the grids give the witness.
    printed, derived = printed_gf("fib.H.printed"), printed_gf("fib.H.derived")
    difference = printed - derived
    if difference.is_zero:
        return CheckResult(True)
    # Scan by total degree so the reported witness has minimal order.  The
    # two series differ by N/D with D(0, 0) != 0, so they first differ at a
    # total degree no higher than N's (10 for these two GFs): the box of
    # that size holds the witness.
    size = _degree(difference.numer) + 1
    fib = _kbonacci_terms(2, convention, size)
    grid = bivariate_series(printed, size, size)
    want = convolution_grid(fib, fib, size, size)
    cells = [(i, s - i) for s in range(size) for i in range(s + 1)]
    hit = _first_mismatch((grid[i][j] for i, j in cells), (want[i][j] for i, j in cells))
    i, j = cells[hit[0]]
    return CheckResult(False, f"x^{i}*y^{j}", *hit[1:])


def _trib_first_term_rhs(convention: str, count: int) -> list[Fraction]:
    """(1/11)(2^(m+1) T_{m+1} + (1/2) 2^m T_m + (5/2) 2^(m-1) T_{m-1}), T_{-1} = 0.

    Over 44 times the denominator of T it is an integer:
    2^(m+3) T_{m+1} + 2^(m+1) T_m + 5 * 2^m T_{m-1}.
    """
    t, den = _cleared(_kbonacci_terms(3, convention, count + 1))
    return [Fraction((a << (m + 3)) + (b << (m + 1)) + 5 * (c << m), 44 * den)
            for m, (a, b, c) in enumerate(zip(t[1:], t, [0] + t))]


def _check_trib_first_term(n: int, convention: str) -> CheckResult:
    """Compares max(n + 1, 6) terms.

    The series side is (1 + z + 10z^2)/(11(1 - 2z - 4z^2 - 8z^3)); the
    formula's GF, a sum of shifts of T(2z), has that denominator and a
    numerator of degree at most 2.  So d = 2 + 3 = 5.
    """
    count = max(n + 1, 6)
    lhs = series_of_rational(printed_gf("trib.diag.term1"), count)
    return _compare_terms(lhs, _trib_first_term_rhs(convention, count))


def _trib_u_binomial_rhs(convention: str, count: int) -> list[Fraction]:
    """[sum_{k>=1} T_{k-1} (-1)^k C(m+2, k) for m < count], from Pascal rows.

    With T cleared to integers over den, signed[k] = (-1)^k T_{k-1} and
    signed[0] = 0, row n = m + 2 of Pascal's triangle sums against signed
    to den times term m.  C(n,k) = C(n,n-k) folds the row: only k <= n/2
    is read, against signed[k] + signed[n-k], and the middle term of an
    even row, read twice, is taken off once.
    """
    t, den = _cleared(_kbonacci_terms(3, convention, count + 1))
    signed = [0, *(-v if k % 2 else v for k, v in enumerate(t, 1))]
    out = []
    for n, row in enumerate(islice(pascal_rows(count + 2), 2, None), 2):
        h = n // 2
        s = sum(map(mul, row[:h + 1], map(add, signed, signed[n::-1])))
        out.append(Fraction(s if n % 2 else s - row[h] * signed[h], den))
    return out


def _check_trib_u_binomial(n: int, convention: str) -> CheckResult:
    """Compares max(n + 1, 6) terms.

    U is the series of 1/(1 - 2z + 2z^3).  The binomial sum is the series
    of (B(z) - B(0) - B'(0) z)/z^2, B(x) = A(-x/(1 - x))/(1 - x) and
    A(z) = z T(z), so its denominator has degree 3 and its numerator
    degree at most 2.  So d = max(0 + 3, 2 + 3) = 5.
    """
    count = max(n + 1, 6)
    u = series_of_rational(printed_gf("trib.U_gf"), count)
    return _compare_terms(u, _trib_u_binomial_rhs(convention, count))


def _check_trib_second_term(n: int, convention=None) -> CheckResult:
    """Compares max(n + 1, 6) terms.

    The series side is (1 + z - 8z^2)/(11(1 - 2z + 2z^3)), and the
    formula's GF is (1 + z - 8z^2) U(z)/11: each has a numerator of
    degree 2 over 1 - 2z + 2z^3.  So d = 2 + 3 = 5.
    """
    count = max(n + 1, 6)
    lhs = series_of_rational(printed_gf("trib.second_term"), count)
    u, den = _cleared(series_of_rational(printed_gf("trib.U_gf"), count))
    rhs = [Fraction(a + b - 8 * c, 11 * den) for a, b, c in zip(u, [0, *u], [0, 0, *u])]
    return _compare_terms(lhs, rhs)


def _check_trib_u_gf_identity(n: int, convention=None) -> CheckResult:
    # Rational-function identity: truncation independent, a complete proof.
    f = parse_ratfunc("z^3/(1-z-z^2-z^3)")
    composed = compose_rational(f, Poly("x", [0, -1]), Poly("x", [1, -1]))
    target = parse_ratfunc("-x^3/(1-2*x+2*x^3)")
    if identity_equal(composed, target):
        return CheckResult(True)
    return CheckResult(False, "identity", str(composed), str(target))


def _check_trib_arbitrary_init(n: int, convention=None) -> CheckResult:
    """Compares max(min(n, 60), L) + 1 terms, L = 9 + max(nu + 1, delta).

    nu and delta are the degrees of the residue diagonal's numerator and
    denominator; the brute-force self-convolution of an order-3 sequence
    has a denominator of degree at most 9 and a numerator of lower degree,
    as in _printed_vs_brute.
    """
    spec = SequenceSpec(3, (1, 1, 1), (1, 0, 2))
    gf = build_convolution_gf(spec, spec).F
    result, report = diagonal_rational(gf, check_terms=min(n, 60))
    if report.status != "ok":
        return CheckResult(False, report.first_mismatch, report.lhs, report.rhs)
    depth = max(min(n, 60), 9 + max(_degree(result.numer) + 1, _degree(result.denom)))
    terms = generate_sequence(spec, depth + 1)
    brute = binomial_convolution_sequence(terms, terms, depth + 1)
    got = series_of_rational(result, depth + 1)
    return _compare_terms(got, brute)


# -- registry ----------------------------------------------------------------

_CLAIMS: dict[str, Claim] = {}


def _register(claim: Claim) -> None:
    _CLAIMS[claim.id] = claim


_register(Claim(
    "fib.closed_form",
    "sum C(n,k) F_k F_{n-k} equals (-2 + 2^n L_n)/5 with Lucas numbers (2, 1, ...)",
    "pass", _check_fib_closed_form))
_register(Claim(
    "fib.diag.printed",
    "Transcribed diagonal GF z^2/((1-z)(1-2z-4z^2)) vs the brute-force "
    "Fibonacci self-convolution",
    "fail", _printed_vs_brute("fib.diag.printed", 2),
    note="recomputation shows the transcribed form is off by a factor 2; "
         "2 * printed equals the brute-force GF as a rational-function identity"))
_register(Claim(
    "fib.H.printed",
    "Transcribed double GF vs the brute-force convolution grid",
    "fail", _check_fib_h_printed,
    note="the transcribed denominator's x^2*y and x^2*y^2 signs differ from the "
         "derived construction; first grid disagreement is at x^3*y^3"))
_register(Claim(
    "trib.diag.printed",
    "Transcribed two-term diagonal GF vs the brute-force Tribonacci "
    "self-convolution",
    "pass", _printed_vs_brute("trib.diag.printed", 3), conventions=CONVENTIONS))
_register(Claim(
    "trib.first_term",
    "Coefficient formula (1/11)(2^(n+1) T_{n+1} + (1/2) 2^n T_n + (5/2) 2^(n-1) "
    "T_{n-1}) vs the series of (1/11)(1+z+10z^2)/(1-2z-4z^2-8z^3)",
    "either", _check_trib_first_term, conventions=CONVENTIONS,
    note="recomputation finds a mismatch under both conventions (series term "
         "20/11 at n=2 vs formula values 23/11 under B and 41/11 under A); "
         "witnesses are the first disagreeing index per convention"))
_register(Claim(
    "trib.U_binomial",
    "U_m = sum_{k>=1} T_{k-1} (-1)^k C(m+2,k) with U the series of 1/(1-2z+2z^3)",
    "pass", _check_trib_u_binomial, conventions=CONVENTIONS))
_register(Claim(
    "trib.second_term",
    "Coefficient n of (1/11)(1+z-8z^2)/(1-2z+2z^3) equals "
    "(1/11)(U_n + U_{n-1} - 8 U_{n-2})",
    "pass", _check_trib_second_term))
_register(Claim(
    "trib.U_gf_identity",
    "z^3/(1-z-z^2-z^3) at z = -x/(1-x) equals -x^3/(1-2x+2x^3), as a "
    "cross-multiplied polynomial identity",
    "pass", _check_trib_u_gf_identity))
_register(Claim(
    "tetra.diag.printed",
    "Transcribed Tetranacci diagonal GF vs the brute-force self-convolution",
    "pass", _printed_vs_brute("tetra.diag.printed", 4), conventions=CONVENTIONS))
_register(Claim(
    "penta.diag.printed",
    "Transcribed Pentanacci diagonal GF vs the brute-force self-convolution",
    "pass", _printed_vs_brute("penta.diag.printed", 5), conventions=CONVENTIONS,
    note="verified at build time: passes under convention B (shifted), "
         "fails under convention A"))
_register(Claim(
    "trib.arbitrary_init",
    "Smoke claim: the residue diagonal of a custom-initial (1, 0, 2) Tribonacci "
    "convolution GF agrees with the series and the brute-force oracle",
    "pass", _check_trib_arbitrary_init))


def claim_ids() -> list[str]:
    return sorted(_CLAIMS)


def get_claim(claim_id: str) -> Claim:
    try:
        return _CLAIMS[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim id: {claim_id}") from None


def run_claim(claim_id: str, n: int = 200) -> ClaimReport:
    """Run one claim to truncation n (ignored by identity claims)."""
    claim = get_claim(claim_id)
    start = time.perf_counter()
    if claim.conventions:
        results = {c: claim.check(n, c) for c in claim.conventions}
        passing = [c for c in claim.conventions if results[c].passed]
        status = "pass" if passing else "fail"
        if passing:
            first, lhs, rhs = None, None, None
            verdicts = f"passes under convention {', '.join(passing)}"
            failing = [c for c in claim.conventions if not results[c].passed]
            if failing:
                verdicts += f"; fails under {', '.join(failing)}"
        else:
            # Surface the first convention's witness; all are in `conventions`.
            lead = results[claim.conventions[0]]
            first, lhs, rhs = lead.first_mismatch, lead.lhs, lead.rhs
            verdicts = "fails under every convention"
        note = f"{verdicts}. {claim.note}".strip()
    else:
        results = None
        res = claim.check(n, None)
        status = "pass" if res.passed else "fail"
        first, lhs, rhs = res.first_mismatch, res.lhs, res.rhs
        note = claim.note
    runtime_ms = int((time.perf_counter() - start) * 1000)
    matched = claim.expected_status == "either" or status == claim.expected_status
    return ClaimReport(claim.id, status, first, lhs, rhs, runtime_ms,
                       claim.expected_status, matched, note, results)


def run_all(n: int = 200) -> list[ClaimReport]:
    """Run every claim, ordered by id; deterministic outcome fields."""
    return [run_claim(claim_id, n) for claim_id in claim_ids()]
