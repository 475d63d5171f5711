"""The claims catalog: every transcribed identity checked exactly.

Each claim compares two exactly computed objects.  Claims whose
transcribed form is known (from recomputation) to disagree with the
brute-force oracles carry an expected_status annotation, so the suite is
deterministic: it exits cleanly when every claim matches its recorded
expectation, and a failing claim always carries an exact witness.

k-bonacci claims run under both index conventions:
    A:  a_0 = 1, generating function 1/(1 - z - ... - z^k)
    B:  a_0 = 0, generating function z/(1 - z - ... - z^k)
and the report records which convention passes.  A claim without
conventions is about the shifted sequence, convention B.

One rule decides every claim: two sides are compared on as many terms
as bounds on the degrees of their generating functions prove enough.
Each check returns what series._first_mismatch returns: None, or the
witness (where, lhs, rhs) at the first term where the sides differ.

A termwise claim is a row naming two sides, and _termwise checks every
such row.  A side is a sequence, as integers over one denominator, with
bounds (nu, delta) on the numerator and denominator degrees of its
generating function P/Q, Q(0) != 0.  Two sides differ by
(P1 Q2 - P2 Q1)/(Q1 Q2), whose numerator has degree at most
d = max(nu1 + delta2, nu2 + delta1), and a nonzero such series has a
nonzero coefficient at or below d.  So max(n + 1, d + 1) terms either
prove the two sides equal at every n or hold the first index where they
differ.  Each side reads its bounds from its own object, by the closure
of C-finite sequences under sums, shifts and r^n scaling (Kauers and
Paule, The Concrete Tetrahedron, Springer 2011, ch. 4):

    a RatFunc                                its own degrees
    r^m a_m, a a SequenceSpec of order k     (k - 1, k)
    sum_j C(m,j) a_j b_{m-j}, specs a and b  (k_a k_b - 1, k_a k_b)
    sum_j C(m,j) a_j, a a side               (max(nu, delta - 1), max(nu + 1, delta))
    a_{m-s}, a delay by s                    (nu + s, delta)
    a_{m+s}, an advance by s                 (max(nu - s, delta - 1), delta)
    sum_i c_i a_i, distinct sides a_i        (max_i nu_i + delta - delta_i, delta),
                                             delta the sum of the delta_i

The convolution's bound is the EGF argument of
recurrences.convolution_terms.  The binomial transform's GF is
A(z/(1 - z))/(1 - z), and an advance's is (A - its first s terms)/z^s;
shifts of one side keep its denominator, and distinct sides share none.
trib.U_gf_identity is a row of two RatFunc sides, both of degrees (3, 3),
so 7 terms prove it.

fib.H.printed is the rule in two variables, _cellwise: the printed GF
against the brute-force convolution grid, which is fib.H.derived's grid
and takes its degrees.  Two bivariate series P1/Q1 and P2/Q2, Q1 Q2
nonzero at the origin, differ by N/(Q1 Q2), where N has total degree at
most d = max(deg P1 + deg Q2, deg P2 + deg Q1).  A nonzero N's lowest
homogeneous part, over Q1(0, 0) Q2(0, 0), is the difference's lowest, so
the cells of total degree at most d decide the claim at every n, and
scanning them in total-degree order gives a witness of least degree.

Sides compute on Python ints over one cleared denominator: a brute-force
convolution through series._binomial_convolution_ints, the one Pascal-row
oracle, and a binomial transform by additions alone, with no Pascal row.
The two sides are compared cross-multiplied, so a term becomes a
Fraction only as a witness.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from .gfbuild import build_convolution_gf, printed_gf
from .poly import Poly, _Frozen, _cleared
from .ratfunc import RatFunc, compose_rational
from .residues import diagonal_rational
from .series import (SequenceSpec, bivariate_series, convolution_grid, generate_sequence,
                     kbonacci, _binomial_convolution_ints, _first_mismatch,
                     series_of_rational)
from .textform import parse_ratfunc

CONVENTIONS = ("A", "B")


class Claim(_Frozen):
    __slots__ = _fields = ("id", "description", "expected_status", "check", "conventions", "note")
    _defaults = {"conventions": (), "note": ""}
    id: str
    description: str
    expected_status: str                       # "pass", "fail", or "either"
    check: Callable[[int, str | None], tuple | None]  # None, or (where, lhs, rhs)
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
    conventions: dict | None                   # convention -> its check's witness

    def to_json_dict(self) -> dict:
        out = dict(zip(self._fields[:-1], self._values()))  # each field but conventions
        if self.conventions is not None:
            out["conventions"] = {c: {"status": "fail" if hit else "pass", **dict(zip(
                ("first_mismatch", "lhs", "rhs"), hit or (None,) * 3))}
                for c, hit in self.conventions.items()}
        return out


def _degree(factors) -> int:
    """The total degree of a product of (polynomial, multiplicity) factors."""
    return sum(m * max(i + len(row) - 1 for i, row in enumerate(p.rows) if row)
               for p, m in factors)


# -- sides -------------------------------------------------------------------
#
# A side maps a convention to (nu, delta, make), and make(count) returns the
# first count terms as (ints, den).  A spec argument is a SequenceSpec, or an
# int k for the k-bonacci sequence under the running convention.

def _spec(s, convention: str | None) -> SequenceSpec:
    return kbonacci(s, shifted=convention != "A") if isinstance(s, int) else s


def _rat(source):
    """The series of a RatFunc: printed_gf(source) for an id, else source()."""
    def side(convention):
        f = printed_gf(source) if isinstance(source, str) else source()
        return (_degree(f.numer), _degree(f.denom),
                lambda count: _cleared(series_of_rational(f, count)))
    return side


def _scaled(s, r: int = 1):
    """r^m a_m for the spec s, whose GF is A(rz)."""
    def side(convention):
        spec = _spec(s, convention)

        def make(count):
            a, den = _cleared(generate_sequence(spec, count))
            return [v * r ** m for m, v in enumerate(a)], den
        return spec.order - 1, spec.order, make
    return side


def _brute(sa, sb):
    """The brute-force binomial convolution sum_j C(m,j) a_j b_{m-j} of two specs."""
    def side(convention):
        a, b = _spec(sa, convention), _spec(sb, convention)

        def make(count):
            ta = generate_sequence(a, count)
            return _binomial_convolution_ints(ta, ta if b == a else generate_sequence(b, count),
                                              count)
        return a.order * b.order - 1, a.order * b.order, make
    return side


def _binomial(inner):
    """The binomial transform sum_j C(m,j) a_j of a side, by additions alone.

    With row_0 = a and row_{k+1}[j] = row_k[j] + row_k[j+1], row_k[j] is
    sum_i C(k,i) a_{j+i}, so the transform's term m is row_m[0].
    """
    def side(convention):
        nu, delta, terms = inner(convention)

        def make(count):
            row, den = terms(count)
            out = []
            while row:
                out.append(row[0])
                row = list(map(add, row, row[1:]))
            return out, den
        return max(nu, delta - 1), max(nu + 1, delta), make
    return side


def _combo(divisor: int, *parts):
    """(sum c a_{m+s}) / divisor over the parts (side, {s: c}), each c an int.

    s > 0 advances a side and s < 0 delays it, with a_m = 0 for m < 0.
    """
    def side(convention):
        sides = [(inner(convention), shifts) for inner, shifts in parts]
        delta = sum(d for (_, d, _), _ in sides)
        nu = max(max(v - s if s <= 0 else max(v - s, d - 1) for s in shifts) + delta - d
                 for (v, d, _), shifts in sides)

        def make(count):
            got = [(terms(count + max(0, *shifts)), shifts) for (_, _, terms), shifts in sides]
            scale = lcm(*(den for (_, den), _ in got))
            out = [0] * count
            for (a, den), shifts in got:
                for s, c in shifts.items():
                    shifted = a[s:s + count] if s >= 0 else ([0] * -s + a)[:count]
                    out = list(map(add, out, map(mul, shifted, repeat(c * (scale // den)))))
            return out, scale * divisor
        return nu, delta, make
    return side


def _termwise(lhs, rhs):
    """The check of a termwise claim: lhs against rhs, cross-multiplied, on
    max(n + 1, d + 1) terms, d = max(nu1 + delta2, nu2 + delta1)."""
    def check(n: int, convention: str | None) -> tuple | None:
        (nu1, delta1, terms1), (nu2, delta2, terms2) = lhs(convention), rhs(convention)
        count = max(n + 1, max(nu1 + delta2, nu2 + delta1) + 1)
        (a, da), (b, db) = terms1(count), terms2(count)
        hit = _first_mismatch(map(mul, a, repeat(db)), map(mul, b, repeat(da)))
        if hit is not None:
            i = hit[0]
            return i, str(Fraction(a[i], da)), str(Fraction(b[i], db))
    return check


def _cellwise(lhs: RatFunc, rhs: RatFunc, rhs_grid) -> tuple | None:
    """The termwise rule in two variables: the series of lhs against
    rhs_grid(size), the size x size grid of rhs's series.

    The cells of total degree at most d = max(nu1 + delta2, nu2 + delta1),
    nu and delta the total degrees of each side's numerator and
    denominator, are compared in total-degree order, so the witness
    x^i*y^j has the least total degree.
    """
    d = max(_degree(lhs.numer) + _degree(rhs.denom), _degree(rhs.numer) + _degree(lhs.denom))
    grid = bivariate_series(lhs, d + 1, d + 1)
    want = rhs_grid(d + 1)
    cells = [(i, s - i) for s in range(d + 1) for i in range(s + 1)]
    hit = _first_mismatch((grid[i][j] for i, j in cells), (want[i][j] for i, j in cells))
    if hit is not None:
        i, j = cells[hit[0]]
        return f"x^{i}*y^{j}", *hit[1:]


def _fib_grid(size: int) -> list[list[Fraction]]:
    """The brute-force Fibonacci convolution grid, which is fib.H.derived's grid."""
    fib = generate_sequence(kbonacci(2, shifted=True), size)
    return convolution_grid(fib, fib, size, size)


# -- registry ----------------------------------------------------------------

_CUSTOM = SequenceSpec(3, (1, 1, 1), (1, 0, 2))
_U = _rat("trib.U_gf")
# (1/11)(2^(m+1) T_{m+1} + (1/2) 2^m T_m + (5/2) 2^(m-1) T_{m-1}) and
# sum_{k>=1} T_{k-1} (-1)^k C(m+2,k): the binomial transform of (-1)^k T_{k-1}, advanced by 2.
_FIRST_TERM = _combo(22, (_scaled(3, 2), {1: 2, 0: 1, -1: 5}))
_U_BINOMIAL = _combo(1, (_binomial(_combo(1, (_scaled(3, -1), {-1: -1}))), {2: 1}))

_CLAIMS = {claim.id: claim for claim in (
    Claim("fib.closed_form",
          "sum C(n,k) F_k F_{n-k} equals (-2 + 2^n L_n)/5 with Lucas numbers (2, 1, ...)",
          "pass", _termwise(_brute(2, 2), _combo(
              5, (_scaled(SequenceSpec(2, (1, 1), (2, 1)), 2), {0: 1}),
              (_scaled(SequenceSpec(1, (1,), (1,))), {0: -2})))),
    Claim("fib.diag.printed",
          "Transcribed diagonal GF z^2/((1-z)(1-2z-4z^2)) vs the brute-force "
          "Fibonacci self-convolution",
          "fail", _termwise(_rat("fib.diag.printed"), _brute(2, 2)),
          note="recomputation shows the transcribed form is off by a factor 2; "
               "2 * printed equals the brute-force GF as a rational-function identity"),
    Claim("fib.H.printed",
          "Transcribed double GF vs the brute-force convolution grid",
          "fail", lambda n, convention: _cellwise(
              printed_gf("fib.H.printed"), printed_gf("fib.H.derived"), _fib_grid),
          note="the transcribed denominator's x^2*y and x^2*y^2 signs differ from the "
               "derived construction; first grid disagreement is at x^3*y^3"),
    Claim("trib.diag.printed",
          "Transcribed two-term diagonal GF vs the brute-force Tribonacci "
          "self-convolution",
          "pass", _termwise(_rat("trib.diag.printed"), _brute(3, 3)), CONVENTIONS),
    Claim("trib.first_term",
          "Coefficient formula (1/11)(2^(n+1) T_{n+1} + (1/2) 2^n T_n + (5/2) 2^(n-1) "
          "T_{n-1}) vs the series of (1/11)(1+z+10z^2)/(1-2z-4z^2-8z^3)",
          "either", _termwise(_rat("trib.diag.term1"), _FIRST_TERM), CONVENTIONS,
          note="recomputation finds the first disagreement at n=0 under both conventions "
               "(series term 1/11 vs formula values 2/11 under B and 5/22 under A); "
               "at n=2 the series term is 20/11 and the formula gives 23/11 under B "
               "and 41/11 under A"),
    Claim("trib.U_binomial",
          "U_m = sum_{k>=1} T_{k-1} (-1)^k C(m+2,k) with U the series of 1/(1-2z+2z^3)",
          "pass", _termwise(_U, _U_BINOMIAL), CONVENTIONS),
    Claim("trib.second_term",
          "Coefficient n of (1/11)(1+z-8z^2)/(1-2z+2z^3) equals "
          "(1/11)(U_n + U_{n-1} - 8 U_{n-2})",
          "pass", _termwise(_rat("trib.second_term"), _combo(11, (_U, {0: 1, -1: 1, -2: -8})))),
    Claim("trib.U_gf_identity",
          "z^3/(1-z-z^2-z^3) at z = -x/(1-x) equals -x^3/(1-2x+2x^3), proved "
          "termwise",
          "pass", _termwise(_rat(lambda: compose_rational(
              parse_ratfunc("z^3/(1-z-z^2-z^3)"), Poly("x", [0, -1]), Poly("x", [1, -1]))),
              _rat(lambda: parse_ratfunc("-x^3/(1-2*x+2*x^3)")))),
    Claim("tetra.diag.printed",
          "Transcribed Tetranacci diagonal GF vs the brute-force self-convolution",
          "pass", _termwise(_rat("tetra.diag.printed"), _brute(4, 4)), CONVENTIONS),
    Claim("penta.diag.printed",
          "Transcribed Pentanacci diagonal GF vs the brute-force self-convolution",
          "pass", _termwise(_rat("penta.diag.printed"), _brute(5, 5)), CONVENTIONS,
          note="verified at build time: passes under convention B (shifted), "
               "fails under convention A"),
    Claim("trib.arbitrary_init",
          "Smoke claim: the residue diagonal of a custom-initial (1, 0, 2) Tribonacci "
          "convolution GF equals the brute-force self-convolution, proved termwise",
          "pass", _termwise(_rat(lambda: diagonal_rational(
              build_convolution_gf(_CUSTOM, _CUSTOM).F, check_terms=0)[0]),
              _brute(_CUSTOM, _CUSTOM))),
)}


def claim_ids() -> list[str]:
    return sorted(_CLAIMS)


def get_claim(claim_id: str) -> Claim:
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim id: {claim_id}")
    return _CLAIMS[claim_id]


def run_claim(claim_id: str, n: int = 200) -> ClaimReport:
    """Run one claim, comparing at least n + 1 terms where it is termwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    claim = get_claim(claim_id)
    start = time.perf_counter()
    results = {c: claim.check(n, c) for c in claim.conventions or (None,)}
    passing = [c for c, hit in results.items() if hit is None]
    # A failing claim surfaces the first convention's witness; all are in `conventions`.
    lead = None if passing else next(iter(results.values()))
    note = claim.note
    if claim.conventions:
        failing = ", ".join(c for c in claim.conventions if c not in passing)
        verdicts = (f"passes under convention {', '.join(passing)}"
                    + (failing and f"; fails under {failing}") if passing
                    else "fails under every convention")
        note = f"{verdicts}. {note}".strip()
    status = "pass" if passing else "fail"
    matched = claim.expected_status == "either" or status == claim.expected_status
    return ClaimReport(claim.id, status, *(lead or (None,) * 3),
                       int((time.perf_counter() - start) * 1000), claim.expected_status,
                       matched, note, results if claim.conventions else None)


def run_all(n: int = 200) -> list[ClaimReport]:
    """Run every claim, ordered by id; deterministic outcome fields."""
    return [run_claim(claim_id, n) for claim_id in claim_ids()]
