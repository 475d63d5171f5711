"""Seeded workload generators: each op is a gfdiag argv plus its output check.

A workload is one pass, a list of ops built from a seed.  The same seed
gives the same argv list.  Expected outputs come from oracles.py and are
computed here, before any timing.  Option values are passed in
"--opt=value" form, because argparse reads a separate value that starts
with "-" (such as "--init -1,2") as another flag.

A check takes the exit code and standard output of one op and returns
None when the output is right, else a short reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import oracles

WORKLOADS = ("residue", "diagonal-default", "univariate")

# (order of a, order of b) of the residue workload's convolutions; b's order
# is the kept t-degree.  Each pass draws RESIDUE_BLOCKS convolutions of every
# pair, all with distinct roots.  The pairs keep a pass steady from seed to
# seed: (3, 4) and (4, 4) take 1.7 s and 3.5 s per op with a long tail and
# would set most of the spread on their own, and (2, 2) at 0.2 s would put
# the median op on the edge between two groups of op times instead of
# inside the 0.3-0.4 s group.
CONVOLUTION_ORDERS = ((3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4))
RESIDUE_BLOCKS = 3
# Convolutions whose b recurrence has a repeated root, one kept factor of
# multiplicity 2 each: two in twenty, about the rate at which coefficients
# drawn from [-2, 2] produce one.
REPEATED_ROOT_ORDERS = ((3, 2), (2, 3))

# The univariate pass: denominator degrees of its expand ops, alternately
# integer and rational, and the recurrence orders of its convolve and
# guess-gf ops.  Fixed shapes keep the pass steady from seed to seed; with
# 10 ops a pass's op_tail_s is its slowest op.
EXPAND_DEGREES = (4, 7, 10, 13, 16, 20)
CONVOLVE_ORDERS = (5,)
GUESS_ORDERS = (3, 7)

EXIT_OK = 0
EXIT_METHOD = 4
VIOLATED = "method-assumption-violated"


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _gf_reason(label: str, part: dict, truth: Sequence) -> str | None:
    if part.get("recurrence_order", 0) is None:
        return f"{label}: no generating function reported"
    bad = oracles.gf_mismatch(part["numerator"], part["denominator"], truth)
    return None if bad is None else f"{label} GF wrong at term {bad}"


def check_diagonal(rc: int, out: str, *, method: str, truth: Sequence,
                   rational: bool) -> str | None:
    """A rational diagonal must be reported right by every route run.

    An algebraic diagonal must be refused by the residue route (exit 4,
    method-assumption-violated); any series GF reported for it must still
    agree with the truth, and "no recurrence" is the right answer there.
    """
    expected_rc = EXIT_OK if rational else EXIT_METHOD
    if rc != expected_rc:
        return f"exit {rc}, expected {expected_rc}"
    p = json.loads(out)
    if method in ("residue", "both"):
        status = p["residue"]["crosscheck"]["status"]
        if not rational:
            if status != VIOLATED:
                return f"residue status {status!r}, expected {VIOLATED!r}"
        elif status != "ok":
            return f"residue status {status!r}"
        elif (reason := _gf_reason("residue", p["residue"], truth)):
            return reason
    if method in ("series", "both"):
        series = p["series"]
        if rational or series["recurrence_order"] is not None:
            if (reason := _gf_reason("series", series, truth)):
                return reason
    if method == "both" and rational and p["match"] is not True:
        return "routes reported as not matching"
    return None


def check_expand(rc: int, out: str, *, num: Sequence[Fraction], den: Sequence[Fraction],
                 n: int) -> str | None:
    if rc != EXIT_OK:
        return f"exit {rc}"
    coeffs = json.loads(out)["coefficients"]
    if len(coeffs) != n:
        return f"{len(coeffs)} coefficients, expected {n}"
    bad = oracles.series_text_matches(num, den, coeffs)
    return None if bad is None else f"coefficient {bad} wrong"


def check_convolve(rc: int, out: str, *, truth: Sequence[int]) -> str | None:
    if rc != EXIT_OK:
        return f"exit {rc}"
    got = json.loads(out)["convolution"]
    want = [str(v) for v in truth]
    if len(got) != len(want):
        return f"{len(got)} terms, expected {len(want)}"
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    return None if bad is None else f"term {bad} wrong"


def check_guess(rc: int, out: str, *, truth: Sequence[int]) -> str | None:
    if rc != EXIT_OK:
        return f"exit {rc}"
    p = json.loads(out)
    if p["order"] is None:
        return "no recurrence reported"
    return _gf_reason("guess-gf", p, truth)


def check_verify(rc: int, out: str, *, claims: int) -> str | None:
    if rc != EXIT_OK:
        return f"exit {rc}"
    reports = json.loads(out)["reports"]
    matched = sum(r["matched_expected"] for r in reports)
    return None if matched == len(reports) == claims else f"{matched}/{len(reports)} claims matched"


# ---------------------------------------------------------------------------
# Input text
# ---------------------------------------------------------------------------

def poly_text(coeffs: Sequence, mono: Callable[[int], str]) -> str:
    """Text of sum(coeffs[k] * mono(k)), non-integer coefficients parenthesised."""
    parts = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        mag_text = str(mag) if mag.denominator == 1 else f"({mag})"
        if k == 0:
            body = mag_text
        else:
            body = mono(k) if mag == 1 else f"{mag_text}*{mono(k)}"
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text.startswith("+") else text


def _z(k: int) -> str:
    return "z" if k == 1 else f"z^{k}"


def _xy(k: int) -> str:
    return "x*y" if k == 1 else f"x^{k}*y^{k}"


def random_recurrence(rng: random.Random, order: int,
                      repeated_root: bool = False) -> tuple[list[int], list[int]]:
    """Small integer coefficients and nonzero initial terms.

    The characteristic polynomial 1 - c_1*y - ... - c_k*y^k has a repeated
    root exactly when repeated_root is set.  Such a recurrence is the
    sequence half of a repeated kept factor; drawing it on purpose, instead
    of by chance, gives every pass the same number of them.
    """
    if repeated_root:
        char = [1, -2 * rng.choice((-1, 1)), 1]             # (1 -+ y)^2
        cofactor = [1] + [rng.randint(-1, 1) for _ in range(order - 2)]
        if order > 2 and cofactor[-1] == 0:
            cofactor[-1] = rng.choice((-1, 1))
        char = [sum(char[i] * cofactor[k - i] for i in range(3) if 0 <= k - i < len(cofactor))
                for k in range(order + 1)]
        coeffs = [-c for c in char[1:]]
    else:
        while True:
            coeffs = [rng.randint(-2, 2) for _ in range(order)]
            if coeffs[-1] == 0:
                coeffs[-1] = rng.choice((-1, 1))
            if not oracles.has_repeated_root([1] + [-c for c in coeffs]):
                break
    initial = [rng.randint(-3, 3) for _ in range(order)]
    if not any(initial):
        initial[0] = 1
    return coeffs, initial


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v != 0])


# ---------------------------------------------------------------------------
# Diagonal ops
# ---------------------------------------------------------------------------

def _diagonal_op(kind: str, source: str, method: str, n: int, truth: Sequence,
                 rational: bool = True) -> Op:
    argv = ("diagonal", source, f"--method={method}", f"--n={n}", "--json")
    return Op(kind, argv, partial(check_diagonal, method=method, truth=truth,
                                  rational=rational))


def convolution_op(rng: random.Random, ka: int, kb: int, method: str, n: int,
                   repeated_root: bool = False) -> Op:
    """Diagonal of build_convolution_gf(a, b); b's order sets the kept t-degree."""
    from gfdiag.gfbuild import build_convolution_gf
    from gfdiag.series import SequenceSpec

    ca, ia = random_recurrence(rng, ka)
    cb, ib = random_recurrence(rng, kb, repeated_root)
    F = build_convolution_gf(SequenceSpec(ka, tuple(ca), tuple(ia)),
                             SequenceSpec(kb, tuple(cb), tuple(ib))).F
    a = oracles.recurrence_terms(ca, ia, 2 * n)
    b = oracles.recurrence_terms(cb, ib, 2 * n)
    return _diagonal_op(f"conv.deg{kb}", f"--gf-text={F}", method, n,
                        oracles.binomial_convolution(a, b, 2 * n))


def catalog_op(catalog_id: str, order: int, method: str, n: int) -> Op:
    """Catalog self-convolution of the shifted k-bonacci sequence."""
    initial = [0, 1]
    while len(initial) < order:
        initial.append(sum(initial))
    terms = oracles.recurrence_terms([1] * order, initial, 2 * n)
    return _diagonal_op(f"catalog.{catalog_id}", f"--catalog={catalog_id}", method, n,
                        oracles.binomial_convolution(terms, terms, 2 * n))


def xy_only_op(rng: random.Random, method: str, n: int) -> Op:
    """P(x*y)/Q(x*y), whose diagonal is P(z)/Q(z)."""
    den = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
    den[-1] = den[-1] or 1
    num = [_nonzero(rng, -3, 3)] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 1))]
    text = f"({poly_text(num, _xy)})/({poly_text(den, _xy)})"
    return _diagonal_op("xy-only", f"--gf-text={text}", method, n,
                        oracles.taylor(num, den, 2 * n))


def monomial_op(rng: random.Random, method: str, n: int, origin_pole: bool) -> Op:
    """x^i*y^j/((1-a*x)*(1-b*y)); i < j exactly when there is a pole at t = 0."""
    if origin_pole:
        j = rng.randint(1, 3)
        i = rng.randint(0, j - 1)
    else:
        i = rng.randint(0, 3)
        j = rng.randint(0, i)
    a, b = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
    mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e) or "1"
    text = f"{mono}/(({poly_text([1, -a], lambda k: 'x')})*({poly_text([1, -b], lambda k: 'y')}))"
    return _diagonal_op("monomial", f"--gf-text={text}", method, n,
                        oracles.diagonal_of_monomial_product(i, j, a, b, 2 * n))


def repeated_op(rng: random.Random, method: str, n: int) -> Op:
    """1/((1-a*x)*(1-b*y)^2), a kept factor of multiplicity 2."""
    a, b = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
    text = (f"1/(({poly_text([1, -a], lambda k: 'x')})"
            f"*({poly_text([1, -b], lambda k: 'y')})^2)")
    return _diagonal_op("repeated", f"--gf-text={text}", method, n,
                        oracles.diagonal_of_repeated_factor(a, b, 2 * n))


def algebraic_op(rng: random.Random, method: str, n: int) -> Op:
    """1/(1-x-y): the diagonal 1/sqrt(1-4z) is not rational."""
    return _diagonal_op("algebraic", "--gf-text=1/(1-x-y)", method, n,
                        oracles.central_binomials(2 * n), rational=False)


# The residue workload's non-convolution inputs: one of each kind, the
# monomial without a pole at t = 0 and a second function of x*y.
NON_CONVOLUTION = (xy_only_op, partial(monomial_op, origin_pole=True), repeated_op,
                   algebraic_op, partial(monomial_op, origin_pole=False), xy_only_op)


# ---------------------------------------------------------------------------
# Univariate ops
# ---------------------------------------------------------------------------

def expand_op(rng: random.Random, degree: int, rational: bool, n: int = 2000) -> Op:
    """expand of num/den, den of the given degree with constant term 1.

    Every coefficient is nonzero, from {-2, -1, 1, 2} or, for rational
    inputs, {-3/2, -1/2, 1/2, 3/2}, so the cost follows the degree.  The
    printed coefficients stay well within Python's 4300-digit limit on
    integer-to-text conversion.
    """
    def coeff() -> Fraction:
        return Fraction(rng.choice((-3, -1, 1, 3)), 2) if rational else Fraction(
            rng.choice((-2, -1, 1, 2)))

    den = [Fraction(1)] + [coeff() for _ in range(degree)]
    num = [coeff() for _ in range(rng.randint(1, 4))]
    text = f"({poly_text(num, _z)})/({poly_text(den, _z)})"
    return Op("expand.rational" if rational else "expand.integer",
              ("expand", text, f"--n={n}", "--json"),
              partial(check_expand, num=num, den=den, n=n))


def convolve_op(rng: random.Random, order: int, n: int = 1000) -> Op:
    """Binomial self-convolution of an order-k k-bonacci recurrence.

    The recurrence keeps convolve's default coefficients (all 1), so the
    cost is set by the order; the initial terms are drawn from [-3, 3].
    """
    initial = [rng.randint(-3, 3) for _ in range(order)]
    if not any(initial):
        initial[0] = 1
    terms = oracles.recurrence_terms([1] * order, initial, n)
    argv = ("convolve", f"--k={order}", f"--init={','.join(map(str, initial))}",
            f"--n={n}", "--json")
    return Op("convolve", argv,
              partial(check_convolve, truth=oracles.binomial_convolution(terms, terms, n)))


def guess_op(rng: random.Random, order: int) -> Op:
    """guess-gf on 2d+40 terms of an order-d sequence, checked over twice that."""
    coeffs, initial = random_recurrence(rng, order)
    count = 2 * order + 40
    truth = oracles.recurrence_terms(coeffs, initial, 2 * count)
    argv = ("guess-gf", f"--terms={','.join(map(str, truth[:count]))}", "--json")
    return Op("guess-gf", argv, partial(check_guess, truth=truth))


def verify_op(n: int = 200, claims: int = 11) -> Op:
    return Op("verify", ("verify", "--all", f"--n={n}", "--json"),
              partial(check_verify, claims=claims))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _residue(rng: random.Random) -> list[Op]:
    method, n = "residue", 40
    ops = [convolution_op(rng, ka, kb, method, n)
           for _block in range(RESIDUE_BLOCKS) for ka, kb in CONVOLUTION_ORDERS]
    ops += [convolution_op(rng, ka, kb, method, n, repeated_root=True)
            for ka, kb in REPEATED_ROOT_ORDERS]
    return ops + [make(rng, method, n) for make in NON_CONVOLUTION]


def _diagonal_default(rng: random.Random) -> list[Op]:
    method, n = "both", 200
    # tetra.G (about 19 s) and penta.G (about 55 s) would leave room for
    # too few passes in a run; trib.G takes about 8 s.  The t = 0 inputs are
    # left to residue: at n = 200 a function of x*y costs 1 to 2 s by its
    # coefficients, which would move the median op from seed to seed.
    return ([catalog_op("trib.G", 3, method, n)]
            + [make(rng, method, n) for make in (repeated_op, algebraic_op)])


def _univariate(rng: random.Random) -> list[Op]:
    ops = [verify_op()] + [convolve_op(rng, order) for order in CONVOLVE_ORDERS]
    ops += [expand_op(rng, degree, rational=bool(i % 2))
            for i, degree in enumerate(EXPAND_DEGREES)]
    ops += [guess_op(rng, order) for order in GUESS_ORDERS]
    return ops


_PASS_MAKERS = {"residue": _residue, "diagonal-default": _diagonal_default,
             "univariate": _univariate}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, in a seed-determined order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _PASS_MAKERS[workload](rng)
    rng.shuffle(ops)
    return ops
