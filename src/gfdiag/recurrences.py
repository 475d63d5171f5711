"""Minimal linear recurrence detection over the rationals.

Berlekamp-Massey finds the shortest constant-coefficient recurrence
consistent with all supplied terms.  It runs fraction-free on the terms
cleared to integers.  Each update is b*C - d*x^m*B, with the content
divided out, and only the final connection polynomial becomes Fractions.
Detection never leaves exact arithmetic.  Pivoting concerns do not arise,
because every nonzero discrepancy is usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .poly import _cleared, as_fraction
from .ratfunc import RatFunc
from .series import SequenceSpec, Series, series_of_rational


def _berlekamp_massey(s: Sequence[Fraction]) -> tuple[list[Fraction], int]:
    # Connection polynomial C with C[0] = 1 and sum_i C[i] s[n-i] = 0, found
    # fraction-free: on the terms cleared by their common denominator den, C
    # and B are integer multiples of the field algorithm's polynomials,
    # b*C - d*x^m*B is a multiple of its update C - (d/b)*x^m*B, and the
    # content is divided out with C[0] > 0.  The initial b is den, the field
    # algorithm's 1 at the scale of the cleared terms, so that C also agrees
    # where too few terms determine it.
    ints, b = _cleared(s)
    C = [1]
    B = [1]
    L = 0
    m = 1
    for n in range(len(ints)):
        d = sum(map(mul, C[:L + 1], ints[n::-1]))
        if d == 0:
            m += 1
            continue
        new_c = [b * c for c in C] + [0] * max(0, len(B) + m - len(C))
        for i, bi in enumerate(B):
            new_c[i + m] -= d * bi
        g = gcd(*new_c) if new_c[0] > 0 else -gcd(*new_c)
        new_c = [v // g for v in new_c]
        if 2 * L <= n:
            B = C
            C = new_c
            L = n + 1 - L
            b = d
            m = 1
        else:
            C = new_c
            m += 1
    return [Fraction(c, C[0]) for c in C], L


def find_min_recurrence(terms: Sequence[Fraction]) -> SequenceSpec | None:
    """Minimal-order recurrence consistent with ALL supplied terms.

    Returns None unless 2*order < len(terms): an order-L recurrence fits
    almost any 2L terms, so they are no evidence for it.
    Callers wanting a margin should supply at least 2*r_max + 20 terms
    (confidence = len - 2*order, always positive here).
    """
    if len(terms) < 4:
        raise ValueError("need at least 4 terms")
    s = [as_fraction(t) for t in terms]
    C, L = _berlekamp_massey(s)
    if 2 * L >= len(s):
        return None
    coeffs = tuple(-C[i] if i < len(C) else Fraction(0) for i in range(1, L + 1))
    return SequenceSpec(L, coeffs, tuple(s[:L]))


@dataclass(frozen=True)
class AgreementReport:
    agrees: bool
    first_mismatch: int | None
    lhs: Fraction | None = None
    rhs: Fraction | None = None


def certify_agreement(f: RatFunc, terms: Sequence[Fraction]) -> AgreementReport:
    """Compare the series of f against the given terms, exactly."""
    expected = [as_fraction(t) for t in terms]
    got: Series = series_of_rational(f, len(expected))
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return AgreementReport(False, i, a, b)
    return AgreementReport(True, None)
