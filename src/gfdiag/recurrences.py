"""Minimal linear recurrence detection over the rationals.

Berlekamp-Massey over the field of fractions finds the shortest
constant-coefficient recurrence consistent with all supplied terms.
Detection never leaves exact arithmetic; pivoting concerns do not arise
because every nonzero discrepancy is usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import as_fraction
from .ratfunc import RatFunc
from .series import SequenceSpec, Series, series_of_rational


def _berlekamp_massey(s: Sequence[Fraction]) -> tuple[list[Fraction], int]:
    # Connection polynomial C with C[0] = 1 and sum_i C[i] s[n-i] = 0.
    C = [Fraction(1)]
    B = [Fraction(1)]
    L = 0
    m = 1
    b = Fraction(1)
    for n in range(len(s)):
        d = s[n]
        for i in range(1, L + 1):
            if i < len(C) and C[i]:
                d += C[i] * s[n - i]
        if d == 0:
            m += 1
            continue
        coef = d / b
        new_c = C + [Fraction(0)] * max(0, len(B) + m - len(C))
        for i, bi in enumerate(B):
            new_c[i + m] -= coef * bi
        if 2 * L <= n:
            B = C
            C = new_c
            L = n + 1 - L
            b = d
            m = 1
        else:
            C = new_c
            m += 1
    return C, L


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
