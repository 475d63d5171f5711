"""Minimal linear recurrence detection over the rationals.

Berlekamp-Massey finds the shortest constant-coefficient recurrence
consistent with all supplied terms.  It runs fraction-free on the terms
cleared to integers.  Each update is b*C - d*x^m*B, with the content
divided out, and only the final connection polynomial becomes Fractions.
Detection never leaves exact arithmetic.  Pivoting concerns do not arise,
because every nonzero discrepancy is usable.  convolution_terms uses it to
extend a binomial convolution of two recurrence sequences from the few
terms that determine its recurrence.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .poly import _cleared, as_fraction
from .series import SequenceSpec, binomial_convolution_sequence, generate_sequence


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
    rec = _shortest_recurrence(s)
    return rec if 2 * rec.order < len(s) else None


def _shortest_recurrence(s: Sequence[Fraction]) -> SequenceSpec:
    """The shortest recurrence that generates all of s, with no evidence rule."""
    C, L = _berlekamp_massey(s)
    coeffs = tuple(-C[i] if i < len(C) else Fraction(0) for i in range(1, L + 1))
    return SequenceSpec(L, coeffs, tuple(s[:L]))


def convolution_terms(a: SequenceSpec, b: SequenceSpec, n: int) -> list[Fraction]:
    """First n terms of the binomial convolution sum_k C(j,k) a_k b_{j-k}.

    Only the first 2D terms, D = a.order * b.order, are Pascal sums
    (binomial_convolution_sequence, O(D^2) products).  Berlekamp-Massey on
    them gives the convolution's minimal recurrence, of order L <= D, and
    generate_sequence extends it: the series of N/C, C the connection
    polynomial and N = C * head truncated below degree L, by the one
    division kernel at most D steps a term.

    Why D bounds the order: on exponential generating functions the shift
    of a sequence's index is the derivative d/dz, and the convolution's EGF
    is the product of the EGFs of a and b.  The EGF of a is killed by the
    characteristic polynomial P_a(d/dz), so it lies in that operator's
    solution space, of dimension a.order; likewise for b.  The span of the
    products f*g of the two solution spaces is closed under d/dz by the
    product rule and has dimension at most D.  So the minimal polynomial of
    d/dz on it, of degree at most D, kills the convolution's EGF: the
    convolution satisfies a recurrence of order at most D.  None of this
    needs distinct or nonzero roots, and it holds over the rationals.  By
    Massey's theorem (IEEE Trans. Inf. Theory 15, 1969), a sequence with a
    recurrence of order L <= D has exactly one shortest recurrence for its
    first 2D terms, and Berlekamp-Massey returns it: it is the sequence's.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = min(n, 2 * a.order * b.order)
    head = binomial_convolution_sequence(generate_sequence(a, m), generate_sequence(b, m), m)
    if m == n:
        return head
    return generate_sequence(_shortest_recurrence(head), n)

