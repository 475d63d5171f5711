"""Truncated power series expansion and brute-force sequence oracles.

Every sequence here, a Taylor series, a diagonal, the terms of a
recurrence or of a convolution, is a plain list of Fractions: entry n is
the coefficient of var^n, and the variable is the caller's to name.

Everything here is exact.  The inner loops run on Python ints, not on
Fraction, and build the Fraction results only at the end.  A polynomial
is already an integer part times a rational content (see gfdiag.poly):
the Taylor division recurrence (one or two variables) reads the integer
parts and folds the contents into one rational scale.  The Pascal-row
sums take sequences, whose denominators are cleared once.  Division by
the constant term d0 of the denominator is deferred by carrying
e_k = c_k * d0^(k+1), where k is the total degree, so the recurrence
needs no division at all.

A linear recurrence is division by its characteristic polynomial: the
terms of a SequenceSpec are the series of P/Q, Q = 1 - sum c_i z^i, so
generate_sequence runs the same univariate kernel as series_of_rational.

The bivariate grid never expands the denominator.  The numerator product
is expanded once on the nx x ny box, and the box is divided in place by
one denominator factor at a time, m times for multiplicity m, each factor
with its own integer coefficients.  A few sparse factors cost fewer steps
per row than their expanded product.  Once the factors' constant terms
multiply to D, the box carries c * D^(n+m+1): the series at (D*x, D*y),
times D.  So the next factor enters with its (i, j) coefficient times
D^(i+j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .poly import AnyPoly, Poly, _cleared, as_fraction
from .ratfunc import RatFunc


class PoleAtOriginError(ArithmeticError):
    """The denominator vanishes at the expansion point."""


@dataclass(frozen=True)
class SequenceSpec:
    """Order-k constant-coefficient recurrence with initial terms.

    a_n = initial[n] for n < k, else sum(coeffs[i] * a_{n-1-i}).
    The all-ones default coefficients give the k-bonacci family; order 0
    is the zero sequence.
    """

    order: int
    coeffs: tuple[Fraction, ...] = ()
    initial: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        coeffs = tuple(as_fraction(c) for c in (self.coeffs or (1,) * self.order))
        initial = tuple(as_fraction(c) for c in self.initial)
        if len(coeffs) != self.order:
            raise ValueError(f"need {self.order} recurrence coefficients, got {len(coeffs)}")
        if len(initial) != self.order:
            raise ValueError(f"need {self.order} initial terms, got {len(initial)}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "initial", initial)


def kbonacci(k: int, shifted: bool = False) -> SequenceSpec:
    """The k-bonacci sequence under either index convention.

    shifted=False: generating function 1/(1 - z - ... - z^k), a_0 = 1.
    shifted=True:  generating function z/(1 - z - ... - z^k), a_0 = 0.
    """
    num = Poly("z", [0, 1] if shifted else [1])
    initial = _series_div(num, Poly("z", [1] + [-1] * k), k)
    return SequenceSpec(k, (Fraction(1),) * k, tuple(initial))


def _gf_parts(spec: SequenceSpec, var: str) -> tuple[Poly, Poly]:
    """(P, Q) with Q = 1 - sum coeffs[i] var^(i+1) and P/Q the GF of spec.

    P is Q times the initial terms, truncated below degree spec.order.
    """
    den = Poly(var, [Fraction(1)] + [-v for v in spec.coeffs])
    num = den * Poly(var, spec.initial)
    return Poly.from_ints(var, num.prim[:spec.order], num.content), den


def generate_sequence(spec: SequenceSpec, n: int) -> list[Fraction]:
    """First n terms of the sequence defined by spec, exactly.

    They are the series of its generating function P/Q, so they come from
    the one division kernel; Q(0) = 1, and P/Q needs no reduction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _series_div(*_gf_parts(spec, "z"), n)


def gf_of_sequence(spec: SequenceSpec, var: str = "z") -> RatFunc:
    """Rational generating function P(z)/(1 - sum coeffs[i] z^(i+1)).

    Only the numerator depends on the initial terms.
    """
    num, den = _gf_parts(spec, var)
    if num.is_zero:
        return RatFunc.zero()
    return RatFunc(1, [(num, 1)], [(den, 1)])


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------

def _solve_row(e: list[int], steps: Sequence[tuple[int, int]]) -> list[int]:
    """In place, for m ascending: e[m] -= sum of v * e[m - j] over steps (j, v), j <= m.

    steps is sorted by j, and every j is at least 1.
    """
    for m in range(len(e)):
        acc = e[m]
        for j, v in steps:
            if j > m:
                break
            acc -= v * e[m - j]
        e[m] = acc
    return e


def _unscaled(e: list[int], d0: int, den: int) -> list[Fraction]:
    """[e[m] / (den * d0^m)]: the division the integer recurrence deferred."""
    if d0 == 1:
        return [Fraction(v) for v in e] if den == 1 else [Fraction(v, den) for v in e]
    out = []
    for v in e:
        out.append(Fraction(v, den))
        den *= d0
    return out


# ---------------------------------------------------------------------------
# Univariate expansion
# ---------------------------------------------------------------------------

def _series_div(num: Poly, den: Poly, n: int) -> list[Fraction]:
    # den(0) != 0.  On the primitive parts, the recurrence runs on
    # e[m] = out[m] * d0^(m+1) / s, s the ratio of the contents, whose terms
    # are num[m] * d0^m and den[i] * d0^(i-1).
    s = num.content / den.content
    d0 = den.prim[0]
    e = [v * s.numerator * d0 ** m for m, v in enumerate(num.prim[:n])]
    e += [0] * (n - len(e))
    steps = [(i, v * d0 ** (i - 1)) for i, v in enumerate(den.prim) if i and v]
    return _unscaled(_solve_row(e, steps), d0, d0 * s.denominator)


def series_of_rational(f: RatFunc, n: int) -> list[Fraction]:
    """First n Taylor coefficients of a univariate rational function."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not f.is_univariate:
        raise ValueError("series_of_rational requires a univariate function")
    if f.is_zero:
        return [Fraction(0)] * n
    num, den = f.reduced_fraction()
    if den.coeff(0) == 0:
        raise PoleAtOriginError("pole at the origin")
    return _series_div(num, den, n)


# ---------------------------------------------------------------------------
# Bivariate expansion and the diagonal
# ---------------------------------------------------------------------------

_Terms = list[tuple[int, int, int]]


def _int_terms(p: AnyPoly) -> tuple[_Terms, Fraction]:
    """(terms, s) with p = s * sum of v * outer^i * inner^j over terms (i, j, v).

    The integer coefficients are primitive; a Poly's variable is the outer one.
    """
    if isinstance(p, Poly):
        return [(i, 0, v) for i, v in enumerate(p.prim) if v], p.content
    s, rows = p.int_rows()
    return [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v], s


def _numerator_box(factors: Sequence[tuple[_Terms, int]], first: int,
                   nx: int, ny: int) -> list[list[int]]:
    """first times the product of the (terms, multiplicity) pairs, truncated to nx x ny."""
    prod = {(0, 0): first}
    for terms, m in factors:
        for _ in range(m):
            nxt: dict[tuple[int, int], int] = {}
            for (a, b), u in prod.items():
                for i, j, v in terms:
                    if a + i < nx and b + j < ny:
                        nxt[a + i, b + j] = nxt.get((a + i, b + j), 0) + u * v
            prod = nxt
    box = [[0] * ny for _ in range(nx)]
    for (i, j), v in prod.items():
        box[i][j] = v
    return box


def _divide_box(box: list[list[int]], terms: _Terms, f0: int, d: int) -> None:
    """Divide box in place by the factor sum v * outer^i * inner^j over terms.

    f0 is the factor's constant term.  box holds the series at
    (d*outer, d*inner) times d: entry [n][m] carries c[n][m] * d^(n+m+1).
    So does the result, with d*f0 in place of d.  At (d*outer, d*inner)
    the factor's coefficients are v * d^(i+j), and the recurrence runs as
    in _series_div: on the box scaled by f0^(n+m), with the terms
    v * d^(i+j) * f0^(i+j-1).
    """
    if f0 != 1:
        powers = [f0 ** k for k in range(len(box) + len(box[0]))]
        for n, row in enumerate(box):
            row[:] = [v * powers[n + m] if v else 0 for m, v in enumerate(row)]
    # monomials() order: the i = 0 terms come sorted by j, as _solve_row needs.
    steps = [(i, j, v * d ** (i + j) * f0 ** (i + j - 1)) for i, j, v in terms if i + j]
    inner = [(j, v) for i, j, v in steps if i == 0]
    outer = [(i, j, v) for i, j, v in steps if i > 0]
    for n, row in enumerate(box):
        for i, j, v in outer:
            if i > n:
                continue
            prev = box[n - i]
            # Most catalog factors have unit coefficients: skip multiplying by them.
            if v == 1:
                row[j:] = [a - b for a, b in zip(row[j:], prev)]
            elif v == -1:
                row[j:] = [a + b for a, b in zip(row[j:], prev)]
            else:
                row[j:] = [a - v * b for a, b in zip(row[j:], prev)]
        if inner:
            _solve_row(row, inner)


def bivariate_series(f: RatFunc, nx: int, ny: int) -> list[list[Fraction]]:
    """Coefficient grid c[n][m] of outer^n * inner^m for n < nx, m < ny.

    The numerator product is expanded once on the box, which is then
    divided by each denominator factor in turn, m times for multiplicity m.
    """
    if f.is_zero:
        return [[Fraction(0)] * ny for _ in range(nx)]
    scale = f.constant
    numer = []
    for p, m in f.numer:
        terms, s = _int_terms(p)
        numer.append((terms, m))
        scale *= s ** m
    denom = []
    for p, m in f.denom:
        terms, s = _int_terms(p)
        f0 = next((v for i, j, v in terms if i == j == 0), 0)
        if f0 == 0:
            raise PoleAtOriginError("pole at the origin")
        denom.append((terms, f0, m))
        scale /= s ** m
    if not (nx and ny):
        return [[Fraction(0)] * ny for _ in range(nx)]
    box = _numerator_box(numer, scale.numerator, nx, ny)
    d = 1
    for terms, f0, m in denom:
        for _ in range(m):
            _divide_box(box, terms, f0, d)
            d *= f0
    return [_unscaled(row, d, scale.denominator * d ** (n + 1)) for n, row in enumerate(box)]


def diagonal_series(f: RatFunc, n: int) -> list[Fraction]:
    """The first n diagonal terms: entry i is the coefficient of outer^i * inner^i."""
    grid = bivariate_series(f, n, n)
    return [grid[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Binomial convolutions (the brute-force oracles)
# ---------------------------------------------------------------------------

def pascal_rows(limit: int) -> Iterator[list[int]]:
    """Yield rows 0..limit-1 of Pascal's triangle as exact integers."""
    row = [1]
    for _ in range(limit):
        yield row
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def _pascal_sum(row: list[int], a: list[int], b: list[int], m: int) -> int:
    """sum_k C(n,k) a_k b_{m-k} over k <= min(n, m), for row n of Pascal's triangle."""
    return sum(map(mul, row, map(mul, a, b[m::-1])))


def binomial_convolution_sequence(a: Sequence[Fraction], b: Sequence[Fraction],
                                  count: int) -> list[Fraction]:
    """[sum_k C(n,k) a_k b_{n-k} for n in range(count)], sharing Pascal rows."""
    if len(a) < count or len(b) < count:
        raise ValueError(f"need at least {count} terms")
    (ia, la), (ib, lb) = _cleared(a[:count]), _cleared(b[:count])
    return [Fraction(_pascal_sum(row, ia, ib, n), la * lb)
            for n, row in enumerate(pascal_rows(count))]


def convolution_grid(a: Sequence[Fraction], b: Sequence[Fraction],
                     nn: int, nm: int) -> list[list[Fraction]]:
    """h[n][m] = sum_k C(n,k) a_k b_{m-k}; b out of range contributes 0."""
    if len(a) < nn:
        raise ValueError(f"need at least {nn} terms of a")
    if len(b) < nm:
        raise ValueError(f"need at least {nm} terms of b")
    (ia, la), (ib, lb) = _cleared(a[:nn]), _cleared(b[:nm])
    return [[Fraction(_pascal_sum(row, ia, ib, m), la * lb) for m in range(nm)]
            for row in pascal_rows(nn)]
