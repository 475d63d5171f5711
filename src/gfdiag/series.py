"""Truncated power series expansion and brute-force sequence oracles.

Everything here is exact.  The inner loops run on Python ints, not on
Fraction: each clears the denominators of its inputs once, runs the
Taylor division recurrence (one or two variables) or the Pascal-row sum
over integers, and builds the Fraction results only at the end.  Division
by the constant term d0 of the denominator is deferred by carrying
e_k = c_k * d0^(k+1), where k is the total degree, so the recurrence
needs no division at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from .poly import BiPoly, Poly, as_fraction
from .ratfunc import RatFunc


class PoleAtOriginError(ArithmeticError):
    """The denominator vanishes at the expansion point."""


@dataclass(frozen=True)
class Series:
    """Truncated power series: coeffs[n] is the coefficient of var^n."""

    var: str
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)


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
    terms = [Fraction(0)] * k
    seed = 1 if shifted else 0
    for n in range(k):
        v = Fraction(1) if n == seed else Fraction(0)
        v += sum(terms[n - i] for i in range(1, n + 1))
        terms[n] = v
    return SequenceSpec(k, (Fraction(1),) * k, tuple(terms))


def generate_sequence(spec: SequenceSpec, n: int, var: str = "z") -> Series:
    """First n terms of the sequence defined by spec, exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = list(spec.initial[:n])
    for m in range(len(terms), n):
        terms.append(sum((spec.coeffs[i] * terms[m - 1 - i] for i in range(spec.order)),
                         Fraction(0)))
    return Series(var, tuple(terms))


def gf_of_sequence(spec: SequenceSpec, var: str = "z") -> RatFunc:
    """Rational generating function P(z)/(1 - sum coeffs[i] z^(i+1)).

    Only the numerator depends on the initial terms.
    """
    c, a = spec.coeffs, spec.initial
    den = Poly(var, [Fraction(1)] + [-v for v in c])
    num_coeffs = []
    for n in range(spec.order):
        v = a[n]
        for i in range(1, n + 1):
            v -= c[i - 1] * a[n - i]
        num_coeffs.append(v)
    num = Poly(var, num_coeffs)
    if num.is_zero:
        return RatFunc.zero()
    return RatFunc(1, [(num, 1)], [(den, 1)])


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------

def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(values * L as ints, L), with L the lcm of the values' denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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


def _unscaled(e: list[int], d0: int, shift: int) -> list[Fraction]:
    """[e[m] / d0^(m + shift)]: the division the integer recurrence deferred."""
    if d0 == 1:
        return [Fraction(v) for v in e]
    out = []
    power = d0 ** shift
    for v in e:
        out.append(Fraction(v, power))
        power *= d0
    return out


# ---------------------------------------------------------------------------
# Univariate expansion
# ---------------------------------------------------------------------------

def _series_div(num: Sequence[Fraction], den: Sequence[Fraction], n: int) -> list[Fraction]:
    # den[0] != 0.  With num and den cleared to integers, the recurrence runs
    # on e[m] = out[m] * d0^(m+1), whose terms are num[m] * d0^m and
    # den[i] * d0^(i-1).
    num = num[:n]
    ints, _ = _cleared([*num, *den])
    d0 = ints[len(num)]
    e = [v * d0 ** m for m, v in enumerate(ints[:len(num)])] + [0] * (n - len(num))
    steps = [(i, v * d0 ** (i - 1)) for i, v in enumerate(ints[len(num):]) if i and v]
    return _unscaled(_solve_row(e, steps), d0, 1)


def series_of_rational(f: RatFunc, n: int, var: str | None = None) -> Series:
    """First n Taylor coefficients of a univariate rational function."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not f.is_univariate:
        raise ValueError("series_of_rational requires a univariate function")
    if f.is_zero:
        return Series(var or "z", (Fraction(0),) * n)
    num, den = f.reduced_fraction()
    if den.coeff(0) == 0:
        raise PoleAtOriginError("pole at the origin")
    use_var = var or (f.variables[0] if f.variables else "z")
    return Series(use_var, tuple(_series_div(num.coeffs, den.coeffs, n)))


# ---------------------------------------------------------------------------
# Bivariate expansion and the diagonal
# ---------------------------------------------------------------------------

def _as_bipoly_pair(f: RatFunc) -> tuple[BiPoly, BiPoly]:
    num, den = f.expand_to_single_fraction()
    if isinstance(num, Poly):
        # Constant in one variable: lift to a bivariate function.
        outer = num.var
        inner = "y" if outer != "y" else "x"
        num = BiPoly.embed(num, outer, inner)
        den = BiPoly.embed(den, outer, inner)
    return num, den


def bivariate_series(f: RatFunc, nx: int, ny: int) -> list[list[Fraction]]:
    """Coefficient grid c[n][m] of outer^n * inner^m for n < nx, m < ny."""
    if f.is_zero:
        return [[Fraction(0)] * ny for _ in range(nx)]
    num, den = _as_bipoly_pair(f)
    if den.coeff(0).coeff(0) == 0:
        raise PoleAtOriginError("pole at the origin")
    # With num and den cleared to integers, the 2-D recurrence runs on
    # e[n][m] = c[n][m] * d00^(n+m+1), whose terms are num[n][m] * d00^(n+m)
    # and den[i][j] * d00^(i+j-1).  den.monomials() starts at (0, 0).
    nterms = [t for t in num.monomials() if t[0] < nx and t[1] < ny]
    dterms = list(den.monomials())
    ints, _ = _cleared([c for _, _, c in nterms + dterms])
    d00 = ints[len(nterms)]
    e = [[0] * ny for _ in range(nx)]
    for (i, j, _), v in zip(nterms, ints):
        e[i][j] = v * d00 ** (i + j)
    steps = [(i, j, v * d00 ** (i + j - 1))
             for (i, j, _), v in zip(dterms[1:], ints[len(nterms) + 1:])]
    inner = [(j, v) for i, j, v in steps if i == 0]
    outer = [(i, j, v) for i, j, v in steps if i > 0]
    rows: list[list[Fraction]] = []
    for n, row in enumerate(e):
        for i, j, v in outer:
            if i <= n:
                row[j:] = [a - v * b for a, b in zip(row[j:], e[n - i])]
        rows.append(_unscaled(_solve_row(row, inner), d00, n + 1))
    return rows


def diagonal_series(f: RatFunc, n: int, var: str = "z") -> Series:
    """Series whose entry n is the coefficient of outer^n * inner^n."""
    grid = bivariate_series(f, n, n)
    return Series(var, tuple(grid[i][i] for i in range(n)))


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
