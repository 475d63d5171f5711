"""Truncated power series expansion and brute-force sequence oracles.

Everything here is exact: Taylor coefficients come from the standard
division recurrence over Fraction, bivariate expansion nests that
recurrence (outer-variable coefficients are truncated inner-variable
series), and binomial coefficients come from Pascal-row iteration in
exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
# Univariate expansion
# ---------------------------------------------------------------------------

def _series_div(num: Sequence[Fraction], den: Sequence[Fraction], n: int) -> list[Fraction]:
    # den[0] != 0; standard Taylor division recurrence.
    d0 = den[0]
    out: list[Fraction] = []
    for m in range(n):
        v = num[m] if m < len(num) else Fraction(0)
        for i in range(1, min(m, len(den) - 1) + 1):
            v -= den[i] * out[m - i]
        out.append(v / d0)
    return out


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


def poly_times_series(p: Poly, s: Sequence[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for d, c in enumerate(p.coeffs):
        if c:
            for j in range(d, n):
                out[j] += c * s[j - d]
    return out


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
    d0 = den.coeff(0)
    if d0.coeff(0) == 0:
        raise PoleAtOriginError("pole at the origin")
    rows: list[list[Fraction]] = []
    dd = den.degree
    for n in range(nx):
        r = [num.coeff(n).coeff(j) for j in range(ny)]
        for i in range(1, min(n, dd) + 1):
            di = den.coeff(i)
            if not di.is_zero:
                prod = poly_times_series(di, rows[n - i], ny)
                r = [a - b for a, b in zip(r, prod)]
        rows.append(_series_div(r, d0.coeffs, ny))
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


def _pascal_sum(row: list[int], a: Sequence[Fraction], b: Sequence[Fraction],
                m: int) -> Fraction:
    """sum_k C(n,k) a_k b_{m-k} over k <= min(n, m), for row n of Pascal's triangle."""
    return sum((row[k] * a[k] * b[m - k] for k in range(min(len(row), m + 1))), Fraction(0))


def binomial_convolution_sequence(a: Sequence[Fraction], b: Sequence[Fraction],
                                  count: int) -> list[Fraction]:
    """[sum_k C(n,k) a_k b_{n-k} for n in range(count)], sharing Pascal rows."""
    if len(a) < count or len(b) < count:
        raise ValueError(f"need at least {count} terms")
    return [_pascal_sum(row, a, b, n) for n, row in enumerate(pascal_rows(count))]


def convolution_grid(a: Sequence[Fraction], b: Sequence[Fraction],
                     nn: int, nm: int) -> list[list[Fraction]]:
    """h[n][m] = sum_k C(n,k) a_k b_{m-k}; b out of range contributes 0."""
    if len(a) < nn:
        raise ValueError(f"need at least {nn} terms of a")
    if len(b) < nm:
        raise ValueError(f"need at least {nm} terms of b")
    return [[_pascal_sum(row, a, b, m) for m in range(nm)] for row in pascal_rows(nn)]
