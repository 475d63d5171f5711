"""Truncated power series expansion and brute-force sequence oracles.

Every sequence here, a Taylor series, a diagonal, the terms of a
recurrence or of a convolution, is a plain list of Fractions: entry n is
the coefficient of var^n, and the variable is the caller's to name.

Everything here is exact.  The inner loops run on Python ints, not on
Fraction, and build the Fraction results only at the end.  A polynomial
is already an integer part times a rational content (see gfdiag.poly):
the Taylor division recurrence (one or two variables) reads the integer
parts and folds the contents into one rational scale.  The Pascal-row
sums take sequences, whose denominators are cleared once, and read each
row n for k <= n/2 only, since C(n,k) = C(n,n-k): a convolution's pair
a_k b_{n-k} + a_{n-k} b_k is one product, doubled, when both sides clear
to the same integers, as every self-convolution does.  Division by
the constant term d0 of the denominator is deferred by carrying
e_k = c_k * d0^(k+1), where k is the total degree, so the recurrence
needs no division at all.

Each result v / (den * d0^m) is built in lowest terms without Fraction's
constructor, which takes a full gcd per value.  Every prime of
den * d0^m divides den * d0, a far smaller number, so one gcd with it
proves most terms already reduced.  Only a term that fails this screen is
reduced, first by the screen's gcd and then, if the screen still fails,
by one full gcd.

One kernel, _series_grid, computes every series here: the Taylor series
of a univariate function (one row, its variable the inner one), the
bivariate grid and its diagonal, the terms of a recurrence (a linear
recurrence is division by its characteristic polynomial: the terms of a
SequenceSpec are the series of P/Q, Q = 1 - sum c_i z^i) and the initial
k-bonacci terms.  It reads the terms from the factors as they are given:
it expands no product in full and takes no polynomial gcd.  Each factor
is first stripped of the largest monomial that divides it.  Over Q a
univariate P/Q has a power series exactly when ord_0 Q <= ord_0 P, so
the net monomial decides the pole at the origin and shifts the output;
in two variables a stripped denominator factor must also have a constant
term.  A factor on both sides cancels before the kernel, by the smaller
multiplicity (RatFunc.cancelled, which the residue route reads too): it
is compared, not divided.  The numerator is the product of its factors'
powers, each by repeated squaring, truncated to the nx x ny box.

The box is then divided in place by one denominator factor at a time, m
times for multiplicity m, each factor with its own integer coefficients
(the division kernels are in gfdiag._division, loaded on first use).
Division by 1 - inner^j is a running sum over each class of columns mod
j (itertools.accumulate), and a term in outer with coefficient +-1 adds
or subtracts a whole row slice (map with operator.add or sub): both
loops run in C.
A few sparse factors cost fewer steps per row than their expanded
product.  Each division runs only over the cells it can reach: the box
keeps the number of rows and of columns that can be nonzero, starting
from the numerator's extent.  A factor in the inner variable alone
divides only the occupied rows, and fills their columns; a factor in the
outer variable alone divides only the occupied columns, and fills their
rows; a mixed factor runs over the whole box.  So the univariate class
with more division steps (nonzero non-constant terms times multiplicity)
runs first, while the box is still narrow in its direction, and the mixed
factors run last.  Once the factors' constant terms multiply to D, the
box carries c * D^(n+m+1): the series at (D*x, D*y), times D.  So the
next factor enters with its (i, j) coefficient times D^(i+j).

A run of consecutive divisions by outer-only factors, each with constant
term 1 and the outer variable in every other term (every convolution
GF's mixed factor is one), divides whole rows instead (_divide_packed).
Row n becomes one integer, sum c[n][m] * 2^(k*m): its evaluation at
inner = 2^k.  That evaluation is a ring map, so a term v * outer^i *
inner^j is r -= v * (row n - i << k*j), one shift-and-add in C on a whole
row (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
Algebra, 8.4).  A row held mod inner^width is the balanced residue of r
mod 2^(k*width), which is exact while every cell is below 2^(k-1) in
magnitude, and a bound proved before any work sets k (_digit_bytes).
Each term reads rows n - i, i >= 1, of its own factor's output, so row n
passes through the whole run before row n + 1 starts, each factor keeps
only its last rows, and a diagonal reads its cell from the run's last row
and drops the row.  The box holds only the rows in its reach until a
division or the result reads past them, so a diagonal whose last run is
packed never builds the zero rows.  Every digit is k bits wide, and the
bound is about twice the largest cell, so packing wins where Python's
cost per cell dominates and loses where big-int arithmetic does: a cost
test from k and the step count (_packs, at _PACK_BITS) picks the path
first.

A diagonal divides the same box, but builds Fractions for its diagonal
cells only, n of them and not n^2.  Diagonal term i sits in the box at
[i - a][i - b] for the net monomial outer^a * inner^b, and carries
c * D^(2i - a - b + 1): the terms from i = max(a, b) on are one sequence
over a power of D^2, unscaled as a row is.  Row n's diagonal cell is in
column n + a - b.  Where every term (i, j, v) of the divisions from some
run on has j <= i, as in the catalog's mixed factors, every convolution
GF's and every factor in the outer variable alone, a cell on or right of
that line reads only cells on or right of it.  So those divisions run
over the band of each row from the line on, and leave the cells left of
it as they stand: cell by cell, each row slice starts at the line; a
packed row keeps only its band, with its diagonal cell as digit 0, where
a second cost test (_bands) finds that it pays.  A band step shifts the
row it reads right by i - j digits, where a whole-row step shifts it
left by j, and a right shift drops the low digits exactly once their
half-digit bias is added.  The band halves the cells either path
divides, so the packing cost test counts the packed path's cost twice
where only the per-cell path would keep the band.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import partial
from itertools import accumulate, groupby, repeat
from math import gcd
from operator import add, mul

from .poly import (AnyPoly, Poly, _Frozen, _cleared, _int_add, _int_mul, _lift, _power, _stripped,
                   as_fraction)
from .ratfunc import RatFunc


class PoleAtOriginError(ArithmeticError):
    """The denominator vanishes at the expansion point."""


class SequenceSpec(_Frozen):
    """Order-k constant-coefficient recurrence with initial terms.

    a_n = initial[n] for n < k, else sum(coeffs[i] * a_{n-1-i}).
    The all-ones default coefficients give the k-bonacci family; order 0
    is the zero sequence.
    """

    __slots__ = _fields = ("order", "coeffs", "initial")
    order: int
    coeffs: tuple[Fraction, ...]
    initial: tuple[Fraction, ...]

    def __init__(self, order: int, coeffs: Iterable = (), initial: Iterable = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = tuple(as_fraction(c) for c in (coeffs or (1,) * order))
        initial = tuple(as_fraction(c) for c in initial)
        if len(coeffs) != order:
            raise ValueError(f"need {order} recurrence coefficients, got {len(coeffs)}")
        if len(initial) != order:
            raise ValueError(f"need {order} initial terms, got {len(initial)}")
        self._fill(order, coeffs, initial)


def kbonacci(k: int, shifted: bool = False) -> SequenceSpec:
    """The k-bonacci sequence under either index convention.

    shifted=False: generating function 1/(1 - z - ... - z^k), a_0 = 1.
    shifted=True:  generating function z/(1 - z - ... - z^k), a_0 = 0.
    """
    numer = [(Poly("z", [0, 1]), 1)] if shifted else []
    initial = _series_grid(Fraction(1), numer, [(Poly("z", [1] + [-1] * k), 1)], 1, k, True)[0]
    return SequenceSpec(k, (Fraction(1),) * k, tuple(initial))


def generate_sequence(spec: SequenceSpec, n: int) -> list[Fraction]:
    """First n terms of the sequence defined by spec, exactly.

    They are the series of its generating function P/Q (see
    gf_of_sequence), so they come from the one series kernel.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num, den = _gf_parts(spec, "z")
    return _series_grid(Fraction(1), [(num, 1)], [(den, 1)], 1, n, True)[0]


def gf_of_sequence(spec: SequenceSpec, var: str = "z") -> RatFunc:
    """Rational generating function P(z)/(1 - sum coeffs[i] z^(i+1)), see _gf_parts."""
    num, den = _gf_parts(spec, var)
    return RatFunc(1, [(num, 1)], [(den, 1)])


def _gf_parts(spec: SequenceSpec, var: str) -> tuple[Poly, Poly]:
    """(P, Q) of the spec's generating function P/Q: Q = 1 - sum coeffs[i] var^(i+1).

    P is Q times the initial terms, truncated below degree spec.order, so
    only the numerator depends on the initial terms.
    """
    den = Poly(var, [Fraction(1)] + [-v for v in spec.coeffs])
    num = den * Poly(var, spec.initial)
    return Poly.from_ints(var, num.prim[:spec.order], num.content), den


# ---------------------------------------------------------------------------
# The series kernel
# ---------------------------------------------------------------------------

def _coprime(nums: list[int], dens: list[int]) -> list[Fraction]:
    """[nums[m] / dens[m]] for pairs already in lowest terms, dens[m] > 0.

    Fraction's constructor takes a gcd per value.  This sets the two slots
    of a bare instance instead, as CPython 3.12's Fraction._from_coprime_ints
    does, with every loop in C.
    """
    out = list(map(object.__new__, repeat(Fraction, len(nums))))
    deque(map(Fraction._numerator.__set__, out, nums), 0)
    deque(map(Fraction._denominator.__set__, out, dens), 0)
    return out


def _unscaled(e: list[int], d0: int, den: int) -> list[Fraction]:
    """[e[m] / (den * d0^m)]: the division the integer recurrence deferred, in lowest terms.

    den and d0 must be positive, as _series_grid's sign flip makes every
    constant term and the scale's denominator.  Every prime of den * d0^m
    divides r = den * d0, so gcd(v, r) == 1, a gcd with a number far
    smaller than den * d0^m, proves v / (den * d0^m) in lowest terms.  A
    term that fails this screen, a zero among them, is divided by the part
    of that gcd its denominator holds, and takes one full gcd only if it
    still fails.
    """
    n, r = len(e), den * d0
    if not n:
        return []
    dens = [den] * n if d0 == 1 else list(accumulate(repeat(d0, n - 1), mul, initial=den))
    if r == 1:
        return _coprime(e, dens)
    nums = e[:]
    for m, g in enumerate(map(gcd, e, repeat(r))):
        if g != 1:
            # A factor common to every term, such as a numerator content
            # sharing a prime with d0, comes off with the screen's small gcd.
            g = gcd(g, dens[m])
            v, dm = e[m] // g, dens[m] // g
            if gcd(v, r) != 1:
                g = gcd(v, dm)
                v, dm = v // g, dm // g
            nums[m], dens[m] = v, dm
    return _coprime(nums, dens)


_Box = list[list[int]]


def _box_mul(a: _Box, b: _Box, nx: int, ny: int) -> _Box:
    """The product of two boxes of integer rows, truncated to nx x ny."""
    out: _Box = [[] for _ in range(min(nx, len(a) + len(b) - 1))]
    for i, ra in enumerate(a[:nx]):
        if ra:
            for k, rb in enumerate(b[:nx - i]):
                if rb:
                    out[i + k] = _int_add(out[i + k], _int_mul(ra[:ny], rb[:ny])[:ny])
    return out


def _series_grid(constant: Fraction, numer: Sequence[tuple[AnyPoly, int]],
                 denom: Sequence[tuple[AnyPoly, int]], nx: int, ny: int,
                 inner: bool = False, *, diagonal: bool = False) -> list:
    """Grid c[n][m] of outer^n * inner^m, n < nx and m < ny, of constant * numer / denom.

    With diagonal, only [c[i][i] for i < min(nx, ny)]: the box is divided
    in full, and only its diagonal cells become Fractions.

    numer and denom are products of (polynomial, multiplicity) factors; a
    Poly's variable is the inner one if inner, else the outer one.

    Each factor is stripped of the largest monomial outer^a * inner^b that
    divides it.  The net monomial must be a power series and each stripped
    denominator factor must have a constant term, or PoleAtOriginError is
    raised; the net monomial shifts the grid.  No factor cancels here:
    series_of_rational and bivariate_series pass the factors of
    RatFunc.cancelled.  The numerator is the product of the factors'
    powers, each by repeated squaring, truncated to the box; the box is
    then divided by each denominator factor in turn, m times for
    multiplicity m: the heavier univariate class first, the mixed factors
    last (see the module docstring).  A run of outer-only factors
    divides packed rows instead where _packs finds that it pays; if it is
    the last run of a diagonal, it returns the diagonal's cells itself.
    With diagonal, the runs after the last one with a term j > i divide
    each row from its diagonal cell on only.
    """
    if diagonal:
        nx = ny = min(nx, ny)
    zero = Fraction(0)

    def zeros() -> list:
        return [zero] * nx if diagonal else [[zero] * ny for _ in range(nx)]

    if constant == 0 or any(p.is_zero for p, _ in numer):
        return zeros()
    scale, si, sj, numer_rows, denom_rows = constant, 0, 0, [], []
    for sign, factors in ((1, numer), (-1, denom)):
        for p, m in factors:
            s, (a, b, rows) = p.content, _stripped(p.rows if inner else _lift(p, p.names[0]))
            if sign < 0 and rows[0][0] == 0:
                raise PoleAtOriginError("pole at the origin")
            if rows[0][0] < 0:
                # The canonical sign is the last entry's: 1 - x - y comes as
                # -1 * (-1 + x + y).  Flipped, every constant term the box
                # is divided by is positive, as _unscaled needs.
                s, rows = -s, tuple(tuple(-v for v in row) for row in rows)
            scale *= s ** (sign * m)
            si, sj = si + sign * m * a, sj + sign * m * b
            (numer_rows if sign > 0 else denom_rows).append((rows, m))
    if si < 0 or sj < 0:
        raise PoleAtOriginError("pole at the origin")
    bx, by = nx - si, ny - sj
    if bx <= 0 or by <= 0:
        return zeros()
    box: _Box = [[scale.numerator]]
    times = partial(_box_mul, nx=bx, ny=by)
    for rows, m in numer_rows:
        box = times(box, _power([[1]], rows, m, times))
    reach = len(box), max(map(len, box))
    # Rows past the reach are all 0: they are appended only once a
    # division or the result reads them.
    box = [row + [0] * (by - len(row)) for row in box]

    def full() -> _Box:
        box.extend([0] * by for _ in range(bx - len(box)))
        return box

    # The division kernels load on first use, so that start-up without a
    # bytecode cache compiles none of them.
    from ._division import _bands, _digit_bytes, _divide_box, _divide_packed, _packable, _packs

    # Class 0 is a factor in the inner variable alone (one row), 1 one in
    # the outer variable alone (one column), 2 a mixed factor; a class's
    # weight is its division steps.
    divisions, weight = [], [0, 0, 0]
    for rows, m in denom_rows:
        terms = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        kind = 0 if len(rows) == 1 else 1 if max(map(len, rows)) == 1 else 2
        weight[kind] += (len(terms) - 1) * m
        divisions.append((kind, terms, rows[0][0], m))
    first = int(weight[1] > weight[0])
    divisions.sort(key=lambda t: (t[0] == 2, t[0] != first))
    runs = [list(run) for _, run in groupby(
        ((terms, f0) for _, terms, f0, m in divisions for _ in range(m)), lambda t: _packable(*t))]
    # A diagonal reads cell [n][n + si - sj] of each row.  From the first run
    # on whose terms (i, j, v), and every later run's, all have j <= i, a
    # cell on or right of that line reads only cells on or right of it:
    # those runs divide each row from the line on.
    band = [None] * len(runs)
    for p in reversed(range(len(runs)) if diagonal else ()):
        if any(j > i for terms, _ in runs[p] for i, j, _ in terms):
            break
        band[p] = si - sj
    d, cells = 1, None
    for p, run in enumerate(runs):
        if _packable(*run[0]):
            stages = [[(i, j, v * d ** (i + j)) for i, j, v in terms[1:]] for terms, _ in run]
            width = by if any(j for steps in stages for _, j, _ in steps) else reach[1]
            size = _digit_bytes(box, stages, bx, *reach)
            last = diagonal and p == len(runs) - 1
            # Cell by cell, the run keeps only the band where band[p] is set;
            # packed, only where _bands also finds that it pays.
            banded = last and band[p] is not None and _bands(8 * size, width, stages)
            if _packs(8 * size, sum(map(len, stages)), bx, reach[0], not last,
                      band[p] is not None and not banded):
                if last:
                    cells = _divide_packed(box, stages, bx, reach[0], width, size, si - sj, banded)
                else:
                    _divide_packed(full(), stages, bx, reach[0], width, size, None, False)
                reach = bx, width
                continue
        for terms, f0 in run:
            # Only a term in outer (terms are sorted by it) reaches past the rows in reach.
            reach = _divide_box(full() if terms[-1][0] else box, terms, f0, d, *reach, band[p])
            d *= f0
    if diagonal:
        # Cell i is box[i - si][i - sj], which carries c * d^(2i - si - sj + 1).
        i0 = max(si, sj)
        if cells is None:
            full()
            cells = [box[i - si][i - sj] for i in range(i0, nx)]
        den = scale.denominator * d ** (2 * i0 - si - sj + 1)
        return [zero] * i0 + _unscaled(cells, d * d, den)
    return [[zero] * ny for _ in range(si)] + [
        [zero] * sj + _unscaled(row, d, scale.denominator * d ** (n + 1))
        for n, row in enumerate(full())]


def series_of_rational(f: RatFunc, n: int) -> list[Fraction]:
    """First n Taylor coefficients of a univariate rational function."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not f.is_univariate:
        raise ValueError("series_of_rational requires a univariate function")
    f = f.cancelled()
    return _series_grid(f.constant, f.numer, f.denom, 1, n, True)[0]


def bivariate_series(f: RatFunc, nx: int, ny: int, *, diagonal: bool = False) -> list:
    """Coefficient grid c[n][m] of outer^n * inner^m for n < nx, m < ny.

    A univariate f's variable is the outer one.  With diagonal, the list
    [c[i][i] for i < min(nx, ny)] instead: the integer box is divided as
    for the grid, but only its min(nx, ny) diagonal cells are built as
    Fractions.  A factor on both sides cancels first (RatFunc.cancelled).
    """
    f = f.cancelled()
    return _series_grid(f.constant, f.numer, f.denom, nx, ny, diagonal=diagonal)


def diagonal_series(f: RatFunc, n: int) -> list[Fraction]:
    """The first n diagonal terms: entry i is the coefficient of outer^i * inner^i.

    The n x n box is divided in full, and n Fractions are built from it,
    not n^2.
    """
    return bivariate_series(f, n, n, diagonal=True)


def _first_mismatch(lhs: Iterable, rhs: Iterable) -> tuple[int, str, str] | None:
    """(i, str(lhs[i]), str(rhs[i])) at the first i where two exact sequences
    differ, or None if they agree up to the shorter one's length.

    Every term-by-term check in the package, the residue route's cross-check
    and every claim, finds its witness here.
    """
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return i, str(a), str(b)
    return None


# ---------------------------------------------------------------------------
# Binomial convolutions (the brute-force oracles)
# ---------------------------------------------------------------------------

def pascal_rows(limit: int) -> Iterator[list[int]]:
    """Yield rows 0..limit-1 of Pascal's triangle as exact integers.

    Each row is the sums of neighbours in the one before, so the first
    limit rows cost O(limit^2) additions and no multiplication.
    """
    row = [1]
    for _ in range(limit):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _pascal_sum(row: list[int], a: list[int], b: list[int], m: int) -> int:
    """sum_k C(n,k) a_k b_{m-k} over k <= min(n, m), for row n of Pascal's triangle."""
    return sum(map(mul, row, map(mul, a, b[m::-1])))


def _folded_pascal_sum(row: list[int], a: list[int], b: list[int], n: int) -> int:
    """sum_k C(n,k) a_k b_{n-k} over the full row n, reading only k <= n/2.

    C(n,k) = C(n,n-k) pairs a_k b_{n-k} with a_{n-k} b_k; when n is even
    the middle pair is the middle term twice, so it is taken off once.  For
    a is b the pair is one product, doubled.
    """
    h = n // 2
    half = row[:h + 1]
    if a is b:
        s = sum(map(mul, half, map(mul, a, a[n::-1]))) << 1
    else:
        s = sum(map(mul, half, map(add, map(mul, a, b[n::-1]), map(mul, a[n::-1], b))))
    return s if n % 2 else s - row[h] * a[h] * b[h]


def binomial_convolution_sequence(a: Sequence[Fraction], b: Sequence[Fraction],
                                  count: int) -> list[Fraction]:
    """[sum_k C(n,k) a_k b_{n-k} for n in range(count)], sharing Pascal rows."""
    if count < 0:
        raise ValueError("n must be >= 0")
    if len(a) < count or len(b) < count:
        raise ValueError(f"need at least {count} terms")
    sums, den = _binomial_convolution_ints(a, b, count)
    return _unscaled(sums, 1, den)


def _binomial_convolution_ints(a: Sequence[Fraction], b: Sequence[Fraction],
                               count: int) -> tuple[list[int], int]:
    """(sums, den): den * sum_k C(n,k) a_k b_{n-k} for n in range(count), as ints.

    The one convolution oracle loop: folded Pascal-row sums over the first
    count terms of a and b, each cleared to integers once (a only, when b
    is a), with one product per pair when both clear to the same integers.
    """
    ia, la = _cleared(a[:count])
    ib, lb = (ia, la) if b is a else _cleared(b[:count])
    if ia == ib:  # a self-convolution: _folded_pascal_sum takes one product per pair
        ib = ia
    return [_folded_pascal_sum(row, ia, ib, n)
            for n, row in enumerate(pascal_rows(count))], la * lb


def convolution_grid(a: Sequence[Fraction], b: Sequence[Fraction],
                     nn: int, nm: int) -> list[list[Fraction]]:
    """h[n][m] = sum_k C(n,k) a_k b_{m-k}; b out of range contributes 0."""
    if nn < 0 or nm < 0:
        raise ValueError("n must be >= 0")
    if len(a) < nn:
        raise ValueError(f"need at least {nn} terms of a")
    if len(b) < nm:
        raise ValueError(f"need at least {nm} terms of b")
    (ia, la), (ib, lb) = _cleared(a[:nn]), _cleared(b[:nm])
    return [_unscaled([_pascal_sum(row, ia, ib, m) for m in range(nm)], 1, la * lb)
            for row in pascal_rows(nn)]
