"""Shared random generators and reference implementations for the tests.

Everything is seeded so the suite is deterministic run to run.
"""

from fractions import Fraction
from random import Random

from gfdiag import BiPoly, Poly, RatFunc, SequenceSpec


def rand_fraction(rng: Random, lo: int = -5, hi: int = 5, denom: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, denom))


def rand_poly(rng: Random, var: str = "z", max_deg: int = 4,
              nonzero: bool = False, nonzero_at_0: bool = False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)]
    if nonzero_at_0 and coeffs[0] == 0:
        coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]))
    p = Poly(var, coeffs)
    if nonzero and p.is_zero:
        return Poly(var, [1] + coeffs[1:])
    return p


def rand_bipoly(rng: Random, outer: str = "x", inner: str = "y",
                max_deg: int = 2, nonzero_at_0: bool = False) -> BiPoly:
    rows = [rand_poly(rng, inner, max_deg) for _ in range(rng.randint(1, max_deg + 1))]
    p = BiPoly(outer, inner, rows)
    if p.is_zero:
        p = BiPoly.one(outer, inner)
    if nonzero_at_0 and p.coeff(0).coeff(0) == 0:
        p = p + BiPoly.one(outer, inner)
    return p


def rand_univariate_ratfunc(rng: Random, var: str = "z", n_denom: int = 2) -> RatFunc:
    """Random rational function expandable at the origin."""
    numer = [(rand_poly(rng, var, 3, nonzero=True), rng.randint(1, 2))]
    denom = [(rand_poly(rng, var, 3, nonzero_at_0=True), rng.randint(1, 2))
             for _ in range(rng.randint(1, n_denom))]
    constant = rand_fraction(rng)
    if constant == 0:
        constant = Fraction(1)
    return RatFunc(constant, numer, denom)


def rand_sequence_spec(rng: Random, max_order: int = 3,
                       unit_coeffs: bool = False) -> SequenceSpec:
    k = rng.randint(1, max_order)
    if unit_coeffs:
        coeffs = (Fraction(1),) * k
    else:
        coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(k))
        if all(c == 0 for c in coeffs):
            coeffs = (Fraction(1),) + coeffs[1:]
    initial = tuple(Fraction(rng.randint(-3, 3)) for _ in range(k))
    return SequenceSpec(k, coeffs, initial)


# -- Fraction references for the integer kernels of gfdiag.series --------------
#
# These are the Fraction recurrences that the integer kernels replaced, kept
# here so that the property tests can compare the kernels with them.

def ref_series_div(num, den, n: int) -> list[Fraction]:
    """First n Taylor coefficients of num/den over Fraction; den[0] != 0."""
    d0 = den[0]
    out: list[Fraction] = []
    for m in range(n):
        v = num[m] if m < len(num) else Fraction(0)
        for i in range(1, min(m, len(den) - 1) + 1):
            v -= den[i] * out[m - i]
        out.append(v / d0)
    return out


def ref_bivariate_series(f: RatFunc, nx: int, ny: int) -> list[list[Fraction]]:
    """Coefficient grid c[n][m] of outer^n * inner^m over Fraction, row by row."""
    if f.is_zero:
        return [[Fraction(0)] * ny for _ in range(nx)]
    num, den = f.expand_to_single_fraction()
    if isinstance(num, Poly):
        outer = num.var
        inner = "y" if outer != "y" else "x"
        num = BiPoly.embed(num, outer, inner)
        den = BiPoly.embed(den, outer, inner)
    d0 = den.coeff(0)
    rows: list[list[Fraction]] = []
    for n in range(nx):
        r = [num.coeff(n).coeff(j) for j in range(ny)]
        for i in range(1, min(n, den.degree) + 1):
            for d, c in enumerate(den.coeff(i).coeffs):
                for j in range(d, ny):
                    r[j] -= c * rows[n - i][j - d]
        rows.append(ref_series_div(r, d0.coeffs, ny))
    return rows


def ref_pascal_sum(row: list[int], a, b, m: int) -> Fraction:
    """sum_k C(n,k) a_k b_{m-k} over k <= min(n, m), for row n of Pascal's triangle."""
    return sum((row[k] * a[k] * b[m - k] for k in range(min(len(row), m + 1))), Fraction(0))
