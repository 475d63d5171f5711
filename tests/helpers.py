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


# -- Fraction references for the integer kernels of gfdiag.series and .recurrences
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


def ref_berlekamp_massey(s) -> tuple[list[Fraction], int]:
    """Connection polynomial C (C[0] = 1) and order L of s, over Fraction."""
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


def ref_pascal_sum(row: list[int], a, b, m: int) -> Fraction:
    """sum_k C(n,k) a_k b_{m-k} over k <= min(n, m), for row n of Pascal's triangle."""
    return sum((row[k] * a[k] * b[m - k] for k in range(min(len(row), m + 1))), Fraction(0))


# -- Fraction references for the integer kernels of gfdiag.residues ------------
#
# The residue route's Fraction arithmetic that the integer extended PRS
# replaced, kept here so that the property tests can compare the kernels
# with it.

def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid over Fraction on Poly.divrem, with monic gcd: g = u*a + v*b."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    var = a.var
    r0, r1 = a, b
    u0, u1 = Poly.one(var), Poly.zero(var)
    v0, v1 = Poly.zero(var), Poly.one(var)
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    inv = 1 / r0.leading
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


def ref_part_numerator(num: Poly, cof: Poly, base: Poly) -> Poly | None:
    """A = num * cof^(-1) mod base over Fraction; None when cof and base share a root."""
    g, u, _ = poly_xgcd(cof.divrem(base)[1], base)
    if g.degree > 0:
        return None
    return (num.divrem(base)[1] * u).divrem(base)[1]


def ref_residue_sum_at(h, kept, z0: int) -> Fraction | None:
    """The kept factors' residue sum [t^(m*d-1)] A / lc(p)^m at z = z0, over Fraction."""
    def at(p):
        return Poly(p.outer, [c.evaluate(z0) for c in p.coeffs])

    factors = [(at(p), m) for p, m in h.denom_factors]
    num = at(h.numerator)
    total = Fraction(0)
    for pole in kept:
        p, m = factors[pole.index]
        if p.degree < pole.factor.degree:
            return None
        cof = Poly.one(p.var)
        for idx, (q, k) in enumerate(factors):
            if idx != pole.index:
                cof = cof * q ** k
        a = ref_part_numerator(num, cof, p ** m)
        if a is None:
            return None
        total += a.coeff(m * p.degree - 1) / p.leading ** m
    return total


def ref_cauchy(zs: list[int], vs: list[Fraction]) -> tuple[Poly, Poly]:
    """Newton interpolation, then extended Euclid over Fraction stopped below len(zs)/2."""
    coeffs = list(vs)
    for j in range(1, len(zs)):
        for i in range(len(zs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (zs[i] - zs[i - j])
    value, basis = Poly.zero("z"), Poly.one("z")
    for zi, c in zip(zs, coeffs):
        value = value + basis.scale(c)
        basis = basis * Poly("z", (-zi, 1))
    r0, r1, s0, s1 = basis, value, Poly.zero("z"), Poly.one("z")
    while 2 * r1.degree >= len(zs):
        q, r = r0.divrem(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return r1, s1
