"""Exact output oracles that never call into gfdiag.

Every expected value the benchmark compares against is computed here from
the generated input data alone: recurrence terms, brute-force binomial
convolutions, closed forms, and Taylor coefficients from a
fraction-free division recurrence.  The module also reads the polynomial
text gfdiag prints, so a reported generating function can be expanded and
compared term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence


def recurrence_terms(coeffs: Sequence[int], initial: Sequence[int], count: int) -> list[int]:
    """a_n = initial[n] for n < k, else sum(coeffs[i] * a_{n-1-i})."""
    terms = list(initial[:count])
    for n in range(len(terms), count):
        terms.append(sum(c * terms[n - 1 - i] for i, c in enumerate(coeffs)))
    return terms


def binomial_convolution(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    """[sum_k C(n,k) a_k b_{n-k} for n < count], brute force.

    C(n,k) comes from the multiplicative formula C(n,k+1) = C(n,k)(n-k)/(k+1),
    which is exact in integers and much cheaper than a math.comb call per term.
    """
    out = []
    for n in range(count):
        c, total = 1, 0
        for k in range(n + 1):
            total += c * a[k] * b[n - k]
            c = c * (n - k) // (k + 1)
        out.append(total)
    return out


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        _trim(a)
    return a


def has_repeated_root(p: Sequence[int]) -> bool:
    """Whether a polynomial (ascending coefficients) shares a root with its derivative."""
    a = _trim([Fraction(c) for c in p])
    b = _trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _remainder(a, b)
    return len(a) > 1


def taylor_scaled(num: Sequence[Fraction], den: Sequence[Fraction],
                  count: int) -> tuple[list[int], int]:
    """Fraction-free Taylor coefficients of num/den.

    Returns (u, d0) with coefficient m equal to u[m] / d0^(m+1): both
    polynomials are scaled to integers by the lcm of their denominators,
    d0 is the scaled constant term of den, and
    u[m] = N[m]*d0^m - sum_{i>=1} D[i] * u[m-i] * d0^(i-1).
    """
    scale = lcm(*(Fraction(c).denominator for c in (*num, *den)))
    N = [int(Fraction(c) * scale) for c in num]
    D = [int(Fraction(c) * scale) for c in den]
    d0 = D[0]
    if d0 == 0:
        raise ZeroDivisionError("denominator vanishes at the origin")
    d0_powers = [1]
    for _ in range(max(count, len(D))):
        d0_powers.append(d0_powers[-1] * d0)
    u: list[int] = []
    for m in range(count):
        v = N[m] * d0_powers[m] if m < len(N) else 0
        for i in range(1, min(m, len(D) - 1) + 1):
            if D[i]:
                v -= D[i] * u[m - i] * d0_powers[i - 1]
        u.append(v)
    return u, d0


def taylor(num: Sequence[Fraction], den: Sequence[Fraction], count: int) -> list[Fraction]:
    """First count Taylor coefficients of num/den as reduced fractions."""
    u, d0 = taylor_scaled(num, den, count)
    out = []
    power = d0
    for m in range(count):
        out.append(Fraction(u[m], power))
        power *= d0
    return out


def series_text_matches(num: Sequence[Fraction], den: Sequence[Fraction],
                        texts: Sequence[str]) -> int | None:
    """Index of the first printed coefficient differing from num/den, else None.

    Compares cross-multiplied integers, so no gcd of large numbers is taken.
    """
    u, d0 = taylor_scaled(num, den, len(texts))
    power = d0
    for m, text in enumerate(texts):
        p, _, q = text.partition("/")
        if int(p) * power != u[m] * (int(q) if q else 1):
            return m
        power *= d0
    return None


def parse_poly_text(text: str, var: str = "z") -> list[Fraction]:
    """Ascending coefficients of a univariate polynomial printed by gfdiag.

    The printed form is a sum of terms "c*var^k", "c*var", "var^k", "var"
    or "c" joined by " + " and " - ", with c a positive rational p or p/q
    and a leading "-" on a negative first term.
    """
    text = text.strip()
    if text == "0":
        return []
    coeffs: dict[int, Fraction] = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        term_sign = 1
        if chunk.startswith("-"):
            term_sign, chunk = -1, chunk[1:]
        coeff_text, _, mono = chunk.rpartition("*") if "*" in chunk else ("", "", chunk)
        if not coeff_text and var not in mono:
            coeff_text, mono = mono, ""
        coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        if not mono:
            power = 0
        elif mono == var:
            power = 1
        elif mono.startswith(var + "^"):
            power = int(mono[len(var) + 1:])
        else:
            raise ValueError(f"unexpected monomial {mono!r} in {text!r}")
        coeffs[power] = coeffs.get(power, Fraction(0)) + term_sign * coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return out


def gf_mismatch(numerator: str, denominator: str, truth: Sequence) -> int | None:
    """First index where the printed GF's series differs from truth, else None."""
    num = parse_poly_text(numerator)
    den = parse_poly_text(denominator)
    if not den or den[0] == 0:
        return 0
    got = taylor(num or [Fraction(0)], den, len(truth))
    for i, (a, b) in enumerate(zip(got, truth)):
        if a != b:
            return i
    return None


# ---------------------------------------------------------------------------
# Closed-form diagonals of the non-convolution inputs
# ---------------------------------------------------------------------------

def diagonal_of_monomial_product(i: int, j: int, a: int, b: int, count: int) -> list[int]:
    """Diagonal of x^i*y^j/((1-a*x)*(1-b*y)): a^(n-i) b^(n-j) once n >= max(i, j)."""
    return [a ** (n - i) * b ** (n - j) if n >= max(i, j) else 0 for n in range(count)]


def diagonal_of_repeated_factor(a: int, b: int, count: int) -> list[int]:
    """Diagonal of 1/((1-a*x)*(1-b*y)^2): (n+1) (a*b)^n."""
    return [(n + 1) * (a * b) ** n for n in range(count)]


def central_binomials(count: int) -> list[int]:
    """Diagonal of 1/(1-x-y): C(2n, n)."""
    return [comb(2 * n, n) for n in range(count)]
