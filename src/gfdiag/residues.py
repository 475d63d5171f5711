"""Diagonal extraction by exact residue sums, and partial fractions.

Hautus-Klarner style: the diagonal of F(x, y) is the sum of the residues
of F(z*t, 1/t)/t at its poles in t that stay bounded as z -> 0.  A
factor on both sides of F cancels first (RatFunc.cancelled).  Substitute
factor by factor, and balance the power of t each factor holds or needs
cleared by one power of t: the transform is a RatFunc in t and z, whose
constructor merges the factors that the substitution makes equal.  Keep the denominator factors whose roots all stay bounded, the
pole at t = 0 included.  With P the product of the kept factors and Q
that of the others, each to its multiplicity, the residue sum over all
roots of P is [t^(deg P - 1)] A / lc(P), where A = num * Q^(-1) mod P is
P's part in the partial-fraction decomposition in t.  No root is ever
named: the sum is kappa * N / D for two integer polynomials N and D in
z, given by Cramer's rule, whose degrees are bounded a priori (see
_residue_sum); their values at that many integer points z0, plus one,
interpolate them exactly.

Everything runs on Python ints.  A BiPoly is already a rational content
times integer rows: the substitution re-indexes the rows, the
transform's numerator is expanded once, its content and the factors'
fold into one rational scale kappa, the kept factors are multiplied into
P and the others with t into Q once, and the rows of the numerator, P
and Q are evaluated at each z0 by integer Horner.  A factor without t
only divides the sum, so it enters the result as it is and is never
evaluated.  At each point one subresultant PRS, poly._int_resultant,
gives Res_t(P, Q) and the cofactor that inverts Q mod P, and one
pseudo-division reduces num times that cofactor; partial fractions
invert the same way.  N and D are interpolated by integer divided
differences, and a Fraction is built only for the reduced result.

The pole-keeping rule is not proved here in general; diagonal_rational
validates it per instance by comparing against the series diagonal and
reports a violation instead of silently trusting the rule.  The
comparison is series._first_mismatch, the one that every claim uses too,
and its witness is the report's first_mismatch, lhs and rhs.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .poly import (BiPoly, Poly, _Frozen, _horner, _int_add, _int_mul, _int_prem,
                   _int_resultant)
from .ratfunc import RatFunc
from .series import _first_mismatch, diagonal_series, series_of_rational


class DegeneratePoleError(ArithmeticError):
    """Degenerate pole configuration: a kept factor shares roots with one that is not kept."""


# ---------------------------------------------------------------------------
# The substitution x -> z*t, y -> 1/t with t-clearing
# ---------------------------------------------------------------------------

def _substitute_factor(p: BiPoly) -> tuple[BiPoly, int]:
    """(q, k) with q = p(z*t, 1/t) * t^k a polynomial in t with a term free of t.

    The monomial x^i * y^j becomes t^(i-j+k) * z^i, so the integer rows are
    only re-indexed, one to one: they keep gcd 1, and the content is kept up
    to its sign.  k is negative where p's power of t, its leading zero
    t-rows, is held by the factor itself: x becomes z, with k = -1.
    """
    k = max([0] + [len(row) - 1 - i for i, row in enumerate(p.rows) if row])
    out = [[0] * len(p.rows) for _ in range(len(p.rows) + k)]
    for i, row in enumerate(p.rows):
        for j, v in enumerate(row):
            out[i - j + k][i] = v
    held = next(i for i, row in enumerate(out) if any(row))
    return BiPoly.from_ints("t", "z", out[held:], p.content), k - held


def hk_transform(f: RatFunc) -> RatFunc:
    """F(z*t, 1/t)/t for F = f, as a function of t and z, substituted factor by factor.

    Each factor is substituted and its power of t moved out
    (_substitute_factor), so no factor holds a power of t; those powers
    and the extra 1/t are balanced by one power of t, in the numerator or
    the denominator.  RatFunc's constructor merges the factors that the
    substitution makes equal.  x and y stand in for the variables that a
    function of one variable or none lacks.
    """
    f_vars = f.variables
    outer, inner = f_vars if len(f_vars) == 2 else (
        ("x", "y") if f_vars in ((), ("y",)) else (f_vars[0], "y"))
    sides, balance = ([], []), -1
    for sign, factors in ((-1, f.numer), (1, f.denom)):
        for p, m in factors:
            q, k = _substitute_factor(BiPoly.embed(p, outer, inner))
            sides[sign > 0].append((q, m))
            balance += sign * k * m
    sides[balance < 0].append((BiPoly.from_ints("t", "z", [[]] * abs(balance) + [[1]]), 1))
    return RatFunc(f.constant, *sides)


# ---------------------------------------------------------------------------
# Pole classification
# ---------------------------------------------------------------------------

class PoleClass(_Frozen):
    __slots__ = _fields = ("factor", "multiplicity", "kept", "reason", "leading_at_zero")
    _defaults = {"leading_at_zero": None}
    factor: BiPoly
    multiplicity: int
    kept: bool
    reason: str
    leading_at_zero: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "factor": str(self.factor),
            "multiplicity": self.multiplicity,
            "classification": "kept" if self.kept else "discarded",
            "reason": self.reason,
            "leading_at_zero": None if self.leading_at_zero is None else str(self.leading_at_zero),
        }


def classify_poles(h: RatFunc) -> list[PoleClass]:
    """Classify each denominator factor p of h, of t-degree d, by e = deg_t p(t, 0).

    As z -> 0, e of p's roots tend to the roots of p(t, 0) and d - e
    escape to infinity.  A factor is kept when e = d, which includes t^k
    (the pole at the origin), and discarded when e = 0.  A mixed factor
    (0 < e < d) is discarded too: the residue sum over part of its roots is
    in general not a rational function of z, and the series cross-check in
    diagonal_rational then reports the violation.
    """
    out = []
    for p, m in h.denom:
        d = p.degree
        if d <= 0:
            out.append(PoleClass(p, m, False, "no dependence on t"))
            continue
        lead0 = p.content * p.rows[-1][0]
        e = max((i for i, row in enumerate(p.rows) if row and row[0]), default=-1)
        if e == d:
            origin = not any(p.rows[:-1])
            reason = "pole at the origin" if origin else "poles bounded as z -> 0"
            out.append(PoleClass(p, m, True, reason, lead0))
        elif e <= 0:
            out.append(PoleClass(p, m, False, "poles escape to infinity as z -> 0", lead0))
        else:
            out.append(PoleClass(p, m, False, f"mixed: {e} bounded roots, {d - e} "
                                 "escaping; diagonal is likely algebraic", lead0))
    return out


# ---------------------------------------------------------------------------
# Residue sums at rational points, rebuilt as rational functions of z
# ---------------------------------------------------------------------------

def _at(rows: Sequence[Sequence[int]], z0: int) -> list[int]:
    """rows evaluated at z = z0 by Horner: integer coefficients in t."""
    out = [_horner(row, z0, 1, len(row) - 1) for row in rows]
    while out and out[-1] == 0:
        out.pop()
    return out


def _interpolate(zs: Sequence[int], vs: Sequence[int]) -> list[int]:
    """The integer polynomial of degree below len(zs) taking the values vs at the points zs.

    Newton's divided differences of an integer polynomial at integer points
    are integers, so every division of the table is exact; the Newton form
    is then expanded on ints.
    """
    table = list(vs)
    for j in range(1, len(zs)):
        for i in range(len(zs) - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) // (zs[i] - zs[i - j])
    out: list[int] = []
    for zi, c in zip(zs[::-1], table[::-1]):
        out = _int_add(_int_mul(out, [-zi, 1]), [c])
    return out


def _values_at(num: list[int], p: list[int], q: list[int], e: int) -> tuple[int, int] | None:
    """(N, D) at one point from num, P and Q in t there: N / D = [t^(d-1)] A / lc(P).

    A = num * Q^(-1) mod P, d = deg P.  D = Res(P, Q) * lc(P)^(e+1) and N =
    Res(P, Q) * lc(P)^e * [t^(d-1)] A, the values of the integer
    polynomials in _residue_sum's proof; None where Res(P, Q) = 0.
    """
    part = _part_numerator(num, q, p)
    if part is None:
        return None
    a, c, r = part
    d = len(p) - 1
    return p[-1] ** e * (a[d - 1] if len(a) >= d else 0) // c, r * p[-1] ** (e + 1)


def _residue_sum(h: RatFunc, poles: Sequence[PoleClass]) -> RatFunc:
    """Residue sum over all roots of the kept factors, as a function of z.

    poles classifies h's denominator factors (classify_poles).  Write h =
    kappa * num / (P * Q * C) on integers, num h's numerator expanded, P
    the kept factors, Q the others that have t and C those without t, each
    to its multiplicity, with t-degrees d_P, d_Q, d_N.  C only divides the
    residues, so it stays out of Q and of the bounds below and enters the
    result as it is.
    Where P and Q are coprime, num / (P*Q) = A/P + (regular at P's roots)
    with A = num * Q^(-1) mod P of degree below d_P, and the residues of
    A/P over the roots of P, repeated or shared by two kept factors, sum to
    [t^(d_P-1)] A / lc(P).

    A is the solution of A*Q + B*P = num with deg A < d_P and deg B < b =
    max(d_Q, d_N - d_P + 1), a square system whose determinant is
    +-lc(P)^e * Res_t(P, Q), e = b - d_Q.  By Cramer's rule, D = Res *
    lc(P)^(e+1) and N = Res * lc(P)^e * [t^(d_P-1)] A, the determinant with
    that unknown's column replaced by num, are integer polynomials in z,
    and the sum is kappa * N / D.  P and Q are multiplied out once, as
    BiPolys, and every degree is read off them: eps_X is the z-degree of X
    and l_P that of lc(P), exact for P and Q since degrees add in Z[z][t]:

        deg D <= d_P*eps_Q + d_Q*eps_P + (e+1)*l_P
        deg N <= (d_P-1)*eps_Q + b*eps_P + eps_N

    so N and D are interpolated from one point more than the larger bound.
    At z0 = 1, -1, 2, -2, ... one subresultant PRS gives r = Res(P, Q)(z0)
    and u with u*Q = r mod P, and one pseudo-division of num*u by P gives
    A*r.  A point where P or Q loses t-degree, or r = 0, is skipped; it is
    a root of lc(P)*lc(Q)*Res, so more skips than that product's degree
    mean Res is zero: a kept factor shares roots with one that is not kept
    for every z.
    """
    if not any(pole.kept for pole in poles):
        return RatFunc.zero()
    numerator = BiPoly.const("t", "z", h.constant)
    for p, m in h.numer:
        numerator *= p ** m
    num_rows, kappa = numerator.rows, numerator.content
    P = Q = BiPoly.one("t", "z")
    t_free = []
    for pole in poles:
        p, m = pole.factor, pole.multiplicity
        kappa /= p.content ** m
        if pole.kept:
            P *= p ** m
        elif p.degree > 0:
            Q *= p ** m
        else:
            t_free.append((Poly.from_ints("z", p.rows[0]), m))
    d_p, eps_p, l_p = P.degree, P.inner_degree, len(P.rows[-1]) - 1
    d_q, eps_q, l_q = Q.degree, Q.inner_degree, len(Q.rows[-1]) - 1
    b = max(d_q, len(num_rows) - d_p)
    e = b - d_q
    points = max(d_p * eps_q + d_q * eps_p + (e + 1) * l_p,
                 (d_p - 1) * eps_q + b * eps_p + numerator.inner_degree) + 1
    budget = l_p + l_q + d_p * eps_q + d_q * eps_p
    good: list[tuple[int, int, int]] = []      # (z0, N(z0), D(z0))
    z0 = 0
    while len(good) < points:
        z0 = -z0 if z0 > 0 else 1 - z0
        p, q = _at(P.rows, z0), _at(Q.rows, z0)
        nd = (len(p), len(q)) == (d_p + 1, d_q + 1) and _values_at(_at(num_rows, z0), p, q, e)
        if nd:
            good.append((z0, *nd))
        elif (budget := budget - 1) < 0:
            raise DegeneratePoleError("degenerate pole configuration: "
                                      "kept factor shares roots with the other factors")
    zs, ns, ds = zip(*good)
    num, den = RatFunc(1, [(Poly.from_ints("z", _interpolate(zs, ns), kappa), 1)],
                       [(Poly.from_ints("z", _interpolate(zs, ds)), 1)] + t_free
                       ).reduced_fraction()
    return RatFunc(1, [(num, 1)], [(den, 1)])


# ---------------------------------------------------------------------------
# The full diagonal extractor
# ---------------------------------------------------------------------------

class DiagnosticReport(_Frozen):
    __slots__ = _fields = ("poles", "status", "checked_terms", "first_mismatch", "lhs", "rhs")
    _defaults = {"first_mismatch": None, "lhs": None, "rhs": None}
    poles: tuple[PoleClass, ...]
    # "ok", "unchecked" (check_terms == 0: nothing compared) or
    # "method-assumption-violated"
    status: str
    checked_terms: int
    first_mismatch: int | None
    lhs: str | None
    rhs: str | None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "checked_terms": self.checked_terms,
            "first_mismatch": self.first_mismatch,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "poles": [p.to_json_dict() for p in self.poles],
        }


def diagonal_rational(f: RatFunc, check_terms: int = 100) -> tuple[RatFunc, DiagnosticReport]:
    """Diagonal of a bivariate rational function as a rational function.

    Sums the residues over the kept factors' roots, reduces and normalizes
    the result, then cross-checks its series against the series diagonal of f.
    A mismatch is reported as status "method-assumption-violated" together
    with the first disagreeing index and both exact values.  With
    check_terms == 0 nothing is compared, and the status is "unchecked".
    f is read with every factor on both sides cancelled (RatFunc.cancelled),
    and that one function is transformed, classified, summed and
    cross-checked: a factor that cancels, such as the 1 - x of every
    convolution GF, is never interpolated, and the poles reported are
    those of the function summed, to their net multiplicities.
    """
    h = hk_transform(f := f.cancelled())
    poles = classify_poles(h)
    result = _residue_sum(h, poles)
    hit = _first_mismatch(series_of_rational(result, check_terms), diagonal_series(f, check_terms))
    if hit is None:
        return result, DiagnosticReport(tuple(poles), "ok" if check_terms else "unchecked",
                                        check_terms)
    return result, DiagnosticReport(tuple(poles), "method-assumption-violated", check_terms, *hit)


# ---------------------------------------------------------------------------
# Partial fractions over the supplied (pairwise coprime) factors
# ---------------------------------------------------------------------------

class PartialFractions(_Frozen):
    """poly_part + sum(numerator / base^power for each part)."""

    __slots__ = _fields = ("poly_part", "parts")
    poly_part: Poly
    parts: tuple[tuple[Poly, Poly, int], ...]


def _part_numerator(num: Sequence[int], cof: Sequence[int],
                    base: Sequence[int]) -> tuple[list[int], int, int] | None:
    """A = num * cof^(-1) mod base on integer coefficient lists, as (a, c, r), A = a / (c*r).

    A, of degree below base's, makes num/(cof*base) - A/base regular at
    base's roots.  The inverse of cof is u / r, with r = Res(base, cof) and
    u * cof = r mod base from poly._int_resultant, and the reduction of
    num * u mod base is one pseudo-division, whose power of lc(base) is c.
    None when cof and base share a root.  The residue route (_values_at)
    and partial_fractions both invert this way.
    """
    r, u = _int_resultant(base, cof)
    if not r:
        return None
    _, a, c = _int_prem(_int_mul(num, u), base)
    return a, c, r


def partial_fractions(f: RatFunc) -> PartialFractions:
    """Unique decomposition over the supplied denominator factors.

    No factorization beyond the given factors is attempted; the factors
    must be pairwise coprime (checked exactly).  Parts have numerator
    degree below deg(base^power); summing everything reproduces f.
    """
    if not f.is_univariate:
        raise ValueError("partial fractions requires a univariate function")
    num, den = f.expand_to_single_fraction()
    if not f.denom:
        return PartialFractions(num.scale(1 / den.coeff(0)), ())
    poly_part, rem = num.divrem(den)
    parts = []
    for p, m in f.denom:
        dj = p ** m
        cof = den.divrem(dj)[0]
        part = _part_numerator(rem.prim, cof.prim, dj.prim)
        if part is None:
            raise ValueError(f"denominator factors are not coprime: ({p}) shares a root "
                             "with another factor")
        a, c, r = part
        parts.append((Poly.from_ints(num.var, a, rem.content / (c * r * cof.content)), p, m))
    return PartialFractions(poly_part, tuple(parts))
