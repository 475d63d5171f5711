"""Diagonal extraction by exact residue sums, and partial fractions.

Hautus-Klarner style: the diagonal of F(x, y) is the sum of the residues
of F(z*t, 1/t)/t at its poles in t that stay bounded as z -> 0.
Substitute, clear powers of t factor by factor, and keep the denominator
factors whose roots all stay bounded, the pole at t = 0 included.  For a
kept factor p of t-degree d and multiplicity m, the residue sum over its
roots is [t^(m*d-1)] A / lc(p)^m, where A / p^m is p's part in the
partial-fraction decomposition in t.  No root is ever named: the sum is
evaluated over Q at rational points z0, and the rational function of z is
rebuilt by Cauchy interpolation (rational reconstruction by extended
Euclid; von zur Gathen and Gerhard, Modern Computer Algebra, 5.7).

Both steps run on Python ints.  The transform's numerator and factors are
read as integer rows with their contents (BiPoly.int_rows), the contents
folded into one rational scale kappa, and evaluated at each z0 by integer
Horner.  Partial fractions read the integer parts of the expanded
polynomials the same way.  The remainders mod p^m are pseudo-remainders,
whose powers of lc(p^m) are tracked, and the inverse mod p^m and the
reconstruction both come from one integer extended primitive
pseudo-remainder sequence, poly._int_xprs (ibid., 6.10-6.12).  A Fraction
is built once per kept factor and point, and for the reconstructed
function.

The pole-keeping rule is not proved here in general; diagonal_rational
validates it per instance by comparing against the series diagonal and
reports a violation instead of silently trusting the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import BiPoly, Poly, _cleared, _horner, _int_mul, _int_prem, _int_xprs
from .ratfunc import RatFunc
from .series import diagonal_series, series_of_rational


class DegeneratePoleError(ArithmeticError):
    """Degenerate pole configuration: a kept factor shares roots with another factor."""


# ---------------------------------------------------------------------------
# The substitution x -> z*t, y -> 1/t with t-clearing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HKTransform:
    """F(z*t, 1/t)/t in cleared form: numerator and factored denominator.

    cleared records the power of t multiplied into each denominator factor
    (aligned with denom_factors); balance_power is the residual power of t,
    the denominator's cleared powers less the numerator's and the extra 1/t,
    moved into the numerator (when positive) or appended to the denominator
    as a t^k factor (when negative).
    """

    numerator: BiPoly                       # variables (t, z)
    denom_factors: tuple[tuple[BiPoly, int], ...]
    cleared: tuple[int, ...]
    balance_power: int

    def evaluate(self, t0, z0) -> Fraction:
        acc = self.numerator.evaluate(t0, z0)
        for p, m in self.denom_factors:
            v = p.evaluate(t0, z0)
            if v == 0:
                raise ZeroDivisionError("evaluation at a pole")
            acc /= v ** m
        return acc


def _substitute_factor(p: BiPoly) -> tuple[BiPoly, int]:
    """p(z*t, 1/t) * t^k with k minimal so the result is polynomial in t."""
    k = 0
    for i, j, _c in p.monomials():
        k = max(k, j - i)
    terms: dict[tuple[int, int], Fraction] = {}
    for i, j, c in p.monomials():
        key = (i - j + k, i)   # (t exponent, z exponent)
        terms[key] = terms.get(key, Fraction(0)) + c
    return BiPoly.from_monomials("t", "z", terms), k


def hk_transform(f: RatFunc) -> HKTransform:
    """Substitute first_var -> z*t, second_var -> 1/t into a factored function.

    Every factor is multiplied by the minimal power of t making it
    polynomial; the cleared powers and the extra 1/t are balanced so the
    result represents exactly F(z*t, 1/t)/t.
    """
    if f.is_zero:
        return HKTransform(BiPoly.zero("t", "z"), (), (), 0)
    f_vars = f.variables
    if any(v in ("t", "z") for v in f_vars):
        raise ValueError("input variables t and z are reserved by the transform")
    if len(f_vars) == 2:
        outer, inner = f_vars
    elif len(f_vars) == 1:
        v = f_vars[0]
        outer, inner = (("x", v) if v == "y" else (v, "y"))
    else:
        outer, inner = "x", "y"

    def lift(p):
        return p if isinstance(p, BiPoly) else BiPoly.embed(p, outer, inner)

    numer = BiPoly.const("t", "z", f.constant)
    num_cleared = 0
    for p, m in f.numer:
        q, k = _substitute_factor(lift(p))
        numer = numer * (q ** m)
        num_cleared += k * m
    denom: list[tuple[BiPoly, int]] = []
    cleared: list[int] = []
    den_cleared = 0
    for p, m in f.denom:
        q, k = _substitute_factor(lift(p))
        denom.append((q, m))
        cleared.append(k)
        den_cleared += k * m
    balance = den_cleared - num_cleared - 1
    if balance > 0:
        numer = numer * BiPoly.from_monomials("t", "z", {(balance, 0): Fraction(1)})
    elif balance < 0:
        denom.append((BiPoly.from_monomials("t", "z", {(-balance, 0): Fraction(1)}), 1))
        cleared.append(0)
    return HKTransform(numer, tuple(denom), tuple(cleared), balance)


# ---------------------------------------------------------------------------
# Pole classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleClass:
    factor: BiPoly
    multiplicity: int
    index: int                     # position in HKTransform.denom_factors
    kept: bool
    reason: str
    leading_at_zero: Fraction | None = None

    def to_json_dict(self) -> dict:
        return {
            "factor": str(self.factor),
            "multiplicity": self.multiplicity,
            "classification": "kept" if self.kept else "discarded",
            "reason": self.reason,
            "leading_at_zero": None if self.leading_at_zero is None else str(self.leading_at_zero),
        }


def classify_poles(h: HKTransform) -> list[PoleClass]:
    """Classify each factor p of t-degree d by e = deg_t p(t, 0).

    As z -> 0, e of p's roots tend to the roots of p(t, 0) and d - e
    escape to infinity.  A factor is kept when e = d, which includes t^k
    (the pole at the origin), and discarded when e = 0.  A mixed factor
    (0 < e < d) is discarded too: the residue sum over part of its roots is
    in general not a rational function of z, and the series cross-check in
    diagonal_rational then reports the violation.
    """
    out = []
    for idx, (p, m) in enumerate(h.denom_factors):
        d = p.degree
        if d <= 0:
            out.append(PoleClass(p, m, idx, False, "no dependence on t"))
            continue
        lead0 = p.leading.coeff(0)
        e = max((i for i, c in enumerate(p.coeffs) if c.coeff(0)), default=-1)
        if e == d:
            origin = all(c.is_zero for c in p.coeffs[:-1])
            reason = "pole at the origin" if origin else "poles bounded as z -> 0"
            out.append(PoleClass(p, m, idx, True, reason, lead0))
        elif e <= 0:
            out.append(PoleClass(p, m, idx, False, "poles escape to infinity as z -> 0",
                                 lead0))
        else:
            out.append(PoleClass(p, m, idx, False, f"mixed: {e} bounded roots, {d - e} "
                                 "escaping; diagonal is likely algebraic", lead0))
    return out


# ---------------------------------------------------------------------------
# Residue sums at rational points, rebuilt as rational functions of z
# ---------------------------------------------------------------------------

# Integer coefficients of a polynomial in (t, z), indexed [t power][z power].
_Rows = list[list[int]]


def _int_transform(h: HKTransform) -> tuple[_Rows, list[tuple[_Rows, int]], Fraction]:
    """h on integers: (numerator, [(factor, multiplicity)], kappa).

    kappa is the one rational scale with h = kappa * numerator / prod factor^m.
    """
    kappa, num = h.numerator.int_rows()
    factors = []
    for p, m in h.denom_factors:
        c, rows = p.int_rows()
        factors.append((rows, m))
        kappa /= c ** m
    return num, factors, kappa


def _at(rows: _Rows, z0: int) -> list[int]:
    """rows evaluated at z = z0 by Horner: integer coefficients in t."""
    out = [_horner(row, z0, 1, len(row) - 1) for row in rows]
    while out and out[-1] == 0:
        out.pop()
    return out


def _residue_sum_at(rows: tuple[_Rows, list[tuple[_Rows, int]], Fraction],
                    kept: list[PoleClass], z0: int) -> Fraction | None:
    """The kept factors' residue sum at z = z0, for h given by _int_transform(h).

    None where a kept factor loses t-degree or shares a root with another
    factor, since the sum there is not the value of the rational function.
    """
    num_rows, factor_rows, kappa = rows
    factors = [(_at(p, z0), m) for p, m in factor_rows]
    num = _at(num_rows, z0)
    total = Fraction(0)
    for pole in kept:
        p, m = factors[pole.index]
        if len(p) - 1 < pole.factor.degree:
            return None
        cof = [1]
        for idx, (q, k) in enumerate(factors):
            if idx != pole.index:
                for _ in range(k):
                    cof = _int_mul(cof, q)
        base = p
        for _ in range(m - 1):
            base = _int_mul(base, p)
        part = _part_numerator(num, cof, base)
        if part is None:
            return None
        a, c = part
        top = m * (len(p) - 1) - 1
        if top < len(a):
            total += Fraction(a[top], c * p[-1] ** m)
    return total * kappa


def _newton_extend(table: list[Fraction], zs: list[int], z: int, v: Fraction) -> None:
    """Extend the Newton table of the first k = len(table) points of zs by the point z, value v.

    table[i] is the divided difference f[zs[0], ..., zs[i]], so the first n
    entries are the table of the first n points, whatever points follow.
    The new entry f[zs[0], ..., zs[k-1], z] takes one difference and one
    division per entry before it: f[zs[0..i-1], z] - table[i], over
    z - zs[i], is f[zs[0..i], z].
    """
    for zi, c in zip(zs, table):
        v = (v - c) / (z - zi)
    table.append(v)


def _cauchy(zs: list[int], table: list[Fraction]) -> tuple[Poly, Poly]:
    """Rational reconstruction (r, s) of the values at the points zs, given their Newton table.

    The table gives the Newton form of V with V(zs[i]) = the value there;
    the table is cleared to integers once, L*V and prod(z - zs[i]) are
    expanded on ints, and the extended PRS of (prod, L*V) stops at the first
    remainder r of degree below len(zs)/2, with cofactor s: r = s*L*V
    modulo the product.
    """
    ints, den = _cleared(table)
    value, basis = [ints[-1]], [1]
    for zi, c in zip(zs[-2::-1], ints[-2::-1]):
        value = _int_mul(value, [-zi, 1])
        value[0] += c
    for zi in zs:
        basis = _int_mul(basis, [-zi, 1])
    while value and value[-1] == 0:
        value.pop()
    r, s = _int_xprs(basis, value, (len(zs) + 1) // 2)
    return Poly.from_ints("z", r), Poly.from_ints("z", s, den)


def _residue_sum(h: HKTransform, kept: list[PoleClass]) -> RatFunc:
    """Residue sum over all roots of the kept factors, as a function of z.

    The sum is evaluated at z0 = 1, -1, 2, -2, ..., skipping degenerate
    points, and rebuilt from its first n values with n doubling until the
    candidate reproduces the next two.  The Newton table of the values is
    built once, one entry per point as the prefixes need them, and each
    reconstruction reads the first n entries; the two check points are
    compared by their values.
    """
    # A skipped point is a root of a kept factor's leading coefficient or of
    # its resultant with another factor; more skips than those degrees allow
    # mean two factors share a root for every z.
    budget = sum(pole.factor.leading.degree
                 + sum(pole.factor.degree * q.inner_degree + q.degree * pole.factor.inner_degree
                       for idx, (q, _) in enumerate(h.denom_factors) if idx != pole.index)
                 for pole in kept)
    rows = _int_transform(h)
    zs: list[int] = []
    vs: list[Fraction] = []
    table: list[Fraction] = []
    z0, n = 0, 4
    while True:
        while len(zs) < n + 2:
            z0 = -z0 if z0 > 0 else 1 - z0
            v = _residue_sum_at(rows, kept, z0)
            if v is not None:
                zs.append(z0)
                vs.append(v)
            elif (budget := budget - 1) < 0:
                raise DegeneratePoleError("degenerate pole configuration: "
                                          "kept factor shares roots with the other factors")
        while len(table) < n:
            _newton_extend(table, zs, zs[len(table)], vs[len(table)])
        num, den = _cauchy(zs[:n], table[:n])
        if all(den.evaluate(z) != 0 and num.evaluate(z) == v * den.evaluate(z)
               for z, v in zip(zs[n:], vs[n:])):
            num, den = RatFunc(1, [(num, 1)], [(den, 1)]).reduced_fraction()
            return RatFunc(1, [(num, 1)], [(den, 1)])
        n *= 2


def residue_trace(h: HKTransform, kept: PoleClass) -> RatFunc:
    """Sum of residues of h over all roots of the kept factor, in z."""
    return _residue_sum(h, [kept])


# ---------------------------------------------------------------------------
# The full diagonal extractor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticReport:
    poles: tuple[PoleClass, ...]
    status: str                    # "ok" or "method-assumption-violated"
    checked_terms: int
    first_mismatch: int | None = None
    lhs: str | None = None
    rhs: str | None = None

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
    with the first disagreeing index and both exact values.
    """
    h = hk_transform(f)
    poles = classify_poles(h)
    result = _residue_sum(h, [p for p in poles if p.kept])
    status, first, lhs, rhs = "ok", None, None, None
    got = series_of_rational(result, check_terms)
    want = diagonal_series(f, check_terms)
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            status, first, lhs, rhs = "method-assumption-violated", i, str(a), str(b)
            break
    report = DiagnosticReport(tuple(poles), status, check_terms, first, lhs, rhs)
    return result, report


# ---------------------------------------------------------------------------
# Partial fractions over the supplied (pairwise coprime) factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractions:
    """poly_part + sum(numerator / base^power for each part)."""

    poly_part: Poly
    parts: tuple[tuple[Poly, Poly, int], ...]


def _part_numerator(num: list[int], cof: list[int],
                    base: list[int]) -> tuple[list[int], int] | None:
    """A = num * cof^(-1) mod base on integer coefficient lists, as (a, c) with A = a / c.

    A, of degree below base's, makes num/(cof*base) - A/base regular at
    base's roots.  The reductions mod base are pseudo-remainders, whose
    powers of lc(base) go into a and c, and cof is inverted by the extended
    PRS of (base, cof) run to a constant.  None when cof and base share a root.
    """
    _, cof, c1 = _int_prem(cof, base)
    g, inv = _int_xprs(base, cof, 1)
    if not g:
        return None
    _, num, c2 = _int_prem(num, base)
    _, a, c3 = _int_prem(_int_mul(num, inv), base)
    return [v * c1 for v in a], c2 * c3 * g[0]


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
        a, c = part
        parts.append((Poly.from_ints(num.var, a, rem.content / (c * cof.content)), p, m))
    return PartialFractions(poly_part, tuple(parts))
