"""Shared random generators and reference implementations for the tests.

Everything is seeded so the suite is deterministic run to run.
"""

from fractions import Fraction
from random import Random
from typing import Iterable

from gfdiag import BiPoly, PoleAtOriginError, Poly, RatFunc, SequenceSpec
from gfdiag.poly import VARIABLES, _format_coeff_term, _power, as_fraction
from gfdiag.textform import (MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING, MAX_SCALAR_BITS,
                             ParseError, _tokenize)


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

def ref_generate_sequence(spec: SequenceSpec, n: int) -> list[Fraction]:
    """First n terms of spec by its recurrence, over Fraction."""
    terms = list(spec.initial[:n])
    for m in range(len(terms), n):
        terms.append(sum((spec.coeffs[i] * terms[m - 1 - i] for i in range(spec.order)),
                         Fraction(0)))
    return terms


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


def ref_series_of_rational(f: RatFunc, n: int) -> list[Fraction]:
    """First n Taylor coefficients of a univariate f through its reduced fraction.

    This is the gate the series kernel replaced: expand, divide out the
    gcd, and refuse a reduced denominator that vanishes at the origin.
    """
    if f.is_zero:
        return [Fraction(0)] * n
    num, den = f.reduced_fraction()
    if den.coeff(0) == 0:
        raise PoleAtOriginError("pole at the origin")
    return ref_series_div(num.coeffs, den.coeffs, n)


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


# -- Exact equality of rational functions ---------------------------------------

def identity_equal(f: RatFunc, g: RatFunc) -> bool:
    """Exact rational-function equality: f - g has a zero numerator, i.e.
    the cross-multiplied polynomial identity holds."""
    return (f - g).is_zero


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


def ref_residue_sum_at(h, poles, z0: int) -> Fraction | None:
    """The kept factors' residue sum [t^(m*d-1)] A / lc(p)^m at z = z0, over Fraction.

    h is a RatFunc in (t, z), and poles classify its denominator factors.
    """
    def at(p):
        return Poly(p.outer, [c.evaluate(z0) for c in p.coeffs])

    factors = [(at(pole.factor), pole.multiplicity) for pole in poles]
    num = Poly.const("t", h.constant)
    for p, m in h.numer:
        num = num * at(p) ** m
    total = Fraction(0)
    for i, pole in enumerate(poles):
        if not pole.kept:
            continue
        p, m = factors[i]
        if p.degree < pole.factor.degree:
            return None
        cof = Poly.one(p.var)
        for idx, (q, k) in enumerate(factors):
            if idx != i:
                cof = cof * q ** k
        a = ref_part_numerator(num, cof, p ** m)
        if a is None:
            return None
        total += a.coeff(m * p.degree - 1) / p.leading ** m
    return total


def ref_divided_differences(zs: list[int], vs: list[Fraction]) -> list[Fraction]:
    """Newton coefficients of the values vs at the points zs: the triangular table over Fraction."""
    coeffs = list(vs)
    for j in range(1, len(zs)):
        for i in range(len(zs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (zs[i] - zs[i - j])
    return coeffs


def ref_sylvester(a: list[int], b: list[int]) -> Fraction:
    """Res(a, b) as the determinant of the Sylvester matrix, by Fraction elimination.

    a and b are ascending coefficient lists with nonzero leading entries; the
    deg b rows of a's coefficients come first.
    """
    m, n = len(a) - 1, len(b) - 1
    rows = [[Fraction(0)] * i + [Fraction(v) for v in reversed(a)] + [Fraction(0)] * (n - 1 - i)
            for i in range(n)]
    rows += [[Fraction(0)] * i + [Fraction(v) for v in reversed(b)] + [Fraction(0)] * (m - 1 - i)
             for i in range(m)]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((i for i in range(col, m + n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, m + n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


# -- Fraction references for gfdiag.poly ----------------------------------------
#
# Poly and BiPoly as they were when they stored Fraction coefficient tuples,
# with their own Fraction loops for every operation, and unify over them.
# The property tests compare the integer-content classes with these.

class RefPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RefPoly is immutable")

    @classmethod
    def zero(cls, var: str) -> "RefPoly":
        return cls(var, ())

    @classmethod
    def one(cls, var: str) -> "RefPoly":
        return cls(var, (1,))

    @classmethod
    def const(cls, var: str, value) -> "RefPoly":
        return cls(var, (as_fraction(value),))

    @classmethod
    def monomial(cls, var: str, degree: int, coeff=1) -> "RefPoly":
        return cls(var, (0,) * degree + (as_fraction(coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def _check_var(self, other: "RefPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.var, other)
        if not isinstance(other, RefPoly):
            return NotImplemented
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly(self.var, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RefPoly) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RefPoly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RefPoly):
            return NotImplemented
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return RefPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return RefPoly(self.var, out)

    __rmul__ = __mul__

    def scale(self, c) -> "RefPoly":
        c = as_fraction(c)
        if c == 0:
            return RefPoly.zero(self.var)
        return RefPoly(self.var, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "RefPoly":
        return _power(RefPoly.one(self.var), self, n)

    def divrem(self, other: "RefPoly") -> tuple["RefPoly", "RefPoly"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        self._check_var(other)
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) < len(b):
            return RefPoly.zero(self.var), self
        lead = b[-1]
        q = [Fraction(0)] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                c /= lead
                q[i - db] = c
                for j in range(db + 1):
                    a[i - db + j] -= c * b[j]
        return RefPoly(self.var, q), RefPoly(self.var, a[:db])

    def monic(self) -> "RefPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def evaluate(self, value) -> Fraction:
        value = as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.var, other)
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        first = True
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                mono = ""
            elif i == 1:
                mono = self.var
            else:
                mono = f"{self.var}^{i}"
            parts.append(_format_coeff_term(c, mono, first))
            first = False
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RefPoly({self.var!r}, {list(self.coeffs)!r})"


class RefBiPoly:
    """Bivariate polynomial: Polys in the inner variable, indexed by outer degree."""

    __slots__ = ("outer", "inner", "coeffs")

    def __init__(self, outer: str, inner: str, coeffs: Iterable = ()):
        if outer == inner:
            raise ValueError("outer and inner variables must differ")
        cs = []
        for c in coeffs:
            if isinstance(c, RefPoly):
                if c.var != inner:
                    raise ValueError(f"variable mismatch: coefficient in {c.var}, inner is {inner}")
                cs.append(c)
            else:
                cs.append(RefPoly.const(inner, c))
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RefBiPoly is immutable")

    @classmethod
    def zero(cls, outer: str, inner: str) -> "RefBiPoly":
        return cls(outer, inner, ())

    @classmethod
    def one(cls, outer: str, inner: str) -> "RefBiPoly":
        return cls(outer, inner, (RefPoly.one(inner),))

    @classmethod
    def const(cls, outer: str, inner: str, value) -> "RefBiPoly":
        return cls(outer, inner, (RefPoly.const(inner, value),))

    @classmethod
    def embed(cls, p: RefPoly, outer: str, inner: str) -> "RefBiPoly":
        """Lift a univariate polynomial whose variable is outer or inner."""
        if p.var == inner:
            return cls(outer, inner, (p,))
        if p.var == outer:
            return cls(outer, inner, tuple(RefPoly.const(inner, c) for c in p.coeffs))
        raise ValueError(f"variable mismatch: cannot embed {p.var} into ({outer}, {inner})")

    @classmethod
    def from_monomials(cls, outer: str, inner: str, terms: dict) -> "RefBiPoly":
        """Build from {(outer_exp, inner_exp): coeff}."""
        if not terms:
            return cls.zero(outer, inner)
        deg_o = max(i for i, _ in terms)
        rows: list[dict] = [dict() for _ in range(deg_o + 1)]
        for (i, j), c in terms.items():
            rows[i][j] = rows[i].get(j, Fraction(0)) + as_fraction(c)
        polys = []
        for row in rows:
            if row:
                deg_i = max(row)
                polys.append(RefPoly(inner, [row.get(j, 0) for j in range(deg_i + 1)]))
            else:
                polys.append(RefPoly.zero(inner))
        return cls(outer, inner, polys)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in the outer variable."""
        return len(self.coeffs) - 1

    @property
    def inner_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    @property
    def leading(self) -> RefPoly:
        """Leading coefficient in the outer variable, a RefPoly in the inner one."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> RefPoly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else RefPoly.zero(self.inner)

    def monomials(self):
        """Yield (outer_exp, inner_exp, coeff) for every nonzero term."""
        for i, p in enumerate(self.coeffs):
            for j, c in enumerate(p.coeffs):
                if c:
                    yield i, j, c

    def _check_vars(self, other: "RefBiPoly") -> None:
        if self.outer != other.outer or self.inner != other.inner:
            raise ValueError(
                f"variable mismatch: ({self.outer},{self.inner}) vs ({other.outer},{other.inner})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefBiPoly.const(self.outer, self.inner, other)
        if not isinstance(other, RefBiPoly):
            return NotImplemented
        self._check_vars(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefBiPoly(self.outer, self.inner, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefBiPoly.const(self.outer, self.inner, other)
        return self + (-other)

    def __neg__(self):
        return RefBiPoly(self.outer, self.inner, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, RefPoly):
            other = RefBiPoly.embed(other, self.outer, self.inner)
        if not isinstance(other, RefBiPoly):
            return NotImplemented
        self._check_vars(other)
        if self.is_zero or other.is_zero:
            return RefBiPoly.zero(self.outer, self.inner)
        out = [RefPoly.zero(self.inner) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
        return RefBiPoly(self.outer, self.inner, out)

    __rmul__ = __mul__

    def scale(self, c) -> "RefBiPoly":
        c = as_fraction(c)
        if c == 0:
            return RefBiPoly.zero(self.outer, self.inner)
        return RefBiPoly(self.outer, self.inner, [p.scale(c) for p in self.coeffs])

    def __pow__(self, n: int) -> "RefBiPoly":
        return _power(RefBiPoly.one(self.outer, self.inner), self, n)

    def evaluate(self, outer_value, inner_value) -> Fraction:
        outer_value = as_fraction(outer_value)
        acc = Fraction(0)
        for p in reversed(self.coeffs):
            acc = acc * outer_value + p.evaluate(inner_value)
        return acc

    def __eq__(self, other):
        if not isinstance(other, RefBiPoly):
            return NotImplemented
        return (self.outer == other.outer and self.inner == other.inner
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.outer, self.inner, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        first = True
        for i, j, c in self.monomials():
            factors = []
            if i == 1:
                factors.append(self.outer)
            elif i > 1:
                factors.append(f"{self.outer}^{i}")
            if j == 1:
                factors.append(self.inner)
            elif j > 1:
                factors.append(f"{self.inner}^{j}")
            parts.append(_format_coeff_term(c, "*".join(factors), first))
            first = False
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RefBiPoly({self.outer!r}, {self.inner!r}, {[repr(c) for c in self.coeffs]})"


def ref_unify(*values) -> tuple:
    """Lift Polys, BiPolys and scalars to one common RefPoly or RefBiPoly shape.

    The first RefBiPoly fixes the variable pair.  Without one, Polys in two
    distinct variables become BiPolys whose outer variable is the one
    listed earlier in VARIABLES.  Scalars become constants of the shape;
    values with no polynomial among them are returned as they are.
    """
    pair = next(((v.outer, v.inner) for v in values if isinstance(v, RefBiPoly)), None)
    if pair is None:
        names = list(dict.fromkeys(v.var for v in values if isinstance(v, RefPoly)))
        if not names:
            return values
        if len(names) == 1:
            return tuple(v if isinstance(v, RefPoly) else RefPoly.const(names[0], v) for v in values)
        pair = sorted(names[:2], key=lambda v: VARIABLES.index(v) if v in VARIABLES
                      else len(VARIABLES))
    outer, inner = pair
    out = []
    for v in values:
        if isinstance(v, RefBiPoly):
            if (v.outer, v.inner) != (outer, inner):
                raise ValueError(
                    f"variable mismatch: ({outer},{inner}) vs ({v.outer},{v.inner})")
            out.append(v)
        elif isinstance(v, RefPoly):
            out.append(RefBiPoly.embed(v, outer, inner))
        else:
            out.append(RefBiPoly.const(outer, inner, v))
    return tuple(out)


# -- Fold reference for gfdiag.textform ------------------------------------------
#
# The parser as it was when it folded every '+' through RatFunc's + and built
# a RatFunc for every variable, kept so that the property tests can compare
# the one-pass sums with it; only a sum now drops a variable that cancels
# out of it, as textform's sums and RatFunc's + do.  A third variable fails
# here with the ValueError of unify, where textform raises a ParseError.

def _ref_as_ratfunc(v) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc(v)


def _ref_mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return _ref_as_ratfunc(b).scale(a)
    if isinstance(b, Fraction):
        return a.scale(b)
    return a * b


def _ref_div(a, b):
    if isinstance(b, Fraction):
        if b == 0:
            raise ParseError("division by zero")
        return _ref_mul(a, Fraction(1) / b)
    if b.is_zero:
        raise ParseError("division by the zero function")
    return _ref_mul(a, b.inverse())


def _ref_add(a, b):
    """a + b; a sum of two nonzero functions takes the variables its factors use."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    a, b = _ref_as_ratfunc(a), _ref_as_ratfunc(b)
    s = a + b
    if a.is_zero or b.is_zero or len(s.variables) < 2:
        return s
    factors = s.numer + s.denom
    if all(len(p.rows) == 1 for p, _ in factors):
        var, narrow = s.variables[1], lambda p: p.rows[0]
    elif all(len(row) <= 1 for p, _ in factors for row in p.rows):
        var, narrow = s.variables[0], lambda p: [row[0] if row else 0 for row in p.rows]
    else:
        return s
    numer, denom = ([(Poly.from_ints(var, narrow(p), p.content), m) for p, m in side]
                    for side in (s.numer, s.denom))
    return RatFunc(s.constant, numer, denom)


def _ref_capped(value):
    if isinstance(value, RatFunc) and any(m > MAX_EXPONENT for _, m in value.numer + value.denom):
        raise ParseError(f"a factor's power exceeds the cap {MAX_EXPONENT}")
    return value


_REF_OPS = frozenset("+-*/^()")


def _ref_literal(digits: str) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"an integer literal of {len(digits)} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    return int(digits)


class _RefParser:
    def __init__(self, tokens: list[str]):
        self.tokens = [("var", t) if t in VARIABLES else ("op", t) if t in _REF_OPS
                       else ("int", t) for t in tokens]
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def nest(self, levels: int) -> None:
        """Each open parenthesis and each unary minus sign nests one level."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and minus signs nest deeper than the cap {MAX_NESTING}")

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near token {self.pos}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = _ref_add(value, -rhs if val == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                value = _ref_capped(_ref_mul(value, rhs) if val == "*" else _ref_div(value, rhs))
            else:
                return value

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            self.nest(1)
            value = -self.unary()
            self.depth -= 1
            return value
        return self.primary()

    def primary(self):
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            power = _ref_literal(exp)
            if power > MAX_EXPONENT:
                raise ParseError(f"exponent {power} exceeds the cap {MAX_EXPONENT}")
            scalar = value if isinstance(value, Fraction) else value.constant
            bits = max(scalar.numerator.bit_length(), scalar.denominator.bit_length())
            if power * bits > MAX_SCALAR_BITS:
                raise ParseError(f"a power of a {bits}-bit scalar to {power} exceeds "
                                 f"the cap of {MAX_SCALAR_BITS} bits")
            value = _ref_capped(value ** power)
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Fraction(_ref_literal(val))
        if kind == "var":
            return RatFunc(1, [(Poly.monomial(val, 1), 1)])
        if kind == "op" and val == "(":
            self.nest(1)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {val!r}")


def ref_parse_ratfunc(text: str) -> RatFunc:
    """parse_ratfunc by the left-to-right fold of every sum through RatFunc's +."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    return _ref_as_ratfunc(_RefParser(tokens).parse())
