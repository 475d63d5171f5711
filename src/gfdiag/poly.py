"""Dense exact polynomials over the rationals.

Univariate polynomials (Poly) are coefficient tuples indexed by degree,
trailing zeros trimmed, the empty tuple being the zero polynomial.
Bivariate polynomials (BiPoly) are polynomials in an outer variable whose
coefficients are Polys in an inner variable.  All scalars are
fractions.Fraction, so every operation is exact.

Degrees in this toolkit stay small (below ~30), which is why the dense
representation and the schoolbook algorithms are the right trade-off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as gcd_int
from typing import Iterable, Union

Rational = Fraction

#: Variable names accepted by the text format (see textform.py).
VARIABLES = ("x", "y", "z", "t", "w")


def as_fraction(v) -> Fraction:
    """Coerce an int, str, or Fraction to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def _format_coeff_term(c: Fraction, monomial: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = -c if c < 0 else c
    if monomial:
        body = monomial if mag == 1 else f"{mag}*{monomial}"
    else:
        body = str(mag)
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def _power(one, base, n: int):
    """base^n by binary powering (repeated squaring); one is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative polynomial power")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Poly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, var: str) -> "Poly":
        return cls(var, ())

    @classmethod
    def one(cls, var: str) -> "Poly":
        return cls(var, (1,))

    @classmethod
    def const(cls, var: str, value) -> "Poly":
        return cls(var, (as_fraction(value),))

    @classmethod
    def monomial(cls, var: str, degree: int, coeff=1) -> "Poly":
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

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.var, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(self.var, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        if c == 0:
            return Poly.zero(self.var)
        return Poly(self.var, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        return _power(Poly.one(self.var), self, n)

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        self._check_var(other)
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) < len(b):
            return Poly.zero(self.var), self
        lead = b[-1]
        q = [Fraction(0)] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                c /= lead
                q[i - db] = c
                for j in range(db + 1):
                    a[i - db + j] -= c * b[j]
        return Poly(self.var, q), Poly(self.var, a[:db])

    def monic(self) -> "Poly":
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
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
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
        return f"Poly({self.var!r}, {list(self.coeffs)!r})"


class BiPoly:
    """Bivariate polynomial: Polys in the inner variable, indexed by outer degree."""

    __slots__ = ("outer", "inner", "coeffs")

    def __init__(self, outer: str, inner: str, coeffs: Iterable = ()):
        if outer == inner:
            raise ValueError("outer and inner variables must differ")
        cs = []
        for c in coeffs:
            if isinstance(c, Poly):
                if c.var != inner:
                    raise ValueError(f"variable mismatch: coefficient in {c.var}, inner is {inner}")
                cs.append(c)
            else:
                cs.append(Poly.const(inner, c))
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls, outer: str, inner: str) -> "BiPoly":
        return cls(outer, inner, ())

    @classmethod
    def one(cls, outer: str, inner: str) -> "BiPoly":
        return cls(outer, inner, (Poly.one(inner),))

    @classmethod
    def const(cls, outer: str, inner: str, value) -> "BiPoly":
        return cls(outer, inner, (Poly.const(inner, value),))

    @classmethod
    def embed(cls, p: Poly, outer: str, inner: str) -> "BiPoly":
        """Lift a univariate polynomial whose variable is outer or inner."""
        if p.var == inner:
            return cls(outer, inner, (p,))
        if p.var == outer:
            return cls(outer, inner, tuple(Poly.const(inner, c) for c in p.coeffs))
        raise ValueError(f"variable mismatch: cannot embed {p.var} into ({outer}, {inner})")

    @classmethod
    def from_monomials(cls, outer: str, inner: str, terms: dict) -> "BiPoly":
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
                polys.append(Poly(inner, [row.get(j, 0) for j in range(deg_i + 1)]))
            else:
                polys.append(Poly.zero(inner))
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
    def leading(self) -> Poly:
        """Leading coefficient in the outer variable, a Poly in the inner one."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Poly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Poly.zero(self.inner)

    def monomials(self):
        """Yield (outer_exp, inner_exp, coeff) for every nonzero term."""
        for i, p in enumerate(self.coeffs):
            for j, c in enumerate(p.coeffs):
                if c:
                    yield i, j, c

    def _check_vars(self, other: "BiPoly") -> None:
        if self.outer != other.outer or self.inner != other.inner:
            raise ValueError(
                f"variable mismatch: ({self.outer},{self.inner}) vs ({other.outer},{other.inner})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(self.outer, self.inner, other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check_vars(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return BiPoly(self.outer, self.inner, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(self.outer, self.inner, other)
        return self + (-other)

    def __neg__(self):
        return BiPoly(self.outer, self.inner, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            other = BiPoly.embed(other, self.outer, self.inner)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check_vars(other)
        if self.is_zero or other.is_zero:
            return BiPoly.zero(self.outer, self.inner)
        out = [Poly.zero(self.inner) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
        return BiPoly(self.outer, self.inner, out)

    __rmul__ = __mul__

    def scale(self, c) -> "BiPoly":
        c = as_fraction(c)
        if c == 0:
            return BiPoly.zero(self.outer, self.inner)
        return BiPoly(self.outer, self.inner, [p.scale(c) for p in self.coeffs])

    def __pow__(self, n: int) -> "BiPoly":
        return _power(BiPoly.one(self.outer, self.inner), self, n)

    def evaluate(self, outer_value, inner_value) -> Fraction:
        outer_value = as_fraction(outer_value)
        acc = Fraction(0)
        for p in reversed(self.coeffs):
            acc = acc * outer_value + p.evaluate(inner_value)
        return acc

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
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
        return f"BiPoly({self.outer!r}, {self.inner!r}, {[repr(c) for c in self.coeffs]})"


AnyPoly = Union[Poly, BiPoly]


def unify(*values) -> tuple:
    """Lift Polys, BiPolys and scalars to one common Poly or BiPoly shape.

    The first BiPoly fixes the variable pair.  Without one, Polys in two
    distinct variables become BiPolys whose outer variable is the one
    listed earlier in VARIABLES.  Scalars become constants of the shape;
    values with no polynomial among them are returned as they are.
    """
    pair = next(((v.outer, v.inner) for v in values if isinstance(v, BiPoly)), None)
    if pair is None:
        names = list(dict.fromkeys(v.var for v in values if isinstance(v, Poly)))
        if not names:
            return values
        if len(names) == 1:
            return tuple(v if isinstance(v, Poly) else Poly.const(names[0], v) for v in values)
        pair = sorted(names[:2], key=lambda v: VARIABLES.index(v) if v in VARIABLES
                      else len(VARIABLES))
    outer, inner = pair
    out = []
    for v in values:
        if isinstance(v, BiPoly):
            if (v.outer, v.inner) != (outer, inner):
                raise ValueError(
                    f"variable mismatch: ({outer},{inner}) vs ({v.outer},{v.inner})")
            out.append(v)
        elif isinstance(v, Poly):
            out.append(BiPoly.embed(v, outer, inner))
        else:
            out.append(BiPoly.const(outer, inner, v))
    return tuple(out)


def _int_primitive(p: Poly) -> list[int]:
    """Integer coefficients of p with denominators cleared and content removed."""
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // gcd_int(lcm, c.denominator)
    ints = [int(c * lcm) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd_int(g, abs(v))
    return [v // g for v in ints] if g > 1 else ints


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for j in range(db + 1):
            a[shift + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rational field.

    Internally a primitive pseudo-remainder sequence over the integers,
    which keeps the Euclidean loop free of fraction arithmetic.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if not (a.is_zero or b.is_zero):
        a._check_var(b)
    var = a.var if not a.is_zero else b.var
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    ca, cb = _int_primitive(a), _int_primitive(b)
    if len(ca) < len(cb):
        ca, cb = cb, ca
    while cb:
        r = _int_prem(ca, cb)
        g = 0
        for v in r:
            g = gcd_int(g, abs(v))
        if g > 1:
            r = [v // g for v in r]
        ca, cb = cb, r
    lead = ca[-1]
    return Poly(var, [Fraction(v, lead) for v in ca])


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid with monic gcd: g = u*a + v*b."""
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
