"""Dense exact polynomials over the rationals, stored on integers.

A Poly is a rational content times a primitive integer polynomial.  Its
prim is the integer coefficient tuple indexed by degree, trailing zeros
trimmed, with gcd 1 and a positive leading entry; the content is a
Fraction that carries the sign.  The zero polynomial has content 0 and
prim ().  The form is canonical, so == and hash compare (var, content,
prim).  coeffs, coeff(i), leading, monomials() and str give Fractions,
built on demand for callers; the arithmetic never reads them.

The arithmetic runs on the integer tuples (von zur Gathen and Gerhard,
Modern Computer Algebra, 6.2).  A product is one integer convolution,
_int_mul, of the primitive parts, with the contents multiplied: by Gauss's
lemma a product of primitive polynomials is primitive, so it needs no gcd.
Euclidean division is the one integer pseudo-division, _int_prem: c*a =
q*b + r gives a = (q/c)*b + r/c; power-series division, the other
division kernel, is in gfdiag.series.  A sum brings the two contents to
one denominator and divides out the gcd of the result.  Evaluation at p/q is
integer Horner on the polynomial homogenized by q, with one Fraction at
the end.

A BiPoly is the same form in two variables: a rational content times
integer rows, rows[i][j] the coefficient of outer^i * inner^j.  Across all
rows the entries have gcd 1, each row and the rows have no trailing zeros,
and the last entry of the last row is positive; the content carries the
sign.  coeffs, coeff(i) and leading build Polys in the inner variable on
demand.  A product multiplies the contents and convolves the rows on
_int_mul, with no gcd (Gauss's lemma in Z[x, y]); scaling and negation
touch only the content.  Callers that compute on a BiPoly, the series
kernel, the residue route and the parser, read its content and rows.

The pseudo-division is also shared by poly_gcd's primitive remainder
sequence and by the subresultant one, _int_resultant, that gives the
residue route its resultants and inverses.

Degrees in this toolkit stay small (below ~30) outside of powers, which is
why the dense representation and the schoolbook algorithms are the right
trade-off.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from math import gcd as gcd_int, lcm
from typing import Iterable, Sequence, Union

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


def _power(one, base, n: int, mul=operator.mul):
    """base^n by repeated squaring with the product mul; one is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative polynomial power")
    out = one
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def _canonical(ints: Sequence[int], scale) -> tuple[Fraction, tuple[int, ...]]:
    """(content, prim) of the polynomial scale * sum of ints[i] * var^i."""
    content, rows = _canonical_rows((ints,), scale)
    return content, rows[0] if rows else ()


def _canonical_rows(rows: Sequence[Sequence[int]], scale) -> tuple[Fraction, tuple]:
    """(content, rows) of the polynomial scale * sum of rows[i][j] * outer^i * inner^j."""
    g = gcd_int(*(gcd_int(*row) for row in rows))
    if not (g and scale):
        return Fraction(0), ()
    return _trimmed(scale * g, [[v // g for v in row] for row in rows] if g != 1 else rows)


def _trimmed(content, rows: Sequence[Sequence[int]]) -> tuple[Fraction, tuple]:
    """(content, rows) for nonzero integer rows with gcd 1: zeros trimmed, sign in content."""
    out = []
    for row in rows:
        n = len(row)
        while n and not row[n - 1]:
            n -= 1
        out.append(tuple(row[:n]))
    while not out[-1]:
        out.pop()
    if out[-1][-1] < 0:
        content, out = -content, [tuple(-v for v in row) for row in out]
    return content if isinstance(content, Fraction) else Fraction(content), tuple(out)


def _sum(ca: Fraction, ra, cb: Fraction, rb) -> tuple[Fraction, tuple]:
    """(content, rows) of ca * ra + cb * rb: the contents on one denominator, their gcd kept."""
    (u, v), den = _cleared((ca, cb))
    g = gcd_int(u, v)
    u, v = u // g, v // g
    return _canonical_rows([_int_add([u * a for a in x], [v * b for b in y])
                            for x, y in zip_longest(ra, rb, fillvalue=())], Fraction(g, den))


def _horner(ints: Sequence[int], p: int, q: int, n: int) -> int:
    """q^n times the value at p/q of sum ints[i] * var^i, whose degree is at most n."""
    acc, qk = 0, q ** (n + 1 - len(ints))
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


class _Frozen:
    """An immutable value whose fields are its __slots__, set once."""

    __slots__ = ()

    def _fill(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, *fields):
        """The value of fields already in canonical form, in __slots__ order."""
        self = object.__new__(cls)
        self._fill(*fields)
        return self


class Poly(_Frozen):
    """Univariate polynomial with exact rational coefficients: content * prim."""

    __slots__ = ("var", "content", "prim")

    def __init__(self, var: str, coeffs: Iterable = ()):
        ints, den = _cleared([c if isinstance(c, (int, Fraction)) else as_fraction(c)
                              for c in coeffs])
        self._fill(var, *_canonical(ints, Fraction(1, den)))

    @classmethod
    def from_ints(cls, var: str, ints: Sequence[int], scale=1) -> "Poly":
        """The polynomial scale * sum of ints[i] * var^i, for a rational scale."""
        return cls._make(var, *_canonical(ints, scale))

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients indexed by degree, as Fractions."""
        return tuple(self.content * v for v in self.prim)

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.prim) - 1

    @property
    def leading(self) -> Fraction:
        if not self.prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def coeff(self, i: int) -> Fraction:
        return self.content * self.prim[i] if 0 <= i < len(self.prim) else Fraction(0)

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not (self.prim and other.prim):
            return other if not self.prim else self
        content, rows = _sum(self.content, (self.prim,), other.content, (other.prim,))
        return Poly._make(self.var, content, rows[0] if rows else ())

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._make(self.var, -self.content, self.prim)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        return Poly._make(self.var, self.content * other.content,
                          tuple(_int_mul(self.prim, other.prim)))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        if c == 0:
            return Poly.zero(self.var)
        return Poly._make(self.var, self.content * c, self.prim)

    def __pow__(self, n: int) -> "Poly":
        return _power(Poly.one(self.var), self, n)

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        self._check_var(other)
        if len(self.prim) < len(other.prim):
            return Poly.zero(self.var), self
        q, r, c = _int_prem(self.prim, other.prim)
        s = self.content / c
        return Poly.from_ints(self.var, q, s / other.content), Poly.from_ints(self.var, r, s)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return Poly._make(self.var, Fraction(1, self.prim[-1]), self.prim)

    def evaluate(self, value) -> Fraction:
        value = as_fraction(value)
        n, c = self.degree, self.content
        if n < 0:
            return Fraction(0)
        acc = _horner(self.prim, value.numerator, value.denominator, n)
        return Fraction(c.numerator * acc, c.denominator * value.denominator ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.var == other.var and self.content == other.content
                and self.prim == other.prim)

    def __hash__(self):
        return hash((self.var, self.content, self.prim))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, v in enumerate(self.prim):
            if v:
                mono = "" if i == 0 else self.var if i == 1 else f"{self.var}^{i}"
                parts.append(_format_coeff_term(self.content * v, mono, not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.var!r}, {list(self.coeffs)!r})"


class BiPoly(_Frozen):
    """Bivariate polynomial: content * sum of rows[i][j] * outer^i * inner^j."""

    __slots__ = ("outer", "inner", "content", "rows")

    def __init__(self, outer: str, inner: str, coeffs: Iterable = ()):
        """From the coefficients in the outer variable: Polys in inner, or scalars."""
        if outer == inner:
            raise ValueError("outer and inner variables must differ")
        polys = [c if isinstance(c, Poly) else Poly.const(inner, c) for c in coeffs]
        for p in polys:
            if p.var != inner:
                raise ValueError(f"variable mismatch: coefficient in {p.var}, inner is {inner}")
        ints, den = _cleared([p.content for p in polys])
        self._fill(outer, inner, *_canonical_rows(
            [[k * v for v in p.prim] for p, k in zip(polys, ints)], Fraction(1, den)))

    @classmethod
    def from_ints(cls, outer: str, inner: str, rows: Sequence[Sequence[int]],
                  scale=1) -> "BiPoly":
        """The polynomial scale * sum of rows[i][j] * outer^i * inner^j, for a rational scale."""
        return cls._make(outer, inner, *_canonical_rows(rows, scale))

    @classmethod
    def zero(cls, outer: str, inner: str) -> "BiPoly":
        return cls._make(outer, inner, Fraction(0), ())

    @classmethod
    def one(cls, outer: str, inner: str) -> "BiPoly":
        return cls._make(outer, inner, Fraction(1), ((1,),))

    @classmethod
    def const(cls, outer: str, inner: str, value) -> "BiPoly":
        return cls.from_ints(outer, inner, [[1]], as_fraction(value))

    @classmethod
    def embed(cls, p: Poly, outer: str, inner: str) -> "BiPoly":
        """Lift a univariate polynomial whose variable is outer or inner."""
        if p.var == inner:
            return cls._make(outer, inner, p.content, (p.prim,) if p.prim else ())
        if p.var == outer:
            return cls._make(outer, inner, p.content, tuple((v,) if v else () for v in p.prim))
        raise ValueError(f"variable mismatch: cannot embed {p.var} into ({outer}, {inner})")

    @classmethod
    def from_monomials(cls, outer: str, inner: str, terms: dict) -> "BiPoly":
        """Build from {(outer_exp, inner_exp): coeff}."""
        if not terms:
            return cls.zero(outer, inner)
        width = max(j for _, j in terms) + 1
        rows = [[0] * width for _ in range(max(i for i, _ in terms) + 1)]
        for (i, j), c in terms.items():
            rows[i][j] += as_fraction(c)
        return cls(outer, inner, [Poly(inner, row) for row in rows])

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def degree(self) -> int:
        """Degree in the outer variable."""
        return len(self.rows) - 1

    @property
    def inner_degree(self) -> int:
        return max(map(len, self.rows), default=0) - 1

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """Coefficients in the outer variable, as Polys in the inner one."""
        return tuple(self.coeff(i) for i in range(len(self.rows)))

    @property
    def leading(self) -> Poly:
        """Leading coefficient in the outer variable, a Poly in the inner one."""
        if not self.rows:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self.rows) - 1)

    def coeff(self, i: int) -> Poly:
        if not 0 <= i < len(self.rows):
            return Poly.zero(self.inner)
        return Poly.from_ints(self.inner, self.rows[i], self.content)

    def monomials(self):
        """Yield (outer_exp, inner_exp, coeff) for every nonzero term."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v:
                    yield i, j, self.content * v

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
        if not (self.rows and other.rows):
            return other if not self.rows else self
        return BiPoly._make(self.outer, self.inner,
                            *_sum(self.content, self.rows, other.content, other.rows))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiPoly._make(self.outer, self.inner, -self.content, self.rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            other = BiPoly.embed(other, self.outer, self.inner)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check_vars(other)
        if not (self.rows and other.rows):
            return BiPoly.zero(self.outer, self.inner)
        out: list[list[int]] = [[] for _ in range(len(self.rows) + len(other.rows) - 1)]
        for i, a in enumerate(self.rows):
            for j, b in enumerate(other.rows):
                out[i + j] = _int_add(out[i + j], _int_mul(a, b))
        return BiPoly._make(self.outer, self.inner,
                            *_trimmed(self.content * other.content, out))

    __rmul__ = __mul__

    def scale(self, c) -> "BiPoly":
        c = as_fraction(c)
        if c == 0:
            return BiPoly.zero(self.outer, self.inner)
        return BiPoly._make(self.outer, self.inner, self.content * c, self.rows)

    def __pow__(self, n: int) -> "BiPoly":
        return _power(BiPoly.one(self.outer, self.inner), self, n)

    def evaluate(self, outer_value, inner_value) -> Fraction:
        x, y = as_fraction(outer_value), as_fraction(inner_value)
        if self.is_zero:
            return Fraction(0)
        c, n, m = self.content, self.degree, self.inner_degree
        acc = _horner([_horner(row, y.numerator, y.denominator, m) for row in self.rows],
                      x.numerator, x.denominator, n)
        return Fraction(c.numerator * acc,
                        c.denominator * x.denominator ** n * y.denominator ** m)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return (self.outer == other.outer and self.inner == other.inner
                and self.content == other.content and self.rows == other.rows)

    def __hash__(self):
        return hash((self.outer, self.inner, self.content, self.rows))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
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
            parts.append(_format_coeff_term(c, "*".join(factors), not parts))
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


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(values * L as ints, L), with L the lcm of the values' denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_add(a: list[int], b: list[int]) -> list[int]:
    """Sum of integer coefficient lists (ascending)."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient lists (ascending): the one multiplication kernel."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return out


def _int_prem(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists (ascending): (q, r, c).

    c * a = q * b + r with deg r < deg b, where c = lc(b)^k for the k
    elimination steps taken (k = 0 when deg a < deg b).  This is the one
    Euclidean division kernel; the one power-series division kernel is
    gfdiag.series._series_grid.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(a) - db, 0)
    c = 1
    while r and len(r) - 1 >= db:
        la = r[-1]
        shift = len(r) - 1 - db
        if lb != 1:
            r = [v * lb for v in r]
            q = [v * lb for v in q]
            c *= lb
        q[shift] = la
        for j in range(db + 1):
            r[shift + j] -= la * b[j]
        while r and r[-1] == 0:
            r.pop()
    return q, r, c


def _int_resultant(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int]]:
    """(r, u): r = Res(a, b), the Sylvester determinant, and u * b = r modulo a.

    The subresultant PRS on integer lists (Collins; Cohen, A Course in
    Computational Algebraic Number Theory, 3.3.7), carrying the cofactor of
    b: each step is one _int_prem, scaled up to lc^(delta+1) when it took
    fewer elimination steps, and divides the remainder and its cofactor by
    the g*h^delta that the subresultant theorem proves exact.  (0, []) when
    a or b is zero; a and b are not both constants.
    """
    if not (a and b):
        return 0, []
    r0, r1, t0, t1, sign = a, b, [], [1], 1
    if len(a) < len(b):
        r0, r1, t0, t1 = b, a, [1], []
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = 1
    while len(r1) > 1:
        delta = len(r0) - len(r1)
        if (len(r0) - 1) * (len(r1) - 1) % 2:
            sign = -sign
        lead = r1[-1]
        full = lead ** (delta + 1)
        q, r, c = _int_prem(r0, r1)
        scale, div = full // c, g * h ** delta
        t = _int_add([full * v for v in t0], [-scale * v for v in _int_mul(q, t1)])
        while t and t[-1] == 0:
            t.pop()
        r0, r1, t0, t1 = r1, [scale * v // div for v in r], t1, [v // div for v in t]
        g = lead
        h = g ** delta // h ** (delta - 1) if delta else h
    if not r1:
        return 0, []
    n = len(r0) - 1
    lift, den = r1[0] ** (n - 1), h ** (n - 1)
    return sign * r1[0] * lift // den, [sign * v * lift // den for v in t1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rational field.

    A primitive pseudo-remainder sequence on the integer parts, which keeps
    the Euclidean loop free of fraction arithmetic.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if not (a.is_zero or b.is_zero):
        a._check_var(b)
    var = a.var if not a.is_zero else b.var
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    ca, cb = a.prim, b.prim
    if len(ca) < len(cb):
        ca, cb = cb, ca
    while cb:
        r = _int_prem(ca, cb)[1]
        g = gcd_int(*r)
        if g > 1:
            r = [v // g for v in r]
        ca, cb = cb, r
    return Poly.from_ints(var, ca).monic()
