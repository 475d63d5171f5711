"""Dense exact polynomials over the rationals, stored on integers.

Poly and BiPoly are one value, _Poly, in one or two variables: names, a
Fraction content and primitive integer rows.  rows[i][j] is the
coefficient of names[0]^i * names[-1]^j, so a Poly, with one name, has at
most one row, rows == (prim,), its coefficients indexed by degree; a
BiPoly has two names, outer and inner.  Across all rows the entries have
gcd 1, each row and the rows have no trailing zeros, and the last entry
of the last row is positive; the content carries the sign.  The zero
polynomial has content 0 and rows ().  The form is canonical, so == and
hash compare (names, content, rows).  coeffs, coeff(i), leading and str
build Fractions (a BiPoly's coefficients are Polys in the inner variable)
on demand for callers; the arithmetic never reads them.

The arithmetic is written once, in _Poly, and runs on the integer rows
(von zur Gathen and Gerhard, Modern Computer Algebra, 6.2).  A product
multiplies the contents and convolves the rows on _int_mul, the one
integer convolution, with no gcd: by Gauss's lemma (in Z[x] and Z[x, y])
a product of primitive polynomials is primitive.  A sum brings the two
contents to one denominator and divides out the gcd of the result.
Scaling and negation touch only the content.  Evaluation at p/q is
integer Horner on the rows homogenized by q, with one Fraction at the
end.  An operand in one variable meets one in two by _lift, the one place
a univariate polynomial is laid out as the outer variable, one entry per
row; the series kernel and the parser lift through it too.

What depends on the shape stays in each class: the constructors, the
variable names, the coefficient views and, for a Poly, Euclidean
division.  That is the one integer pseudo-division, _int_prem: c*a = q*b
+ r gives a = (q/c)*b + r/c; power-series division, the other division
kernel, is in gfdiag.series.  The pseudo-division is also shared by
poly_gcd's primitive remainder sequence and by the subresultant one,
_int_resultant, that gives the residue route its resultants and inverses.

Degrees in this toolkit stay small (below ~30) outside of powers, which is
why the dense representation and the schoolbook algorithms are the right
trade-off.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd as gcd_int, lcm

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


def _canonical_rows(rows: Sequence[Sequence[int]], scale) -> tuple[Fraction, tuple]:
    """(content, rows) of scale * sum of rows[i][j] * names[0]^i * names[-1]^j."""
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


def _horner(ints: Sequence[int], p: int, q: int, n: int) -> int:
    """q^n times the value at p/q of sum ints[i] * var^i, whose degree is at most n."""
    acc, qk = 0, q ** (n + 1 - len(ints))
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _lift(p, outer: str) -> tuple:
    """The rows of p, which has names and rows, with outer as the outer variable.

    A polynomial in outer alone has its one row laid out one entry per row,
    as the outer variable of two; any other keeps its rows.  This is the one
    place a univariate polynomial changes layout.
    """
    if p.names == (outer,):
        return tuple((v,) if v else () for row in p.rows for v in row)
    return p.rows


def _stripped(rows: Sequence[Sequence[int]]) -> tuple[int, int, tuple]:
    """(a, b, rest): nonzero rows as names[0]^a * names[-1]^b * rest, a and b largest.

    Only zeros are dropped, so primitive rows with the canonical sign stay
    so.  The series kernel and RatFunc.cancelled strip factors by this.
    Rows with a constant term are returned as they are.
    """
    if rows[0] and rows[0][0]:
        return 0, 0, rows
    a = rows.index(next(filter(None, rows)))
    b = min([row.index(next(filter(None, row))) for row in rows if row])
    return a, b, tuple(row[b:] for row in rows[a:])


def _label(names: tuple[str, ...]) -> str:
    return names[0] if len(names) == 1 else f"({','.join(names)})"


class _Frozen:
    """An immutable value whose fields, named by _fields, are set once.

    The one immutable-value base: Poly, BiPoly, RatFunc and every record
    of the package derive from it.  A record declares __slots__ = _fields
    and, in _defaults, the values of its optional fields; its constructor
    takes the fields by position or keyword.  == and hash compare the
    fields, so a value's form must be canonical.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields but {len(args)} were given")
        values = dict(zip(self._fields, args))
        for key in kwargs:
            if key in values or key not in self._fields:
                raise TypeError(f"{name}() got {'a repeated' if key in values else 'an unknown'} "
                                f"field {key!r}")
        values = {**self._defaults, **values, **kwargs}
        missing = [key for key in self._fields if key not in values]
        if missing:
            raise TypeError(f"{name}() is missing field(s) {', '.join(map(repr, missing))}")
        self._fill(*(values[key] for key in self._fields))

    def _fill(self, *fields) -> None:
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @classmethod
    def _make(cls, *fields):
        """The value of fields already in canonical form, in _fields order."""
        self = object.__new__(cls)
        self._fill(*fields)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return self._make, self._values()

    def __eq__(self, other):
        if not isinstance(other, _Frozen) or other._fields != self._fields:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Poly(_Frozen):
    """content * sum of rows[i][j] * names[0]^i * names[-1]^j, in one or two names.

    The arithmetic of Poly and BiPoly: a Poly has one name and at most one
    row, a BiPoly two names.  An operand in one name meets one in two by
    being lifted into the two (see _lift).
    """

    __slots__ = _fields = ("names", "content", "rows")

    @classmethod
    def zero(cls, *names: str):
        return cls._make(names, Fraction(0), ())

    @classmethod
    def one(cls, *names: str):
        return cls._make(names, Fraction(1), ((1,),))

    @classmethod
    def const(cls, *names_and_value):
        """The constant polynomial: const(*names, value)."""
        *names, value = names_and_value
        value = as_fraction(value)
        return cls._make(tuple(names), value, ((1,),) if value else ())

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def _check_names(self, other: "_Poly") -> None:
        if self.names != other.names:
            raise ValueError(f"variable mismatch: {_label(self.names)} vs {_label(other.names)}")

    def _coerce(self, other):
        """other in self's names: a scalar as a constant, a polynomial in fewer names lifted.

        NotImplemented when other is no polynomial or has more names, so that
        Python asks other to lift self.
        """
        if isinstance(other, _Poly):
            if other.names == self.names:
                return other
            if len(other.names) < len(self.names):
                return BiPoly.embed(other, *self.names)
            if len(other.names) == len(self.names):
                self._check_names(other)
        elif isinstance(other, (int, Fraction)):
            return self.const(*self.names, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not (self.rows and other.rows):
            return other if not self.rows else self
        # The contents on one denominator, the gcd of their numerators kept out.
        (u, v), den = _cleared((self.content, other.content))
        g = gcd_int(u, v)
        u, v = u // g, v // g
        return self._make(self.names, *_canonical_rows(
            [_int_add([u * a for a in x], [v * b for b in y])
             for x, y in zip_longest(self.rows, other.rows, fillvalue=())], Fraction(g, den)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Poly) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make(self.names, -self.content, self.rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not (self.rows and other.rows):
            return self.zero(*self.names)
        out: list = [[] for _ in range(len(self.rows) + len(other.rows) - 1)]
        for i, a in enumerate(self.rows):
            for j, b in enumerate(other.rows):
                ab = _int_mul(a, b)
                out[i + j] = _int_add(out[i + j], ab) if out[i + j] else ab
        return self._make(self.names, *_trimmed(self.content * other.content, out))

    __rmul__ = __mul__

    def scale(self, c):
        c = as_fraction(c)
        if c == 0:
            return self.zero(*self.names)
        return self._make(self.names, self.content * c, self.rows)

    def __pow__(self, n: int):
        return _power(self.one(*self.names), self, n)

    def evaluate(self, *values) -> Fraction:
        """The value with each name set to its value, in the order of names."""
        if len(values) != len(self.names):
            raise TypeError(f"expected {len(self.names)} values, got {len(values)}")
        x, y = as_fraction(values[0]), as_fraction(values[-1])
        if not self.rows:
            return Fraction(0)
        c, n, m = self.content, len(self.rows) - 1, max(map(len, self.rows)) - 1
        acc = _horner([_horner(row, y.numerator, y.denominator, m) for row in self.rows],
                      x.numerator, x.denominator, n)
        return Fraction(c.numerator * acc,
                        c.denominator * x.denominator ** n * y.denominator ** m)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(*self.names, other)
        return super().__eq__(other)

    __hash__ = _Frozen.__hash__

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        outer, inner = self.names[0], self.names[-1]
        parts: list[str] = []
        for i, row in enumerate(self.rows):
            head = "" if i == 0 else outer if i == 1 else f"{outer}^{i}"
            for j, v in enumerate(row):
                if v:
                    tail = "" if j == 0 else inner if j == 1 else f"{inner}^{j}"
                    mono = f"{head}*{tail}" if head and tail else head or tail
                    parts.append(_format_coeff_term(self.content * v, mono, not parts))
        return "".join(parts)


class Poly(_Poly):
    """Univariate polynomial with exact rational coefficients: content * prim."""

    __slots__ = ()

    def __init__(self, var: str, coeffs: Iterable = ()):
        ints, den = _cleared([c if isinstance(c, (int, Fraction)) else as_fraction(c)
                              for c in coeffs])
        self._fill((var,), *_canonical_rows((ints,), Fraction(1, den)))

    @classmethod
    def from_ints(cls, var: str, ints: Sequence[int], scale=1) -> "Poly":
        """The polynomial scale * sum of ints[i] * var^i, for a rational scale."""
        return cls._make((var,), *_canonical_rows((ints,), scale))

    @classmethod
    def monomial(cls, var: str, degree: int, coeff=1) -> "Poly":
        return cls(var, (0,) * degree + (as_fraction(coeff),))

    @property
    def var(self) -> str:
        return self.names[0]

    @property
    def prim(self) -> tuple[int, ...]:
        """The primitive integer coefficients indexed by degree: the one row, or ()."""
        return self.rows[0] if self.rows else ()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients indexed by degree, as Fractions."""
        return tuple(self.content * v for v in self.prim)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.prim) - 1

    @property
    def leading(self) -> Fraction:
        if not self.rows:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.rows[0][-1]

    def coeff(self, i: int) -> Fraction:
        prim = self.prim
        return self.content * prim[i] if 0 <= i < len(prim) else Fraction(0)

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        self._check_names(other)
        if len(self.prim) < len(other.prim):
            return Poly.zero(self.var), self
        q, r, c = _int_prem(self.prim, other.prim)
        s = self.content / c
        return Poly.from_ints(self.var, q, s / other.content), Poly.from_ints(self.var, r, s)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return Poly._make(self.names, Fraction(1, self.rows[0][-1]), self.rows)

    def __repr__(self) -> str:
        return f"Poly({self.var!r}, {list(self.coeffs)!r})"


class BiPoly(_Poly):
    """Bivariate polynomial: content * sum of rows[i][j] * outer^i * inner^j."""

    __slots__ = ()

    def __init__(self, outer: str, inner: str, coeffs: Iterable = ()):
        """From the coefficients in the outer variable: Polys in inner, or scalars."""
        if outer == inner:
            raise ValueError("outer and inner variables must differ")
        polys = [c if isinstance(c, Poly) else Poly.const(inner, c) for c in coeffs]
        for p in polys:
            if p.var != inner:
                raise ValueError(f"variable mismatch: coefficient in {p.var}, inner is {inner}")
        ints, den = _cleared([p.content for p in polys])
        self._fill((outer, inner), *_canonical_rows(
            [[k * v for v in p.prim] for p, k in zip(polys, ints)], Fraction(1, den)))

    @classmethod
    def from_ints(cls, outer: str, inner: str, rows: Sequence[Sequence[int]],
                  scale=1) -> "BiPoly":
        """The polynomial scale * sum of rows[i][j] * outer^i * inner^j, for a rational scale."""
        return cls._make((outer, inner), *_canonical_rows(rows, scale))

    @classmethod
    def embed(cls, p: AnyPoly, outer: str, inner: str) -> "BiPoly":
        """Lift a polynomial in outer or inner; one in (outer, inner) is returned as it is."""
        if p.names == (outer, inner):
            return p
        if len(p.names) > 1 or p.names[0] not in (outer, inner):
            raise ValueError(f"variable mismatch: cannot embed {_label(p.names)} "
                             f"into ({outer}, {inner})")
        return cls._make((outer, inner), p.content, _lift(p, outer))

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
    def outer(self) -> str:
        return self.names[0]

    @property
    def inner(self) -> str:
        return self.names[1]

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

    def __repr__(self) -> str:
        return f"BiPoly({self.outer!r}, {self.inner!r}, {[repr(c) for c in self.coeffs]})"


AnyPoly = Poly | BiPoly


def unify(*values) -> tuple:
    """Lift Polys, BiPolys and scalars to one common Poly or BiPoly shape.

    The first BiPoly fixes the variable pair.  Without one, Polys in two
    distinct variables become BiPolys whose outer variable is the one
    listed earlier in VARIABLES.  Scalars become constants of the shape;
    values with no polynomial among them are returned as they are.
    """
    shapes = [v.names for v in values if isinstance(v, _Poly)]
    if not shapes:
        return values
    names = next((s for s in shapes if len(s) == 2), None)
    if names is None:
        names = tuple(sorted(list(dict.fromkeys(s[0] for s in shapes))[:2],
                             key=lambda v: VARIABLES.index(v) if v in VARIABLES
                             else len(VARIABLES)))
    shape = (Poly if len(names) == 1 else BiPoly).zero(*names)
    return tuple(shape._coerce(v) if isinstance(v, _Poly) else shape.const(*names, v)
                 for v in values)


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(values * L as ints, L), with L the lcm of the values' denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of integer coefficient lists or tuples (ascending), as a list."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return out


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
        a._check_names(b)
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
