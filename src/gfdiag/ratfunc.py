"""Rational functions kept in factored form.

A RatFunc is constant * prod(numerator factors^mult) / prod(denominator
factors^mult).  Products are never expanded unless a caller asks for the
single-fraction form, which is what lets the whole pipeline avoid
multivariate polynomial factorization.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .poly import AnyPoly, Poly, _Frozen, _stripped, as_fraction, poly_gcd, unify


def _constant_of(p: AnyPoly) -> Fraction | None:
    """The scalar value of a degree-0 polynomial, else None."""
    return p.content if len(p.rows) == 1 and len(p.rows[0]) == 1 else None


def _signed(numer: Iterable, denom: Iterable) -> list:
    """(factor, multiplicity, sign) with sign +1 for the numerator, then -1 for the denominator."""
    return [(p, m, 1) for p, m in numer] + [(p, m, -1) for p, m in denom]


def _merge_factors(factors: Iterable) -> tuple:
    """Add the multiplicities of equal factors, keeping first-seen order.

    RatFunc merges its factors once they are lifted to one shape, so x in
    one variable and x lifted to two are one factor by then; the parser's
    cap check merges the factors of a term, lifted, by the same rule.
    """
    out: dict = {}
    for p, m in factors:
        out[p] = out.get(p, 0) + m
    return tuple(out.items())


def _narrowed(factors: list) -> list:
    """The factors in the one variable their terms use, if they use one; else as given.

    A sum's numerator and denominators share its terms' variable pair, and
    1/(1-z) + x - x uses z alone.
    """
    used = set()
    for p, _ in factors:
        if len(p.rows) > 1:
            used.add(p.names[0])
        if any(len(row) > 1 for row in p.rows):
            used.add(p.names[-1])
    if len(used) != 1:
        return factors
    (var,) = used
    return [(p if p.names == (var,) else Poly.from_ints(
        var, p.rows[0] if var == p.names[-1] else [row[0] if row else 0 for row in p.rows],
        p.content), m) for p, m in factors]


# x and y in two variables, z in one: the unit factors a monomial splits into.
_UNITS = (((), (1,)), ((0, 1),))


def _split(factors: tuple) -> tuple:
    """factors, each written as its largest monomial, one variable at a time,
    times a rest with a constant term.

    The monomial is stripped by poly._stripped, and its units have content
    1; the rest keeps the factor's content and multiplicity.  A unit with
    content 1 is already split.
    """
    out = []
    for p, m in factors:
        a, b, rest = _stripped(p.rows)
        if (a or b) and (p.content != 1 or p.rows not in _UNITS):
            out += [(p._make(p.names, Fraction(1), rows), k * m)
                    for rows, k in zip(_UNITS, (a, b)) if k]
            p = p._make(p.names, p.content, rest)
        out.append((p, m))
    return tuple(out)


class RatFunc(_Frozen):
    """Factored rational function over the rationals (1 or 2 variables)."""

    __slots__ = _fields = ("constant", "numer", "denom")

    def __init__(self, constant, numer: Iterable = (), denom: Iterable = ()):
        """Check, lift and merge the factors.

        Constant factors go into the scalar, the others are lifted to one
        shape by unify and then merged: equal factors add their
        multiplicities, in first-seen order.  Every multiplicity given must
        be positive, and no denominator factor may be zero; a zero numerator
        factor makes the function zero.
        """
        constant = as_fraction(constant)
        kept = []
        for p, m, sign in _signed(numer, denom):
            if m < 1:
                raise ValueError("factor multiplicity must be positive")
            if p.is_zero:
                if sign < 0:
                    raise ZeroDivisionError("zero polynomial in denominator")
                constant = Fraction(0)
            elif (c := _constant_of(p)) is None:
                kept.append((p, m, sign))
            else:
                constant *= c ** (sign * m)
        if constant == 0:
            kept = []
        sides: tuple[list, list] = ([], [])
        for q, (_, m, sign) in zip(unify(*(p for p, _, _ in kept)), kept):
            sides[sign < 0].append((q, m))
        self._fill(constant, *map(_merge_factors, sides))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.constant == 0

    @property
    def variables(self) -> tuple[str, ...]:
        for p, _ in self.numer + self.denom:
            return p.names
        return ()

    @property
    def is_univariate(self) -> bool:
        return len(self.variables) <= 1

    def cancelled(self) -> "RatFunc":
        """self with every factor's monomial split off and each factor on both
        sides cancelled by the smaller multiplicity; self if neither changes it.

        Each factor is written as its largest monomial, one variable at a
        time, times a rest with a constant term: x - x^2 is x * (1 - x).
        Factors then compare by their primitive rows, which fix the sign
        (see gfdiag.poly): a factor c*p cancels against p, and c goes into
        the constant.  So f.cancelled().cancelled() is f.cancelled().  Both
        diagonal routes and the series of a univariate function read a
        function through this, so a factor that cancels, such as the 1 - x
        of every convolution GF, is never expanded, divided by, substituted
        or reported as a pole.
        """
        both = _split(self.numer), _split(self.denom)
        sides = [{}, {}]
        for counts, factors in zip(sides, both):
            for p, m in factors:
                counts[p.rows] = counts.get(p.rows, 0) + m
        numer, denom = sides
        shared = {rows: min(numer[rows], denom[rows]) for rows in numer.keys() & denom.keys()}
        if not shared and both == (self.numer, self.denom):
            return self
        constant, kept = self.constant, []
        for sign, factors in zip((1, -1), both):
            left, out = dict(shared), []
            for p, m in factors:
                c = min(m, left.get(p.rows, 0))
                if c:
                    left[p.rows] -= c
                    constant *= p.content ** (sign * c)
                if m > c:
                    out.append((p, m - c))
            kept.append(out)
        return RatFunc(constant, *kept)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.constant * other.constant,
                       self.numer + other.numer, self.denom + other.denom)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.constant * as_fraction(c), self.numer, self.denom)

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero function")
        return RatFunc(1 / self.constant, self.denom, self.numer)

    def __neg__(self):
        return self.scale(-1)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            raise ValueError("negative power; use inverse() first")
        if n == 0:
            return RatFunc.one()
        return RatFunc(self.constant ** n, [(p, m * n) for p, m in self.numer],
                       [(p, m * n) for p, m in self.denom])

    def _expand_pair(self):
        """Expanded (numerator, denominator); polynomials, or Fractions if constant."""
        pair = [self.constant, Fraction(1)]
        for p, m, sign in _signed(self.numer, self.denom):
            pair[sign < 0] = p ** m * pair[sign < 0]
        return tuple(pair)

    def expand_to_single_fraction(self, default_var: str = "z") -> tuple[AnyPoly, AnyPoly]:
        """Fully expanded (numerator, denominator) polynomials, no cancellation."""
        num, den = self._expand_pair()
        if isinstance(num, Fraction) and isinstance(den, Fraction):
            return Poly.const(default_var, num / den), Poly.one(default_var)
        return unify(num, den)

    def reduced_fraction(self) -> tuple[Poly, Poly]:
        """Univariate only: expanded fraction with the gcd divided out.

        The denominator is normalized to constant term 1 when that term is
        nonzero, and to monic otherwise.
        """
        num, den = self.expand_to_single_fraction()
        if len(num.names) > 1:
            raise ValueError("reduced_fraction requires a univariate function")
        if num.is_zero:
            return Poly.zero(den.var), Poly.one(den.var)
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divrem(g)[0]
            den = den.divrem(g)[0]
        c0 = den.coeff(0)
        scale = c0 if c0 != 0 else den.leading
        return num.scale(1 / scale), den.scale(1 / scale)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """The sum, with both numerators expanded and the denominators kept factored."""
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n1, d1 = self._expand_pair()
        n2, d2 = other._expand_pair()
        if all(isinstance(v, Fraction) for v in (n1, d1, n2, d2)):
            return RatFunc(n1 / d1 + n2 / d2)
        n1, d1, n2, d2 = unify(n1, d1, n2, d2)
        numer = n1 * d2 + n2 * d1
        if numer.is_zero:
            return RatFunc.zero()
        numer, *denom = _narrowed([(numer, 1), *self.denom, *other.denom])
        return RatFunc(1, [numer], denom)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + -other

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at {variable: value}.  Raises ZeroDivisionError on a pole."""
        if self.is_zero:
            return Fraction(0)
        acc = self.constant
        for p, m, sign in _signed(self.numer, self.denom):
            v = p.evaluate(*(point[name] for name in p.names))
            if v == 0 and sign < 0:
                raise ZeroDivisionError("evaluation at a pole")
            acc *= v ** (sign * m)
        return acc

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        constant, parts = self.constant, ([], [])
        for p, m, sign in _signed(self.numer, self.denom):
            # Print factors with a positive constant term when possible.
            if p.rows[0] and p.rows[0][0] * p.content < 0:
                p = -p
                if m % 2:
                    constant = -constant
            parts[sign < 0].append(f"({p})" if m == 1 else f"({p})^{m}")
        num_parts, den_parts = parts
        if constant != 1 or not num_parts:
            num_parts.insert(0, str(constant))
        text = "*".join(num_parts)
        if den_parts:
            text = f"{text} / ({'*'.join(den_parts)})"
        return text

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def compose_rational(f: RatFunc, s_numer: AnyPoly, s_denom: AnyPoly) -> RatFunc:
    """Substitute the rational expression s_numer/s_denom for f's variable.

    Each degree-d factor g becomes s_denom^d * g(s_numer/s_denom), which is a
    polynomial; the bookkeeping powers of s_denom are appended so the result
    evaluates identically to f(s_numer/s_denom) wherever defined.
    """
    if s_denom.is_zero:
        raise ZeroDivisionError("zero substitution denominator")
    s_numer, s_denom = unify(s_numer, s_denom)
    if f.is_zero:
        return RatFunc.zero()

    def transform(p: AnyPoly) -> AnyPoly:
        if len(p.names) > 1:
            raise ValueError("compose_rational requires a univariate function")
        d = p.degree
        # sum_i  p_i * s_numer^i * s_denom^(d-i)
        acc = None
        for i, c in enumerate(p.prim):
            if c:
                term = (s_numer ** i) * (s_denom ** (d - i)) * c
                acc = term if acc is None else acc + term
        assert acc is not None
        return acc.scale(p.content)

    numer = [(transform(p), m) for p, m in f.numer]
    denom = [(transform(p), m) for p, m in f.denom]
    net = (sum(p.degree * m for p, m in f.denom)
           - sum(p.degree * m for p, m in f.numer))
    if net > 0:
        numer.append((s_denom, net))
    elif net < 0:
        denom.append((s_denom, -net))
    return RatFunc(f.constant, numer, denom)
