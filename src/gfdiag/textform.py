"""Text format for polynomials and rational functions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := atom ('^' INT)?
    atom    := INT | VAR | '(' expr ')'

Variables come from {x, y, z, t, w}, at most two in one function;
rationals are written p/q, which the grammar handles as ordinary division.
A factor whose power, after '^', '*' or '/', is above MAX_EXPONENT is a
ParseError, and so is a power of a scalar (or of a function's constant
factor) whose bits would pass MAX_SCALAR_BITS, and an integer literal
longer than MAX_LITERAL_DIGITS.  Printing (str of a Poly or a BiPoly,
one method in gfdiag.poly) emits terms like "1 - 2*z - 4*z^2" that parse
back to the same polynomial.

Products and quotients stay factored: a term is a RatFunc whose factors
are the parenthesized sums it multiplies, or, while it is a scalar times
powers of variables, a _Mono that holds the factor list such a RatFunc
would hold without building it.  A sum is accumulated once: each term is
expanded (a factor's power by poly's repeated squaring on _int_mul) and
added into integer rows over one common denominator, laid out as a
polynomial's rows, so that poly's _lift moves a term, or the sum, in one
variable into two; one Poly or BiPoly is built at the end.  Only a sum
that has a denominator adds through RatFunc's +.  The result equals
folding the terms left to right through RatFunc's +, down to the factor
order and the variable pair.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .poly import BiPoly, Poly, VARIABLES, _int_add, _lift
from .ratfunc import RatFunc, _merge_factors


class ParseError(ValueError):
    pass


#: Largest multiplicity accepted for a factor, after '^', '*' and '/'.
#: Expanding (1-z)^e grows about tenfold per doubling of e, since the
#: coefficients grow too: 0.2 s at e = 1000, 1.9 s at 2000 and 21 s at 4000
#: (2-core Xeon VM, Python 3.11).
MAX_EXPONENT = 1000

#: Longest integer literal the parser reads, in digits: Python's default
#: int_max_str_digits, past which int() refuses a decimal string.
MAX_LITERAL_DIGITS = 4300

#: Largest bit length a power of a scalar may reach, judged before it is
#: computed as the exponent times the bit length of the scalar's numerator
#: or denominator: the bits of a MAX_LITERAL_DIGITS-digit integer, the
#: largest literal the parser reads.
#: Uncapped, parsing ((2^1000)^1000)^100 took 0.9 s and 80 MB (2-core Xeon
#: VM, Python 3.11), and one more ^1000 asks for a 10^9-bit integer.
MAX_SCALAR_BITS = 14285


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z])|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {pos}: {text[pos:pos+10]!r}")
            break
        pos = m.end()
        if m.group("int") is not None:
            tokens.append(("int", m.group("int")))
        elif m.group("var") is not None:
            name = m.group("var")
            if name not in VARIABLES:
                raise ParseError(f"unknown variable {name!r}; allowed: {', '.join(VARIABLES)}")
            tokens.append(("var", name))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


_SLOT = {v: i for i, v in enumerate(VARIABLES)}


def _joined(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The variables of a and b in VARIABLES order, at most two of them."""
    names = tuple(sorted(set(a) | set(b), key=_SLOT.__getitem__))
    if len(names) > 2:
        raise ParseError(f"at most two variables are supported, found {', '.join(names)}")
    return names


class _Mono:
    """A scalar times powers of variables: a product the parser keeps unbuilt.

    factors holds the (variable, multiplicity) pairs of the RatFunc that the
    same product would build, each variable once, in first-seen order:
    RatFunc lifts its factors to one shape before it merges equal ones, so
    x*y*x holds x once, squared, as x^2*y does.
    """

    __slots__ = ("constant", "factors")

    def __init__(self, constant: Fraction, factors: tuple = ()):
        self.constant = constant
        self.factors = factors if constant else ()

    @property
    def is_zero(self) -> bool:
        return not self.constant

    @property
    def variables(self) -> tuple[str, ...]:
        return _joined((), tuple(v for v, _ in self.factors))

    def scale(self, c: Fraction) -> "_Mono":
        return _Mono(self.constant * c, self.factors)

    def __neg__(self) -> "_Mono":
        return self.scale(Fraction(-1))

    def __pow__(self, n: int) -> "_Mono":
        if n == 0:
            return _Mono(Fraction(1))
        return _Mono(self.constant ** n, tuple((v, e * n) for v, e in self.factors))

    def __mul__(self, other: "_Mono") -> "_Mono":
        if self.is_zero or other.is_zero:
            return _Mono(Fraction(0))
        _joined(self.variables, other.variables)
        return _Mono(self.constant * other.constant, _merge_factors(self.factors + other.factors))

    def ratfunc(self) -> RatFunc:
        if self.is_zero:
            return RatFunc.zero()
        names = self.variables
        polys = {v: Poly.monomial(v, 1) for v in names}
        if len(names) == 2:
            polys = {v: BiPoly.embed(p, *names) for v, p in polys.items()}
        return RatFunc._make(self.constant, tuple((polys[v], e) for v, e in self.factors), ())


def _as_ratfunc(v) -> RatFunc:
    if isinstance(v, _Mono):
        return v.ratfunc()
    return v if isinstance(v, RatFunc) else RatFunc(v)


def _variables(v) -> tuple[str, ...]:
    return () if isinstance(v, Fraction) else v.variables


def _is_zero(v) -> bool:
    return v == 0 if isinstance(v, Fraction) else v.is_zero


def _has_denom(v) -> bool:
    return isinstance(v, RatFunc) and bool(v.denom)


def _mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return b.scale(a)
    if isinstance(b, Fraction):
        return a.scale(b)
    if isinstance(a, _Mono) and isinstance(b, _Mono):
        return a * b
    if not (a.is_zero or b.is_zero):
        _joined(a.variables, b.variables)
    return _as_ratfunc(a) * _as_ratfunc(b)


def _div(a, b):
    if isinstance(b, Fraction):
        if b == 0:
            raise ParseError("division by zero")
        return _mul(a, Fraction(1) / b)
    if b.is_zero:
        raise ParseError("division by the zero function")
    return _mul(a, _as_ratfunc(b).inverse())


class _Sum:
    """The sum of an expression's terms, equal to folding them left to right.

    The fold a + b through RatFunc's + keeps a when b is zero and b when a
    is zero, adds two constants as scalars, and otherwise expands both and
    holds their sum as one factor, in the variables of both, or as a
    constant.  _Sum gives the same value, but holds an expanded sum as rows
    of integer numerators over one common denominator, adds each term into
    them once, and builds its one Poly or BiPoly at the end.  A sum with a
    denominator folds through RatFunc's +.
    """

    def __init__(self, first):
        self.scalar = isinstance(first, Fraction)   # every term a Fraction
        self.held = first       # the sum as a term, or None while it is expanded
        # The expanded sum: rows[i][j] / den is its coefficient of
        # names[0]^i * names[-1]^j, laid out as a polynomial's rows.
        self.names: tuple[str, ...] = ()
        self.rows: list = []
        self.den = 1

    def add(self, b) -> None:
        self.scalar = self.scalar and isinstance(b, Fraction)
        a = self.held
        if _is_zero(b):
            return
        if a is not None and _is_zero(a):
            self.held = b
            return
        names = _joined(self.names if a is None else _variables(a), _variables(b))
        if not names:
            self.held = (a if isinstance(a, Fraction) else a.constant) + \
                (b if isinstance(b, Fraction) else b.constant)
        elif _has_denom(a) or _has_denom(b):
            self.held = _as_ratfunc(self.value() if a is None else a) + _as_ratfunc(b)
        else:
            if a is not None:
                self.names, self.rows, self.den, self.held = names, [], 1, None
                self._put(a)
            elif len(names) > len(self.names):
                # A second variable: the first may become the outer one.
                self.rows = list(_lift(self, names[0]))
            self.names = names
            self._put(b)
            if not self.rows:
                self.held = RatFunc.zero()
            elif len(self.rows) == 1 and len(self.rows[0]) == 1:
                self.held = Fraction(self.rows[0][0], self.den)

    def value(self):
        if self.held is None:
            return RatFunc(1, [(self._poly(), 1)])
        if isinstance(self.held, Fraction) and not self.scalar:
            return RatFunc(self.held)
        return self.held

    def _put(self, v) -> None:
        """Add the expansion of a term without a denominator, in self.names."""
        outer = self.names[0] if len(self.names) == 2 else None
        if isinstance(v, _Mono):
            exps = dict(v.factors)
            self._add_rows(v.constant, [[]] * exps.get(outer, 0)
                           + [[0] * exps.get(self.names[-1], 0) + [1]])
            return
        if isinstance(v, RatFunc):
            v = v._expand_pair()[0]
        if isinstance(v, Fraction):
            self._add_rows(v, [[1]])
        else:
            self._add_rows(v.content, _lift(v, outer))

    def _add_rows(self, scale: Fraction, rows) -> None:
        """Add scale * rows[i][j] at each [i][j], trimming zeros at the ends."""
        d = scale.denominator
        if self.den % d:
            f = d // gcd(self.den, d)
            self.den *= f
            self.rows = [[f * c for c in row] for row in self.rows]
        s = scale.numerator * (self.den // d)
        out = self.rows
        out.extend([] for _ in range(len(rows) - len(out)))
        for i, row in enumerate(rows):
            if any(row):
                new = _int_add(out[i], [s * c for c in row])
                while new and not new[-1]:
                    new.pop()
                out[i] = new
        while out and not out[-1]:
            out.pop()

    def _poly(self):
        """The expanded sum as a Poly or BiPoly in its variables."""
        scale = Fraction(1, self.den)
        if len(self.names) == 1:
            return Poly.from_ints(self.names[0], self.rows[0], scale)
        outer, inner = self.names
        return BiPoly.from_ints(outer, inner, self.rows, scale)


def _capped(value):
    """value, unless a factor's multiplicity exceeds MAX_EXPONENT.

    A power of a power multiplies the multiplicities, and a product or a
    quotient adds those of equal factors.
    """
    if isinstance(value, RatFunc):
        factors = value.numer + value.denom
    elif isinstance(value, _Mono):
        factors = value.factors
    else:
        return value
    if any(m > MAX_EXPONENT for _, m in factors):
        raise ParseError(f"a factor's power exceeds the cap {MAX_EXPONENT}")
    return value


def _literal(digits: str) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"an integer literal of {len(digits)} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    return int(digits)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

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

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near token {self.pos}")
        return value

    def expr(self):
        total = _Sum(self.term())
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                total.add(-rhs if val == "-" else rhs)
            else:
                return total.value()

    def term(self):
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                value = _capped(_mul(value, rhs) if val == "*" else _div(value, rhs))
            else:
                return value

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.primary()

    def primary(self):
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            power = _literal(exp)
            if power > MAX_EXPONENT:
                raise ParseError(f"exponent {power} exceeds the cap {MAX_EXPONENT}")
            scalar = value if isinstance(value, Fraction) else value.constant
            bits = max(scalar.numerator.bit_length(), scalar.denominator.bit_length())
            if power * bits > MAX_SCALAR_BITS:
                raise ParseError(f"a power of a {bits}-bit scalar to {power} exceeds "
                                 f"the cap of {MAX_SCALAR_BITS} bits")
            value = _capped(value ** power)
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Fraction(_literal(val))
        if kind == "var":
            return _Mono(Fraction(1), ((val, 1),))
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function in up to two of the variables x, y, z, t, w."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    value = _Parser(tokens).parse()
    return _as_ratfunc(value)


def parse_poly(text: str, var: str | None = None) -> Poly:
    """Parse a univariate polynomial; optionally enforce its variable."""
    f = parse_ratfunc(text)
    num, den = f.expand_to_single_fraction(default_var=var or "z")
    if len(num.names) > 1:
        raise ParseError("expected a univariate polynomial")
    if den.degree > 0:
        raise ParseError("expected a polynomial, found a denominator")
    p = num.scale(Fraction(1) / den.coeff(0))
    if var is not None and not p.is_zero and p.degree > 0 and p.var != var:
        raise ParseError(f"expected variable {var!r}, found {p.var!r}")
    if var is not None and p.var != var:
        p = Poly.from_ints(var, p.prim, p.content)
    return p
