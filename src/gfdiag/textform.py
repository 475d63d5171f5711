"""Text format for polynomials and rational functions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := atom ('^' INT)?
    atom    := INT | VAR | '(' expr ')'

Variables come from {x, y, z, t, w}; rationals are written p/q, which the
grammar handles as ordinary division.  A factor whose power, after '^',
'*' or '/', is above MAX_EXPONENT is a ParseError, and so is a power of a
scalar (or of a function's constant factor) whose bits would pass
MAX_SCALAR_BITS.  Printing
(Poly.__str__ and BiPoly.__str__) emits terms like "1 - 2*z - 4*z^2" that
parse back to the same polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import BiPoly, Poly, VARIABLES
from .ratfunc import RatFunc


class ParseError(ValueError):
    pass


#: Largest multiplicity accepted for a factor, after '^', '*' and '/'.
#: Expanding (1-z)^e grows about tenfold per doubling of e, since the
#: coefficients grow too: 0.2 s at e = 1000, 1.9 s at 2000 and 21 s at 4000
#: (2-core Xeon VM, Python 3.11).
MAX_EXPONENT = 1000

#: Largest bit length a power of a scalar may reach, judged before it is
#: computed as the exponent times the bit length of the scalar's numerator
#: or denominator: the bits of a 4300-digit integer, the largest literal the
#: parser reads (Python's default int_max_str_digits).
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


def _as_ratfunc(v) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc.from_fraction(v)


def _mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return _as_ratfunc(b).scale(a)
    if isinstance(b, Fraction):
        return a.scale(b)
    return a * b


def _div(a, b):
    if isinstance(b, Fraction):
        if b == 0:
            raise ParseError("division by zero")
        return _mul(a, Fraction(1) / b)
    if b.is_zero:
        raise ParseError("division by the zero function")
    return _mul(a, b.inverse())


def _add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _as_ratfunc(a) + _as_ratfunc(b)


def _neg(a):
    return -a


def _capped(value):
    """value, unless a factor's multiplicity exceeds MAX_EXPONENT.

    A power of a power multiplies the multiplicities, and a product or a
    quotient adds those of equal factors.
    """
    if isinstance(value, RatFunc) and any(m > MAX_EXPONENT for _, m in value.numer + value.denom):
        raise ParseError(f"a factor's power exceeds the cap {MAX_EXPONENT}")
    return value


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
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = _add(value, _neg(rhs) if val == "-" else rhs)
            else:
                return value

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
            return _neg(self.unary())
        return self.primary()

    def primary(self):
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            power = int(exp)
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
            return Fraction(int(val))
        if kind == "var":
            return RatFunc.from_poly(Poly.monomial(val, 1))
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
    if isinstance(num, BiPoly):
        raise ParseError("expected a univariate polynomial")
    if den.degree > 0:
        raise ParseError("expected a polynomial, found a denominator")
    p = num.scale(Fraction(1) / den.coeff(0))
    if var is not None and not p.is_zero and p.degree > 0 and p.var != var:
        raise ParseError(f"expected variable {var!r}, found {p.var!r}")
    if var is not None and p.var != var:
        p = Poly.from_ints(var, p.prim, p.content)
    return p
