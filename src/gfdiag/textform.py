"""Text format for polynomials and rational functions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'* atom ('^' INT)?
    atom   := INT | VAR | '(' expr ')'

Variables come from {x, y, z, t, w}, at most two in one function;
rationals are written p/q, which the grammar handles as ordinary division.
A factor whose power, after '^', '*' or '/', is above MAX_EXPONENT is a
ParseError, and so is a power of a scalar (or of a function's constant
factor) whose bits would pass MAX_SCALAR_BITS, an integer literal longer
than MAX_LITERAL_DIGITS, and parentheses and minus signs nested deeper
than MAX_NESTING.  Printing (str of a Poly or a BiPoly, one method in
gfdiag.poly) emits terms like "1 - 2*z - 4*z^2" that parse back to the
same polynomial.

The parser computes with one value kind, _Term: a constant times factors
over factors, each a Poly or BiPoly kept as parsed, in its own variables.
'*', '/', '^' and unary '-' concatenate or scale the factor lists; no
factor is lifted or merged until the one RatFunc of the parse is built
at the end.  A sum is accumulated once: each term is expanded (a factor's
power by poly's repeated squaring on _int_mul) and added into integer
rows over one common denominator, laid out as a polynomial's rows, and
one Poly or BiPoly is built at the end, in the variables its rows use.
Only a sum that has a denominator adds through RatFunc's +, which also
narrows the sum to the variables its factors use: 1/(1-z) + x - x is in z
alone.  The result equals folding the terms left to right through
RatFunc's +, down to the factor order and the variable pair.  A sum whose
terms pass three variables before one cancels, such as x*y + z - x*y, is
still refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .poly import BiPoly, Poly, VARIABLES, _int_add
from .ratfunc import RatFunc, _merge_factors, _narrowed


class ParseError(ValueError):
    pass


#: Largest multiplicity accepted for a factor, after '^', '*' and '/'.
#: Expanding (1-z)^e grows about tenfold per doubling of e, since the
#: coefficients grow too: 0.2 s at e = 1000, 1.9 s at 2000 and 21 s at 4000
#: (2-core Xeon VM, Python 3.11).
MAX_EXPONENT = 1000

#: Deepest nesting accepted, counting each open parenthesis and each unary
#: minus sign that applies.  The parser recurses once per parenthesis:
#: uncapped, 200 nested parentheses passed Python's recursion limit.
MAX_NESTING = 100

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
_VARIABLE = {v: Poly.from_ints(v, (0, 1)) for v in VARIABLES}


def _joined(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The variables of a and b in VARIABLES order, at most two of them."""
    if not b or a == b:
        return a
    names = tuple(sorted(set(a) | set(b), key=_SLOT.__getitem__))
    if len(names) > 2:
        raise ParseError(f"at most two variables are supported, found {', '.join(names)}")
    return names


def _lifted(p, names: tuple[str, ...]):
    return p if p.names == names else BiPoly.embed(p, *names)


class _Term:
    """constant * prod(numer) / prod(denom): the one value the parser computes with.

    numer and denom hold (Poly or BiPoly, multiplicity) pairs as parsed,
    each factor in its own variables, neither lifted nor merged; names are
    the variables of them all.  fn is False for a scalar, where the fold
    through RatFunc's + holds a Fraction, and True for a function, even a
    constant one: it decides whether dividing by a zero is "division by
    zero" or "division by the zero function".
    """

    __slots__ = ("constant", "numer", "denom", "names", "fn")

    def __init__(self, constant: Fraction, numer: tuple = (), denom: tuple = (),
                 names: tuple[str, ...] = (), fn: bool = True):
        if not constant:
            numer = denom = names = ()
        self.constant, self.numer, self.denom, self.names, self.fn = \
            constant, numer, denom, names, fn

    def __neg__(self) -> "_Term":
        return _Term(-self.constant, self.numer, self.denom, self.names, self.fn)

    def __mul__(self, other: "_Term") -> "_Term":
        constant = self.constant * other.constant
        names = _joined(self.names, other.names) if constant else ()
        return _Term(constant, self.numer + other.numer, self.denom + other.denom,
                     names, self.fn or other.fn)._capped()

    def __truediv__(self, other: "_Term") -> "_Term":
        if not other.constant:
            raise ParseError("division by the zero function" if other.fn else "division by zero")
        return self * _Term(1 / other.constant, other.denom, other.numer, other.names, other.fn)

    def __pow__(self, n: int) -> "_Term":
        if n == 0:
            return _Term(Fraction(1), fn=self.fn)
        return _Term(self.constant ** n, tuple((p, m * n) for p, m in self.numer),
                     tuple((p, m * n) for p, m in self.denom), self.names, self.fn)._capped()

    def _capped(self) -> "_Term":
        """self, unless a factor's multiplicity exceeds MAX_EXPONENT.

        Equal factors add their multiplicities once lifted to self.names,
        as in RatFunc; a side whose multiplicities sum to at most the cap
        is not merged.
        """
        for side in (self.numer, self.denom):
            if sum(m for _, m in side) > MAX_EXPONENT and any(
                    m > MAX_EXPONENT for _, m in
                    _merge_factors((_lifted(p, self.names), m) for p, m in side)):
                raise ParseError(f"a factor's power exceeds the cap {MAX_EXPONENT}")
        return self

    def _rows(self, names: tuple[str, ...]) -> tuple[Fraction, list]:
        """(scale, rows): self, which has no denominator, expanded in names.

        rows[i][j] is an integer coefficient of names[0]^i * names[-1]^j,
        laid out as a polynomial's rows; a variable to a power only shifts
        them.
        """
        shift: dict = {}
        poly = None
        for p, m in self.numer:
            if len(p.names) == 1 and p.rows == ((0, 1),) and p.content == 1:
                shift[p.names[0]] = shift.get(p.names[0], 0) + m
            else:
                p = _lifted(p, names)
                p = p ** m if m > 1 else p
                poly = p if poly is None else poly * p
        i = shift.get(names[0], 0) if len(names) == 2 else 0
        zeros = (0,) * shift.get(names[-1], 0)
        if poly is None:
            return self.constant, [()] * i + [zeros + (1,)]
        return self.constant * poly.content, [()] * i + [zeros + row for row in poly.rows]

    def ratfunc(self) -> RatFunc:
        return RatFunc(self.constant, self.numer, self.denom)


def _expanded(names: tuple[str, ...], rows: list, den: int) -> _Term:
    """The term of one factor: the sum of rows[i][j] * names[0]^i * names[-1]^j, over den.

    rows must not be constant.  The factor's variables are the ones its
    rows use, by ratfunc._narrowed: x + z - x is z alone, not z in x and z.
    """
    poly = (Poly.from_ints(names[0], rows[0], Fraction(1, den)) if len(names) == 1
            else BiPoly.from_ints(*names, rows, Fraction(1, den)))
    ((poly, _),) = _narrowed([(poly, 1)])
    return _Term(Fraction(1), ((poly, 1),), (), poly.names)


def _fold(terms) -> _Term:
    """The sum of the terms, equal to folding them left to right through RatFunc's +.

    The fold a + b keeps a when b is zero and b when a is zero, adds two
    constants as scalars, and otherwise expands both and holds their sum
    as one factor, or as a constant, whose variables start afresh.  A sum
    takes the variables its factors use.  Here an expanded sum is held as
    integer rows over one common denominator, each term added into them
    once, and built as one Poly or BiPoly, in the variables the rows use,
    once the terms end or a denominator comes.  A sum with a denominator
    folds through RatFunc's +.  The sum is a function if any term is one.
    """
    terms = iter(terms)
    held = next(terms)      # the sum as a term, or None while it is expanded
    fn = held.fn
    names, rows, den = (), [], 1

    def add(t: _Term) -> None:
        nonlocal rows, den
        scale, more = t._rows(names)
        d = scale.denominator
        if den % d:
            f = d // gcd(den, d)
            den *= f
            rows = [[f * c for c in row] for row in rows]
        s = scale.numerator * (den // d)
        rows.extend([] for _ in range(len(more) - len(rows)))
        for i, row in enumerate(more):
            if any(row):
                new = _int_add(rows[i], [s * c for c in row])
                while new and not new[-1]:
                    new.pop()
                rows[i] = new
        while rows and not rows[-1]:
            rows.pop()

    for b in terms:
        fn, a = fn or b.fn, held
        if not b.constant:
            continue
        if a is not None and not a.constant:
            held = b
            continue
        both = _joined(names if a is None else a.names, b.names)
        if not both:
            held = _Term(a.constant + b.constant)
            continue
        if a is None and (b.denom or len(both) > len(names)):
            # A denominator or a second variable: the rows become a term again.
            a = _expanded(names, rows, den)
        if a is not None and (a.denom or b.denom):
            s = a.ratfunc() + b.ratfunc()
            held = _Term(s.constant, s.numer, s.denom, s.variables)
            continue
        if a is not None:
            names, rows, den = both, [], 1
            add(a)
        add(b)
        # A constant sum, zero too, is held as a constant: its variables start afresh.
        constant = not rows[1:] and not (rows and rows[0][1:])
        held = _Term(Fraction(rows[0][0] if rows else 0, den)) if constant else None
    if held is None:
        held = _expanded(names, rows, den)
    return held if held.fn == fn else _Term(held.constant, held.numer, held.denom, held.names, fn)


def _literal(digits: str) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"an integer literal of {len(digits)} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    return int(digits)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
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
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and minus signs nest deeper than the cap {MAX_NESTING}")

    def parse(self) -> _Term:
        value = _fold(self.expr())
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near token {self.pos}")
        return value

    def expr(self):
        """The terms of an expression, each with its sign, as they are read."""
        yield self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            minus = self.take()[1] == "-"
            term = self.term()
            yield -term if minus else term

    def term(self) -> _Term:
        value = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            times = self.take()[1] == "*"
            rhs = self.factor()
            value = value * rhs if times else value / rhs
        return value

    def factor(self) -> _Term:
        """A power binds before the minus signs: -x^2 is -(x^2)."""
        signs = 0
        while self.peek() == ("op", "-"):
            self.take()
            signs += 1
        self.nest(signs)
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            power = _literal(exp)
            if power > MAX_EXPONENT:
                raise ParseError(f"exponent {power} exceeds the cap {MAX_EXPONENT}")
            scalar = value.constant
            bits = max(scalar.numerator.bit_length(), scalar.denominator.bit_length())
            if power * bits > MAX_SCALAR_BITS:
                raise ParseError(f"a power of a {bits}-bit scalar to {power} exceeds "
                                 f"the cap of {MAX_SCALAR_BITS} bits")
            value = value ** power
        self.depth -= signs
        return -value if signs % 2 else value

    def atom(self) -> _Term:
        kind, val = self.take()
        if kind == "int":
            return _Term(Fraction(_literal(val)), fn=False)
        if kind == "var":
            return _Term(Fraction(1), ((_VARIABLE[val], 1),), (), (val,))
        if kind == "op" and val == "(":
            self.nest(1)
            value = _fold(self.expr())
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {val!r}")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function in up to two of the variables x, y, z, t, w."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    return _Parser(tokens).parse().ratfunc()


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
