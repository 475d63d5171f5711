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

The text is split into tokens by one regex pass, which also matches any
character that is not a token.  A term that starts with a run of integer
literals and variable powers joined by '*', each with its unary minus
signs, as every term of a printed polynomial does, is read as one
monomial: an int coefficient and one exponent per variable, with the
caps checked as the run is read.  The run ends at a '(' or a '/', and
the rest of the term is computed with the parser's other value kind,
_Term: a constant times factors over factors, each a Poly or BiPoly kept
as parsed, in its own variables.  '*', '/', '^' and unary '-' concatenate
or scale the factor lists; no factor is lifted or merged until the one
RatFunc of the parse is built at the end.

A sum's only term stays as it is, factored.  Otherwise the terms are
added into cells keyed by the exponent of every variable, each holding
an integer coefficient, or a Fraction where a term brings one: a
monomial in one update, a _Term once expanded (a factor's power by poly's
repeated squaring on _int_mul).  The sum is built as one Poly or BiPoly
in the variables its cells use, so a variable that cancels out of it is
dropped (x*y + z - x*y is z), and more than two are refused there.  Only
a sum that has a denominator adds through RatFunc's +, which also narrows
the sum to the variables its factors use: 1/(1-z) + x - x is in z alone.
The result equals folding the terms left to right through RatFunc's +,
down to the factor order and the variable pair, wherever that fold has
at most two variables.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import BiPoly, Poly, VARIABLES, _cleared
from .ratfunc import RatFunc, _merge_factors


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


# A token is the group: an integer literal, an operator or a variable.  Any
# other character that is not whitespace matches outside it, as "".
_TOKEN = re.compile(rf"(\d+|[-+*/^(){''.join(VARIABLES)}])|\S")
_SLOT = {v: i for i, v in enumerate(VARIABLES)}
_VARIABLE = {v: Poly.from_ints(v, (0, 1)) for v in VARIABLES}
# Every token but an integer literal, and None, which ends the token list.
_NOT_INT = frozenset([*"+-*/^()", *VARIABLES, None])


def _tokenize(text: str) -> list[str]:
    """The tokens of text, by one regex pass: integer literals, operators and variables."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        at = next(m.start() for m in _TOKEN.finditer(text) if not m.group(1))
        if text[at].isascii() and text[at].isalpha():
            raise ParseError(f"unknown variable {text[at]!r}; allowed: {', '.join(VARIABLES)}")
        at = len(text[:at].rstrip())
        raise ParseError(f"unexpected character at {at}: {text[at:at + 10]!r}")
    return tokens


def _joined(a, b=()) -> tuple[str, ...]:
    """The variables of a and b in VARIABLES order, at most two of them; a alone is in order."""
    names = a if a == b or not b else sorted({*a, *b}, key=_SLOT.__getitem__)
    if len(names) > 2:
        raise ParseError(f"at most two variables are supported, found {', '.join(names)}")
    return tuple(names)


def _lifted(p, names: tuple[str, ...]):
    return p if p.names == names else BiPoly.embed(p, *names)


class _Term:
    """constant * prod(numer) / prod(denom): the parser's value past a monomial.

    constant is an int or a Fraction.  numer and denom hold (Poly or
    BiPoly, multiplicity) pairs as parsed, each factor in its own
    variables, neither lifted nor merged; names are the variables of them
    all.  fn is False for a scalar, where the fold through RatFunc's +
    holds a Fraction, and True for a function, even a constant one: it
    decides whether dividing by a zero is "division by zero" or "division
    by the zero function".
    """

    __slots__ = ("constant", "numer", "denom", "names", "fn")

    def __init__(self, constant: int | Fraction, numer: tuple = (), denom: tuple = (),
                 names: tuple[str, ...] = (), fn: bool = True):
        self.constant, self.fn = constant, fn
        self.numer, self.denom, self.names = (numer, denom, names) if constant else ((), (), ())

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
        return self * _Term(Fraction(1) / other.constant, other.denom, other.numer, other.names,
                            other.fn)

    def __pow__(self, n: int) -> "_Term":
        if n == 0:
            return _Term(1, fn=self.fn)
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

    def _cells(self) -> list:
        """The cells of self, which has no denominator, expanded.

        A cell is (exponents, c): the exponent of each variable, by its slot
        in VARIABLES, and a coefficient c, an int where self's scale is
        one.  A variable to a power only shifts the cells; the other
        factors are multiplied out, each power by poly's repeated squaring
        on _int_mul.
        """
        names, shift = self.names or VARIABLES[:1], [0] * len(VARIABLES)
        poly = (BiPoly if len(names) == 2 else Poly).one(*names)
        for p, m in self.numer:
            if p.rows == ((0, 1),) and len(p.names) == 1 and p.content == 1:
                shift[_SLOT[p.names[0]]] += m
            else:
                poly *= _lifted(p, names) ** m
        scale, cells = self.constant * poly.content, []
        scale = scale.numerator if scale.denominator == 1 else scale
        outer, inner = _SLOT[names[0]], _SLOT[names[-1]]
        for i, row in enumerate(poly.rows):
            key = shift[:]
            key[outer] += i
            for j, c in enumerate(row, key[inner]):
                if c:
                    key[inner] = j
                    cells.append((tuple(key), scale * c))
        return cells

    def ratfunc(self) -> RatFunc:
        return RatFunc(self.constant, self.numer, self.denom)


def _held(coefficient: int, exponents: tuple, seen: list[str], fn: bool) -> _Term:
    """The _Term of a monomial, its variables as factors in the order they came."""
    return _Term(coefficient, tuple((_VARIABLE[v], exponents[_SLOT[v]]) for v in seen),
                 (), tuple(sorted(seen, key=_SLOT.__getitem__)), fn)


def _as_term(t) -> _Term:
    return _held(*t) if type(t) is tuple else t


def _built(cells: dict) -> _Term:
    """The _Term of nonzero cells: a constant, or one factor in the variables they use."""
    columns = list(zip(*cells))
    used = [s for s, column in enumerate(columns) if any(column)]
    values, den = _cleared(list(cells.values()))
    if not used:
        return _Term(Fraction(values[0], den))
    names, scale = _joined([VARIABLES[s] for s in used]), Fraction(1, den) if den > 1 else 1
    if len(used) == 1:
        row = [0] * (max(columns[used[0]]) + 1)
        for j, c in zip(columns[used[0]], values):
            row[j] = c
        return _Term(1, ((Poly.from_ints(*names, row, scale), 1),), (), names)
    # Row i of a polynomial's rows holds its cells whose first variable is to the power i.
    rows: list = [[] for _ in range(max(columns[used[0]]) + 1)]
    for i, j, c in sorted(zip(columns[used[0]], columns[used[1]], values)):
        rows[i] += [0] * (j - len(rows[i])) + [c]
    return _Term(1, ((BiPoly.from_ints(*names, rows, scale), 1),), (), names)


def _fold(terms) -> _Term:
    """The sum of the terms, each a monomial (see _Parser.monomial) or a _Term.

    Equal to folding them left to right through RatFunc's +, which keeps a
    when b is zero and b when a is zero, adds two constants as scalars, and
    otherwise expands both and holds their sum as one factor, or as a
    constant, whose variables start afresh.  So the sum is held as one
    term while it has one, and as cells (see _Term._cells) from the second
    term on, built into a term once the terms end or a denominator comes.
    A sum with a denominator adds through RatFunc's + and is held as one
    term again, and a sum counts as zero once its cells cancel.  The sum
    is a function if any term is one.
    """
    held, cells, fn = None, None, False     # the sum as one term or as cells; zero if both are None
    for b in terms:
        mono = type(b) is tuple
        fn = fn or (b[3] if mono else b.fn)
        if not (b[0] if mono else b.constant):
            continue
        if held is None and cells is None:
            held = b
        elif not mono and b.denom or held is not None and type(held) is not tuple and held.denom:
            a, b = (_as_term(held) if cells is None else _built(cells)), _as_term(b)
            _joined(a.names, b.names)
            s = a.ratfunc() + b.ratfunc()
            held = _Term(s.constant, s.numer, s.denom, s.variables) if s.constant else None
            cells = None
        else:
            added, cells, held = (held, b) if cells is None else (b,), cells or {}, None
            for t in added:
                for key, c in ((t[1], t[0]),) if type(t) is tuple else t._cells():
                    v = cells.get(key, 0) + c
                    if v:
                        cells[key] = v
                    else:
                        del cells[key]
            cells = cells or None
    if cells is not None:
        held = _built(cells)
    held = _as_term(held) if held is not None else _Term(0)
    return held if held.fn == fn else _Term(held.constant, held.numer, held.denom, held.names, fn)


def _literal(digits: str | None, bits: int = 0) -> int:
    """An integer literal; with bits, the power after a '^' of an atom of bits-bit scalar."""
    if digits in _NOT_INT:
        raise ParseError("exponent must be a nonnegative integer")
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"an integer literal of {len(digits)} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    value = int(digits)
    if bits and value > MAX_EXPONENT:
        raise ParseError(f"exponent {value} exceeds the cap {MAX_EXPONENT}")
    if value * bits > MAX_SCALAR_BITS:
        raise ParseError(f"a power of a {bits}-bit scalar to {value} exceeds "
                         f"the cap of {MAX_SCALAR_BITS} bits")
    return value


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens, self.pos, self.depth = tokens + [None], 0, 0

    def nest(self, levels: int) -> None:
        """Refuse levels more levels of nesting than self.depth, which they do not change."""
        if self.depth + levels > MAX_NESTING:
            raise ParseError(f"parentheses and minus signs nest deeper than the cap {MAX_NESTING}")

    def expr(self):
        """The terms of an expression, each with its sign, as they are read."""
        yield self.term(1)
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            yield self.term(1 if op == "+" else -1)

    def term(self, sign: int):
        """sign times the term: a monomial, if the term is one run of them; else a _Term."""
        value = self.monomial(sign)
        if type(value) is tuple and self.tokens[self.pos] not in ("*", "/"):
            return value
        value = (_held(*value) if type(value) is tuple
                 else self.group(value) if sign > 0 else -self.group(value))
        while (op := self.tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            value = value * self.factor() if op == "*" else value / self.factor()
        return value

    def factor(self) -> _Term:
        value = self.monomial(1, True)
        return _held(*value) if type(value) is tuple else self.group(value)

    def monomial(self, coefficient: int, single: bool = False):
        """coefficient times the run of literals and variable powers joined by '*' that comes next.

        It is read as (coefficient, exponents, seen, fn): an int, the exponent
        of each variable by its slot in VARIABLES, the variables in the order
        their first positive power came, and whether any variable came.  The
        caps and the variable count are checked factor by factor, as a
        product of _Terms checks them, and each factor's minus signs nest
        one level each while it is read.  The run stops before a '*' whose
        factor is not a literal or a variable, or after one factor if single.
        If its first factor is not one, that factor's minus signs are read
        and their number is returned.
        """
        tokens, pos = self.tokens, self.pos
        exponents, seen, fn = [0] * len(VARIABLES), [], False
        while True:
            j = pos
            while tokens[j] == "-":
                j += 1
            if j > pos:
                self.nest(j - pos)
                coefficient *= (-1) ** (j - pos)
            atom = tokens[j]
            slot = _SLOT.get(atom)
            if slot is None and atom in _NOT_INT:
                if pos == self.pos:
                    self.pos = j
                    return j - pos
                pos, coefficient = pos - 1, coefficient * (-1) ** (j - pos)
                break
            value, power, pos = 1 if slot is not None else _literal(atom), 1, j + 1
            if tokens[pos] == "^":
                power = _literal(tokens[pos + 1], value.bit_length() or 1)
                pos += 2
            if slot is None:
                coefficient *= value ** power
            elif coefficient and power:
                if not exponents[slot]:
                    seen = [*seen, atom] if len(seen) < 2 else _joined(seen, (atom,))
                exponents[slot] += power
                if exponents[slot] > MAX_EXPONENT:
                    raise ParseError(f"a factor's power exceeds the cap {MAX_EXPONENT}")
            fn = fn or slot is not None
            if single or tokens[pos] != "*":
                break
            pos += 1
        self.pos = pos
        return coefficient, tuple(exponents), seen, fn

    def group(self, signs: int) -> _Term:
        """The parenthesized factor that comes next, under signs minus signs: -(x)^2 is -((x)^2)."""
        self.pos += 1
        if self.tokens[self.pos - 1] != "(":
            raise ParseError(f"unexpected token {self.tokens[self.pos - 1]!r}")
        self.nest(signs + 1)
        self.depth += signs + 1
        value = _fold(self.expr())
        if self.tokens[self.pos] != ")":
            raise ParseError(f"expected ')', found {self.tokens[self.pos]!r}")
        self.pos, self.depth = self.pos + 1, self.depth - 1 - signs
        if self.tokens[self.pos] == "^":
            value **= _literal(self.tokens[self.pos + 1],
                               max(map(int.bit_length, value.constant.as_integer_ratio())))
            self.pos += 2
        return -value if signs % 2 else value


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function in up to two of the variables x, y, z, t, w."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    value = _fold((parser := _Parser(tokens)).expr())
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input near token {parser.pos}")
    return value.ratfunc()


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
