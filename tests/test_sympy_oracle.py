"""Differential tests against sympy on random rational inputs.

sympy is a test-only oracle: gfdiag never imports it, and this module is
skipped where it is not installed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from gfdiag import (  # noqa: E402
    Poly,
    RatFunc,
    compose_rational,
    partial_fractions,
    poly_gcd,
)

_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7)))
_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _polys(var: str = "z", min_degree: int = -1, max_degree: int = 4):
    poly = st.lists(_RATIONALS, max_size=max_degree + 1).map(lambda cs: Poly(var, cs))
    return poly.filter(lambda p: p.degree >= min_degree)


def _expr(p: Poly):
    """p as a sympy expression."""
    v = sympy.Symbol(p.var)
    return sum((sympy.Rational(c.numerator, c.denominator) * v ** i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _ratfunc_expr(f: RatFunc):
    acc = sympy.Rational(f.constant.numerator, f.constant.denominator)
    for p, m in f.numer:
        acc *= _expr(p) ** m
    for p, m in f.denom:
        acc /= _expr(p) ** m
    return acc


def _coeffs(expr, var: str) -> list[Fraction]:
    """Ascending coefficients of a sympy polynomial expression, as Fractions."""
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(expr, sympy.Symbol(var), domain="QQ").all_coeffs())]


@_SETTINGS
@given(a=_polys(), b=_polys(), shared=_polys(max_degree=2))
def test_poly_gcd_matches_sympy(a, b, shared):
    a, b = a * shared, b * shared
    assume(not (a.is_zero and b.is_zero))
    want = sympy.gcd(sympy.Poly(_expr(a), sympy.Symbol("z"), domain="QQ"),
                     sympy.Poly(_expr(b), sympy.Symbol("z"), domain="QQ")).monic()
    assert list(poly_gcd(a, b).coeffs) == _coeffs(want.as_expr(), "z")


@_SETTINGS
@given(num=_polys(min_degree=0), den=_polys(min_degree=0), shared=_polys(min_degree=0,
                                                                         max_degree=2))
def test_reduced_fraction_matches_sympy_cancel(num, den, shared):
    f = RatFunc(1, [(num * shared, 1)], [(den * shared, 1)])
    got_num, got_den = f.reduced_fraction()
    want_num, want_den = sympy.fraction(sympy.cancel(_ratfunc_expr(f)))
    z = sympy.Symbol("z")
    assert got_num.degree == sympy.degree(want_num, z)
    assert got_den.degree == sympy.degree(want_den, z)
    assert sympy.expand(_expr(got_num) * want_den - _expr(got_den) * want_num) == 0
    c0 = got_den.coeff(0)
    assert (c0 if c0 != 0 else got_den.leading) == 1


@_SETTINGS
@given(num=_polys(max_degree=6),
       bases=st.lists(st.tuples(_polys(min_degree=1, max_degree=2), st.integers(1, 2)),
                      min_size=1, max_size=3))
def test_partial_fractions_match_sympy(num, bases):
    z = sympy.Symbol("z")
    polys = [sympy.Poly(_expr(b), z, domain="QQ") for b, _ in bases]
    assume(all(sympy.gcd(p, q).degree() == 0
               for i, p in enumerate(polys) for q in polys[i + 1:]))
    assume(not num.is_zero)
    pf = partial_fractions(RatFunc(1, [(num, 1)], bases))
    # Summed over the common denominator D = prod base^power, the parts give num.
    powers = [_expr(base) ** power for _, base, power in pf.parts]
    total = _expr(pf.poly_part) * sympy.Mul(*powers)
    for i, (pnum, base, power) in enumerate(pf.parts):
        assert pnum.degree < base.degree * power
        total += _expr(pnum) * sympy.Mul(*powers[:i], *powers[i + 1:])
    assert sympy.expand(total - _expr(num)) == 0


@settings(_SETTINGS, max_examples=25)
@given(numer=_polys(min_degree=0, max_degree=3), denom=_polys(min_degree=1, max_degree=3),
       s_numer=_polys("x", min_degree=0, max_degree=2),
       s_denom=_polys("x", min_degree=0, max_degree=2))
def test_compose_rational_matches_sympy_subs(numer, denom, s_numer, s_denom):
    z = sympy.Symbol("z")
    s = _expr(s_numer) / _expr(s_denom)
    # A substitution that makes f's denominator vanish identically has no value.
    assume(sympy.expand(sympy.numer(sympy.together(_expr(denom).subs(z, s)))) != 0)
    f = RatFunc(1, [(numer, 1)], [(denom, 1)])
    want_num, want_den = sympy.fraction(sympy.cancel(_ratfunc_expr(f).subs(z, s)))
    got_num, got_den = compose_rational(f, s_numer, s_denom).expand_to_single_fraction("x")
    assert sympy.expand(_expr(got_num) * want_den - _expr(got_den) * want_num) == 0
