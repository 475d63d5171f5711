"""Integer-content Poly and BiPoly against the Fraction reference classes.

Every operation of gfdiag.poly is run on random inputs and compared with
RefPoly/RefBiPoly of tests/helpers.py, which store Fraction coefficient
tuples.  Inputs include zero coefficients, negative leading coefficients,
rationals with distinct denominators, zero polynomials and constants, so
that a lost sign, a lost power of a leading coefficient or a lost
denominator shows.  Each result must also be in the canonical form: a
primitive integer part with positive leading entry, the sign in the content,
held as the one row of the shared (names, content, rows) form; for a
BiPoly, one content over integer rows with gcd 1, no trailing zeros and a
positive last entry.  Lifting a Poly into two variables must commute with
the arithmetic, which both classes share.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gfdiag import BiPoly, Poly
from gfdiag.poly import unify

from helpers import RefBiPoly, RefPoly, ref_unify

_settings = settings(max_examples=150, derandomize=True, database=None, deadline=None)

_rational = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5))))
_coeff_lists = st.lists(_rational, max_size=5)
_points = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def _pair(cs, var="z"):
    return Poly(var, cs), RefPoly(var, cs)


def _bipair(rows):
    return (BiPoly("x", "y", [Poly("y", r) for r in rows]),
            RefBiPoly("x", "y", [RefPoly("y", r) for r in rows]))


_polys = _coeff_lists.map(_pair)
_bipolys = st.lists(_coeff_lists, max_size=4).map(_bipair)


def _from_ref(ref):
    if isinstance(ref, RefPoly):
        return Poly(ref.var, ref.coeffs)
    return BiPoly(ref.outer, ref.inner, [_from_ref(r) for r in ref.coeffs])


def _to_ref(p):
    if isinstance(p, Poly):
        return RefPoly(p.var, p.coeffs)
    return RefBiPoly(p.outer, p.inner, [_to_ref(r) for r in p.coeffs])


def _assert_canonical(p):
    assert type(p.content) is Fraction
    if isinstance(p, BiPoly):
        # One content over all rows; each row and the rows end in a nonzero entry.
        if p.is_zero:
            assert (p.content, p.rows) == (0, ())
        else:
            assert p.content != 0 and p.rows[-1][-1] > 0
            assert gcd(*(v for row in p.rows for v in row)) == 1
            assert all(type(v) is int for row in p.rows for v in row)
            assert all(not row or row[-1] for row in p.rows)
        for row in p.coeffs:
            _assert_canonical(row)
        return
    # One name and the one row prim, as the shared (names, content, rows) form.
    assert p.names == (p.var,) and p.rows == ((p.prim,) if p.prim else ())
    if p.is_zero:
        assert (p.content, p.prim) == (0, ())
    else:
        assert p.content != 0 and p.prim[-1] > 0 and gcd(*p.prim) == 1


def _same(new, ref):
    """new (Poly or BiPoly) equals ref (RefPoly or RefBiPoly) in every public view."""
    _assert_canonical(new)
    assert _to_ref(new) == ref
    assert str(new) == str(ref)
    assert new == _from_ref(ref) and hash(new) == hash(_from_ref(ref))
    if isinstance(new, Poly):
        assert new.coeffs == ref.coeffs and new.degree == ref.degree
        assert [new.coeff(i) for i in range(-1, 7)] == [ref.coeff(i) for i in range(-1, 7)]
        if not ref.is_zero:
            assert new.leading == ref.leading
    else:
        assert (new.degree, new.inner_degree) == (ref.degree, ref.inner_degree)


@_settings
@given(a=_polys, b=_polys, c=_rational, n=st.integers(0, 4))
def test_poly_arithmetic_matches_reference(a, b, c, n):
    (p, rp), (q, rq) = a, b
    _same(p, rp)
    _same(p + q, rp + rq)
    _same(p - q, rp - rq)
    _same(-p, -rp)
    _same(p * q, rp * rq)
    _same(p + c, rp + c)
    _same(c - p, c - rp)
    _same(p * c, rp * c)
    _same(p.scale(c), rp.scale(c))
    _same(p ** n, rp ** n)
    _same(p.monic(), rp.monic())
    assert (p == q) == (rp == rq)
    assert (p == c) == (rp == c)


@_settings
@given(a=_polys, b=_polys)
def test_poly_divrem_matches_reference(a, b):
    (p, rp), (q, rq) = a, b
    if rq.is_zero:
        return
    got, want = p.divrem(q), rp.divrem(rq)
    _same(got[0], want[0])
    _same(got[1], want[1])
    # A product divided by a factor leaves no remainder.
    got, want = (p * q).divrem(q), (rp * rq).divrem(rq)
    _same(got[0], want[0])
    _same(got[1], want[1])


@_settings
@given(a=_polys, b=_bipolys, x=_points, y=_points)
def test_evaluate_matches_reference(a, b, x, y):
    (p, rp), (f, rf) = a, b
    assert p.evaluate(x) == rp.evaluate(x)
    assert f.evaluate(x, y) == rf.evaluate(x, y)


@_settings
@given(a=_bipolys, b=_bipolys, c=_rational, n=st.integers(0, 3))
# (1 + y + x) * (1 - y + x): the product's x row, 2 + 0*y, ends in a zero.
@example(a=_bipair([[1, 1], [1]]), b=_bipair([[1, -1], [1]]), c=Fraction(-1), n=2)
def test_bipoly_arithmetic_matches_reference(a, b, c, n):
    (f, rf), (g, rg) = a, b
    _same(f, rf)
    _same(f + g, rf + rg)
    _same(f - g, rf - rg)
    _same(-f, -rf)
    _same(f * g, rf * rg)
    _same(f * c, rf * c)
    _same(f + c, rf + c)
    _same(f.scale(c), rf.scale(c))
    _same(f ** n, rf ** n)
    assert (f == g) == (rf == rg)


@_settings
@given(a=_bipolys, b=_polys, var=st.sampled_from(("x", "y")))
def test_bipoly_times_embedded_poly_matches_reference(a, b, var):
    (f, rf), (p, rp) = a, _pair(b[1].coeffs, var)
    _same(BiPoly.embed(p, "x", "y"), RefBiPoly.embed(rp, "x", "y"))
    _same(f * p, rf * rp)


@_settings
@given(a=_coeff_lists, b=_coeff_lists, c=_rational, n=st.integers(0, 3),
       var=st.sampled_from(("x", "y")))
def test_embed_commutes_with_arithmetic(a, b, c, n, var):
    p, q = Poly(var, a), Poly(var, b)

    def lift(f):
        return BiPoly.embed(f, "x", "y")

    for got, want in [(lift(p + q), lift(p) + lift(q)), (lift(p - q), lift(p) - lift(q)),
                      (lift(p * q), lift(p) * lift(q)), (lift(p ** n), lift(p) ** n),
                      (lift(p.scale(c)), lift(p).scale(c)), (lift(-p), -lift(p))]:
        _assert_canonical(got)
        _assert_canonical(want)
        assert got == want
    assert str(lift(p)) == str(p)


@_settings
@given(a=_bipolys, b=_polys, var=st.sampled_from(("x", "y")))
def test_bipoly_plus_poly_lifts_the_poly(a, b, var):
    # A Poly in one of a BiPoly's variables is lifted for + and -, as for *.
    f, p = a[0], Poly(var, b[0].coeffs)
    lifted = BiPoly.embed(p, "x", "y")
    for got, want in [(f + p, f + lifted), (p + f, lifted + f),
                      (f - p, f - lifted), (p - f, lifted - f), (p * f, lifted * f)]:
        assert type(got) is BiPoly and got == want


def test_bipoly_plus_poly_in_another_variable_raises():
    f = BiPoly("x", "y", [1, Poly("y", [0, 1])])
    with pytest.raises(ValueError, match="cannot embed z into"):
        f + Poly("z", [1, 1])
    with pytest.raises(ValueError, match=r"variable mismatch: \(x,y\) vs \(y,x\)"):
        f + BiPoly("y", "x", [1, Poly("x", [0, 1])])
    with pytest.raises(ValueError, match="variable mismatch: y vs z"):
        Poly("y", [1]) + Poly("z", [0, 1])


@_settings
@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _rational,
                             max_size=6))
def test_from_monomials_matches_reference(terms):
    _same(BiPoly.from_monomials("x", "y", terms), RefBiPoly.from_monomials("x", "y", terms))


_shapes = st.one_of(
    _coeff_lists.flatmap(lambda cs: st.sampled_from(("x", "y")).map(lambda v: _pair(cs, v))),
    _bipolys,
    _rational.map(lambda c: (c, c)))


@_settings
@given(values=st.lists(_shapes, min_size=1, max_size=4))
def test_unify_matches_reference(values):
    got = unify(*(v for v, _ in values))
    want = ref_unify(*(r for _, r in values))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Fraction):
            assert g == w
        else:
            _same(g, w)
