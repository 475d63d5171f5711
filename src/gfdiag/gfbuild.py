"""Bivariate generating functions for binomial convolutions, plus the catalog.

For sequences a and b with rational generating functions A and B, the
double sequence h[n][m] = sum_k C(n,k) a_k b_{m-k} has

    F(x, y) = B(y) * 1/(1-x) * A(w) |  w = x*y/(1-x)

The derived forms are built from that construction; the catalog also
carries transcribed reference forms so the verification suite can compare
the two.  The derived section-2 function is built from first principles
rather than copied from its transcription, because the transcription and
the construction disagree in two monomial signs (claim fib.H.printed
reports the difference).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, partial

from .poly import BiPoly, Poly, _Frozen
from .ratfunc import RatFunc, compose_rational
from .series import SequenceSpec, gf_of_sequence, kbonacci
from .textform import parse_ratfunc


class ConvolutionGF(_Frozen):
    """A convolution generating function with its provenance."""

    __slots__ = _fields = ("F", "spec_a", "spec_b", "provenance")
    F: RatFunc
    spec_a: SequenceSpec
    spec_b: SequenceSpec
    provenance: str             # "derived" or "printed"


def build_convolution_gf(a: SequenceSpec, b: SequenceSpec) -> ConvolutionGF:
    """Derived bivariate GF of h[n][m] = sum_k C(n,k) a_k b_{m-k}, factored."""
    gf_b = gf_of_sequence(b, var="y")
    gf_a_w = gf_of_sequence(a, var="w")
    if gf_a_w.is_zero or gf_b.is_zero:
        return ConvolutionGF(RatFunc.zero(), a, b, "derived")
    one_minus_x = Poly("x", [1, -1])
    xy = BiPoly("x", "y", [Poly.zero("y"), Poly("y", [0, 1])])
    composed = compose_rational(gf_a_w, xy, one_minus_x)
    geom = RatFunc(1, denom=[(one_minus_x, 1)])
    return ConvolutionGF(gf_b * geom * composed, a, b, "derived")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class CatalogEntry(_Frozen):
    __slots__ = _fields = ("id", "kind", "provenance", "description", "build")
    _defaults = {"build": None}
    id: str
    kind: str                   # "bivariate-gf", "univariate-gf", "formula"
    provenance: str             # "printed" or "derived"
    description: str
    build: Callable[[], RatFunc] | None


def _self_convolution_gf(k: int) -> RatFunc:
    """Derived double GF of the shifted k-bonacci self-convolution."""
    a = kbonacci(k, shifted=True)
    return build_convolution_gf(a, a).F


def _trib_diag_printed() -> RatFunc:
    first = parse_ratfunc("(1/11)*(1+z+10*z^2)/(1-2*z-4*z^2-8*z^3)")
    second = parse_ratfunc("(1/11)*(1+z-8*z^2)/(1-2*z+2*z^3)")
    return first - second


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    _ENTRIES[entry.id] = entry


_register(CatalogEntry(
    "fib.H.printed", "bivariate-gf", "printed",
    "Transcribed double GF of sum C(n,k) F_k F_{m-k} "
    "(its x^2*y and x^2*y^2 denominator signs differ from the derived form)",
    lambda: parse_ratfunc("x*y^2 / ((1-2*x+x^2-x*y-x^2*y+x^2*y^2)*(1-y-y^2))")))
_register(CatalogEntry(
    "fib.H.derived", "bivariate-gf", "derived",
    "Derived double GF of sum C(n,k) F_k F_{m-k} (Fibonacci, initial 0,1)",
    partial(_self_convolution_gf, 2)))
_register(CatalogEntry(
    "fib.diag.printed", "univariate-gf", "printed",
    "Transcribed diagonal GF for the Fibonacci self-convolution",
    lambda: parse_ratfunc("z^2 / ((1-z)*(1-2*z-4*z^2))")))
_register(CatalogEntry(
    "fib.closed_form", "formula", "printed",
    "Closed form sum C(n,k) F_k F_{n-k} = (-2 + 2^n L_n)/5 with Lucas numbers L"))
_register(CatalogEntry(
    "trib.G", "bivariate-gf", "derived",
    "Double GF of sum C(n,k) T_k T_{m-k} for the shifted Tribonacci (initial 0,1,1)",
    partial(_self_convolution_gf, 3)))
_register(CatalogEntry(
    "trib.diag.printed", "univariate-gf", "printed",
    "Transcribed two-term diagonal GF, combined over the product denominator",
    _trib_diag_printed))
_register(CatalogEntry(
    "trib.diag.term1", "univariate-gf", "printed",
    "First transcribed diagonal term (1/11)(1+z+10z^2)/(1-2z-4z^2-8z^3)",
    lambda: parse_ratfunc("(1/11)*(1+z+10*z^2)/(1-2*z-4*z^2-8*z^3)")))
_register(CatalogEntry(
    "trib.second_term", "univariate-gf", "printed",
    "Second transcribed diagonal term (1/11)(1+z-8z^2)/(1-2z+2z^3), subtracted",
    lambda: parse_ratfunc("(1/11)*(1+z-8*z^2)/(1-2*z+2*z^3)")))
_register(CatalogEntry(
    "trib.U_gf", "univariate-gf", "printed",
    "Auxiliary U sequence: 1/(1-2z+2z^3)",
    lambda: parse_ratfunc("1/(1-2*z+2*z^3)")))
_register(CatalogEntry(
    "trib.first_term_closed_form", "formula", "printed",
    "Coefficient formula (1/11)(2^(n+1) T_{n+1} + (1/2) 2^n T_n + (5/2) 2^(n-1) T_{n-1})"))
_register(CatalogEntry(
    "trib.U_binomial", "formula", "printed",
    "Binomial formula U_m = sum_{k>=1} T_{k-1} (-1)^k C(m+2, k)"))
_register(CatalogEntry(
    "tetra.G", "bivariate-gf", "derived",
    "Double GF of the shifted Tetranacci self-convolution (initial 0,1,1,2)",
    partial(_self_convolution_gf, 4)))
_register(CatalogEntry(
    "tetra.diag.printed", "univariate-gf", "printed",
    "Transcribed diagonal GF for the Tetranacci self-convolution",
    lambda: parse_ratfunc(
        "2*z^2*(-z^3-2*z^4+8*z^5+6*z^6+4*z^7+1-2*z-z^2)"
        " / ((16*z^4+8*z^3+4*z^2+2*z-1)*(z^6+6*z^5-4*z^4-3*z^3-z^2+3*z-1))")))
_register(CatalogEntry(
    "penta.G", "bivariate-gf", "derived",
    "Double GF of the shifted Pentanacci self-convolution (initial 0,1,1,2,4)",
    partial(_self_convolution_gf, 5)))
_register(CatalogEntry(
    "penta.diag.printed", "univariate-gf", "printed",
    "Transcribed diagonal GF for the Pentanacci self-convolution",
    lambda: parse_ratfunc(
        "-2*z^2*(-z^3-z^4-25*z^6+19*z^8+52*z^10+40*z^9-1+3*z)"
        " / ((32*z^5+16*z^4+8*z^3+4*z^2+2*z-1)"
        "*(4*z^10-4*z^9-15*z^8-12*z^7+25*z^6-2*z^4-4*z^3-3*z^2+4*z-1))")))


def catalog_ids() -> list[str]:
    return sorted(_ENTRIES)


def catalog_entry(catalog_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[catalog_id]
    except KeyError:
        raise ValueError(f"unknown catalog id: {catalog_id}") from None


def printed_gf(catalog_id: str) -> RatFunc:
    """The catalog's rational function for the given id, in factored form."""
    entry = catalog_entry(catalog_id)
    if entry.build is None:
        raise ValueError(f"catalog entry {catalog_id} is a formula, not a rational function")
    return _built(entry)


@cache
def _built(entry: CatalogEntry) -> RatFunc:
    """entry.build(), once per process: a RatFunc is immutable."""
    return entry.build()
