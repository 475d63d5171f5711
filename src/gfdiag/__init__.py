"""Exact-arithmetic toolkit for binomial convolutions of k-step Fibonacci
sequences: bivariate generating functions, diagonal extraction by residue
sums and by series/recurrence detection, and an identity verification suite.
"""

from .poly import BiPoly, Poly, Rational, poly_gcd
from .ratfunc import RatFunc, compose_rational
from .textform import ParseError, parse_poly, parse_ratfunc
from .series import (
    PoleAtOriginError,
    SequenceSpec,
    binomial_convolution_sequence,
    bivariate_series,
    convolution_grid,
    diagonal_series,
    generate_sequence,
    gf_of_sequence,
    kbonacci,
    series_of_rational,
)
from .recurrences import convolution_terms, find_min_recurrence
from .residues import (
    DegeneratePoleError,
    DiagnosticReport,
    PartialFractions,
    PoleClass,
    classify_poles,
    diagonal_rational,
    hk_transform,
    partial_fractions,
)
from .gfbuild import (
    CatalogEntry,
    ConvolutionGF,
    build_convolution_gf,
    catalog_entry,
    catalog_ids,
    printed_gf,
)
from .claims import Claim, ClaimReport, claim_ids, get_claim, run_all, run_claim

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CatalogEntry", "Claim", "ClaimReport",
    "ConvolutionGF", "DegeneratePoleError", "DiagnosticReport",
    "ParseError", "PartialFractions", "PoleAtOriginError", "PoleClass", "Poly",
    "RatFunc", "Rational", "SequenceSpec", "binomial_convolution_sequence",
    "bivariate_series", "build_convolution_gf",
    "catalog_entry", "catalog_ids", "claim_ids",
    "classify_poles", "compose_rational", "convolution_grid", "convolution_terms",
    "diagonal_rational", "diagonal_series", "find_min_recurrence",
    "generate_sequence", "get_claim", "gf_of_sequence", "hk_transform",
    "kbonacci", "parse_poly", "parse_ratfunc",
    "partial_fractions", "poly_gcd", "printed_gf",
    "run_all", "run_claim", "series_of_rational",
]
