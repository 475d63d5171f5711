"""Command-line front end.

Exit codes: 0 success (including expected claim outcomes), 2 usage or
parse error, 3 domain error (pole at the origin), 4 residue-method
assumption violated.  JSON output carries exact values as decimal
strings and contains no floating-point numbers.

Every command takes one path through main: the arguments are parsed by
one parser per process, the command runs inside the one block that lifts
Python's limit on int digits, and its output goes through _emit.  Inside
that block an input literal is bounded by its parser's own length check,
textform's for a rational function and _parse_fraction_list's for a list.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from .claims import claim_ids, run_all, run_claim
from .gfbuild import catalog_entry, catalog_ids, printed_gf
from .recurrences import convolution_terms, find_min_recurrence
from .residues import DegeneratePoleError, diagonal_rational
from .series import (
    PoleAtOriginError,
    SequenceSpec,
    diagonal_series,
    gf_of_sequence,
    series_of_rational,
)
from .textform import MAX_LITERAL_DIGITS, ParseError, parse_ratfunc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_METHOD = 4


@contextmanager
def _output_digits():
    """Lift Python's limit on the digits of an int printed in decimal.

    Exact results, such as the 5720-digit 2^19000, may exceed the default
    limit of 4300 digits.  main enters this block once, around the command
    and after argparse has read --n and --k, so the command computes and
    prints without the limit.  The parsers check the length of each input
    literal themselves (textform.MAX_LITERAL_DIGITS), so a literal above it
    stays an error.  Python versions without the limit have nothing to lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, command: str, payload: Callable[[], dict], parts: Iterable[str],
          sep: str = "\n", status: int = EXIT_OK) -> int:
    """Print the command's JSON envelope or its text, and return its exit status.

    Only the form asked for is built: payload() is called for --json only,
    and the text is printed from its parts, never joined into one string;
    json is imported here, so a text command never loads it.
    """
    if args.json:
        import json
        print(json.dumps({"command": command, "status": status, **payload()}, indent=2))
    else:
        print(*parts, sep=sep)
    return status


def _parse_fraction_list(text: str) -> list[Fraction]:
    """The comma-separated integers, p/q and decimals in text.

    Each numerator and denominator has at most MAX_LITERAL_DIGITS digits,
    counted in full ('_' separators and a decimal point aside), and no entry
    has an exponent: Fraction would expand 1e2000000 to two million digits.
    """
    shown = text if len(text) <= 60 else f"{text[:40]}...({len(text)} characters)"
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    for part in parts:
        if re.search(r"[eE][-+]?\d", part):
            raise ParseError(f"malformed rational list {shown!r}: an exponent is not accepted; "
                             "write each numerator and denominator out, up to the limit "
                             f"of {MAX_LITERAL_DIGITS} digits")
        digits = max(len(re.sub(r"\D", "", side)) for side in part.split("/"))
        if digits > MAX_LITERAL_DIGITS:
            raise ParseError(f"malformed rational list {shown!r}: an integer of {digits} digits "
                             f"exceeds the limit of {MAX_LITERAL_DIGITS} digits")
    try:
        return [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational list {shown!r}: {exc}")


def _gf_text(num, den) -> dict:
    """The JSON fields of the generating function num / den, each polynomial printed once."""
    num, den = str(num), str(den)
    return {"numerator": num, "denominator": den, "gf": f"({num}) / ({den})"}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    f = parse_ratfunc(args.gf)
    if not f.is_univariate:
        raise ParseError("expand requires a univariate rational function")
    values = [str(c) for c in series_of_rational(f, args.n)]
    return _emit(args, "expand", lambda: {"input": args.gf, "n": args.n, "coefficients": values},
                 values, sep=" ")


def cmd_convolve(args) -> int:
    if args.k < 1:
        raise ParseError("order must be >= 1")
    init = _parse_fraction_list(args.init)
    if len(init) != args.k:
        raise ParseError(f"--init must supply exactly k={args.k} terms, got {len(init)}")
    coeffs = _parse_fraction_list(args.coeffs) if args.coeffs else [Fraction(1)] * args.k
    if len(coeffs) != args.k:
        raise ParseError(f"--coeffs must supply exactly k={args.k} values, got {len(coeffs)}")
    spec = SequenceSpec(args.k, tuple(coeffs), tuple(init))
    values = [str(c) for c in convolution_terms(spec, spec, args.n)]
    return _emit(args, "convolve", lambda: {"k": args.k, "init": [str(c) for c in init],
                                            "n": args.n, "convolution": values},
                 values, sep=" ")


def _diagonal_input(args):
    if args.catalog:
        entry = catalog_entry(args.catalog)
        if entry.kind != "bivariate-gf":
            raise ParseError(f"catalog entry {args.catalog} is {entry.kind}, "
                             "need a bivariate GF")
        return args.catalog, printed_gf(args.catalog)
    # A function of at most two variables: the parser refuses a third.
    return args.gf_text, parse_ratfunc(args.gf_text)


def cmd_diagonal(args) -> int:
    if args.method != "residue" and args.n < 4:
        raise ParseError(f"--n must be >= 4 for --method {args.method}: the series route "
                         f"finds a recurrence from at least 4 diagonal terms, got {args.n}")
    label, f = _diagonal_input(args)
    payload: dict = {"input": label, "method": args.method, "n": args.n}
    lines = []
    series_gf = None
    status = EXIT_OK

    if args.method in ("residue", "both"):
        residue_gf, report = diagonal_rational(f, check_terms=args.n)
        # A residue sum that its series cross-check refutes is no diagonal:
        # it is withheld, and the report says why.
        refuted = report.status == "method-assumption-violated"
        # diagonal_rational returns its GF reduced, its denominator normalized
        # as RatFunc.reduced_fraction normalizes it, so it is printed as it is.
        found = (dict.fromkeys(("numerator", "denominator", "gf")) if refuted
                 else _gf_text(*residue_gf.expand_to_single_fraction()))
        payload["residue"] = dict(found, crosscheck=report.to_json_dict())
        lines.append("residue method: no GF found, the series cross-check refutes the residue sum"
                     if refuted else f"residue method: {found['gf']}")
        for pole in report.poles:
            tag = "kept" if pole.kept else "discarded"
            power = f"^{pole.multiplicity}" if pole.multiplicity > 1 else ""
            lines.append(f"  pole factor [{tag:9s}] ({pole.factor}){power}  [{pole.reason}]")
        if report.status == "unchecked":
            lines.append(f"  series cross-check: not run (--n {args.n})")
        else:
            lines.append(f"  series cross-check ({report.checked_terms} terms): {report.status}")
        if refuted:
            status = EXIT_METHOD

    if args.method in ("series", "both"):
        rec = find_min_recurrence(diagonal_series(f, args.n))
        if rec is None:
            payload["series"] = {"recurrence_order": None,
                                 "note": f"no recurrence of order <= {(args.n - 1) // 2} "
                                         f"fits {args.n} diagonal terms"}
            lines.append(f"series method: no recurrence found within {args.n} terms")
        else:
            series_gf = gf_of_sequence(rec)
            confidence = args.n - 2 * rec.order
            payload["series"] = dict(_gf_text(*series_gf.reduced_fraction()),
                                     recurrence_order=rec.order,
                                     recurrence_coeffs=[str(c) for c in rec.coeffs],
                                     confidence=confidence)
            lines.append(f"series method: order-{rec.order} recurrence "
                         f"(confidence {confidence}), {payload['series']['gf']}")

    if args.method == "both":
        # Without a GF from each route there is nothing to compare: the exit
        # status is the residue report's alone.
        if series_gf is None or refuted:
            payload["match"] = None
            why = (payload["series"]["note"] if series_gf is None
                   else "the residue route found no GF")
            lines.append(f"cross-check (residue vs series): undecided: {why}")
        else:
            # Both GFs print reduced, with denominators normalized alike by
            # RatFunc.reduced_fraction, so equal functions print equal text.
            payload["match"] = payload["residue"]["gf"] == payload["series"]["gf"]
            lines.append("cross-check (residue vs series): "
                         f"{'pass' if payload['match'] else 'FAIL'}")
            if not payload["match"]:
                status = EXIT_METHOD

    return _emit(args, "diagonal", lambda: payload, lines, status=status)


def cmd_guess_gf(args) -> int:
    terms = _parse_fraction_list(args.terms)
    if len(terms) < 4:
        raise ParseError("need at least 4 terms")
    rec = find_min_recurrence(terms)
    if rec is None:
        bound = (len(terms) - 1) // 2
        return _emit(args, "guess-gf",
                     lambda: {"terms": [str(t) for t in terms], "order": None,
                              "note": f"no recurrence of order <= {bound} fits"},
                     [f"no recurrence of order <= {bound} fits the supplied terms"])
    gf = _gf_text(*gf_of_sequence(rec).reduced_fraction())
    confidence = len(terms) - 2 * rec.order
    recurrence = " + ".join(f"({c})*a(n-{i})" for i, c in enumerate(rec.coeffs, 1)) or "0"
    return _emit(args, "guess-gf",
                 lambda: dict(gf, order=rec.order, coeffs=[str(c) for c in rec.coeffs],
                              initial=[str(c) for c in rec.initial], confidence=confidence),
                 [f"order {rec.order} recurrence: a(n) = {recurrence}",
                  f"confidence (terms - 2*order): {confidence}", f"gf: {gf['gf']}"])


def cmd_catalog(args) -> int:
    entries = [catalog_entry(i) for i in catalog_ids()]
    return _emit(args, "catalog",
                 lambda: {"entries": [
                     {"id": e.id, "kind": e.kind, "provenance": e.provenance,
                      "description": e.description,
                      "gf": str(printed_gf(e.id)) if e.build else None}
                     for e in entries]},
                 (f"{e.id:28s} {e.kind:13s} {e.provenance:8s} {e.description}"
                  for e in entries))


def cmd_verify(args) -> int:
    reports = [run_claim(c, args.n) for c in args.claim] if args.claim else run_all(args.n)
    all_matched = all(r.matched_expected for r in reports)
    lines = []
    for r in reports:
        mark = "PASS" if r.status == "pass" else "FAIL"
        expect = "" if r.matched_expected else "  [UNEXPECTED]"
        lines.append(f"{mark}  {r.id:22s} expected={r.expected_status:6s} "
                     f"{r.runtime_ms:5d}ms{expect}")
        if r.first_mismatch is not None:
            lines.append(f"      first mismatch at {r.first_mismatch}: {r.lhs} vs {r.rhs}")
        if r.note:
            lines.append(f"      note: {r.note}")
    lines.append("claims matching their expected status: "
                 f"{sum(r.matched_expected for r in reports)}/{len(reports)}")
    return _emit(args, "verify", lambda: {"n": args.n, "all_matched_expected": all_matched,
                                          "reports": [r.to_json_dict() for r in reports]},
                 lines, status=EXIT_OK if all_matched else 1)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfdiag",
        description="Exact generating-function diagonals for binomial convolutions "
                    "of k-step Fibonacci sequences")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="print Taylor coefficients of a rational function")
    p.add_argument("gf", help="univariate rational function, e.g. '1/(1-2*z+2*z^3)'")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("convolve", help="binomial self-convolution of a recurrence sequence "
                                        "(Pascal sums for the first 2*k^2 terms, the rest "
                                        "from the recurrence they determine)")
    p.add_argument("--k", type=int, required=True, help="recurrence order")
    p.add_argument("--init", required=True, help="comma-separated initial terms")
    p.add_argument("--coeffs", help="comma-separated recurrence coefficients (default all 1)")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("diagonal", help="extract the diagonal of a bivariate GF")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", help="catalog id of a bivariate GF (see 'catalog')")
    src.add_argument("--gf-text", help="bivariate rational function text")
    p.add_argument("--method", choices=("series", "residue", "both"), default="both")
    p.add_argument("--n", type=int, default=200,
                   help="series terms for detection and cross-checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("guess-gf", help="detect the minimal recurrence of a sequence")
    p.add_argument("--terms", required=True, help="comma-separated exact terms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_guess_gf)

    p = sub.add_parser("catalog", help="list the built-in generating functions and formulas")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="run the transcribed-identity claims")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--claim", action="append", choices=claim_ids(), metavar="ID",
                       help=f"one of: {', '.join(claim_ids())}; repeat to run several, in order")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


#: Options whose values may begin with '-' (a negative term, '-x/(1-x*y)').
_VALUE_OPTIONS = ("--init", "--coeffs", "--terms", "--gf-text")


def _join_option_values(argv: list[str]) -> list[str]:
    """Rewrite '--init -1,2' as '--init=-1,2'.

    argparse reads a separate value that begins with '-' as an option and
    rejects it with "expected one argument"; the '--opt=value' form is
    always read as the value.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process; main reuses it on every later call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
        with _output_digits():
            return args.func(args)
    except ValueError as exc:  # a ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoleAtOriginError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DegeneratePoleError as exc:
        print(f"method error: {exc}", file=sys.stderr)
        return EXIT_METHOD


if __name__ == "__main__":
    sys.exit(main())
