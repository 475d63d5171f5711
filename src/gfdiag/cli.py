"""Command-line front end.

Exit codes: 0 success (including expected claim outcomes), 2 usage or
parse error, 3 domain error (pole at the origin), 4 residue-method
assumption violated.  JSON output carries exact values as decimal
strings and contains no floating-point numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .claims import claim_ids, run_all, run_claim
from .gfbuild import catalog_entry, catalog_ids, printed_gf
from .recurrences import convolution_terms, find_min_recurrence
from .residues import DegeneratePoleError, diagonal_rational
from .series import (
    PoleAtOriginError,
    SequenceSpec,
    gf_of_sequence,
    series_of_rational,
)
from .textform import MAX_LITERAL_DIGITS, ParseError, parse_ratfunc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_METHOD = 4


def _default_n() -> int:
    env = os.environ.get("GFDIAG_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"GFDIAG_N must be an integer, got {env!r}")
    return 200


@contextmanager
def _output_digits():
    """Lift Python's limit on the digits of an int printed in decimal.

    Exact results, such as the 5720-digit 2^19000, may exceed the default
    limit of 4300 digits.  Commands format their output inside this block
    and parse their input outside it, so an input literal above the limit
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


def _emit_json(command: str, payload: dict, status: int = 0) -> None:
    envelope = {"command": command, "status": status}
    envelope.update(payload)
    print(json.dumps(envelope, indent=2))


def _parse_fraction_list(text: str) -> list[Fraction]:
    shown = text if len(text) <= 60 else f"{text[:40]}...({len(text)} characters)"
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    if digits > MAX_LITERAL_DIGITS:
        raise ParseError(f"malformed rational list {shown!r}: an integer of {digits} digits "
                         f"exceeds the limit of {MAX_LITERAL_DIGITS} digits")
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational list {shown!r}: {exc}")


def _reduced_text(f) -> dict:
    num, den = f.reduced_fraction()
    return {"numerator": str(num), "denominator": str(den), "gf": f"({num}) / ({den})"}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    f = parse_ratfunc(args.gf)
    if not f.is_univariate:
        raise ParseError("expand requires a univariate rational function")
    series = series_of_rational(f, args.n)
    with _output_digits():
        values = [str(c) for c in series]
    if args.json:
        _emit_json("expand", {"input": args.gf, "n": args.n, "coefficients": values})
    else:
        print(" ".join(values))
    return EXIT_OK


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
    conv = convolution_terms(spec, spec, args.n)
    with _output_digits():
        values = [str(c) for c in conv]
    if args.json:
        _emit_json("convolve", {"k": args.k, "init": [str(c) for c in init],
                                "n": args.n, "convolution": values})
    else:
        print(" ".join(values))
    return EXIT_OK


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
    label, f = _diagonal_input(args)
    return _diagonal_report(args, label, f)


@_output_digits()
def _diagonal_report(args, label, f) -> int:
    payload: dict = {"input": label, "method": args.method, "n": args.n}
    lines = []
    residue_gf = None
    series_gf = None
    status = EXIT_OK

    if args.method in ("residue", "both"):
        result, report = diagonal_rational(f, check_terms=args.n)
        residue_gf = result
        payload["residue"] = dict(_reduced_text(result), crosscheck=report.to_json_dict())
        lines.append(f"residue method: {payload['residue']['gf']}")
        for pole in report.poles:
            tag = "kept" if pole.kept else "discarded"
            power = f"^{pole.multiplicity}" if pole.multiplicity > 1 else ""
            lines.append(f"  pole factor [{tag:9s}] ({pole.factor}){power}  [{pole.reason}]")
        lines.append(f"  series cross-check ({report.checked_terms} terms): {report.status}")
        if report.status != "ok":
            status = EXIT_METHOD

    if args.method in ("series", "both"):
        from .series import diagonal_series
        diag = diagonal_series(f, args.n)
        rec = find_min_recurrence(diag)
        if rec is None:
            payload["series"] = {"recurrence_order": None,
                                 "note": f"no recurrence of order <= {(args.n - 1) // 2} "
                                         f"fits {args.n} diagonal terms"}
            lines.append(f"series method: no recurrence found within {args.n} terms")
        else:
            series_gf = gf_of_sequence(rec)
            confidence = args.n - 2 * rec.order
            payload["series"] = dict(_reduced_text(series_gf),
                                     recurrence_order=rec.order,
                                     recurrence_coeffs=[str(c) for c in rec.coeffs],
                                     confidence=confidence)
            lines.append(f"series method: order-{rec.order} recurrence "
                         f"(confidence {confidence}), {payload['series']['gf']}")

    if args.method == "both":
        from .ratfunc import identity_equal
        both_ok = (residue_gf is not None and series_gf is not None
                   and identity_equal(residue_gf, series_gf))
        payload["match"] = bool(both_ok)
        lines.append(f"cross-check (residue vs series): {'pass' if both_ok else 'FAIL'}")
        if not both_ok and status == EXIT_OK:
            status = EXIT_METHOD

    if args.json:
        _emit_json("diagonal", payload, status)
    else:
        print("\n".join(lines))
    return status


def cmd_guess_gf(args) -> int:
    terms = _parse_fraction_list(args.terms)
    if len(terms) < 4:
        raise ParseError("need at least 4 terms")
    return _guess_report(args, terms)


@_output_digits()
def _guess_report(args, terms) -> int:
    rec = find_min_recurrence(terms)
    if rec is None:
        if args.json:
            _emit_json("guess-gf", {"terms": [str(t) for t in terms], "order": None,
                                    "note": f"no recurrence of order <= {(len(terms) - 1) // 2} "
                                            "fits"})
        else:
            print(f"no recurrence of order <= {(len(terms) - 1) // 2} fits the supplied terms")
        return EXIT_OK
    gf = gf_of_sequence(rec)
    confidence = len(terms) - 2 * rec.order
    if args.json:
        _emit_json("guess-gf", dict(_reduced_text(gf),
                                    order=rec.order,
                                    coeffs=[str(c) for c in rec.coeffs],
                                    initial=[str(c) for c in rec.initial],
                                    confidence=confidence))
    else:
        print(f"order {rec.order} recurrence: a(n) = "
              + (" + ".join(f"({c})*a(n-{i})" for i, c in enumerate(rec.coeffs, 1)) or "0"))
        print(f"confidence (terms - 2*order): {confidence}")
        num, den = gf.reduced_fraction()
        print(f"gf: ({num}) / ({den})")
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = [catalog_entry(i) for i in catalog_ids()]
    if args.json:
        _emit_json("catalog", {"entries": [
            {"id": e.id, "kind": e.kind, "provenance": e.provenance,
             "description": e.description,
             "gf": str(e.build()) if e.build else None}
            for e in entries]})
    else:
        for e in entries:
            print(f"{e.id:28s} {e.kind:13s} {e.provenance:8s} {e.description}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.all and not args.claim:
        raise ParseError("verify needs --all or --claim ID")
    if args.n < 0:
        raise ParseError("n must be >= 0")
    if args.claim:
        reports = [run_claim(args.claim, args.n)]
    else:
        reports = run_all(args.n)
    all_matched = all(r.matched_expected for r in reports)
    if args.json:
        _emit_json("verify", {"n": args.n,
                              "all_matched_expected": all_matched,
                              "reports": [r.to_json_dict() for r in reports]},
                   0 if all_matched else 1)
    else:
        for r in reports:
            mark = "PASS" if r.status == "pass" else "FAIL"
            expect = "" if r.matched_expected else "  [UNEXPECTED]"
            print(f"{mark}  {r.id:22s} expected={r.expected_status:6s} "
                  f"{r.runtime_ms:5d}ms{expect}")
            if r.first_mismatch is not None:
                print(f"      first mismatch at {r.first_mismatch}: "
                      f"{r.lhs} vs {r.rhs}")
            if r.note:
                print(f"      note: {r.note}")
        print("claims matching their expected status: "
              f"{sum(r.matched_expected for r in reports)}/{len(reports)}")
    return EXIT_OK if all_matched else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfdiag",
        description="Exact generating-function diagonals for binomial convolutions "
                    "of k-step Fibonacci sequences")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_n = _default_n()

    p = sub.add_parser("expand", help="print Taylor coefficients of a rational function")
    p.add_argument("gf", help="univariate rational function, e.g. '1/(1-2*z+2*z^3)'")
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("convolve", help="binomial self-convolution of a recurrence sequence "
                                        "(Pascal sums for the first 2*k^2 terms, the rest "
                                        "from the recurrence they determine)")
    p.add_argument("--k", type=int, required=True, help="recurrence order")
    p.add_argument("--init", required=True, help="comma-separated initial terms")
    p.add_argument("--coeffs", help="comma-separated recurrence coefficients (default all 1)")
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("diagonal", help="extract the diagonal of a bivariate GF")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", help="catalog id of a bivariate GF (see 'catalog')")
    src.add_argument("--gf-text", help="bivariate rational function text")
    p.add_argument("--method", choices=("series", "residue", "both"), default="both")
    p.add_argument("--n", type=int, default=default_n,
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
    p.add_argument("--all", action="store_true")
    p.add_argument("--claim", help=f"one of: {', '.join(claim_ids())}")
    p.add_argument("--n", type=int, default=default_n)
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


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
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
