"""CLI surface: commands, exit codes, and the JSON envelope."""

import json
import subprocess
import sys

from fractions import Fraction

import pytest

from gfdiag import cli, parse_poly, parse_ratfunc


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "gfdiag", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def no_floats(obj) -> bool:
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


# -- expand --------------------------------------------------------------------

def test_expand_u_sequence():
    res = run_cli("expand", "1/(1-2*z+2*z^3)", "--n", "6")
    assert res.returncode == 0
    assert res.stdout.split() == ["1", "2", "4", "6", "8", "8"]


def test_expand_geometric():
    res = run_cli("expand", "1/(1-z)", "--n", "3")
    assert res.returncode == 0
    assert res.stdout.split() == ["1", "1", "1"]


def test_expand_pole_at_origin_exits_3():
    res = run_cli("expand", "1/z")
    assert res.returncode == 3


def test_expand_parse_error_exits_2():
    res = run_cli("expand", "1/(1-q)")
    assert res.returncode == 2


def test_expand_json_round_trips():
    res = run_cli("expand", "(1/3)/(1-z-z^2)", "--n", "8", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert no_floats(data)
    parsed = parse_ratfunc(data["input"])
    from gfdiag import series_of_rational
    want = [str(c) for c in series_of_rational(parsed, 8)]
    assert data["coefficients"] == want


# -- convolve --------------------------------------------------------------------

def test_convolve_fibonacci():
    res = run_cli("convolve", "--k", "2", "--init", "0,1", "--n", "4")
    assert res.returncode == 0
    assert res.stdout.split() == ["0", "0", "2", "6"]


def test_convolve_tribonacci():
    res = run_cli("convolve", "--k", "3", "--init", "0,1,1", "--n", "6")
    assert res.returncode == 0
    assert res.stdout.split() == ["0", "0", "2", "6", "22", "80"]


def test_convolve_zero_sequence():
    res = run_cli("convolve", "--k", "3", "--init", "0,0,0", "--n", "5")
    assert res.returncode == 0
    assert res.stdout.split() == ["0"] * 5


def test_convolve_malformed_init_exits_2():
    res = run_cli("convolve", "--k", "2", "--init", "0,oops", "--n", "4")
    assert res.returncode == 2


def test_convolve_order_zero_exits_2():
    res = run_cli("convolve", "--k", "0", "--init", "")
    assert res.returncode == 2
    assert "order must be >= 1" in res.stderr


@pytest.mark.parametrize("args, want", [
    (("convolve", "--k", "2", "--init", "-1,2", "--n", "6"), "1 -4 6 6 46 126\n"),
    (("guess-gf", "--terms", "-1,2,-4,8,-16,32"), "order 1 recurrence: a(n) = (-2)*a(n-1)\n"),
    (("diagonal", "--gf-text", "-1/(1-x*y)", "--method", "series", "--n", "6"),
     "series method: order-1 recurrence (confidence 4), (-1) / (1 - z)\n"),
], ids=["convolve-init", "guess-gf-terms", "diagonal-gf-text"])
def test_option_value_starting_with_minus(args, want, capsys):
    # argparse alone reads "-1,2" as an option and exits 2; "--init=-1,2" always worked.
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert out.startswith(want)
    assert cli.main([args[0], f"{args[1]}={args[2]}", *args[3:]]) == 0
    assert capsys.readouterr().out == out


# -- diagonal --------------------------------------------------------------------

def test_diagonal_catalog_both_methods():
    res = run_cli("diagonal", "--catalog", "trib.G", "--method", "both", "--n", "60",
                  "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert no_floats(data)
    assert data["match"] is True
    assert data["residue"]["crosscheck"]["status"] == "ok"
    den = parse_poly(data["residue"]["denominator"])
    assert den == parse_poly("(1-2*z-4*z^2-8*z^3)*(1-2*z+2*z^3)")
    kept = [p for p in data["residue"]["crosscheck"]["poles"]
            if p["classification"] == "kept"]
    assert len(kept) == 1


def test_diagonal_geometric_series_method():
    res = run_cli("diagonal", "--gf-text", "1/((1-x)*(1-y))", "--method", "series",
                  "--n", "30", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert parse_poly(data["series"]["denominator"]) == parse_poly("1-z")
    assert parse_poly(data["series"]["numerator"]) == parse_poly("1")


def test_diagonal_fib_derived_residue():
    res = run_cli("diagonal", "--catalog", "fib.H.derived", "--method", "residue",
                  "--n", "50", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert parse_poly(data["residue"]["denominator"]) == \
        parse_poly("(1-z)*(1-2*z-4*z^2)")
    assert parse_poly(data["residue"]["numerator"]) == parse_poly("2*z^2")


def test_diagonal_method_violation_exits_4():
    res = run_cli("diagonal", "--gf-text", "1/(1-x-y)", "--method", "residue",
                  "--n", "10")
    assert res.returncode == 4


def test_diagonal_function_of_xy_exits_0():
    res = run_cli("diagonal", "--gf-text", "1/(1-x*y)", "--method", "residue",
                  "--n", "10")
    assert res.returncode == 0
    assert "residue method: (1) / (1 - z)" in res.stdout
    assert "[pole at the origin]" in res.stdout


def test_diagonal_repeated_kept_factor_exits_4():
    res = run_cli("diagonal", "--gf-text", "1/((1-2*x)*(1-3*y)^2)", "--method", "residue",
                  "--n", "10")
    assert res.returncode == 4
    assert "multiplicity 2" in res.stderr


def test_diagonal_series_reports_no_zero_evidence_recurrence():
    # The diagonal of 1/(1-x-y) is 1/sqrt(1-4z): 40 terms fit an order-20
    # recurrence exactly, which is no evidence for it.
    res = run_cli("diagonal", "--gf-text", "1/(1-x-y)", "--n", "40", "--method", "series",
                  "--json")
    assert res.returncode == 0
    series = json.loads(res.stdout)["series"]
    assert series["recurrence_order"] is None
    assert series["note"] == "no recurrence of order <= 19 fits 40 diagonal terms"


def test_diagonal_series_text_prints_confidence():
    res = run_cli("diagonal", "--gf-text", "1/((1-x)*(1-y))", "--method", "series",
                  "--n", "30")
    assert res.returncode == 0
    assert "series method: order-1 recurrence (confidence 28), (1) / (1 - z)" in res.stdout


def test_internal_zero_division_is_not_a_method_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("internal fault")

    monkeypatch.setattr(cli, "diagonal_rational", broken)
    with pytest.raises(ZeroDivisionError, match="internal fault"):
        cli.main(["diagonal", "--gf-text", "1/((1-x)*(1-y))", "--method", "residue",
                  "--n", "5"])


def test_diagonal_requires_bivariate():
    res = run_cli("diagonal", "--gf-text", "1/(1-x)", "--method", "residue")
    assert res.returncode == 2


# -- guess-gf --------------------------------------------------------------------

def test_guess_gf_fibonacci():
    res = run_cli("guess-gf", "--terms", "0,1,1,2,3,5,8,13", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["order"] == 2
    assert data["coeffs"] == ["1", "1"]
    assert data["confidence"] == 4
    assert parse_poly(data["denominator"]) == parse_poly("1-z-z^2")


def test_guess_gf_insufficient_evidence():
    res = run_cli("guess-gf", "--terms", "1,0,0,1", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["order"] is None


def test_guess_gf_zero_evidence():
    res = run_cli("guess-gf", "--terms", "1,2,3,4", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["order"] is None
    assert data["note"] == "no recurrence of order <= 1 fits"


# -- catalog ---------------------------------------------------------------------

def test_catalog_lists_ids():
    res = run_cli("catalog")
    assert res.returncode == 0
    for required in ("fib.H.printed", "trib.G", "penta.diag.printed"):
        assert required in res.stdout


def test_catalog_json_gfs_parse_back():
    res = run_cli("catalog", "--json")
    data = json.loads(res.stdout)
    assert no_floats(data)
    for entry in data["entries"]:
        if entry["gf"] is not None:
            parse_ratfunc(entry["gf"])


# -- verify ----------------------------------------------------------------------

def test_verify_single_claim():
    res = run_cli("verify", "--claim", "fib.closed_form", "--n", "100")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_unknown_claim_exits_2():
    res = run_cli("verify", "--claim", "no.such")
    assert res.returncode == 2


def test_verify_all_json_exits_0_and_is_exact():
    res = run_cli("verify", "--all", "--n", "60", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert no_floats(data)
    assert data["all_matched_expected"] is True
    reports = data["reports"]
    assert [r["id"] for r in reports] == sorted(r["id"] for r in reports)
    by_id = {r["id"]: r for r in reports}
    assert by_id["fib.diag.printed"]["status"] == "fail"
    assert by_id["fib.diag.printed"]["first_mismatch"] == 2
    assert by_id["trib.first_term"]["conventions"]["B"]["status"] == "fail"
    # exact values round-trip through Fraction
    assert Fraction(by_id["fib.diag.printed"]["lhs"]) == 1
    assert Fraction(by_id["fib.diag.printed"]["rhs"]) == 2


def test_env_var_overrides_default_truncation():
    import os
    env = dict(os.environ, GFDIAG_N="5")
    res = run_cli("expand", "z/(1-z-z^2)", env=env)
    assert res.returncode == 0
    assert res.stdout.split() == ["0", "1", "1", "2", "3"]
