"""CLI surface: commands, exit codes, and the JSON envelope."""

import argparse
import json
import subprocess
import sys
import time

from fractions import Fraction
from pathlib import Path

import pytest

from gfdiag import catalog_entry, catalog_ids, cli, parse_poly, parse_ratfunc
from helpers import identity_equal


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


def test_expand_takes_a_sum_whose_second_variable_cancels():
    res = run_cli("expand", "(x+z-x)/(1-z)", "--n", "4")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "1", "1", "1"]


@pytest.mark.parametrize("text, terms", [
    ("1/(1-z) + x - x", ["1", "1", "1", "1"]),
    ("x/(1-z) + z - x/(1-z)", ["0", "1", "0", "0"]),
    # The univariate check reads the function once cancelled.
    ("(x+y)/(x+y)", ["1", "0", "0", "0"]),
    # Once cancelled, x is narrowed to the one variable it uses.
    ("x*(1-y)/(1-y)", ["0", "1", "0", "0"]),
])
def test_expand_takes_a_sum_with_a_denominator_whose_variable_cancels(text, terms):
    res = run_cli("expand", text, "--n", "4")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == terms


def test_expand_refuses_a_function_left_in_two_variables():
    res = run_cli("expand", "x*y/(1-y)", "--n", "4")
    assert res.returncode == 2
    assert "expand requires a univariate rational function" in res.stderr


def test_expand_pole_at_origin_exits_3():
    res = run_cli("expand", "1/z")
    assert res.returncode == 3


def test_expand_parse_error_exits_2():
    res = run_cli("expand", "1/(1-q)")
    assert res.returncode == 2


def test_expand_hostile_power_exits_2_fast():
    start = time.perf_counter()
    res = run_cli("expand", "1/(1-z)^20000", "--n", "3")
    assert time.perf_counter() - start < 1
    assert res.returncode == 2
    assert "exceeds the cap 1000" in res.stderr


@pytest.mark.parametrize("argv", [
    ["expand", "(" * 200 + "z" + ")" * 200],
    ["diagonal", "--gf-text=" + "-" * 1000 + "x*y"],
], ids=["parentheses", "signs"])
def test_deep_nesting_exits_2(argv):
    # Both ended in an uncaught RecursionError, exit 1, when the parser
    # recursed once per minus sign and had no cap on its nesting.
    res = subprocess.run([sys.executable, "-m", "gfdiag", *argv], capture_output=True,
                         text=True, timeout=10)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "nest deeper than the cap 100" in res.stderr
    assert "Traceback" not in res.stderr


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


# -- exact output past Python's default limit of 4300 digits --------------------

def test_expand_prints_terms_past_the_digit_limit(capsys):
    assert cli.main(["expand", "1/(1-2^1000*z)", "--n=20"]) == 0
    last = capsys.readouterr().out.split()[-1]
    assert len(last) > 4300
    with cli._output_digits():
        assert last == str(2 ** 19000)
    assert cli.main(["expand", "1/(1-2^1000*z)", "--n=20", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"][-1] == last


def test_convolve_prints_terms_past_the_digit_limit(capsys):
    # Order 1, coefficient 1: a_k = a0, so the convolution is 2^n * a0^2.
    a0 = 10 ** 3000
    assert cli.main(["convolve", "--k=1", f"--init={a0}", "--n=4"]) == 0
    out = capsys.readouterr().out.split()
    with cli._output_digits():
        assert out == [str(2 ** n * a0 ** 2) for n in range(4)]


def test_diagonal_prints_gf_past_the_digit_limit(capsys):
    # Inputs of 2501 digits; the diagonal 1/(1 - 10^5000*z) has a 5001-digit coefficient.
    a = 10 ** 2500
    argv = ["diagonal", f"--gf-text=1/((1-{a}*x)*(1-{a}*y))", "--method=residue", "--n=4"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    with cli._output_digits():
        assert first == f"residue method: (1) / (1 - {a * a}*z)"


#: One 4301-digit literal in each option that reads one; "init-separators"
#: writes its digits as 7_7_..._7, which a count of digit runs misses.
_PAST_THE_DIGIT_LIMIT = [
    ["expand", f"1/(1-{'7' * 4301}*z)", "--n=3"],
    ["convolve", "--k=1", f"--init={'7' * 4301}", "--n=3"],
    ["guess-gf", f"--terms=1,2,{'7' * 4301},4"],
    ["convolve", "--k=1", "--init=1", f"--coeffs=1/{'7' * 4301}", "--n=3"],
    ["convolve", "--k=1", f"--init={'7_' * 4300}7", "--n=3"],
]
_PAST_THE_DIGIT_LIMIT_IDS = ["gf-text", "init", "terms", "coeffs", "init-separators"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
@pytest.mark.parametrize("argv", _PAST_THE_DIGIT_LIMIT, ids=_PAST_THE_DIGIT_LIMIT_IDS)
def test_input_literal_past_the_digit_limit_exits_2(argv, capsys):
    limit = sys.get_int_max_str_digits()
    assert cli.main(argv) == 2
    assert "4300 digits" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", _PAST_THE_DIGIT_LIMIT, ids=_PAST_THE_DIGIT_LIMIT_IDS)
def test_input_literal_past_the_digit_limit_error_is_short(argv, capsys):
    # The message names the digit count and the limit; it neither echoes the
    # literal nor suggests an interpreter setting a user cannot reach.
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "4301 digits exceeds the limit of 4300 digits" in err
    assert len(err) < 300 and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("entry", ["1e3", "1E-5", "2.5e1", "1/1e9", "1_0e1_0"])
def test_rational_list_rejects_an_exponent(entry, capsys):
    # Even a small exponent: the entries are integers, p/q and decimals.
    assert cli.main(["guess-gf", f"--terms={entry},2,3,4,5"]) == 2
    err = capsys.readouterr().err
    assert "an exponent is not accepted" in err and len(err) < 300


@pytest.mark.parametrize("argv", [
    ["guess-gf", "--terms=1e300000,2,3,4,5"],
    ["convolve", "--k=1", "--init=1e2000000", "--n=3"],
    ["convolve", "--k=1", "--init=1", "--coeffs=1e1000000", "--n=3"],
], ids=["terms", "init", "coeffs"])
def test_rational_list_with_an_exponent_exits_2_fast(argv):
    # Fraction would expand each exponent to hundreds of thousands of digits:
    # all three ran past 10 s before entries with an exponent were refused.
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "gfdiag", *argv], capture_output=True,
                         text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert res.returncode == 2
    assert "malformed rational list" in res.stderr and len(res.stderr) < 300


@pytest.mark.parametrize("entry", ["one", "none", "1/", "0x10"])
def test_rational_list_malformed_entry_is_not_called_an_exponent(entry, capsys):
    # Only an e followed by a digit is an exponent; other text reaches Fraction.
    assert cli.main(["guess-gf", f"--terms={entry},2,3,4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed rational list '{entry},2,3,4': ")
    assert "exponent" not in err


def test_rational_list_accepts_integers_fractions_and_decimals(capsys):
    assert cli.main(["convolve", "--k=2", "--init= 10 , -1/2", "--coeffs=0.5,+.25",
                     "--n=3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["init"] == ["10", "-1/2"]


# -- one command path ------------------------------------------------------------

def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert cli.main(["guess-gf", "--terms=0,1,1,2,3,5"]) == 0
    assert made.count("gfdiag") == 1
    first = len(made)
    assert cli.main(["catalog"]) == 0
    assert len(made) == first


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
@pytest.mark.parametrize("argv, code", [
    (["expand", "1/(1-z)", "--n=3"], 0),
    (["expand", "1/z"], 3),
    (["expand", "1/(1-x-y)"], 2),
], ids=["success", "domain-error", "parse-error"])
def test_digit_limit_is_lifted_around_the_command_and_restored(argv, code, monkeypatch,
                                                                capsys):
    seen = []
    real_parse = cli.parse_ratfunc

    def parse(text):
        seen.append(sys.get_int_max_str_digits())
        return real_parse(text)

    monkeypatch.setattr(cli, "parse_ratfunc", parse)
    limit = sys.get_int_max_str_digits()
    assert limit != 0
    assert cli.main(argv) == code
    assert seen == [0]
    assert sys.get_int_max_str_digits() == limit


# -- diagonal --------------------------------------------------------------------

def test_diagonal_third_variable_exits_2(capsys):
    assert cli.main(["diagonal", "--gf-text=x+y+z"]) == 2
    assert capsys.readouterr().err == "error: at most two variables are supported, found x, y, z\n"


@pytest.mark.parametrize("method", ["both", "series"])
@pytest.mark.parametrize("n", [3, 0, -1])
def test_diagonal_series_route_checks_n_before_any_work(method, n, monkeypatch, capsys):
    def no_work(args):
        raise AssertionError("the input was read before --n was checked")

    monkeypatch.setattr(cli, "_diagonal_input", no_work)
    assert cli.main(["diagonal", "--catalog=trib.G", f"--method={method}", f"--n={n}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: --n must be >= 4 for --method {method}: the series route "
                       f"finds a recurrence from at least 4 diagonal terms, got {n}\n")


@pytest.mark.parametrize("source", ["--catalog=trib.G", "--catalog=tetra.G", "--catalog=penta.G",
                                    "--gf-text=1/(1-x-y)"])
def test_diagonal_json_is_unchanged_by_building_only_diagonal_fractions(source, monkeypatch,
                                                                        capsys):
    # diagonal_series builds Fractions for the diagonal cells only; the full
    # grid's diagonal must give the same document byte for byte, through
    # both the series route and the residue route's cross-check.
    from gfdiag import residues, series

    calls = []

    def full_grid_diagonal(f, n):
        calls.append(n)
        return [row[i] for i, row in enumerate(series.bivariate_series(f, n, n))]

    argv = ["diagonal", source, "--json", "--method=both", "--n=200"]
    status = cli.main(argv)
    fast = capsys.readouterr().out
    for module in (series, residues, cli):
        monkeypatch.setattr(module, "diagonal_series", full_grid_diagonal)
    assert cli.main(argv) == status
    assert capsys.readouterr().out == fast
    assert calls


def _seeded_convolution_text() -> str:
    from random import Random

    from gfdiag import SequenceSpec, build_convolution_gf

    rng = Random(3)
    a, b = (SequenceSpec(k, [rng.choice((-2, -1, 1, 2)) for _ in range(k)],
                         [rng.randint(-2, 2) for _ in range(k)]) for k in (3, 2))
    return str(build_convolution_gf(a, b).F)


@pytest.mark.parametrize("source", ["--catalog=trib.G", "--catalog=tetra.G", "--catalog=penta.G",
                                    f"--gf-text={_seeded_convolution_text()}"])
def test_diagonal_json_is_unchanged_by_packed_rows(source, monkeypatch, capsys):
    # Each source's mixed denominator factor is outer-only, so its diagonal
    # divides packed rows; dividing every factor cell by cell must give the
    # same document byte for byte, through both routes.
    from gfdiag import _division

    runs = []
    divide = _division._divide_packed
    monkeypatch.setattr(_division, "_divide_packed", lambda *args: runs.append(1) or divide(*args))
    argv = ["diagonal", source, "--json", "--method=both", "--n=200"]
    status = cli.main(argv)
    packed = capsys.readouterr().out
    assert runs
    monkeypatch.setattr(_division, "_packable", lambda terms, f0: False)
    assert cli.main(argv) == status
    assert capsys.readouterr().out == packed


def test_diagonal_residue_route_takes_n_0(capsys):
    # With --n 0 nothing is compared: the cross-check says so, and is no failure.
    assert cli.main(["diagonal", "--catalog=trib.G", "--method=residue", "--n=0"]) == 0
    assert "series cross-check: not run (--n 0)" in capsys.readouterr().out
    assert cli.main(["diagonal", "--catalog=trib.G", "--method=residue", "--n=0", "--json"]) == 0
    crosscheck = json.loads(capsys.readouterr().out)["residue"]["crosscheck"]
    assert (crosscheck["status"], crosscheck["checked_terms"]) == ("unchecked", 0)


def test_diagonal_both_is_undecided_when_the_series_route_lacks_terms(capsys):
    # The diagonal of 1/((1-x)*(1-y)^40) has order 40, which 60 terms cannot
    # show; the residue route's own cross-check passes, so the exit is 0.
    argv = ["diagonal", "--gf-text=1/((1-x)*(1-y)^40)", "--method=both", "--n=60"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "series cross-check (60 terms): ok" in out
    assert ("cross-check (residue vs series): undecided: "
            "no recurrence of order <= 29 fits 60 diagonal terms") in out
    assert cli.main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["match"], data["series"]["recurrence_order"]) == (0, None, None)
    # An algebraic diagonal still exits 4, on the residue report alone.
    assert cli.main(["diagonal", "--gf-text=1/(1-x-y)", "--method=both", "--n=10", "--json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is None
    assert data["residue"]["crosscheck"]["status"] == "method-assumption-violated"


def test_diagonal_both_fails_when_the_two_gfs_differ(capsys):
    # Five zero terms fit the zero recurrence, while the residue route finds
    # z^5/(1-z), whose first five terms agree with the series diagonal.
    argv = ["diagonal", "--gf-text=x^5*y^5/((1-x)*(1-y))", "--method=both", "--n=5"]
    assert cli.main(argv + ["--json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert (data["match"], data["series"]["recurrence_order"]) == (False, 0)
    assert data["residue"]["crosscheck"]["status"] == "ok"
    assert cli.main(argv) == 4
    assert "cross-check (residue vs series): FAIL" in capsys.readouterr().out


def _random_convolution_text(seed: int) -> str:
    from random import Random

    from gfdiag import build_convolution_gf
    from helpers import rand_sequence_spec

    rng = Random(seed)
    return str(build_convolution_gf(rand_sequence_spec(rng), rand_sequence_spec(rng)).F)


@pytest.mark.parametrize("source, n", [
    *((f"--catalog={i}", 40) for i in catalog_ids() if catalog_entry(i).kind == "bivariate-gf"),
    *(pytest.param(f"--gf-text={_random_convolution_text(seed)}", 40, id=f"convolution-{seed}")
      for seed in range(12)),
    ("--gf-text=x^5*y^5/((1-x)*(1-y))", 5),
])
def test_diagonal_both_match_is_identity_equal(source, n, capsys):
    # match compares the two printed GFs as text: it must decide as
    # identity_equal does on the two functions that they print.
    cli.main(["diagonal", source, "--method=both", f"--n={n}", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is not None
    residue_gf, series_gf = (parse_ratfunc(data[route]["gf"]) for route in ("residue", "series"))
    assert data["match"] == identity_equal(residue_gf, series_gf)


REFUTED = "residue method: no GF found, the series cross-check refutes the residue sum"


def test_diagonal_withholds_a_residue_sum_that_its_cross_check_refutes(capsys):
    # The residue sum of 1/(1-x-y) is 0, and the series diagonal starts 1, 2, 6:
    # the sum is no diagonal, so neither the text nor the JSON prints it.
    argv = ["diagonal", "--gf-text=1/(1-x-y)", "--method=residue", "--n=10"]
    assert cli.main(argv) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == REFUTED
    assert out[-1] == "  series cross-check (10 terms): method-assumption-violated"
    assert cli.main(argv + ["--json"]) == 4
    residue = json.loads(capsys.readouterr().out)["residue"]
    assert [residue[key] for key in ("numerator", "denominator", "gf")] == [None] * 3
    crosscheck = residue["crosscheck"]
    assert (crosscheck["status"], crosscheck["first_mismatch"], crosscheck["lhs"],
            crosscheck["rhs"]) == ("method-assumption-violated", 0, "0", "1")


def test_diagonal_both_is_undecided_when_the_residue_sum_is_refuted(capsys):
    # The diagonal of (x-y)/(1-x-y) is 0, which the series route finds.  The
    # residue sum 1 is refuted by its own cross-check, so the routes are not
    # compared: the exit is 4 on the residue report, with no FAIL line.
    argv = ["diagonal", "--gf-text=(x-y)/(1-x-y)", "--n=30"]
    assert cli.main(argv) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == REFUTED
    assert out[-2:] == ["series method: order-0 recurrence (confidence 30), (0) / (1)",
                        "cross-check (residue vs series): undecided: the residue route found "
                        "no GF"]
    assert cli.main(argv + ["--json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["match"], data["residue"]["gf"], data["series"]["gf"]) == \
        (4, None, None, "(0) / (1)")
    assert data["residue"]["crosscheck"]["status"] == "method-assumption-violated"


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


def test_diagonal_removable_monomial_pole():
    # x/(x*(1-y)) is 1/(1-y): its diagonal is 1, 0, 0, ...  The x in the
    # denominator cancels against the numerator's, with no gcd.
    res = run_cli("diagonal", "--gf-text", "x/(x*(1-y))", "--method", "both", "--n", "10",
                  "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["match"] is True
    assert data["residue"]["gf"] == "(1) / (1)"
    assert data["series"]["gf"] == "(1) / (1)"
    for method in ("residue", "series"):
        assert run_cli("diagonal", "--gf-text", "x/(x*(1-y))", "--method", method).returncode == 0
    # A net monomial with a negative power, or a denominator factor that
    # still vanishes at the origin once its monomial is stripped, is a pole.
    for text in ("y/(x*(1-y))", "x/(x*(x+y))"):
        res = run_cli("diagonal", "--gf-text", text, "--method", "series")
        assert res.returncode == 3
        assert "pole at the origin" in res.stderr


@pytest.mark.parametrize("text, gf", [
    ("(x+y)/(x+y)", "(1) / (1)"),
    ("(x-y)*(1-x)/((x-y)*(1-x*y))", "(1) / (1 - z)"),
    ("(2*x+2*y)*(1-x)/((x+y)*(1-x*y))", "(2) / (1 - z)"),
    ("x^2*y/((x-x^2)*(1-y))", "(z) / (1 - z)"),
    ("x*y/((x-x^2)*(1-2*y))", "(z) / (1 - 2*z)"),
])
def test_diagonal_cancels_a_factor_without_constant_term_on_both_sides(text, gf, capsys):
    # Each factor on both sides cancels before either route reads the
    # function, up to its content, so x - y and x + y are no pole at the origin.
    # x - x^2 is x*(1 - x) whatever the other side holds, so its x cancels.
    for method in ("residue", "series", "both"):
        assert cli.main(["diagonal", f"--gf-text={text}", f"--method={method}", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for route in {"both": ("residue", "series")}.get(method, (method,)):
            assert data[route]["gf"] == gf
        assert data.get("match", True) is True


def test_diagonal_splits_a_shared_factor_out_of_a_sum(capsys):
    # x^2 + x*y is x*(x + y): past its monomial x it is the denominator's
    # x + y, which cancels, so no pole at the origin is left, and x has no
    # diagonal term.
    for method in ("residue", "series", "both"):
        assert cli.main(["diagonal", "--gf-text=(x^2+x*y)/(x+y)", f"--method={method}",
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for route in {"both": ("residue", "series")}.get(method, (method,)):
            assert data[route]["gf"] == "(0) / (1)"
        assert data.get("match", True) is True


def test_diagonal_repeated_kept_factor_summed():
    # (1-3*y)^2 is a kept factor of multiplicity 2: the diagonal is
    # sum (n+1) 6^n z^n = 1/(1-6*z)^2.
    res = run_cli("diagonal", "--gf-text", "1/((1-2*x)*(1-3*y)^2)", "--method", "residue",
                  "--n", "10")
    assert res.returncode == 0
    assert "residue method: (1) / (1 - 12*z + 36*z^2)" in res.stdout
    assert parse_poly("1 - 12*z + 36*z^2") == parse_poly("(1-6*z)^2")


def test_diagonal_text_pole_report_prints_multiplicity():
    res = run_cli("diagonal", "--gf-text", "1/((1-2*x)*(1-3*y)^2)", "--method", "residue",
                  "--n", "10")
    assert "pole factor [kept     ] (-3 + t)^2  [poles bounded as z -> 0]" in res.stdout
    assert "pole factor [discarded] (1 - 2*t*z)  [" in res.stdout


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


def test_diagonal_accepts_one_variable(capsys):
    # 1/(1-x) has no x^n*y^n term past n = 0: its diagonal is 1.
    res = run_cli("diagonal", "--gf-text", "1/(1-x)", "--method", "residue", "--n", "10")
    assert res.returncode == 0
    assert "residue method: (1) / (1)" in res.stdout
    # The transform builds its own t and z, so inputs in t and z are read
    # as any other variables: 1/(1-z) is a function of one variable too.
    res = run_cli("diagonal", "--gf-text", "1/(1-z)", "--method", "residue")
    assert res.returncode == 0
    assert "residue method: (1) / (1)" in res.stdout
    assert cli.main(["diagonal", "--gf-text=1/(1-t*z)", "--method=both", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["residue"]["gf"] == data["series"]["gf"] == "(1) / (1 - z)"
    assert data["match"] is True


# diagonal --catalog ID --method M --n 60 --json for the five bivariate
# catalog GFs and M in residue and both: every GF, status, witness and pole
# line, pinned byte for byte (key order included).
GOLDEN_DIAGONAL = json.loads((Path(__file__).parent / "diagonal_golden.json").read_text())


@pytest.mark.parametrize("golden", GOLDEN_DIAGONAL,
                         ids=lambda doc: f"{doc['input']}-{doc['method']}")
def test_diagonal_json_matches_golden_output(golden, capsys):
    assert cli.main(["diagonal", "--catalog", golden["input"], "--method", golden["method"],
                     "--n", str(golden["n"]), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert json.dumps(out, indent=2) == json.dumps(golden, indent=2)


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


def test_guess_gf_all_zero_terms_print_the_zero_recurrence(capsys):
    assert cli.main(["guess-gf", "--terms", "0,0,0,0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "order 0 recurrence: a(n) = 0"
    assert cli.main(["guess-gf", "--terms", "0,0,0,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["order"], data["coeffs"], data["numerator"]) == (0, [], "0")


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


@pytest.mark.parametrize("selector", [
    ("--claim", "fib.closed_form"), ("--claim", "trib.U_gf_identity"),
    ("--claim", "trib.diag.printed"), ("--claim", "fib.H.printed"),
    ("--claim", "trib.arbitrary_init"), ("--all",)])
def test_verify_rejects_negative_n(selector, capsys):
    assert cli.main(["verify", *selector, "--n=-1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: n must be >= 0\n"


# verify --all --json at n = 0, 1, 2, 3 and 200, each claim's runtime_ms
# taken out: every status, witness and note, pinned byte for byte.
GOLDEN_VERIFY = json.loads((Path(__file__).parent / "verify_golden.json").read_text())


@pytest.mark.parametrize("golden", GOLDEN_VERIFY, ids=lambda doc: f"n={doc['n']}")
def test_verify_all_json_matches_golden_output(golden, capsys):
    assert cli.main(["verify", "--all", "--n", str(golden["n"]), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for report in out["reports"]:
        del report["runtime_ms"]
    assert json.dumps(out, indent=2) == json.dumps(golden, indent=2)


def test_verify_unknown_claim_exits_2():
    res = run_cli("verify", "--claim", "no.such")
    assert res.returncode == 2


def test_verify_runs_every_repeated_claim_in_order(capsys):
    assert cli.main(["verify", "--claim", "trib.second_term", "--claim", "fib.closed_form",
                     "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.index("trib.second_term") < out.index("fib.closed_form")
    assert out.endswith("claims matching their expected status: 2/2\n")


@pytest.mark.parametrize("selector", [(), ("--all", "--claim", "fib.closed_form")])
def test_verify_needs_exactly_one_of_all_and_claim(selector, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *selector])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_verify_all_holds_at_every_small_n(n, capsys):
    # The two expected failures keep their witnesses below their indices too.
    assert cli.main(["verify", "--all", f"--n={n}"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("claims matching their expected status: 11/11")
    assert "first mismatch at 2: 1 vs 2" in out
    assert "first mismatch at x^3*y^3: 8 vs 6" in out
    assert "[UNEXPECTED]" not in out
