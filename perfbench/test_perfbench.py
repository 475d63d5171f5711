"""Tests of the benchmark itself: generators, oracles, checks and the tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- generators --------------------------------------------------------------

def test_same_seed_gives_same_argv():
    for workload in workloads.WORKLOADS:
        first = [op.argv for op in workloads.build(workload, 7)]
        again = [op.argv for op in workloads.build(workload, 7)]
        assert first == again


def test_other_seed_gives_other_argv():
    for workload in ("residue", "univariate"):
        assert ([op.argv for op in workloads.build(workload, 1)]
                != [op.argv for op in workloads.build(workload, 2)])


def test_option_values_use_equals_form():
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 3):
            for arg in op.argv[1:]:
                assert not arg.startswith("-") or arg == "--json" or "=" in arg or arg == "--all"


def test_residue_composition():
    kinds = [op.kind for op in workloads.build("residue", 5)]
    conv = [k for k in kinds if k.startswith("conv.")]
    assert len(conv) == (workloads.RESIDUE_BLOCKS * len(workloads.CONVOLUTION_ORDERS)
                         + len(workloads.REPEATED_ROOT_ORDERS))
    assert 0.2 <= 1 - len(conv) / len(kinds) <= 0.3
    assert {"xy-only", "monomial", "repeated", "algebraic"} <= set(kinds)


def test_repeated_root_draws():
    rng = random.Random(3)
    for order in (2, 3, 4):
        for repeated in (False, True):
            coeffs, initial = workloads.random_recurrence(rng, order, repeated)
            assert len(coeffs) == len(initial) == order and coeffs[-1] != 0 and any(initial)
            assert oracles.has_repeated_root([1] + [-c for c in coeffs]) == repeated


def test_has_repeated_root():
    assert oracles.has_repeated_root([1, -2, 1])            # (1 - y)^2
    assert oracles.has_repeated_root([1, -1, -1, 1])        # (1 - y)^2 (1 + y)
    assert not oracles.has_repeated_root([1, -1, -1])
    assert not oracles.has_repeated_root([1, 0, -1])


def test_poly_text():
    assert workloads.poly_text([1, -2, Fraction(1, 3)], workloads._z) == "1-2*z+(1/3)*z^2"
    assert workloads.poly_text([0, -1], workloads._xy) == "-x*y"


# -- oracles -----------------------------------------------------------------

def test_recurrence_terms_fibonacci():
    assert oracles.recurrence_terms([1, 1], [0, 1], 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_binomial_convolution_tribonacci():
    # gfdiag convolve --k 3 --init 0,1,1 --n 6 prints 0 0 2 6 22 80.
    trib = oracles.recurrence_terms([1, 1, 1], [0, 1, 1], 6)
    assert oracles.binomial_convolution(trib, trib, 6) == [0, 0, 2, 6, 22, 80]


def test_binomial_convolution_matches_math_comb():
    a = oracles.recurrence_terms([2, -1, 1], [1, -3, 2], 30)
    b = oracles.recurrence_terms([-1, 2], [2, 1], 30)
    want = [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(30)]
    assert oracles.binomial_convolution(a, b, 30) == want


def test_taylor_integer_and_rational():
    # 1/(1-2z+2z^3): gfdiag expand prints 1 2 4 6 8 8 4.
    assert oracles.taylor([1], [1, -2, 0, 2], 7) == [1, 2, 4, 6, 8, 8, 4]
    assert oracles.taylor([1], [1, Fraction(-1, 2)], 4) == [1, Fraction(1, 2),
                                                          Fraction(1, 4), Fraction(1, 8)]
    assert oracles.taylor([1], [2, -1], 3) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_series_text_matches():
    assert oracles.series_text_matches([1], [1, Fraction(-1, 3)], ["1", "1/3", "1/9"]) is None
    assert oracles.series_text_matches([1], [1, Fraction(-1, 3)], ["1", "1/3", "1/8"]) == 2


def test_parse_poly_text():
    assert oracles.parse_poly_text("1 - 2*z + 1/3*z^2 - z^5") == [1, -2, Fraction(1, 3), 0, 0, -1]
    assert oracles.parse_poly_text("-z") == [0, -1]
    assert oracles.parse_poly_text("-3/2 + z^2") == [Fraction(-3, 2), 0, 1]
    assert oracles.parse_poly_text("0") == []


def test_gf_mismatch():
    fib = oracles.recurrence_terms([1, 1], [1, 1], 12)
    assert oracles.gf_mismatch("1", "1 - z - z^2", fib) is None
    assert oracles.gf_mismatch("1", "1 - z - 2*z^2", fib) == 2


def test_closed_forms():
    # x^2*y^3/((1-x)*(1-y)) has diagonal z^3/(1-z).
    assert oracles.diagonal_of_monomial_product(2, 3, 1, 1, 6) == [0, 0, 0, 1, 1, 1]
    assert oracles.diagonal_of_monomial_product(1, 0, 2, 3, 3) == [0, 3, 6 * 3]
    assert oracles.diagonal_of_repeated_factor(2, -1, 4) == [1, -4, 12, -32]
    assert oracles.central_binomials(5) == [1, 2, 6, 20, 70]


# -- checks ------------------------------------------------------------------

def _diagonal_payload(num: str, den: str, status: str = "ok") -> str:
    return json.dumps({"residue": {"numerator": num, "denominator": den,
                                   "crosscheck": {"status": status}}})


def test_check_diagonal():
    truth = [2 ** n for n in range(10)]
    check = workloads.check_diagonal
    assert check(0, _diagonal_payload("1", "1 - 2*z"), method="residue", truth=truth,
                 rational=True) is None
    assert "wrong" in check(0, _diagonal_payload("1", "1 - 3*z"), method="residue",
                            truth=truth, rational=True)
    assert "exit 4" in check(4, "", method="residue", truth=truth, rational=True)
    violated = _diagonal_payload("0", "1", workloads.VIOLATED)
    assert check(4, violated, method="residue", truth=truth, rational=False) is None


def test_check_verify_and_guess():
    reports = {"reports": [{"matched_expected": True}] * 11}
    assert workloads.check_verify(0, json.dumps(reports), claims=11) is None
    assert workloads.check_verify(0, json.dumps({"reports": []}), claims=11) is not None
    guess = {"order": 2, "numerator": "1", "denominator": "1 - z - z^2"}
    fib = oracles.recurrence_terms([1, 1], [1, 1], 20)
    assert workloads.check_guess(0, json.dumps(guess), truth=fib) is None


def test_judge_masks_runtime_and_counts_failures():
    ops = [workloads.verify_op()]
    judge = run.Judge(ops)
    reports = [{"matched_expected": True, "runtime_ms": 5}] * 11
    fast = run.OpResult(0.1, 0, json.dumps({"reports": reports}), "")
    slow = run.OpResult(0.2, 0, fast.out.replace('"runtime_ms": 5', '"runtime_ms": 9'), "")
    assert judge.add(0, fast) == judge.add(0, slow)
    assert judge.add(0, run.OpResult(0.1, 1, "", "")) != judge.add(0, fast)
    assert (judge.attempted, judge.failed, judge.wrong) == (4, 1, 0)


def test_run_pass_judges_and_scales_each_op():
    import gfdiag.cli as cli

    rng = random.Random(1)
    ops = [workloads.guess_op(rng, 2), workloads.guess_op(rng, 3)]
    judge = run.Judge(ops)
    probe = run.Probe()
    first, again = run.run_pass(cli, ops, judge, probe), run.run_pass(cli, ops, judge, probe)
    assert first.digests == again.digests
    assert (judge.attempted, judge.failed) == (4, 0)
    assert len(first.scaled) == len(first.op_seconds) == 2
    assert all(0.1 < scaled / wall < 10 for scaled, wall in zip(first.scaled, first.op_seconds))


def test_probe_samples_during_an_op_and_removes_their_time():
    class Busy:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            return 0

    # The op ends at 0.35 s of wall time whatever ran inside it, so the
    # samples taken during it come out of its seconds.
    res, scaled = run.Probe().run(Busy, [])
    assert res.rc == 0 and 0 < res.seconds < 0.35 - 0.005 and scaled > 0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)


# -- tracer ------------------------------------------------------------------

def _module_bindings():
    return {(name, attr): obj for name, module in list(sys.modules.items())
            if name == "gfdiag" or name.startswith("gfdiag.")
            for attr, obj in vars(module).items() if callable(obj)}


def test_tracer_patches_every_binding_and_restores_them():
    import gfdiag.cli  # noqa: F401  (loads every layer before the snapshot)
    import gfdiag.residues
    import gfdiag.series

    before = _module_bindings()
    original = gfdiag.series.diagonal_series
    with spans.Tracer() as tracer:
        assert gfdiag.series.diagonal_series is not original
        assert gfdiag.residues.diagonal_series is gfdiag.series.diagonal_series
        patched = {(module.__name__, attr) for module, attr, _ in tracer.patched}
        assert ("gfdiag.residues", "diagonal_series") in patched
        assert ("gfdiag", "diagonal_series") in patched
        assert not any(attr.startswith("_") for _, attr in patched)
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _cli_output(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_tracer_is_transparent_and_attributes_calls():
    import gfdiag.cli as cli

    argv = ["diagonal", "--gf-text=1/((1-x)*(1-2*y))", "--method=both", "--n=12", "--json"]
    plain = _cli_output(cli, argv)
    with spans.Tracer() as tracer:
        traced = _cli_output(cli, argv)
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["residues.diagonal_rational.calls"][0] == 1
    assert metrics["recurrences.find_min_recurrence.calls"][0] == 1
    assert metrics["recurrences.found_ratio"][0] == 1.0
    assert metrics["residues.crosscheck_ok_ratio"][0] == 1.0
    # Both the cross-check and the series route build a 12 x 12 grid.
    assert metrics["series.bivariate_series.cells"][0] == 2 * 144
    assert metrics["residues.crosscheck.ms"][0] > 0
    # The kept factor 1 - 2*y has t-degree 1; its trace time excludes the cross-check.
    trace_ms = metrics["residues.trace_ms.deg_other"][0]
    crosscheck_ms = metrics["residues.crosscheck.ms"][0]
    assert trace_ms > 0
    assert abs(trace_ms + crosscheck_ms - metrics["residues.diagonal_rational.ms"][0]) < 1e-6
    for name, (value, _unit) in metrics.items():
        assert value >= 0, name


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_value, unit) in spans.Tracer().metrics().items()}
    reported.update({"trace.run_s": "s", "trace.untraced_run_s": "s",
                     "trace.overhead_ratio": "ratio"})
    assert per_layer == reported
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
