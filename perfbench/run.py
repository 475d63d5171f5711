"""Benchmark of the gfdiag command line, driven in-process.

    python3 perfbench/run.py --workload residue --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's op list (one pass) is built
from the seed, with every expected output computed beforehand by the
benchmark's own oracles.  Ops are sent one at a time through
gfdiag.cli.main(argv) from one thread (a closed loop with one client), and
every output is checked.

--trace 0 runs the pass MIN_PASSES times, then again while another pass
still fits in --seconds, and reports the end-to-end metrics from each op's
median time over the passes; run_s, the time of one pass, is their sum.
--trace 1 runs the pass once untraced and once with every public gfdiag
function wrapped (spans.py), checks that both runs printed the same bytes,
and reports the per-layer metrics with the tracing overhead.

Op times are scaled to the machine's reference speed: a fixed
exact-arithmetic loop, reference(), runs before and after each op and every
PROBE_INTERVAL_S during it (Probe), and an op's wall time, less the loops
run during it, is multiplied by REFERENCE_S over their mean time.  A shared
virtual machine's speed drifts by up to 1.9x from minute to minute with its
neighbours' load, and the scale follows it; the unscaled op times are
printed too.

Each op's output is checked as soon as the op returns, outside its timed
span, and only a digest of it is kept.

An op fails when it exits with an unexpected code, raises, or prints a
wrong result; failed ops count in "failed".  "correct" is false when an op
exits 0 with a wrong result, or when tracing changed an output.  The last
line of standard output is the JSON result; the lines before it print
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 11
MIN_PASSES = 2
# Nominal seconds of one reference() call; every reported op time is scaled to it.
REFERENCE_S = 0.004
# How often reference() is sampled while an op runs.
PROBE_INTERVAL_S = 0.1
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_SNIPPET = ("import time\n"
                 "start = time.perf_counter()\n"
                 "import gfdiag.cli\n"
                 "gfdiag.cli.build_parser()\n"
                 "print(time.perf_counter() - start)\n")
# verify --json reports each claim's own run time; it is masked in an
# output's digest.
_RUNTIME_FIELD = re.compile(r'"runtime_ms": \d+')


def import_cli():
    """gfdiag.cli from this checkout's src directory, never from elsewhere."""
    if not (SRC / "gfdiag" / "cli.py").is_file():
        raise SystemExit(f"error: gfdiag sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import gfdiag.cli
    if Path(gfdiag.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported gfdiag from {gfdiag.cli.__file__}, not {SRC}")
    return gfdiag.cli


def reference() -> float:
    """Seconds a fixed exact-arithmetic loop takes now: the machine's current speed."""
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        return perf_counter() - start
    finally:
        gc.enable()


@dataclass(frozen=True)
class OpResult:
    seconds: float
    rc: int | None          # None when main raised
    out: str
    err: str


def run_op(cli, argv) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:                   # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:                    # an op that raises is a failed op
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    return OpResult(seconds, rc, out.getvalue(), err.getvalue())


class Probe:
    """Samples reference() before and after an op, and every PROBE_INTERVAL_S during it.

    The samples during the op come from a SIGALRM handler, which runs
    between the op's bytecodes, so they show the machine's speed while the
    op runs; their time is taken out of the op's.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference())

    def run(self, cli, argv) -> tuple[OpResult, float]:
        """The op's result, its seconds net of sampling, and those seconds scaled."""
        before = reference()
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            res = run_op(cli, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        during, self.samples = self.samples, []
        res = replace(res, seconds=res.seconds - sum(during))
        speed = statistics.fmean([before, *during, reference()])
        return res, res.seconds * REFERENCE_S / speed


def digest(res: OpResult) -> tuple:
    """What an op printed, with verify's runtime_ms masked: compared across passes."""
    out = _RUNTIME_FIELD.sub("", res.out)
    return res.rc, hashlib.blake2b(f"{out}\0{res.err}".encode()).digest()


class Judge:
    """Checks results against each op's oracle; a repeated output reuses its verdict.

    Verdicts are keyed by a digest of the output, so no output outlives its op.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: Counter = Counter()      # (kind, reason) -> count
        self.wrong = 0
        self._seen: dict = {}

    def add(self, i: int, res: OpResult) -> tuple:
        """Counts op i's result and returns its digest."""
        op = self.ops[i]
        key = (i, *digest(res))
        if key not in self._seen:
            self._seen[key] = self._verdict(op, res)
        reason = self._seen[key]
        self.attempted += 1
        if reason is not None:
            self.failures[(op.kind, reason)] += 1
            self.wrong += res.rc == 0
        return key[1:]

    @staticmethod
    def _verdict(op, res: OpResult) -> str | None:
        if res.rc is None:
            return f"raised {res.err.splitlines()[0] if res.err else ''}"
        try:
            return op.check(res.rc, res.out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure_setup() -> float:
    """Median time of import gfdiag.cli plus build_parser() in a fresh interpreter.

    One unrecorded run first lets the interpreter write its bytecode cache.
    The time is not scaled: start-up follows the reference loop's speed too
    loosely, and scaling made it noisier, not steadier.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=SRC.parent, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    With 10 samples or fewer no percentile qualifies, and the maximum is
    reported as the 100th percentile with none beyond it.  The samples are
    per-op times (each op's median over the passes), so the percentile does
    not depend on how many passes fit in the run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    wall_s: float               # the whole pass, checks and reference loops included
    op_seconds: list[float]     # each op's wall time, net of sampling
    scaled: list[float]         # each op's time at the reference speed
    digests: list[tuple]


def run_pass(cli, ops, judge: Judge, probe: Probe) -> Pass:
    """Every op once, each timed by the probe and judged as it returns."""
    gc.collect()
    start = perf_counter()
    done = Pass(0.0, [], [], [])
    for i, op in enumerate(ops):
        res, scaled = probe.run(cli, op.argv)
        done.op_seconds.append(res.seconds)
        done.scaled.append(scaled)
        done.digests.append(judge.add(i, res))
    done.wall_s = perf_counter() - start
    return done


def untraced(cli, ops, seconds: float) -> tuple[dict, Judge, list[str]]:
    judge = Judge(ops)
    probe = Probe()
    rss_before_mb = peak_rss_mb()
    passes: list[Pass] = []
    start = perf_counter()
    while (len(passes) < MIN_PASSES or perf_counter() - start
           + statistics.median(p.wall_s for p in passes) <= seconds):
        passes.append(run_pass(cli, ops, judge, probe))
    rss_mb = peak_rss_mb()
    setup_s = measure_setup()

    def per_op(field: str) -> list[float]:
        return [statistics.median(samples)
                for samples in zip(*(getattr(p, field) for p in passes))]

    op_seconds, op_unscaled = per_op("scaled"), per_op("op_seconds")
    tail_s, tail_pct, beyond = tail(op_seconds)
    values = {
        "setup_s": setup_s,
        "run_s": sum(op_seconds),
        "op_p50_s": statistics.median(op_seconds),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    notes = [f"pass seconds {' '.join(f'{p.wall_s:.3f}' for p in passes)}; "
             f"{len(ops)} ops per pass",
             f"unscaled: run_s {sum(op_unscaled):.4f} s, op_p50_s "
             f"{statistics.median(op_unscaled):.4f} s, op_tail_s {tail(op_unscaled)[0]:.4f} s",
             f"op_tail_s is the p{tail_pct:.1f} op time, {beyond} ops beyond it",
             f"peak RSS before the first op {rss_before_mb:.1f} MB"]
    return metrics, judge, notes


def traced(cli, ops) -> tuple[dict, Judge, list[str], bool]:
    from spans import Tracer

    probe = Probe()
    plain = run_pass(cli, ops, Judge(ops), probe)
    judge = Judge(ops)
    with Tracer() as tracer:
        traced_pass = run_pass(cli, ops, judge, probe)
    same = traced_pass.digests == plain.digests
    untraced_s, traced_s = sum(plain.scaled), sum(traced_pass.scaled)
    metrics = tracer.metrics()
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes = [f"traced outputs identical to untraced: {same}"]
    return metrics, judge, notes, same


def main(argv=None) -> int:
    from workloads import WORKLOADS, build

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    ops = build(args.workload, args.seed)
    if args.trace:
        metrics, judge, notes, same = traced(cli, ops)
    else:
        metrics, judge, notes = untraced(cli, ops, args.seconds)
        same = True

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for (kind, reason), count in sorted(judge.failures.items()):
        print(f"failed x{count} [{kind}] {reason}")
    print(f"fail_ratio {judge.failed / judge.attempted:.6f} "
          f"({judge.failed} of {judge.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": judge.wrong == 0 and same,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
