"""Per-module spans recorded from the benchmark's side of gfdiag's functions.

Tracer wraps every public module-level function of the gfdiag layers at
every module binding that refers to it, so a call made inside the package
(gfdiag.residues calling its own binding of series.diagonal_series) is
seen as well as a call from outside.  Private helpers are never wrapped:
their cost shows as their public caller's self time.  Spans are reduced
as they close: a function's self time is its span minus its direct
child spans, and its total time counts only outermost activations, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable

LAYERS = ("cli", "textform", "gfbuild", "residues", "series", "recurrences",
          "ratfunc", "poly", "claims")

# Function metrics reported by name: (function, fields).
FUNCTION_METRICS = (
    ("residues.diagonal_rational", ("calls", "ms", "self_ms")),
    ("residues.hk_transform", ("ms",)),
    ("residues.classify_poles", ("ms",)),
    ("poly.poly_gcd", ("calls", "ms")),
    ("series.bivariate_series", ("calls", "ms")),
    ("series.diagonal_series", ("ms",)),
    ("series.series_of_rational", ("calls", "ms")),
    ("series.binomial_convolution_sequence", ("calls", "ms")),
    ("series.convolution_grid", ("ms",)),
    ("series.generate_sequence", ("ms",)),
    ("recurrences.find_min_recurrence", ("calls", "ms")),
    ("ratfunc.identity_equal", ("calls", "ms")),
    ("textform.parse_ratfunc", ("calls", "ms")),
    ("gfbuild.printed_gf", ("ms",)),
    ("claims.run_claim", ("calls", "ms")),
    ("cli.main", ("self_ms",)),
)
FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}

# Counters filled by the observers below: name -> unit.
COUNTERS = {
    "residues.self_ms.deg2": "ms",
    "residues.self_ms.deg3": "ms",
    "residues.self_ms.deg4": "ms",
    "residues.self_ms.deg_other": "ms",
    "residues.trace_ms.deg2": "ms",
    "residues.trace_ms.deg3": "ms",
    "residues.trace_ms.deg4": "ms",
    "residues.trace_ms.deg_other": "ms",
    "residues.crosscheck.ms": "ms",
    "series.bivariate_series.cells": "count",
    "series.series_of_rational.terms": "count",
    "series.diagonal_max_bits": "bits",
    "recurrences.max_order": "count",
}


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class _Frame:
    __slots__ = ("name", "child_s", "crosscheck_s", "kept_degree")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.crosscheck_s = 0.0
        self.kept_degree = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# Observers: called as each span of the named function closes
# ---------------------------------------------------------------------------

def _crosscheck_part(tracer: "Tracer", parent: _Frame | None, elapsed: float) -> None:
    if parent is not None and parent.name == "residues.diagonal_rational":
        parent.crosscheck_s += elapsed
        tracer.counters["residues.crosscheck.ms"] += elapsed * 1000


def _on_classify_poles(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    if parent is not None and result is not None:
        parent.kept_degree = max((p.factor.degree for p in result if p.kept), default=0)


def _on_diagonal_rational(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    """Self time and trace time (inclusive time minus the cross-check) by kept t-degree.

    The trace's arithmetic runs mostly in public poly functions, so its
    self time alone misses most of its cost; trace_ms counts it all.
    """
    bucket = frame.kept_degree if frame.kept_degree in (2, 3, 4) else "_other"
    c = tracer.counters
    c[f"residues.self_ms.deg{bucket}"] += (elapsed - frame.child_s) * 1000
    c[f"residues.trace_ms.deg{bucket}"] += (elapsed - frame.crosscheck_s) * 1000
    if result is not None:
        tracer.crosschecks += 1
        tracer.crosschecks_ok += result[1].status == "ok"


def _on_series_of_rational(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    tracer.counters["series.series_of_rational.terms"] += _arg(args, kwargs, 1, "n")
    _crosscheck_part(tracer, parent, elapsed)


def _on_diagonal_series(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    _crosscheck_part(tracer, parent, elapsed)
    if result is not None:
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result), default=0)
        c = tracer.counters
        c["series.diagonal_max_bits"] = max(c["series.diagonal_max_bits"], bits)


def _on_bivariate_series(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    cells = _arg(args, kwargs, 1, "nx") * _arg(args, kwargs, 2, "ny")
    tracer.counters["series.bivariate_series.cells"] += cells


def _on_find_min_recurrence(tracer, frame, parent, elapsed, args, kwargs, result) -> None:
    if result is not None:
        tracer.recurrences_found += 1
        c = tracer.counters
        c["recurrences.max_order"] = max(c["recurrences.max_order"], result.order)


OBSERVERS: dict[str, Callable] = {
    "residues.classify_poles": _on_classify_poles,
    "residues.diagonal_rational": _on_diagonal_rational,
    "series.series_of_rational": _on_series_of_rational,
    "series.diagonal_series": _on_diagonal_series,
    "series.bivariate_series": _on_bivariate_series,
    "recurrences.find_min_recurrence": _on_find_min_recurrence,
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

def public_functions() -> dict[str, Callable]:
    """layer.name -> function, for every public function defined in a layer."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gfdiag.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                out[f"{layer}.{attr}"] = obj
    return out


class Tracer:
    """Context manager: wraps the public functions on entry, restores on exit."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.crosschecks = 0
        self.crosschecks_ok = 0
        self.recurrences_found = 0
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        originals = public_functions()
        by_id = {id(fn): (name, fn) for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        for name in originals:
            self.stats.setdefault(name, FunctionStats())
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != "gfdiag" and not mod_name.startswith("gfdiag.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[hit[0]])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> list[tuple[ModuleType, str, object]]:
        return list(self._patches)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        stack, active, stats = self._stack, self._active, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            result = None
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] -= 1
                st = stats[name]
                st.calls += 1
                st.self_s += elapsed - frame.child_s
                if not active[name]:
                    st.total_s += elapsed
                if failed:
                    st.errors += 1
                if parent is not None:
                    parent.child_s += elapsed
                if observe is not None:
                    observe(self, frame, parent, elapsed, args, kwargs, result)

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit); zeros before any span."""
        out: dict[str, tuple[float, str]] = {}
        for fn_name, fields in FUNCTION_METRICS:
            st = self.stats.get(fn_name, FunctionStats())
            values = {"calls": st.calls, "ms": st.total_s * 1000, "self_ms": st.self_s * 1000}
            for field in fields:
                out[f"{fn_name}.{field}"] = (values[field], FIELD_UNITS[field])
        for name, unit in COUNTERS.items():
            out[name] = (self.counters[name], unit)
        out["residues.errors"] = (
            self.stats.get("residues.diagonal_rational", FunctionStats()).errors, "count")
        out["residues.crosscheck_ok_ratio"] = (
            self.crosschecks_ok / self.crosschecks if self.crosschecks else 0.0, "ratio")
        finds = self.stats.get("recurrences.find_min_recurrence", FunctionStats()).calls
        out["recurrences.found_ratio"] = (
            self.recurrences_found / finds if finds else 0.0, "ratio")
        for layer in LAYERS:
            self_s = sum(st.self_s for name, st in self.stats.items()
                         if name.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (self_s * 1000, "ms")
        out["trace.spans"] = (sum(st.calls for st in self.stats.values()), "count")
        return out
