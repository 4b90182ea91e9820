"""Span tracer that wraps the public functions of every ``swkb`` module from
outside the package, plus the per-layer metrics derived from the spans.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are reduced to metrics once the run has ended.  ``algebra`` and
``gaussian`` are not wrapped: they are called millions of times, so a span
per call would distort the run.  Their time shows in their callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional

UNWRAPPED = ("swkb.algebra", "swkb.gaussian", "swkb.errors")


class Span:
    __slots__ = ("name", "parent", "start", "end", "result")

    def __init__(self, name: str, parent: Optional[int], start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.result = None


class Tracer:
    """Holds the spans of one run.  ``install`` patches every module
    namespace that bound a wrapped function, including ``from .x import f``
    bindings, so a call is traced whichever name it goes through."""

    # Return values that the metrics read, reduced to a number at once so
    # that the trace keeps no large object alive.
    KEEP_RESULT = {
        "series.generate_series",
        "antiderivative.antiderivative",
        "antiderivative.candidate_monomials",
        "quadrature.contour_integrate",
    }

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.wrapped: Dict[Callable, Callable] = {}

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        keep_result = qualname in self.KEEP_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(qualname, stack[-1] if stack else None, clock())
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if keep_result:
                span.result = _summarize(qualname, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = swkb_modules()
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            if mod.__name__ in UNWRAPPED:
                continue
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self.wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        package = sys.modules["swkb"]
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrapped:
                    setattr(mod, name, self.wrapped[obj])
        self.check_bindings()

    def check_bindings(self) -> None:
        """Raise if any module namespace still holds an unwrapped original."""
        for mod in swkb_modules() + [sys.modules["swkb"]]:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in self.wrapped:
                    raise RuntimeError(f"{mod.__name__}.{name} is still unwrapped")


def _summarize(qualname: str, result):
    """The part of a return value a metric needs: a number, not the object."""
    if qualname == "series.generate_series":
        return max(c.term_count() for c in result.coeffs)
    if qualname == "antiderivative.antiderivative":
        return result is not None
    if qualname == "antiderivative.candidate_monomials":
        return len(result)
    if qualname == "quadrature.contour_integrate":
        return result.samples_used
    return None


def swkb_modules() -> List[ModuleType]:
    """The loaded ``swkb`` submodules, resolved through ``sys.modules``: the
    package attribute ``swkb.antiderivative`` is the function, not the module."""
    return [m for n, m in sorted(sys.modules.items())
            if n.startswith("swkb.") and m is not None]


# -- metrics -------------------------------------------------------------------

LAYERS = ("series", "antiderivative", "reduction", "wkb", "quadrature",
          "spectrum", "oracle", "cli")


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self time and work counts of one traced run."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_by_fn: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    results: Dict[str, list] = defaultdict(list)
    durations: Dict[str, List[float]] = defaultdict(list)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_by_fn[s.name] += dur - child_time[i]
        calls[s.name] += 1
        durations[s.name].append(dur)
        if s.result is not None:
            results[s.name].append(s.result)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_fn.items()
                                   if k.split(".", 1)[0] == layer)
    for fn in ("series.generate_series", "antiderivative.antiderivative",
               "antiderivative.candidate_monomials",
               "reduction.quantization_integrands", "quadrature.contour_integrate",
               "quadrature.build_contour", "spectrum.action", "spectrum.solve_level",
               "oracle.eigenvalues"):
        m[f"{fn}.calls"] = calls[fn]
    for fn in ("reduction.residual_sweep", "quadrature.turning_points",
               "quadrature.build_contour"):
        m[f"{fn}.self_s"] = self_by_fn[fn]

    m["series.terms_max"] = max(results["series.generate_series"], default=0)
    found = results["antiderivative.antiderivative"]
    m["antiderivative.found_ratio"] = sum(found) / len(found) if found else 0.0
    m["antiderivative.ansatz_cols"] = sum(results["antiderivative.candidate_monomials"])
    m["quadrature.samples"] = sum(results["quadrature.contour_integrate"])
    integrals = calls["quadrature.contour_integrate"]
    m["quadrature.samples_per_integral"] = m["quadrature.samples"] / integrals if integrals else 0.0
    levels = calls["spectrum.solve_level"]
    m["spectrum.actions_per_level"] = calls["spectrum.action"] / levels if levels else 0.0
    solve = sorted(durations["spectrum.solve_level"])
    m["spectrum.solve_level.p50_s"] = statistics.median(solve) if solve else 0.0
    m["spectrum.solve_level.p90_s"] = (statistics.quantiles(solve, n=10, method="inclusive")[-1]
                                       if len(solve) >= 2 else (solve[0] if solve else 0.0))
    return m
