"""
Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``logmeans`` layer from outside
the package: a function is rebound in every ``logmeans.*`` module that holds
it, because ``from .fourier import dirichlet_matrix`` gives ``kernels``,
``counterexamples`` and ``means`` their own bindings.  Two layers are methods
and are wrapped on their class: ``GridFunction2D.__post_init__`` (grid
construction plus the imaginary-part validation) and ``YoungFunction.__call__``
(every Young-function evaluation, named ``orlicz.Q``).

Each call records a span (name, start, end, parent) in memory.  In a memory
round, spans marked ``peak`` also record the ``tracemalloc`` peak of memory
allocated inside the call.  Bookkeeping that
costs real time (``np.unique`` for ``orlicz.Q.unique_ratio``, tracemalloc
reads) runs on a paused clock, so it is charged to no span.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MB = 1e6


def _dirichlet_counts(args, kwargs, result):
    return {"elems": int(result.size), "bytes_computed": int(result.nbytes)}


def _harmonic_counts(args, kwargs, result):
    return {"terms": int(args[0] if args else kwargs["n"])}


def _young_counts(args, kwargs, result):
    u = np.asarray(args[1] if len(args) > 1 else kwargs["u"])
    return {"elems": int(u.size), "unique": int(np.unique(u).size)}


def _report_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


@dataclass(frozen=True)
class Target:
    """
    One traced function: ``module.attr`` in ``logmeans``, traced as ``name``.
    ``counts`` maps (args, kwargs, result) of one call to the exact counts it
    adds; ``sums`` names those counts, so a function never called reports 0.
    """

    module: str
    attr: str
    name: str
    peak: bool = False
    counts: Callable | None = None
    sums: tuple[str, ...] = ()


#: Every traced layer boundary.  The metric prefix is the defining module.
TARGETS = (
    Target("fourier", "dirichlet_matrix", "fourier.dirichlet_matrix", True,
           _dirichlet_counts, ("elems", "bytes_computed")),
    Target("fourier", "dirichlet_kernel", "fourier.dirichlet_kernel"),
    Target("fourier", "fourier_coeffs", "fourier.fourier_coeffs", True),
    Target("fourier", "evaluate_grid", "fourier.evaluate_grid", True),
    Target("kernels", "log_kernel_direct_many", "kernels.log_kernel_direct_many", True),
    Target("kernels", "lemma_main_check", "kernels.lemma_main_check", True),
    Target("kernels", "log_kernel_closed", "kernels.log_kernel_closed"),
    Target("kernels", "log_kernel_direct", "kernels.log_kernel_direct"),
    Target("kernels", "sin_sum", "kernels.sin_sum"),
    Target("kernels", "fejer_ratio", "kernels.fejer_ratio"),
    Target("counterexamples", "bump_mean_many", "counterexamples.bump_mean_many", True),
    Target("counterexamples", "l1_growth", "counterexamples.l1_growth"),
    Target("counterexamples", "bump_mean_lower_bound", "counterexamples.bump_mean_lower_bound"),
    Target("means", "harmonic_number", "means.harmonic_number", False,
           _harmonic_counts, ("terms",)),
    Target("means", "l1_distance", "means.l1_distance"),
    Target("orlicz", "luxemburg_norm", "orlicz.luxemburg_norm"),
    Target("orlicz", "YoungFunction.__call__", "orlicz.Q", False,
           _young_counts, ("elems", "unique")),
    Target("grid", "GridFunction2D.__post_init__", "grid.GridFunction2D"),
    Target("cli", "quasi_random_points", "cli.quasi_random_points"),
    Target("cli", "write_report", "cli.write_report", False, _report_counts, ("bytes",)),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    base: int = 0
    high: int = 0
    peak: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        #: Record tracemalloc peaks; it slows the spans' times, so a round
        #: either times spans or measures their memory.
        self.measure_memory = False
        self.spans: list[Span] = []
        self.paused = 0.0
        self._stack: list[int] = []
        self._mem_open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        """Wall clock minus the time spent in tracer bookkeeping."""
        return time.perf_counter() - self.paused

    def reset(self) -> None:
        """Drop the recorded spans (between rounds, when no span is open)."""
        self.spans = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ``logmeans`` module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "logmeans" or name.startswith("logmeans.")]
        for target in TARGETS:
            owner = sys.modules["logmeans." + target.module]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, method, self._wrap(target, getattr(cls, method)))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, target: Target, func):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(target.name, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            memory = target.peak and tracer.measure_memory
            if memory:
                tracer._mem_enter(span)
            span.start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if memory:
                    tracer._mem_exit(span)
            if target.counts is not None:
                paused_at = time.perf_counter()
                span.counts = target.counts(args, kwargs, result)
                tracer.paused += time.perf_counter() - paused_at
            return result

        traced.__wrapped__ = func
        return traced

    # -- tracemalloc peaks --------------------------------------------------
    # tracemalloc runs only while a peak span is open: it slows every
    # allocation, and the scalar kernel path allocates many small arrays.
    # Every open peak span has been open since the last reset_peak(), so the
    # peak read at any enter or exit lies inside each open span's window.

    def _mem_enter(self, span: Span) -> None:
        paused_at = time.perf_counter()
        if not self._mem_open:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for open_span in self._mem_open:
            open_span.high = max(open_span.high, peak)
        tracemalloc.reset_peak()
        span.base = span.high = current
        self._mem_open.append(span)
        self.paused += time.perf_counter() - paused_at

    def _mem_exit(self, span: Span) -> None:
        paused_at = time.perf_counter()
        _current, peak = tracemalloc.get_traced_memory()
        for open_span in self._mem_open:
            open_span.high = max(open_span.high, peak)
        self._mem_open.pop()
        if not self._mem_open:
            tracemalloc.stop()
        span.peak = span.high - span.base
        self.paused += time.perf_counter() - paused_at

    # -- aggregation ---------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """
        Per-target stats over the recorded spans: ``calls``; ``self_s``, the
        duration minus that of child spans; ``total_s`` and ``peak_mb`` over
        calls not nested in a call of the same target; the summed counts; and
        the ratios ``unique_ratio`` (``orlicz.Q``) and ``distinct_ratio``
        (distinct arguments per call of ``means.harmonic_number``).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats = {}
        for target in TARGETS:
            entry = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            if target.peak:
                entry["peak_mb"] = 0.0
            entry.update((key, 0) for key in target.sums)
            stats[target.name] = entry
        harmonic_args = set()
        for i, span in enumerate(spans):
            entry = stats[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not self._nested_in_same(span):
                entry["total_s"] += duration
                if span.peak is not None:
                    entry["peak_mb"] = max(entry["peak_mb"], span.peak / MB)
            for key, value in span.counts.items():
                entry[key] += value
            if span.name == "means.harmonic_number":
                harmonic_args.add(span.counts["terms"])
        young = stats["orlicz.Q"]
        young["unique_ratio"] = _ratio(young.pop("unique"), young["elems"])
        harmonic = stats["means.harmonic_number"]
        harmonic["distinct_ratio"] = _ratio(len(harmonic_args), harmonic["calls"])
        return stats

    def _nested_in_same(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def top_level_time(self) -> float:
        """Summed duration of the recorded spans that have no parent span."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def span_records(self) -> list[list]:
        """The spans as ``[name, start, end, parent]`` rows, for writing out."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Stats that are exact counts: they must repeat exactly from run to run.
EXACT_STATS = ("calls", "elems", "bytes_computed", "terms", "distinct_ratio",
               "unique_ratio", "bytes")


def flatten(stats: dict[str, dict[str, float]], only: tuple[str, ...] | None = None) -> dict:
    """``layer_stats`` output as ``{"<module>.<function>.<stat>": value}``."""
    return {f"{name}.{stat}": value
            for name, entry in stats.items()
            for stat, value in entry.items() if only is None or stat in only}
