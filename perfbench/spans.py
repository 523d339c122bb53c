"""Spans around the package's public calls, recorded from outside it.

The benchmark does not change the package.  It wraps the module
attributes through which the pipeline reaches each layer (for example
``depotcharge.cli.solve_flatten`` or ``depotcharge.flatten.max_flow``)
for the duration of one pass and restores them afterwards.  Every call
through a wrapped attribute records a span ``(name, label, start, end,
parent)`` in memory; nothing is written until the benchmark ends.

Two wrapper sets exist:

* ``SOLVE_TARGETS`` only: the scheduling calls.  Untraced passes use it
  to capture each schedule, its arguments and its duration for the
  checks and for ``solve_s``; 17 spans per week pass cost microseconds.
* ``SOLVE_TARGETS`` plus ``LAYER_TARGETS``: the traced pass, which also
  times every layer named in the layer table of perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: (module, attribute, span name) of every scheduling call.  ``cli`` holds
#: its own bindings of the solvers (used by the scenarios and the
#: flexibility experiment); ``weighted.sweep`` calls ``solve_weighted``
#: through the ``weighted`` module's binding.
SOLVE_TARGETS = (
    ("depotcharge.cli", "solve_uncontrolled", "baseline.solve_uncontrolled"),
    ("depotcharge.cli", "solve_min_co2", "flow.solve_min_co2"),
    ("depotcharge.cli", "solve_flatten", "flatten.solve_flatten"),
    ("depotcharge.cli", "solve_weighted", "weighted.solve_weighted"),
    ("depotcharge.weighted", "solve_weighted", "weighted.sweep_point"),
)

#: Span names of the scheduling calls; each one not nested in another
#: produces one checked schedule.
SOLVE_NAMES = frozenset(name for _, _, name in SOLVE_TARGETS)

#: Layer calls timed only in traced passes.
LAYER_TARGETS = (
    ("depotcharge.cli", "sweep", "weighted.sweep"),
    ("depotcharge.cli", "validate_schedule", "model.validate_schedule"),
    ("depotcharge.weighted", "solve_min_co2", "flow.solve_min_co2"),
    ("depotcharge.weighted", "solve_flatten", "flatten.solve_flatten"),
    ("depotcharge.flatten", "max_flow", "flow.max_flow"),
    ("depotcharge.flatten", "residual_reachable", "flow.residual_reachable"),
    ("depotcharge.flow", "maximum_flow", "flow.kernel"),
    ("depotcharge.flow", "build_network", "flow.build_network"),
    ("depotcharge.matching", "match_week", "matching.match_week"),
    ("depotcharge.matching", "to_jobs", "matching.to_jobs"),
    ("depotcharge.data", "load_timetable", "data.load"),
    ("depotcharge.data", "load_baseload", "data.load"),
    ("depotcharge.data", "load_emissions", "data.load"),
    ("depotcharge.data", "write_timetable", "data.write"),
    ("depotcharge.data", "write_baseload", "data.write"),
    ("depotcharge.data", "write_emissions", "data.write"),
    ("depotcharge.data", "write_profiles", "data.write"),
    ("depotcharge.data", "write_report", "data.write"),
    ("depotcharge.data", "write_sweep", "data.write"),
    ("depotcharge.metrics", "scenario_report", "metrics.report"),
    ("depotcharge.metrics", "peak_kw", "metrics.report"),
    ("depotcharge.metrics", "co2_total", "metrics.report"),
    ("depotcharge.metrics", "flatness", "metrics.report"),
    ("depotcharge.synth", "synth_timetable", "synth.timetable"),
    ("depotcharge.synth", "random_baseload", "synth.series"),
    ("depotcharge.synth", "sinusoid_emissions", "synth.series"),
)


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float
    parent: int
    result: Any = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one instance per pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, label: str = "") -> Iterator[Span]:
        """Span around a block, for calls the benchmark makes itself."""
        span = Span(name, label, time.perf_counter(), math.nan, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, func: Callable, keep: bool, args: tuple, kwargs: dict) -> Any:
        with self.span(name, _label(name, args, kwargs)) as span:
            result = func(*args, **kwargs)
        if keep:
            span.result, span.args, span.kwargs = result, args, kwargs
        return result

    def records(self) -> list[list]:
        """Plain span rows for the trace file: name, label, start, end, parent."""
        return [[s.name, s.label, s.start, s.end, s.parent] for s in self.spans]


def _label(name: str, args: tuple, kwargs: dict) -> str:
    if name in ("weighted.solve_weighted", "weighted.sweep_point"):
        weights = kwargs.get("weights", args[3] if len(args) > 3 else None)
        return weight_label(weights.flatness_weight)
    return ""


def weight_label(flatness_weight: float) -> str:
    """``w0``, ``w0.1``, ..., ``w10``, ``winf``: one name per sweep weight."""
    if math.isinf(flatness_weight):
        return "winf"
    return f"w{flatness_weight:g}"


@contextlib.contextmanager
def patched(tracer: Tracer, targets: tuple) -> Iterator[Tracer]:
    """Route the given ``(module, attribute, span name)`` targets through a tracer."""
    wrappers: dict[tuple[int, str], Callable] = {}
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = _wrap(tracer, name, original)
            saved.append((module, attribute, original))
            setattr(module, attribute, wrappers[key])
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def _wrap(tracer: Tracer, name: str, original: Callable) -> Callable:
    keep = name in SOLVE_NAMES

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, original, keep, args, kwargs)

    return wrapper


def layer_seconds(spans: list[Span], names: set[str]) -> float:
    """Time in spans named in ``names``, counting nested ones once."""
    total = 0.0
    for span in spans:
        if span.name in names and not has_ancestor(spans, span, names):
            total += span.end - span.start
    return total


def self_seconds(spans: list[Span], names: set[str]) -> float:
    """Time in spans named in ``names`` minus the time of their direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    return sum(
        span.end - span.start - child_time[index]
        for index, span in enumerate(spans)
        if span.name in names
    )


def has_ancestor(spans: list[Span], span: Span, names: set[str]) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False
