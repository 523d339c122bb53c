"""Profile flattening by divide and conquer over max-flow cuts.

The flattening objective ``sum_i (s(i) + b(i))^2`` is minimized by a
water-filling profile: charging fills the lowest-total intervals until
groups of intervals sit at common levels.  :func:`solve_flatten` runs
:func:`~depotcharge.flow.decompose`, whose docstring holds the fill, the
route and the split, over the baseload on the instance's integer grid
(:func:`~depotcharge.flow.grid`).  The aggregate profile is unique even
though the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import decompose, grid, max_flow, read_schedule, residual_reachable
from .model import BaseloadSeries, Instance, Schedule


@dataclass(frozen=True)
class FlattenProblem:
    """A flattening task: an instance plus the static baseload under it.

    Attributes:
        instance: Jobs and horizon.  Aggregate caps are rejected until
            capped flattening is verified.
        baseload: Fixed per-interval energy already on the connection,
            or None for an empty profile.
    """

    instance: Instance
    baseload: BaseloadSeries | None = None

    def __post_init__(self) -> None:
        if self.instance.caps_kwh is not None:
            raise ValueError("flattening does not support aggregate caps")
        if self.baseload is not None and len(self.baseload.kwh) != self.instance.interval_count:
            raise ValueError("baseload length does not match the horizon")

    def baseload_kwh(self) -> np.ndarray:
        if self.baseload is None:
            return np.zeros(self.instance.interval_count)
        return np.asarray(self.baseload.kwh, dtype=float)


def levels(schedule: Schedule, baseload: BaseloadSeries | np.ndarray | None) -> np.ndarray:
    """Per-interval totals s(i) + b(i), the quantity flattening equalizes."""
    totals = schedule.aggregate_kwh.astype(float).copy()
    if baseload is None:
        return totals
    values = baseload.kwh if isinstance(baseload, BaseloadSeries) else np.asarray(baseload, dtype=float)
    if values.shape != totals.shape:
        raise ValueError("baseload length does not match the schedule")
    return totals + values


def solve_flatten(problem: FlattenProblem) -> Schedule:
    """Minimize sum_i (s(i)+b(i))^2 over windows and rate bounds.

    The returned schedule's aggregate is the unique flattening optimum;
    the per-job split is one feasible decomposition among many, the one
    the cuts' spills and the routed blocks leave.  Raises
    SolverError when :func:`~depotcharge.flow.decompose` does.
    """
    instance = problem.instance
    if not instance.jobs:
        return Schedule.of(instance, [])

    base_f = problem.baseload_kwh()
    network, scale, supply, rate, sink = grid(instance, float(np.abs(base_f).sum()))
    basins = np.rint(base_f * scale).astype(np.int64)
    flows = decompose(network, supply, rate, basins, sink, max_flow, residual_reachable)
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    return read_schedule(instance, network, flows, scale, totals, totals)
