"""Weighted CO2-plus-flatness objective, reduced to pure flattening.

The combined objective is ``W(s) = wc*C(s) + wf*F(s)`` with the emission
cost ``C(s) = sum_i s(i)*co2(i)`` over bus charging only and the
flatness cost ``F(s) = sum_i (s(i) + b_real(i))^2``.  Completing the
square with ``beta(i) = wc/(2*wf) * co2(i)`` gives

    W(s) = wf * sum_i (s(i) + b_real(i) + beta(i))^2
           - wf * sum_i beta(i) * (beta(i) + 2*b_real(i))

where the subtracted term does not depend on s.  Minimizing W is
therefore flattening against the combined baseload b_real + beta; the
emission curve simply raises the water bed under dirty intervals.

The weight endpoints route to the dedicated solvers: a zero flatness
weight is the plain minimum-emission problem, an infinite one is plain
flattening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .flatten import FlattenProblem, levels, solve_flatten
from .flow import EmissionSeries, solve_min_co2
from .model import BaseloadSeries, Instance, Schedule

#: Sweep grid for the flatness weight, with the CO2 weight held at one.
DEFAULT_FLATNESS_SWEEP = (
    0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, math.inf,
)


@dataclass(frozen=True)
class Weights:
    """Objective weights for the combined problem.

    Attributes:
        co2_weight: Positive weight on total emissions (per kg CO2).
        flatness_weight: Weight on the squared-profile term (per kWh^2).
            Two sentinel values select the pure endpoints: 0 solves for
            minimum emissions only, ``math.inf`` for flatness only.
    """

    co2_weight: float = 1.0
    flatness_weight: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.co2_weight) or self.co2_weight <= 0:
            raise ValueError("co2 weight must be finite and positive")
        if math.isnan(self.flatness_weight) or self.flatness_weight < 0:
            raise ValueError("flatness weight must be non-negative")

    @property
    def is_pure_co2(self) -> bool:
        return self.flatness_weight == 0

    @property
    def is_pure_flatten(self) -> bool:
        return math.isinf(self.flatness_weight)


def emission_baseload(emissions: EmissionSeries, weights: Weights) -> BaseloadSeries:
    """The completing-the-square term wc/(2*wf) * co2 as a baseload."""
    if weights.is_pure_co2 or weights.is_pure_flatten:
        raise ValueError("pure endpoints have no emission baseload")
    factor = weights.co2_weight / (2.0 * weights.flatness_weight)
    return BaseloadSeries(factor * emissions.kg_per_kwh)


def weighted_objective(
    schedule: Schedule,
    emissions: EmissionSeries,
    real_baseload: BaseloadSeries | None,
    weights: Weights,
) -> float:
    """W(s) = wc*C(s) + wf*F(s) for finite weights, treating both as raw values."""
    if weights.is_pure_co2 or weights.is_pure_flatten:
        raise ValueError("the combined objective needs finite positive weights")
    co2_total = float(np.dot(schedule.aggregate_kwh, emissions.kg_per_kwh))
    totals = levels(schedule, real_baseload)
    return weights.co2_weight * co2_total + weights.flatness_weight * float(
        np.dot(totals, totals)
    )


def solve_weighted(
    instance: Instance,
    emissions: EmissionSeries,
    real_baseload: BaseloadSeries | None,
    weights: Weights,
) -> Schedule:
    """Minimize wc*C(s) + wf*F(s); endpoints dispatch to the pure solvers.

    The finite-weight path flattens against b_real + beta and then
    re-expands the objective to confirm the constant-term bookkeeping.
    """
    if instance.caps_kwh is not None:
        raise ValueError("the weighted objective does not support aggregate caps")
    if len(emissions) != instance.interval_count:
        raise ValueError("emission series does not cover the horizon")
    if weights.is_pure_co2:
        return solve_min_co2(instance, emissions)
    if weights.is_pure_flatten:
        return solve_flatten(FlattenProblem(instance, real_baseload))

    beta = emission_baseload(emissions, weights)
    base = FlattenProblem(instance, real_baseload).baseload_kwh()
    combined = BaseloadSeries(base + beta.kwh)
    schedule = solve_flatten(FlattenProblem(instance, combined))

    direct = weighted_objective(schedule, emissions, real_baseload, weights)
    totals = schedule.aggregate_kwh + combined.kwh
    constant = float(np.dot(beta.kwh, beta.kwh + 2.0 * base))
    squares = float(np.dot(totals, totals))
    expanded = weights.flatness_weight * (squares - constant)
    # The expansion cancels terms as large as wf * squares, so its round-off
    # scales with them, not with the (possibly much smaller) objective.
    if abs(direct - expanded) > 1e-8 * max(1.0, abs(direct), weights.flatness_weight * squares):
        raise SolverError(
            f"completing-the-square bookkeeping drifted: {direct} against {expanded}"
        )
    return schedule


def sweep(
    instance: Instance,
    emissions: EmissionSeries,
    real_baseload: BaseloadSeries | None = None,
    flatness_weights: tuple[float, ...] = DEFAULT_FLATNESS_SWEEP,
    co2_weight: float = 1.0,
) -> tuple[tuple[Weights, Schedule], ...]:
    """Solve the weighted problem across a flatness-weight grid."""
    points = []
    for flatness_weight in flatness_weights:
        weights = Weights(co2_weight=co2_weight, flatness_weight=flatness_weight)
        points.append((weights, solve_weighted(instance, emissions, real_baseload, weights)))
    return tuple(points)
