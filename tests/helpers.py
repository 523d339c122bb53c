"""Shared builders and checkers for the test suite."""

from __future__ import annotations

from datetime import datetime

import numpy as np

from depotcharge.model import (
    ENERGY_ATOL, EXCHANGE_ATOL, Horizon, Instance, Job, Schedule, validate_schedule,
)

WEEK_START = datetime(2023, 6, 5)


def make_horizon(interval_count: int, interval_hours: float = 0.25) -> Horizon:
    return Horizon(start=WEEK_START, interval_count=interval_count, interval_hours=interval_hours)


def random_instance(
    rng: np.random.Generator,
    max_jobs: int = 5,
    max_intervals: int = 12,
    with_caps: bool = False,
) -> Instance:
    """Random small instance with watt-hour-aligned energies.

    Energies, rates, and caps land on the watt-hour grid so that
    integer-scaled solvers represent them exactly.  Capped instances are
    feasible by construction: the caps dominate the even-spread profile.
    """
    m = int(rng.integers(2, max_intervals + 1))
    n = int(rng.integers(1, max_jobs + 1))
    jobs = []
    for k in range(n):
        arrival = int(rng.integers(0, m))
        departure = int(rng.integers(arrival + 1, m + 1))
        rate = round(float(rng.uniform(0.5, 8.0)), 3)
        width = departure - arrival
        energy = round(rate * width * float(rng.uniform(0.1, 0.95)), 3)
        jobs.append(
            Job(id=f"job{k}", arrival=arrival, departure=departure,
                energy_kwh=energy, max_rate_kwh=rate)
        )
    caps = None
    if with_caps:
        spread = np.zeros(m)
        for job in jobs:
            spread[job.arrival : job.departure] += job.energy_kwh / (job.departure - job.arrival)
        slack = spread * rng.uniform(0.05, 0.6) + rng.uniform(0.05, 1.0)
        caps = np.ceil((spread + slack) * 1000.0) / 1000.0
    return Instance(horizon=make_horizon(m), jobs=tuple(jobs), caps_kwh=caps)


def random_emissions(rng: np.random.Generator, interval_count: int) -> np.ndarray:
    """Emission factors rounded to 1e-6, the cost-scaling resolution."""
    return np.round(rng.uniform(0.05, 0.6, interval_count), 6)


def random_baseload(rng: np.random.Generator, interval_count: int, high: float = 12.0) -> np.ndarray:
    return rng.uniform(0.0, high, interval_count)


def reference_fill(instance: Instance, key) -> Schedule:
    """Each job at full rate through its window intervals in order of
    ``key``, ties to the earlier interval, one job and one interval at a
    time: the per-job loop the uncapped minimum-CO2 solver once ran."""
    key = np.asarray(key)
    allocations: dict[str, np.ndarray] = {}
    for job in instance.jobs:
        values = np.zeros(job.departure - job.arrival)
        remaining = job.energy_kwh
        for offset in np.argsort(key[job.arrival : job.departure], kind="stable"):
            if remaining <= 0:
                break
            amount = min(job.max_rate_kwh, remaining)
            values[offset] = amount
            remaining -= amount
        allocations[job.id] = values
    return Schedule.build(instance, allocations)


def assert_valid(instance: Instance, schedule: Schedule) -> None:
    validate_schedule(instance, schedule)


def reference_validate(instance: Instance, schedule: Schedule, atol: float = ENERGY_ATOL) -> None:
    """``validate_schedule``'s checks of the entries, the aggregate and the
    caps, job by job with one numpy call per check, as the validator ran
    before its array passes, plus their check that every entry is finite.

    Where one job fails it raises what ``validate_schedule`` raises.  Where
    several fail it names the first failing job, and ``validate_schedule``
    the first job of the first failing family.
    """
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"job {job.id!r}: allocation is not finite")
        if np.any(values < -atol):
            raise ValueError(f"job {job.id!r}: negative allocation")
        if np.any(values > job.max_rate_kwh + atol):
            raise ValueError(f"job {job.id!r}: allocation exceeds the per-interval rate bound")
        delivered = float(values.sum())
        if abs(delivered - job.energy_kwh) > atol:
            raise ValueError(
                f"job {job.id!r}: delivered {delivered} kWh, requires {job.energy_kwh} kWh"
            )
    recomputed = np.zeros(instance.interval_count)
    for job in instance.jobs:
        recomputed[job.arrival : job.departure] += schedule.window_energy[job.id]
    if not np.array_equal(recomputed, schedule.aggregate_kwh):
        raise ValueError("stored aggregate does not match its recomputation")
    if instance.caps_kwh is not None:
        excess = schedule.aggregate_kwh - instance.caps_kwh
        worst = int(np.argmax(excess))
        if excess[worst] > atol:
            raise ValueError(
                f"interval {worst}: aggregate {schedule.aggregate_kwh[worst]} kWh exceeds cap "
                f"{instance.caps_kwh[worst]} kWh"
            )


def assert_exchange_optimal(
    instance: Instance,
    schedule: Schedule,
    baseload: np.ndarray | None = None,
    tol: float = EXCHANGE_ATOL,
) -> None:
    """Local-exchange optimality of a flattening solution.

    For every job, no interval holding more than 1e-6 kWh may sit at a
    level more than ``tol`` above an interval of the same window that
    still has more than 1e-6 kWh of rate headroom; otherwise moving
    energy down would reduce the squared-profile objective.
    """
    levels = schedule.aggregate_kwh.copy()
    if baseload is not None:
        levels = levels + baseload
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        window_levels = levels[job.arrival : job.departure]
        donors = values > 1e-6
        receivers = values < job.max_rate_kwh - 1e-6
        if donors.any() and receivers.any():
            worst_donor = float(window_levels[donors].max())
            best_receiver = float(window_levels[receivers].min())
            assert worst_donor <= best_receiver + tol, (
                f"job {job.id}: level {worst_donor} could shed into level {best_receiver}"
            )
