"""Core data model for depot charging schedules.

The depot horizon is a sequence of equal-length intervals (15 minutes by
default).  A charging job describes one bus that must receive a fixed
amount of energy between an arrival interval and a departure interval,
never faster than its charger allows.  A schedule assigns per-interval
energy to every job; its aggregate is the depot charging profile that
the objectives in :mod:`depotcharge.flow`, :mod:`depotcharge.flatten`,
and :mod:`depotcharge.weighted` act on.

All energies are kWh per interval.  Power (kW) appears only at the
reporting boundary, where a kWh-per-interval value is divided by the
interval length in hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

#: Absolute tolerance (kWh) accepted by schedule validators, per entry.
ENERGY_ATOL = 1e-6

#: Absolute tolerance (kWh per interval) for local-exchange optimality checks.
EXCHANGE_ATOL = 1e-5

_GRID_SNAP = 1e-9  # fraction of an interval treated as "already on the grid"
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class Horizon:
    """Discretisation of the planning window into equal intervals.

    Attributes:
        start: Wall-clock timestamp of the first interval boundary
            (naive local time).
        interval_count: Number of intervals in the horizon.
        interval_hours: Length of one interval in hours.  The default of
            0.25 matches 15-minute metering granularity.
    """

    start: datetime
    interval_count: int
    interval_hours: float = 0.25

    def __post_init__(self) -> None:
        if self.interval_count <= 0:
            raise ValueError("interval_count must be positive")
        if not (self.interval_hours > 0):
            raise ValueError("interval_hours must be positive")

    @property
    def end(self) -> datetime:
        return self.timestamp(self.interval_count)

    def timestamp(self, index: int) -> datetime:
        """Wall-clock time of interval boundary ``index``."""
        return self.start + timedelta(hours=index * self.interval_hours)

    def index_floor(self, when: datetime | Sequence[datetime]) -> int | np.ndarray:
        """Largest interval boundary at or before ``when``."""
        return self._index(when, np.floor)

    def index_ceil(self, when: datetime | Sequence[datetime]) -> int | np.ndarray:
        """Smallest interval boundary at or after ``when``."""
        return self._index(when, np.ceil)

    def _index(self, when: datetime | Sequence[datetime], rounding) -> int | np.ndarray:
        # One datetime gives an int, a sequence of them an int64 array.
        # Whole microseconds over 1e6 are exactly what
        # ``timedelta.total_seconds()`` gives; a point within _GRID_SNAP
        # of a boundary is taken to be on it.
        single = isinstance(when, datetime)
        micros = [(t - self.start) // _MICROSECOND for t in ([when] if single else when)]
        off = np.array(micros, dtype=np.int64) / 1e6 / 3600.0 / self.interval_hours
        nearest = np.rint(off)
        index = np.where(np.abs(off - nearest) <= _GRID_SNAP, nearest, rounding(off))
        index = index.astype(np.int64)
        return int(index[0]) if single else index

    def clip(self, index):
        """``index`` clamped to ``[0, interval_count]``, elementwise for an array."""
        return np.clip(index, 0, self.interval_count)


@dataclass(frozen=True)
class Job:
    """One charging session: a bus with an energy need and a time window.

    Attributes:
        id: Opaque unique identifier.
        arrival: First interval (inclusive) during which charging may occur.
        departure: First interval at which charging may no longer occur;
            the window is the half-open range ``[arrival, departure)``.
        energy_kwh: Energy the job must receive over its window.
        max_rate_kwh: Upper bound on energy received in any one interval
            (charger power times interval length).
    """

    id: str
    arrival: int
    departure: int
    energy_kwh: float
    max_rate_kwh: float

    def __post_init__(self) -> None:
        if self.arrival < 0 or self.departure <= self.arrival:
            raise ValueError(
                f"job {self.id!r}: window [{self.arrival}, {self.departure}) is empty or negative"
            )
        if not np.isfinite(self.energy_kwh) or self.energy_kwh < 0:
            raise ValueError(f"job {self.id!r}: energy must be finite and non-negative")
        if not np.isfinite(self.max_rate_kwh) or self.max_rate_kwh <= 0:
            raise ValueError(f"job {self.id!r}: max rate must be finite and positive")
        width = self.departure - self.arrival
        if self.energy_kwh > self.max_rate_kwh * width + ENERGY_ATOL:
            # Jobs that cannot be served even alone are rejected at
            # ingestion rather than silently clipped.
            raise ValueError(
                f"job {self.id!r}: needs {self.energy_kwh} kWh but the window admits at most "
                f"{self.max_rate_kwh * width} kWh"
            )

    @property
    def window(self) -> range:
        return range(self.arrival, self.departure)


def per_interval(values, noun: str) -> np.ndarray:
    """A read-only float copy of one value per interval; a ``ValueError``
    naming ``noun`` unless one-dimensional, finite and non-negative."""
    values = np.array(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{noun} must be one-dimensional")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError(f"{noun} must be finite and non-negative")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: horizon, jobs, and optional aggregate caps.

    Attributes:
        horizon: The interval grid all jobs refer to.
        jobs: The charging jobs, windows expressed in horizon indices.
        caps_kwh: Optional per-interval upper bound on the summed charging
            energy of all jobs (kWh per interval).  ``None`` means the
            depot connection never binds.
    """

    horizon: Horizon
    jobs: tuple[Job, ...]
    caps_kwh: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        m = self.horizon.interval_count
        seen: set[str] = set()
        for job in self.jobs:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id!r}")
            seen.add(job.id)
            if job.departure > m:
                raise ValueError(
                    f"job {job.id!r}: departure {job.departure} exceeds horizon ({m} intervals)"
                )
        if self.caps_kwh is not None:
            caps = np.asarray(self.caps_kwh, dtype=float)
            if caps.shape != (m,):
                raise ValueError(f"caps must have shape ({m},), got {caps.shape}")
            object.__setattr__(self, "caps_kwh", per_interval(caps, "caps"))

    @property
    def interval_count(self) -> int:
        return self.horizon.interval_count


@dataclass(frozen=True)
class BaseloadSeries:
    """Non-bus depot load per interval, in kWh.

    Attributes:
        kwh: Array of length ``interval_count`` with the energy drawn by
            everything that is not bus charging.
    """

    kwh: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwh", per_interval(self.kwh, "baseload"))

    @classmethod
    def from_kw(cls, kw: np.ndarray, interval_hours: float) -> "BaseloadSeries":
        return cls(np.asarray(kw, dtype=float) * interval_hours)

    def __len__(self) -> int:
        return len(self.kwh)


def window_intervals(starts, widths) -> np.ndarray:
    """The interval of each entry of windows laid end to end, job-major:
    ``widths[k]`` entries from ``starts[k]`` for job k."""
    starts, widths = np.asarray(starts, dtype=np.int64), np.asarray(widths, dtype=np.int64)
    return np.arange(int(widths.sum())) + np.repeat(starts - (np.cumsum(widths) - widths), widths)


def row_sums(values: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """Per-row sums of ``values``, grouped by the non-decreasing ``rows``.

    Each equals numpy's own sum of its row, bit for bit: a zero ahead of
    every row makes ``reduceat`` add the row as ``sum`` does.
    """
    lengths = np.bincount(rows, minlength=count)
    padded = np.zeros(len(values) + count)
    padded[np.arange(len(values)) + rows + 1] = values
    return np.add.reduceat(padded, np.cumsum(lengths) - lengths + np.arange(count))


def job_windows(jobs) -> tuple[np.ndarray, np.ndarray]:
    """Each job's first window interval and window width."""
    starts = np.array([job.arrival for job in jobs], dtype=np.int64)
    return starts, np.array([job.departure for job in jobs], dtype=np.int64) - starts


def _profile(instance: Instance, energy: np.ndarray) -> np.ndarray:
    # Shared by Schedule.of and aggregate(), so the stored aggregate is
    # bitwise recomputable; bincount gives int64 when there are no entries.
    intervals = window_intervals(*job_windows(instance.jobs))
    return np.bincount(intervals, energy, instance.interval_count).astype(float, copy=False)


@dataclass(frozen=True)
class Schedule:
    """Per-job, per-interval energy allocations of one instance.

    Allocations are stored window-dense in the layout of the job arcs of
    :class:`~depotcharge.flow.JobIntervalNetwork`: every job's window, end
    to end in instance order, so energy outside a window is
    unrepresentable.  Arrays are read-only.

    Attributes:
        instance: The instance the schedule belongs to.
        energy: Energy per window interval of every job (kWh), job-major.
        aggregate_kwh: Summed charging profile, length ``interval_count``.
    """

    instance: Instance
    energy: np.ndarray
    aggregate_kwh: np.ndarray

    @property
    def interval_count(self) -> int:
        return self.instance.interval_count

    @cached_property
    def window_energy(self) -> dict[str, np.ndarray]:
        """Per job id, the view of its window in ``energy``, built on first use."""
        views = np.split(self.energy, np.cumsum(job_windows(self.instance.jobs)[1])[:-1])
        return {job.id: view for job, view in zip(self.instance.jobs, views)}

    @classmethod
    def of(cls, instance: Instance, energy) -> "Schedule":
        """The schedule of a copy of ``energy``: every job's window, end to
        end in instance order.  A wrong length raises ``ValueError``."""
        widths = job_windows(instance.jobs)[1]
        energy = np.array(energy, dtype=float)
        if energy.shape != (int(widths.sum()),):
            raise ValueError(f"energy has shape {energy.shape}, the windows need ({widths.sum()},)")
        energy.setflags(write=False)
        total = _profile(instance, energy)
        total.setflags(write=False)
        return cls(instance, energy, total)

    @classmethod
    def build(cls, instance: Instance, allocations: Mapping[str, np.ndarray]) -> "Schedule":
        """Assemble a schedule from per-job window arrays.

        Jobs absent from ``allocations`` receive all-zero windows; keys
        that do not belong to the instance raise ``ValueError``.
        """
        known = {job.id for job in instance.jobs}
        unknown = set(allocations) - known
        if unknown:
            raise ValueError(f"allocations for unknown jobs: {sorted(unknown)}")
        parts = []
        for job in instance.jobs:
            width = job.departure - job.arrival
            values = allocations.get(job.id)
            values = np.zeros(width) if values is None else np.asarray(values, dtype=float)
            if values.shape != (width,):
                raise ValueError(
                    f"job {job.id!r}: allocation has shape {values.shape}, window needs ({width},)"
                )
            parts.append(values)
        return cls.of(instance, np.concatenate(parts) if parts else [])


def fill_windows(instance: Instance, key) -> Schedule:
    """Each job at full rate through its window intervals in order of
    ``key[interval]``, the earlier first on ties, until its energy is in:
    the entry of rank r in its job's order gets ``energy - rate * r``
    clipped to ``[0, rate]``.  Caps are ignored."""
    jobs = instance.jobs
    starts, widths = job_windows(jobs)
    firsts = np.repeat(np.cumsum(widths) - widths, widths)
    # Each interval's unique place in key order makes one integer sort key per entry.
    place = np.argsort(np.argsort(key, kind="stable"))
    order = np.argsort(firsts * len(place) + place[window_intervals(starts, widths)], kind="stable")
    rates = np.repeat([job.max_rate_kwh for job in jobs], widths)
    energies = np.repeat([job.energy_kwh for job in jobs], widths)
    energy = np.empty(len(order))
    energy[order] = np.clip(energies - rates * (np.arange(len(order)) - firsts), 0.0, rates)
    return Schedule.of(instance, energy)


def aggregate(schedule: Schedule) -> np.ndarray:
    """Recompute the summed charging profile from the allocations."""
    return _profile(schedule.instance, schedule.energy)


def validate_schedule(
    instance: Instance, schedule: Schedule, atol: float = ENERGY_ATOL
) -> None:
    """Check a schedule against the instance constraints.

    The schedule must belong to the instance's jobs and horizon.  Then,
    per entry and within ``atol`` kWh: finite values, non-negativity, the
    per-interval rate bound, exact delivery of each job's energy (small
    over-delivery is tolerated, never required), that the stored
    aggregate equals its recomputation bit for bit, and the aggregate
    caps when present.  Raises ``ValueError`` on the first violated
    family, naming its first job.
    """
    jobs, values = instance.jobs, schedule.energy
    widths = job_windows(jobs)[1]
    same = schedule.instance.jobs == jobs and schedule.instance.horizon == instance.horizon
    if not same or values.shape != (int(widths.sum()),):
        raise ValueError("schedule is not laid out for the instance's jobs and horizon")
    entry_job = np.repeat(np.arange(len(jobs)), widths)
    rates = np.array([job.max_rate_kwh for job in jobs])
    for message, spoiled in (
        ("allocation is not finite", ~np.isfinite(values)),
        ("negative allocation", values < -atol),
        ("allocation exceeds the per-interval rate bound", values > rates[entry_job] + atol),
    ):
        if spoiled.any():
            raise ValueError(f"job {jobs[entry_job[np.argmax(spoiled)]].id!r}: {message}")
    delivered = row_sums(values, entry_job, len(jobs))
    missed = np.flatnonzero(np.abs(delivered - [job.energy_kwh for job in jobs]) > atol)
    if len(missed):
        job = jobs[missed[0]]
        raise ValueError(
            f"job {job.id!r}: delivered {float(delivered[missed[0]])} kWh, requires {job.energy_kwh} kWh"
        )
    if not np.array_equal(aggregate(schedule), schedule.aggregate_kwh):
        raise ValueError("stored aggregate does not match its recomputation")
    if instance.caps_kwh is not None:
        excess = schedule.aggregate_kwh - instance.caps_kwh
        worst = int(np.argmax(excess))
        if excess[worst] > atol:
            raise ValueError(
                f"interval {worst}: aggregate {schedule.aggregate_kwh[worst]} kWh exceeds cap "
                f"{instance.caps_kwh[worst]} kWh"
            )


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check.

    Attributes:
        feasible: Whether some schedule satisfies all constraints.
        violating_jobs: When infeasible, a set of jobs whose combined
            demand exceeds the capacity available to them (a certifying
            cut); empty when feasible.
    """

    feasible: bool
    violating_jobs: frozenset[str] = field(default_factory=frozenset)


def check_feasible(instance: Instance) -> FeasibilityReport:
    """Decide whether the instance admits any valid schedule.

    Without aggregate caps every instance is feasible, because job
    construction already rejects windows too small for their energy.
    With caps the question is decided by the capped solver's saturation
    test, a max flow on the job/interval network's integer grid; an
    infeasible verdict comes with a set of jobs forming a violating cut.
    """
    if instance.caps_kwh is None:
        return FeasibilityReport(feasible=True)
    from . import flow  # deferred: flow depends on this module

    network, _, supply, rate, sink = flow.grid(instance)
    cut = flow.violating_jobs(network, network.capacities(supply, rate, sink))
    return FeasibilityReport(
        feasible=not len(cut), violating_jobs=frozenset(instance.jobs[k].id for k in cut)
    )
