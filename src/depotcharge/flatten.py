"""Profile flattening by recursive critical-group decomposition.

The flattening objective ``sum_i (s(i) + b(i))^2`` is minimized by a
water-filling profile: charging fills the lowest-total intervals until
groups of intervals sit at common levels.  The solver peels those groups
off one at a time, highest level first:

1. Parametric level search.  For a candidate level X every interval can
   absorb ``max(0, X - b(i))``; a max-flow probe on the job/interval
   network decides whether the remaining jobs fit under that ceiling.
   Probes run on an integer grid, and each infeasible probe exposes a
   violated cut whose exact requirement becomes the next candidate, so
   the search reaches the minimal feasible level in a few probes.
2. Critical group.  One grid step below the minimal level the probe is
   infeasible, and its source-reachable cut names the jobs and intervals
   that bind.  Their exact common level is recovered in floating point
   by water-filling the cut's own baseload valleys.
3. Peel and recurse.  Cut intervals are finalized.  Cut jobs saturate
   their rate into every remaining window interval (that spill becomes
   baseload for the rest), and the remainder is a smaller instance of
   the same problem with strictly fewer intervals.

Each peel round builds one :class:`~depotcharge.flow.JobIntervalNetwork`
over its remaining jobs and the intervals they reach, and every probe of
the round only rewrites the sink capacities on it.  A final max flow
against integer per-interval targets, on the network of the whole
instance, extracts one feasible allocation.  The aggregate profile is
unique even though the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError
from .flow import JobIntervalNetwork, _repair_delivery, _snap, max_flow, residual_reachable
from .model import BaseloadSeries, Instance, Schedule

#: Largest scaled magnitude handed to the 32-bit max-flow kernel.
_KERNEL_BUDGET = 2_000_000_000


@dataclass(frozen=True)
class FlattenProblem:
    """A flattening task: an instance plus the static baseload under it.

    Attributes:
        instance: Jobs and horizon.  Aggregate caps are rejected; the
            flattening recursion has no sound place to enforce them.
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
    the per-job split is one feasible decomposition among many.
    """
    instance = problem.instance
    jobs = instance.jobs
    if not jobs:
        return Schedule.build(instance, {})

    base_f = problem.baseload_kwh()
    rates = np.array([job.max_rate_kwh for job in jobs])
    energies = np.array([job.energy_kwh for job in jobs])
    scale = _pick_scale(instance, base_f, rates, energies)

    e_int = np.rint(energies * scale).astype(np.int64)
    l_int = np.rint(rates * scale).astype(np.int64)
    b_int = np.rint(base_f * scale).astype(np.int64)

    target_int = _peel_targets(instance, energies, rates, e_int, l_int, base_f, b_int, scale)
    allocations = _extract(instance, rates, e_int, scale, target_int, base_f)
    return Schedule.build(instance, allocations)


def _pick_scale(
    instance: Instance, base_f: np.ndarray, rates: np.ndarray, energies: np.ndarray
) -> int:
    # Probe levels never exceed the worst concurrent rate pile-up plus
    # baseload, and source arcs never exceed the largest job energy.
    concurrent = base_f.copy()
    for job, rate in zip(instance.jobs, rates):
        concurrent[job.arrival : job.departure] += rate
    top = max(float(concurrent.max()), float(energies.max()), 1.0)
    scale = 1
    while top * (scale * 10) <= _KERNEL_BUDGET:
        scale *= 10
    return scale


def _min_int_level(basins: np.ndarray, volume: int) -> int:
    """Smallest integer X with sum_i max(0, X - basins[i]) >= volume."""
    order = np.sort(basins)
    prefix = np.cumsum(order)
    count = len(order)
    ks = np.arange(1, count + 1, dtype=np.int64)
    candidates = -(-(volume + prefix) // ks)
    upper = np.empty(count, dtype=order.dtype)
    upper[:-1] = order[1:]
    upper[-1] = np.iinfo(np.int64).max
    valid = np.flatnonzero((candidates > order) & (candidates <= upper))
    if len(valid) == 0:
        raise SolverError("integer water fill found no level")
    return int(candidates[valid[0]])


def _float_water_fill(basins: np.ndarray, volume: float) -> tuple[float, int]:
    """Exact common level filling `volume` into the lowest basins.

    Returns (level, k): the k lowest basins sit strictly below level and
    absorb the whole volume.
    """
    order = np.sort(basins)
    prefix = np.cumsum(order)
    count = len(order)
    for k in range(1, count + 1):
        level = (volume + float(prefix[k - 1])) / k
        if level > order[k - 1] and (k == count or level <= order[k]):
            return level, k
    # Round-off can leave no exact segment when volume is vanishingly
    # small; fall back to spreading over every basin.
    return (volume + float(prefix[-1])) / count, count


def _apportion(raw: np.ndarray, total: int) -> np.ndarray:
    """Integer shares summing to `total`, tracking the float shares `raw`."""
    if total < 0:
        raise SolverError(f"cannot apportion a negative total of {total} grid units")
    raw = np.maximum(raw, 0.0)
    shares = np.floor(raw).astype(np.int64)
    fracs = raw - shares
    deficit = total - int(shares.sum())
    if deficit > 0:
        order = np.argsort(-fracs, kind="stable")
        pos = 0
        while deficit > 0:
            shares[order[pos % len(order)]] += 1
            deficit -= 1
            pos += 1
    elif deficit < 0:
        order = np.argsort(fracs, kind="stable")
        pos = 0
        while deficit < 0:
            idx = order[pos % len(order)]
            if shares[idx] > 0:
                shares[idx] -= 1
                deficit += 1
            pos += 1
    return shares


def _peel_targets(
    instance: Instance,
    energies: np.ndarray,
    rates: np.ndarray,
    e_int: np.ndarray,
    l_int: np.ndarray,
    base_f: np.ndarray,
    b_int: np.ndarray,
    scale: int,
) -> np.ndarray:
    """Per-interval integer charge targets realizing the water-fill optimum."""
    m = instance.interval_count
    arrivals = np.array([job.arrival for job in instance.jobs])
    departures = np.array([job.departure for job in instance.jobs])
    active_job = np.ones(len(instance.jobs), dtype=bool)
    open_interval = np.ones(m, dtype=bool)
    b_eff_f = base_f.copy()
    b_eff_i = b_int.copy()
    target_int = np.zeros(m, dtype=np.int64)

    while True:
        jobs_idx = np.flatnonzero(active_job & (e_int > 0))
        if len(jobs_idx) == 0:
            break
        volume = int(e_int[jobs_idx].sum())
        # A job's window is its open intervals.  Numbered among the open
        # intervals some remaining job reaches, every window is a range.
        cover = np.zeros(m + 1, dtype=np.int64)
        np.add.at(cover, arrivals[jobs_idx], 1)
        np.add.at(cover, departures[jobs_idx], -1)
        ints_idx = np.flatnonzero((np.cumsum(cover[:m]) > 0) & open_interval)
        starts = np.searchsorted(ints_idx, arrivals[jobs_idx])
        stops = np.searchsorted(ints_idx, departures[jobs_idx])
        network = JobIntervalNetwork(starts, stops, len(ints_idx))
        basins = b_eff_i[ints_idx]
        capacities = network.capacities(
            e_int[jobs_idx], l_int[jobs_idx], np.zeros(len(ints_idx), dtype=np.int64)
        )
        sink_arcs = network.sink_arcs()

        def probe(level: int) -> tuple[int, np.ndarray]:
            capacities[sink_arcs] = np.maximum(level - basins, 0)
            return max_flow(network, capacities)

        def cut(flows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Source-side jobs and intervals, and each job's window count outside."""
            reachable = residual_reachable(network, capacities, flows)
            cut_int = reachable[network.interval_nodes()]
            outside = np.bincount(
                network.arc_job[~cut_int[network.arc_interval]], minlength=len(jobs_idx)
            )
            return reachable[network.job_nodes()], cut_int, outside

        # Each violated cut states the exact level it needs; jumping there
        # reaches the minimal feasible level without a bisection ladder.
        # Per-job fills are necessary conditions too, so the search can
        # start at the tightest of those instead of the pooled volume.
        level = _min_int_level(basins, volume)
        for lo, hi, energy in zip(starts, stops, e_int[jobs_idx]):
            level = max(level, _min_int_level(basins[lo:hi], int(energy)))
        while True:
            value, flows = probe(level)
            if value == volume:
                break
            cut_job, cut_int, outside = cut(flows)
            cut_volume = int(
                e_int[jobs_idx][cut_job].sum() - (l_int[jobs_idx] * outside)[cut_job].sum()
            )
            nxt = _min_int_level(basins[cut_int], cut_volume)
            if nxt <= level:
                raise SolverError(f"parametric level search failed to advance past {level}")
            level = nxt

        # The critical group binds one grid step below the minimal level.
        value, flows = probe(level - 1)
        cut_job, cut_int, outside = cut(flows)
        cut_jobs = jobs_idx[cut_job]
        cut_ints = ints_idx[cut_int]
        outside_counts = outside[cut_job]
        group_volume_f = float(
            energies[cut_jobs].sum() - (rates[cut_jobs] * outside_counts).sum()
        )
        group_volume_i = int(
            e_int[cut_jobs].sum() - (l_int[cut_jobs] * outside_counts).sum()
        )
        group_volume_f = max(group_volume_f, group_volume_i / scale)
        lam, k_active = _float_water_fill(b_eff_f[cut_ints], group_volume_f)
        fill_order = cut_ints[np.argsort(b_eff_f[cut_ints], kind="stable")]
        group = fill_order[:k_active]
        target_int[group] += _apportion(lam * scale - b_eff_i[group], group_volume_i)

        # Cut jobs saturate every window interval left outside the cut;
        # that spill is immovable and becomes baseload for the remainder.
        # Arcs are job-major, so each interval takes its spills in job order.
        spill = cut_job[network.arc_job] & ~cut_int[network.arc_interval]
        spill_jobs = jobs_idx[network.arc_job[spill]]
        spill_ints = ints_idx[network.arc_interval[spill]]
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_f, spill_ints, rates[spill_jobs])

        active_job[cut_jobs] = False
        open_interval[cut_ints] = False
    return target_int


def _extract(
    instance: Instance,
    rates: np.ndarray,
    e_int: np.ndarray,
    scale: int,
    target_int: np.ndarray,
    base_f: np.ndarray,
) -> dict[str, np.ndarray]:
    """Decompose per-interval targets into one feasible allocation."""
    network = JobIntervalNetwork.from_instance(instance)
    capacities = network.capacities(e_int, _snap(rates * scale, np.ceil), target_int)
    total = int(e_int.sum())
    value, flows = max_flow(network, capacities)
    if value < total:
        # Integer rounding of the targets can pinch a corner; one unit of
        # headroom per interval restores an exact decomposition.
        capacities[network.sink_arcs()] += 1
        value, flows = max_flow(network, capacities)
        if value < total:
            raise InfeasibleError("could not decompose the flattened profile into allocations")

    windows = network.job_windows(flows / scale)
    allocations = {job.id: values for job, values in zip(instance.jobs, windows)}
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    _repair_delivery(instance, allocations, totals, totals)
    return allocations
