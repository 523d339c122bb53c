"""Profile flattening by divide and conquer over max-flow cuts.

The flattening objective ``sum_i (s(i) + b(i))^2`` is minimized by a
water-filling profile: charging fills the lowest-total intervals until
groups of intervals sit at common levels.  This is the decomposition
algorithm for separable convex costs over a polymatroid base (Fujishige,
Math. OR 1980), driven by the threshold property of parametric min cuts
(Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989): the binding cut at
a level X separates the intervals whose optimal level lies above X from
the rest.  The solver keeps a stack of subproblems, each a set of jobs
with their remaining energy and the intervals they reach:

1. Probe.  On an integer grid, X is the pooled level that fills the
   subproblem's volume into its baseload valleys, ignoring windows and
   rates, so no schedule's top level lies below it.  A max-flow probe
   with sink capacities ``max(0, X - b(i))`` decides whether the jobs fit.
2. Split.  If they do not, the probe's source-reachable cut names the
   jobs and intervals above X.  Cut jobs saturate their rate into every
   window interval outside the cut; that spill becomes baseload for the
   rest, and both halves go back on the stack.
3. Finalize.  If they fit, a probe one grid step lower cuts off the top
   group.  Its exact common level is recovered in floating point by
   water-filling the group's own baseload valleys and apportioned to
   integer shares, which must route on the group's own network: a grid
   group can join true groups less than a grid step apart, and then the
   shares' cut splits it again.  The rest goes back on the stack.

Each subproblem builds one :class:`~depotcharge.flow.JobIntervalNetwork`
and every probe only rewrites its sink capacities.  A final max flow
against the integer per-interval targets, on the network of the whole
instance, extracts one feasible allocation.  The aggregate profile is
unique even though the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .flow import JobIntervalNetwork, _repair_delivery, _snap, max_flow, residual_reachable
from .model import BaseloadSeries, Instance, Schedule

#: Largest scaled magnitude handed to the 32-bit max-flow kernel.
_KERNEL_BUDGET = 2_000_000_000

#: Largest scaled sum of levels over the horizon, well inside int64.
_LEVEL_SUM_BUDGET = 2**62


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
    # Sink capacities never exceed the worst concurrent rate pile-up (each
    # probe clips them to it), and source arcs never exceed the largest job
    # energy.  The baseload only shifts the levels, which never reach the
    # kernel; the level search sums them over the horizon in int64.
    concurrent = np.zeros(instance.interval_count)
    for job, rate in zip(instance.jobs, rates):
        concurrent[job.arrival : job.departure] += rate
    top = max(float(concurrent.max()), float(energies.max()), 1.0)
    bed = float(np.abs(base_f).sum() + concurrent.sum())
    scale = 1
    while top * (scale * 10) <= _KERNEL_BUDGET and bed * (scale * 10) <= _LEVEL_SUM_BUDGET:
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
    spilled = np.zeros(len(instance.jobs), dtype=np.int64)
    b_eff_f = base_f.copy()
    b_eff_i = b_int.copy()
    target_int = np.zeros(m, dtype=np.int64)

    def split(jobs, ints, network, capacities, flows):
        """(high, low) parts at the residual cut of a short flow.

        The source side is the high part.  Its jobs saturate their rate
        into every window interval left outside; that spill is immovable
        and becomes baseload for the low part.
        """
        reachable = residual_reachable(network, capacities, flows)
        cut_job = reachable[network.job_nodes()]
        cut_int = reachable[network.interval_nodes()]
        # Arcs are job-major, so each interval takes its spills in job order.
        spill = cut_job[network.arc_job] & ~cut_int[network.arc_interval]
        spill_jobs = jobs[network.arc_job[spill]]
        spill_ints = ints[network.arc_interval[spill]]
        np.add.at(spilled, spill_jobs, 1)
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_f, spill_ints, rates[spill_jobs])
        return (jobs[cut_job], ints[cut_int], None), (jobs[~cut_job], ints[~cut_int], None)

    # Each entry is (jobs, intervals, shares): a subproblem to probe, or,
    # with integer shares per interval, a group to check.
    stack = [(np.arange(len(instance.jobs)), np.arange(m), None)]
    while stack:
        jobs, ints, shares = stack.pop()
        remaining = e_int[jobs] - l_int[jobs] * spilled[jobs]
        jobs, remaining = jobs[remaining > 0], remaining[remaining > 0]
        if len(jobs) == 0:
            continue
        # Numbered among the intervals its jobs reach, every window is a range.
        cover = np.zeros(m + 1, dtype=np.int64)
        np.add.at(cover, arrivals[jobs], 1)
        np.add.at(cover, departures[jobs], -1)
        ints = ints[(np.cumsum(cover[:m]) > 0)[ints]]
        starts = np.searchsorted(ints, arrivals[jobs])
        network = JobIntervalNetwork(starts, np.searchsorted(ints, departures[jobs]), len(ints))
        capacities = network.capacities(remaining, l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        sink_arcs = network.sink_arcs()
        volume = int(remaining.sum())
        reach = network.reach(capacities)

        def ceiling(level: int) -> np.ndarray:
            # A sink arc clipped to the rates into its interval saturates
            # only when its job arcs do, so flow values and cuts are unchanged.
            return np.minimum(np.maximum(level - b_eff_i[ints], 0), reach)

        # The pooled level ignores windows and rates, so no schedule's top
        # level lies below it, and a cut there splits off all above it.  A
        # grid group can join true groups less than a grid step apart; its
        # shares then do not route, and their cut splits it the same way.
        if shares is None:
            level = _min_int_level(b_eff_i[ints], volume)
        capacities[sink_arcs] = ceiling(level) if shares is None else shares[ints]
        value, flows = max_flow(network, capacities)
        if value < volume:
            high, low = split(jobs, ints, network, capacities, flows)
            if len(low[1]) == 0:
                what = f"level {level}" if shares is None else "a group's shares"
                raise SolverError(f"the cut at {what} failed to advance")
            stack += [low, high]
            continue
        if shares is not None:
            target_int[ints] += shares[ints]
            continue

        # The pooled level routes, so the top group binds one grid step below.
        capacities[sink_arcs] = ceiling(level - 1)
        value, flows = max_flow(network, capacities)
        if value == volume:
            raise SolverError(f"level {level} still routes one grid step below")
        (cut_jobs, cut_ints, _), low = split(jobs, ints, network, capacities, flows)
        stack.append(low)
        outside = spilled[cut_jobs]
        group_volume_f = float(energies[cut_jobs].sum() - (rates[cut_jobs] * outside).sum())
        group_volume_i = int(e_int[cut_jobs].sum() - (l_int[cut_jobs] * outside).sum())
        group_volume_f = max(group_volume_f, group_volume_i / scale)
        lam, k_active = _float_water_fill(b_eff_f[cut_ints], group_volume_f)
        group = cut_ints[np.argsort(b_eff_f[cut_ints], kind="stable")][:k_active]
        shares = np.zeros(m, dtype=np.int64)
        shares[group] = _apportion(lam * scale - b_eff_i[group], group_volume_i)
        stack.append((cut_jobs, cut_ints, shares))
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
        raise SolverError(f"the flattened targets route {value} of {total} grid units")

    windows = network.job_windows(flows / scale)
    allocations = {job.id: values for job, values in zip(instance.jobs, windows)}
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    _repair_delivery(instance, allocations, totals, totals)
    return allocations
