"""Profile flattening by divide and conquer over max-flow cuts.

The flattening objective ``sum_i (s(i) + b(i))^2`` is minimized by a
water-filling profile: charging fills the lowest-total intervals until
groups of intervals sit at common levels.  This is the decomposition
algorithm for separable convex costs over a polymatroid base (Fujishige,
Math. OR 1980), driven by the threshold property of parametric min cuts
(Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989): the binding cut at
a level X separates the intervals whose optimal level lies above X from
the rest.  Subproblems are blocks, each a set of jobs with their
remaining energy and the intervals they reach, and a level of the
divide and conquer holds every block alive:

1. Probe.  On an integer grid, X is the pooled level that fills the
   block's volume into its baseload valleys, ignoring windows and
   rates, so no schedule's top level lies below it.  A max-flow probe
   with sink capacities ``max(0, X - b(i))`` decides whether the jobs fit.
2. Split.  If they do not, the probe's source-reachable cut names the
   jobs and intervals above X.  Cut jobs saturate their rate into every
   window interval outside the cut; that spill becomes baseload for the
   rest, and both halves are blocks of the next level.
3. Finalize.  If they fit, a probe one grid step lower cuts off the top
   group.  Its exact common level is recovered in floating point by
   water-filling the group's own baseload valleys and apportioned to
   integer shares, which must route on the group's own block: a grid
   group can join true groups less than a grid step apart, and then the
   shares' cut splits it again.

The first level's blocks are the chains of overlapping windows: they
share no job, so the objective separates across them.  The blocks of a
level share no job and no interval, so one
:class:`~depotcharge.flow.JobIntervalNetwork` holds the whole level as
disjoint blocks: one max flow decides every probe and every group check,
a second one takes the probes one step lower, and one residual search
reads every block's cut.  All of it runs on the instance's integer grid
(:func:`~depotcharge.flow.grid`), and the schedule is read off the
decomposition itself: the spills of the cuts and the flows of the group
checks that route deliver every grid unit, which is checked job by job
and interval by interval.  The aggregate profile is unique even though
the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .flow import (
    JobIntervalNetwork, _repair_delivery, block_level, grid, max_flow, residual_reachable,
)
from .model import BaseloadSeries, Instance, Schedule


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
    the per-job split is one feasible decomposition among many, the one
    the cuts' spills and the routed group checks leave.  Raises
    SolverError when that split misses a job's energy, an interval's
    target or a rate bound.
    """
    instance = problem.instance
    jobs = instance.jobs
    if not jobs:
        return Schedule.build(instance, {})

    base_f = problem.baseload_kwh()
    rates = np.array([job.max_rate_kwh for job in jobs])
    energies = np.array([job.energy_kwh for job in jobs])
    network, scale, e_int, l_int, _ = grid(instance, float(np.abs(base_f).sum()))
    target_int, flows = _peel_targets(network, energies, rates, e_int, l_int, base_f, scale)
    arcs = flows[network.job_arcs()]
    delivered = np.add.reduceat(arcs, np.cumsum(network.widths) - network.widths)
    within = (arcs >= 0) & (arcs <= np.repeat(l_int, network.widths))
    if np.any(delivered != e_int) or np.any(network.reach(flows) != target_int) or not within.all():
        raise SolverError("the allocation read off the cuts misses an energy, a target or a rate")
    windows = network.job_windows(flows / scale)
    allocations = {job.id: values for job, values in zip(jobs, windows)}
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    _repair_delivery(instance, allocations, totals, totals)
    return Schedule.build(instance, allocations)


def _min_int_level(basins: np.ndarray, volume: int) -> int:
    """Smallest integer X with sum_i max(0, X - basins[i]) >= volume."""
    order = np.sort(basins)
    ks = np.arange(1, len(order) + 1, dtype=np.int64)
    candidates = -(-(volume + np.cumsum(order)) // ks)
    # With no basins at all, no candidate is valid either.
    upper = np.append(order[1:], np.iinfo(np.int64).max)
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
    levels = (volume + np.cumsum(order)) / np.arange(1, len(order) + 1)
    fits = np.flatnonzero((levels > order) & (levels <= np.append(order[1:], np.inf)))
    # Round-off can leave no exact segment when volume is vanishingly
    # small; fall back to spreading over every basin.
    k = int(fits[0]) + 1 if len(fits) else len(order)
    return float(levels[k - 1]), k


def _apportion(raw: np.ndarray, total: int) -> np.ndarray:
    """Integer shares summing to `total`, tracking the float shares `raw`."""
    if total < 0:
        raise SolverError(f"cannot apportion a negative total of {total} grid units")
    raw = np.maximum(raw, 0.0)
    shares = np.floor(raw).astype(np.int64)
    fracs = raw - shares
    deficit = total - int(shares.sum())
    # Units go round the largest fractions first, come back round the
    # smallest, one unit per share and pass.
    if deficit > 0:
        rounds, extra = divmod(deficit, len(raw))
        shares += rounds
        shares[np.argsort(-fracs, kind="stable")[:extra]] += 1
    order = np.argsort(fracs, kind="stable")
    while deficit < 0:
        down = order[shares[order] > 0][:-deficit]
        shares[down] -= 1
        deficit += len(down)
    return shares


def _peel_targets(
    whole: JobIntervalNetwork,
    energies: np.ndarray,
    rates: np.ndarray,
    e_int: np.ndarray,
    l_int: np.ndarray,
    base_f: np.ndarray,
    scale: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval integer charge targets realizing the water-fill optimum
    on ``whole``, and a flow per arc of ``whole`` that delivers them."""
    m = whole.interval_count
    spilled = np.zeros(whole.job_count, dtype=np.int64)
    b_eff_f = base_f.copy()
    b_eff_i = np.rint(base_f * scale).astype(np.int64)
    target_int = np.zeros(m, dtype=np.int64)
    shares = np.zeros(m, dtype=np.int64)
    allocation = np.zeros(whole.arc_count, dtype=np.int64)
    # The arc of job k into interval i is whole_first[k] + i.
    whole_first = whole.job_count + np.cumsum(whole.widths) - whole.widths - whole.starts
    # Each live job and interval carries its block's label; checks[label]
    # marks a group whose shares must route, the rest probe a level.  The
    # first blocks are the chains of overlapping windows, which share no
    # job: a chain starts at i when no window [s, e) has s < i < e.
    held = np.bincount(whole.starts + 1, minlength=m + 1) - np.bincount(whole.stops, minlength=m + 1)
    int_block = np.cumsum(np.cumsum(held)[:m] == 0) - 1
    job_block = int_block[whole.starts]
    checks = np.zeros(int_block[-1] + 1, dtype=bool)
    while True:
        remaining = e_int - l_int * spilled
        job_block[remaining <= 0] = -1
        if np.all(job_block < 0):
            return target_int, allocation
        # One network holds the level, so one max flow decides every block.
        network, jobs, ints, labels, job_start, job_pos, int_pos = block_level(
            whole.starts, whole.stops, job_block, int_block
        )
        # Blocks are contiguous runs of the level's jobs and intervals.
        job_bounds = np.append(job_start, len(jobs))
        int_bounds = np.searchsorted(int_pos, np.arange(len(labels) + 1))
        checking = checks[labels]
        volume = np.add.reduceat(remaining[jobs], job_start)
        capacities = network.capacities(remaining[jobs], l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        sink_arcs = network.sink_arcs()
        reach = network.reach(capacities)

        def ceiling(level: np.ndarray) -> np.ndarray:
            # A sink arc clipped to the rates into its interval saturates
            # only when its job arcs do, so flow values and cuts are unchanged.
            return np.minimum(np.maximum(level[int_pos] - b_eff_i[ints], 0), reach)

        # The pooled level ignores windows and rates, so no schedule's top
        # level lies below it, and a cut there splits off all above it.  A
        # grid group can join true groups less than a grid step apart; its
        # shares then do not route, and their cut splits it the same way.
        level = np.zeros(len(labels), dtype=np.int64)
        for b in np.flatnonzero(~checking):
            level[b] = _min_int_level(b_eff_i[ints[int_bounds[b] : int_bounds[b + 1]]], volume[b])
        capacities[sink_arcs] = np.where(checking[int_pos], shares[ints], ceiling(level))
        _, flows = max_flow(network, capacities)
        short = np.add.reduceat(flows[: len(jobs)], job_start) < volume
        done = checking & ~short
        target_int[ints[done[int_pos]]] += shares[ints[done[int_pos]]]
        # A pooled level that routes binds its top group one grid step
        # below.  The other blocks sit that max flow out with no capacity
        # and keep their first flow, so one residual search reads every cut.
        top = ~checking & ~short
        if top.any():
            on_top = top[np.concatenate([job_pos, job_pos[network.arc_job], int_pos])]
            capacities[sink_arcs] = np.where(top[int_pos], ceiling(level - 1), capacities[sink_arcs])
            _, lower = max_flow(network, np.where(on_top, capacities, 0))
            routes = top & (np.add.reduceat(lower[: len(jobs)], job_start) == volume)
            if routes.any():
                raise SolverError(f"level {level[routes][0]} still routes one grid step below")
            flows = np.where(on_top, lower, flows)

        # The source side of a cut is each block's high part.  Its jobs
        # saturate their rate into every window interval left outside;
        # that spill is immovable and becomes baseload for the rest.
        reachable = residual_reachable(network, capacities, flows)
        cut_job, cut_int = reachable[network.job_nodes()], reachable[network.interval_nodes()]
        stalled = np.flatnonzero(short & (np.bincount(int_pos[~cut_int], minlength=len(labels)) == 0))
        if len(stalled):
            what = "a group's shares" if checking[stalled[0]] else f"level {level[stalled[0]]}"
            raise SolverError(f"the cut at {what} failed to advance")
        # Arcs are job-major, so each interval takes its spills in job order.
        spill = cut_job[network.arc_job] & ~cut_int[network.arc_interval]
        spill_jobs = jobs[network.arc_job[spill]]
        spill_ints = ints[network.arc_interval[spill]]
        np.add.at(spilled, spill_jobs, 1)
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_f, spill_ints, rates[spill_jobs])
        # The spills and the flows of the groups that route are final.
        taken = np.flatnonzero(spill | done[job_pos[network.arc_job]])
        whole_arc = whole_first[jobs[network.arc_job[taken]]] + ints[network.arc_interval[taken]]
        allocation[whole_arc] = flows[network.job_count + taken]

        for b in np.flatnonzero(top):
            in_b, on_b = slice(*job_bounds[b : b + 2]), slice(*int_bounds[b : b + 2])
            cut_jobs = jobs[in_b][cut_job[in_b]]
            cut_ints = ints[on_b][cut_int[on_b]]
            outside = spilled[cut_jobs]
            group_volume_f = float(energies[cut_jobs].sum() - (rates[cut_jobs] * outside).sum())
            group_volume_i = int(e_int[cut_jobs].sum() - (l_int[cut_jobs] * outside).sum())
            group_volume_f = max(group_volume_f, group_volume_i / scale)
            lam, k_active = _float_water_fill(b_eff_f[cut_ints], group_volume_f)
            group = cut_ints[np.argsort(b_eff_f[cut_ints], kind="stable")][:k_active]
            shares[cut_ints] = 0
            shares[group] = _apportion(lam * scale - b_eff_i[group], group_volume_i)
        # Each block's cut side and rest form the next level; a top block's cut side is its group.
        job_block[jobs] = np.where(done[job_pos], -1, 2 * job_pos + cut_job)
        int_block[ints] = np.where(done[int_pos], -1, 2 * int_pos + cut_int)
        checks = np.repeat(top, 2) & np.tile([False, True], len(labels))
        # Held while block_level builds the next level, they set the memory peak.
        del network, whole_arc, taken, spill
