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
   one grid step lower, with sink capacities ``max(0, X - 1 - b(i))``,
   therefore never routes, and its source-reachable cut names exactly
   the jobs and intervals whose level lies above X - 1.
2. Split.  Cut jobs saturate their rate into every window interval
   outside the cut; that spill becomes baseload for the rest, and both
   halves are blocks of the next level.  The rest is probed again.
3. Group.  The cut side's exact common level is recovered in floating
   point by water-filling its own baseload valleys.  When that level
   lies below X + 1 grid units, or the cut holds the whole block, the
   cut side is one group: its level is apportioned to integer shares,
   which must route on the group's own block at the next level.  A grid
   group can join true groups less than a grid step apart, and then the
   shares' cut splits it again.  Any other cut side is probed again.

The first level's blocks are the chains of overlapping windows: they
share no job, so the objective separates across them.  The blocks of a
level share no job and no interval, so one
:class:`~depotcharge.flow.JobIntervalNetwork` holds the whole level as
disjoint blocks: one max flow decides every probe and every group check,
and one residual search reads every block's cut.  The pooled levels,
water fills and apportioning run for every block of a level at once,
one row per block.  All of it runs on the instance's integer grid
(:func:`~depotcharge.flow.grid`).  The schedule is read off the cuts
as capped CO2 reads its flow (:func:`~depotcharge.flow.read_cut`): the
spills and the flows of the group checks that route deliver every grid
unit, which is checked job by job and interval by interval.  The
aggregate profile is unique even though the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .flow import (
    JobIntervalNetwork, block_level, grid, max_flow, read_cut, read_schedule, residual_reachable, row_sums,
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
    within = (arcs >= 0) & (arcs <= np.repeat(l_int, network.widths))
    missed = np.any(network.delivered(flows) != e_int) or np.any(network.reach(flows) != target_int)
    if missed or not within.all():
        raise SolverError("the allocation read off the cuts misses an energy, a target or a rate")
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    return read_schedule(instance, network, flows, scale, totals, totals)


def _table(values: np.ndarray, rows: np.ndarray, count: int, pad) -> np.ndarray:
    """One row per label holding its ``values`` in order, padded at the end
    with ``pad``; ``rows`` labels the values and does not decrease."""
    lengths = np.bincount(rows, minlength=count)
    table = np.full((count, lengths.max(initial=1)), pad, dtype=values.dtype)
    table[rows, np.arange(len(rows)) - (np.cumsum(lengths) - lengths)[rows]] = values
    return table


def _pooled_levels(basins: np.ndarray, rows: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Per row, the least integer X with sum max(0, X - basin) >= volume
    over the row's basins."""
    none = np.iinfo(np.int64).max
    table = np.sort(_table(basins, rows, len(volumes), none), axis=1)
    ks = np.arange(1, table.shape[1] + 1, dtype=np.int64)
    candidates = -(-(volumes[:, None] + np.cumsum(np.where(table < none, table, 0), axis=1)) // ks)
    upper = np.concatenate([table[:, 1:], np.full((len(volumes), 1), none)], axis=1)
    valid = (table < none) & (candidates > table) & (candidates <= upper)
    # With no basins at all, no candidate is valid either.
    if not valid.any(axis=1).all():
        raise SolverError("integer water fill found no level")
    return candidates[np.arange(len(volumes)), valid.argmax(axis=1)]


def _water_fill(basins: np.ndarray, rows: np.ndarray, volumes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the exact common level filling its volume into its lowest basins.

    ``basins`` ascend within each row.  Returns (level, k): the k lowest
    basins of a row sit strictly below its level and absorb its volume.
    """
    table = _table(basins, rows, len(volumes), np.inf)
    levels = (volumes[:, None] + np.cumsum(table, axis=1)) / np.arange(1, table.shape[1] + 1)
    upper = np.concatenate([table[:, 1:], np.full((len(volumes), 1), np.inf)], axis=1)
    fits = (levels > table) & (levels <= upper)
    # Round-off can leave no exact segment when a volume is vanishingly
    # small; such a row spreads over every basin.
    k = np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, np.bincount(rows, minlength=len(volumes)))
    return levels[np.arange(len(volumes)), np.maximum(k, 1) - 1], k


def _apportion(raw: np.ndarray, rows: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per row, integer shares summing to its total that track the float shares ``raw``.

    ``rows`` labels the shares and does not decrease.
    """
    if np.any(totals < 0):
        raise SolverError(f"cannot apportion a negative total of {totals[totals < 0][0]} grid units")
    raw = np.maximum(raw, 0.0)
    shares = np.floor(raw).astype(np.int64)
    fracs = raw - shares
    lengths = np.bincount(rows, minlength=len(totals))
    first = np.cumsum(lengths) - lengths
    deficit = totals.copy()
    np.subtract.at(deficit, rows, shares)
    # Units go round the largest fractions first, come back round the
    # smallest, one unit per share and pass.
    rounds, extra = np.divmod(np.maximum(deficit, 0), np.maximum(lengths, 1))
    rank = np.empty(len(raw), dtype=np.int64)
    rank[np.lexsort((-fracs, rows))] = np.arange(len(raw)) - first[rows]
    shares += rounds[rows] + (rank < extra[rows])
    for r in np.flatnonzero(deficit < 0):
        order = first[r] + np.argsort(fracs[first[r] : first[r] + lengths[r]], kind="stable")
        while deficit[r] < 0:
            down = order[shares[order] > 0][: -deficit[r]]
            shares[down] -= 1
            deficit[r] += len(down)
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
        checking = checks[labels]
        volume = np.add.reduceat(remaining[jobs], job_start)
        capacities = network.capacities(remaining[jobs], l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        sink_arcs = network.sink_arcs()
        # A probe sits one grid step below its block's pooled level X, the
        # least level whose valleys hold the block's volume with no windows
        # or rates, so it never routes and its cut splits off exactly the
        # jobs and intervals above X - 1.  A sink arc clipped to the rates
        # into its interval saturates only when its job arcs do, so flow
        # values and cuts are unchanged.
        level = _pooled_levels(b_eff_i[ints], int_pos, volume)
        below = np.clip(level[int_pos] - 1 - b_eff_i[ints], 0, network.reach(capacities))
        capacities[sink_arcs] = np.where(checking[int_pos], shares[ints], below)
        result = max_flow(network, capacities)
        flows = network.arc_flows(result)
        routes = np.add.reduceat(flows[: len(jobs)], job_start) == volume
        if np.any(routes & ~checking):
            raise SolverError(f"the probe one grid step below level {level[routes & ~checking][0]} routes")
        done = checking & routes
        target_int[ints[done[int_pos]]] += shares[ints[done[int_pos]]]

        # The source side of a cut is each block's high part.  Its jobs'
        # spill into the window intervals left outside is immovable and
        # becomes baseload for the rest; it and the flows of the groups
        # that route are final.
        cut_job, cut_int, spill_jobs, spill_ints = read_cut(
            whole, network, jobs, ints, residual_reachable(network, capacities, result), flows,
            done[job_pos], allocation,
        )
        entire = np.bincount(int_pos[~cut_int], minlength=len(labels)) == 0
        if np.any(checking & ~routes & entire):
            raise SolverError("the cut at a group's shares failed to advance")
        np.add.at(spilled, spill_jobs, 1)
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_f, spill_ints, rates[spill_jobs])

        # Each probe's cut side is water-filled on its own baseload valleys,
        # lowest first.  A cut side whose level lies below X + 1 grid units
        # is one group, as is one that holds its whole block; its integer
        # shares must route on the next level.  A grid group can join true
        # groups less than a grid step apart; its shares then do not route,
        # and their cut splits it.  Any other cut side is probed again.
        side_jobs = np.flatnonzero(cut_job & ~checking[job_pos])
        rows = job_pos[side_jobs]
        members = jobs[side_jobs]
        volume_i = np.zeros(len(labels), dtype=np.int64)
        np.add.at(volume_i, rows, e_int[members] - l_int[members] * spilled[members])
        volume_f = row_sums(energies[members], rows, len(labels)) - row_sums(
            rates[members] * spilled[members], rows, len(labels)
        )
        volume_f = np.maximum(volume_f, volume_i / scale)
        side = np.flatnonzero(cut_int & ~checking[int_pos])
        side = side[np.lexsort((b_eff_f[ints[side]], int_pos[side]))]
        rows = int_pos[side]
        lam, k_active = _water_fill(b_eff_f[ints[side]], rows, volume_f)
        grouped = ~checking & ((lam * scale < level + 1) | entire)
        first = np.searchsorted(rows, np.arange(len(labels)))
        in_group = grouped[rows] & (np.arange(len(side)) - first[rows] < k_active[rows])
        group = ints[side[in_group]]
        shares[ints[side]] = 0
        shares[group] = _apportion(lam[rows[in_group]] * scale - b_eff_i[group], rows[in_group], volume_i)
        # Each block's cut side and rest form the next level.
        job_block[jobs] = np.where(done[job_pos], -1, 2 * job_pos + cut_job)
        int_block[ints] = np.where(done[int_pos], -1, 2 * int_pos + cut_int)
        checks = np.repeat(grouped, 2) & np.tile([False, True], len(labels))
        # Held while block_level builds the next level, they set the memory peak.
        del network, result
