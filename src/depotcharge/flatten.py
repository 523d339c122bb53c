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

1. Relax.  Each block's volume is water-filled over its intervals, each
   capped at the summed rates of the block's jobs that reach it, and
   apportioned to integer shares that sum to the volume within the caps.
   Every schedule of the block satisfies those caps, so the capped fill
   is optimal for a relaxation of the block.
2. Route.  A max flow with the shares as sink capacities either routes
   the whole volume, and the block is done at its relaxation's optimum,
   or it does not, and its source-reachable cut is a threshold cut at
   the fill's level X: sink capacities min(cap, max(0, X - b(i))) cut as
   the unclipped ones do, since a sink arc clipped to the rates into its
   interval saturates only when its job arcs do.
3. Split.  Cut jobs saturate their rate into every window interval
   outside the cut; that spill becomes baseload for the rest, and both
   halves are blocks of the next level.  Any level gives an exact
   split, so each block takes one max flow per level.

The first level's blocks are the chains of overlapping windows: they
share no job, so the objective separates across them.  The blocks of a
level share no job and no interval, so one
:class:`~depotcharge.flow.JobIntervalNetwork` holds the whole level as
disjoint blocks: one max flow decides every block, and one residual
search reads every block's cut.  The capped fills run for every block
of a level at once, one row per block.  All of it runs on the
instance's integer grid (:func:`~depotcharge.flow.grid`).  The schedule
is read off the cuts as capped CO2 reads its flow
(:func:`~depotcharge.flow.read_cut`): the spills and the flows of the
blocks that route deliver every grid unit, which is checked job by job
and interval by interval.  The aggregate profile is unique even though
the per-job decomposition is not.
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
    the cuts' spills and the routed blocks leave.  Raises
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


def _capped_fill(basins, caps, rows, volumes, float_basins, float_volumes, scale) -> np.ndarray:
    """Per row, integer shares of its volume that water-fill its intervals
    up to their caps: min(cap, max(0, X - basin)) at one common level X.

    Which intervals reach their cap is decided on the grid, from the
    integer ``basins``, ``caps`` and ``volumes``, so capped shares never
    commit more than a volume.  The others take the rest, apportioned
    from the float water level of ``float_volumes`` (kWh) less the
    capped shares over ``float_basins``.  ``rows`` labels the intervals
    and does not decrease.
    """
    count, n = len(volumes), len(basins)
    room = np.bincount(rows, caps, count).astype(np.int64)
    if np.any(room < volumes):
        raise SolverError("capped water fill found no level")
    # Sweep each row's basins, where an interval starts to fill, and tops,
    # where it stops: between two events the fill rises by the level's
    # step times the count of filling intervals, and that count is 0
    # between rows, so the sweep reaches a row with the earlier rows' room.
    events = np.concatenate([basins, basins + caps])
    order = np.lexsort((events, np.tile(rows, 2)))
    filling = np.cumsum(np.where(order < n, 1, -1))
    fill = np.cumsum(np.concatenate([[0], filling[:-1] * np.diff(events[order])]))
    tops = order[order >= n] - n
    capped = np.zeros(n, dtype=bool)
    capped[tops] = fill[order >= n] <= (volumes + np.cumsum(room) - room)[rows[tops]]
    shares = np.where(capped, caps, 0)
    totals = volumes - np.bincount(rows, shares, count).astype(np.int64)
    free = np.flatnonzero(~capped)
    free = free[np.lexsort((float_basins[free], rows[free]))]
    kwh = np.maximum(float_volumes - (volumes - totals) / scale, totals / scale)
    level, k = _water_fill(float_basins[free], rows[free], kwh)
    # A row whose caps take its whole volume leaves its other intervals empty.
    raw = np.where(totals[rows[free]] > 0, level[rows[free]] * scale - basins[free], 0.0)
    while True:
        # The k lowest free intervals of a row share its remainder.
        at = rows[free]
        live = np.arange(len(free)) - np.searchsorted(at, np.arange(count))[at] < k[at]
        shares[free[live]] = _apportion(np.minimum(raw[live], caps[free[live]]), at[live], totals)
        over = shares[free] > caps[free]
        if not over.any():
            return shares
        # A share past its cap is cut back to it; the rest of its row,
        # with the next free interval in its place, share the remainder.
        shares[free[over]] = caps[free[over]]
        totals -= np.bincount(at[over], caps[free[over]], count).astype(np.int64)
        free, raw = free[~over], raw[~over]


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
    allocation = np.zeros(whole.arc_count, dtype=np.int64)
    # Each live job and interval carries its block's label.  The first
    # blocks are the chains of overlapping windows, which share no job:
    # a chain starts at i when no window [s, e) has s < i < e.
    held = np.bincount(whole.starts + 1, minlength=m + 1) - np.bincount(whole.stops, minlength=m + 1)
    int_block = np.cumsum(np.cumsum(held)[:m] == 0) - 1
    job_block = int_block[whole.starts]
    while True:
        remaining = e_int - l_int * spilled
        job_block[remaining <= 0] = -1
        if np.all(job_block < 0):
            return target_int, allocation
        # One network holds the level, so one max flow decides every block.
        network, jobs, ints, labels, job_start, job_pos, int_pos = block_level(
            whole.starts, whole.stops, job_block, int_block
        )
        count = len(labels)
        volume = np.add.reduceat(remaining[jobs], job_start)
        volume_f = row_sums(energies[jobs], job_pos, count) - row_sums(
            rates[jobs] * spilled[jobs], job_pos, count
        )
        capacities = network.capacities(remaining[jobs], l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        sink_arcs = network.sink_arcs()
        # Each block's sinks are its rate-capped water fill: a block that
        # routes it is done, and the cut of any other is the threshold cut
        # at the fill's level (module docstring, steps 1 and 2).
        capacities[sink_arcs] = _capped_fill(
            b_eff_i[ints], network.reach(capacities), int_pos, volume, b_eff_f[ints], volume_f, scale
        )
        result = max_flow(network, capacities)
        flows = network.arc_flows(result)
        done = np.add.reduceat(flows[: len(jobs)], job_start) == volume
        target_int[ints[done[int_pos]]] += capacities[sink_arcs][done[int_pos]]

        # The source side of a cut is each block's high part.  Its jobs'
        # spill into the window intervals left outside is immovable and
        # becomes baseload for the rest; it and the flows of the blocks
        # that route are final.
        cut_job, cut_int, spill_jobs, spill_ints = read_cut(
            whole, network, jobs, ints, residual_reachable(network, capacities, result), flows,
            done[job_pos], allocation,
        )
        if np.any(~done & (np.bincount(int_pos[~cut_int], minlength=count) == 0)):
            raise SolverError("the cut at a block's shares failed to advance")
        np.add.at(spilled, spill_jobs, 1)
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_f, spill_ints, rates[spill_jobs])
        # Each block's cut side and rest form the next level.
        job_block[jobs] = np.where(done[job_pos], -1, 2 * job_pos + cut_job)
        int_block[ints] = np.where(done[int_pos], -1, 2 * int_pos + cut_int)
        # Held while block_level builds the next level, they set the memory peak.
        del network, result
