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
   capped at the summed rates of the block's jobs that reach it, on the
   integer grid: the fill rises to the highest integer level X that the
   volume covers, and the remainder, fewer units than there are
   intervals still filling at X, goes one unit each to those intervals,
   lowest basin first.  This is the integer fill over a polymatroid
   (Groenevelt, EJOR 1991).  Every schedule of the block satisfies those
   caps, so the capped fill is optimal for a relaxation of the block.
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
    JobIntervalNetwork, block_level, grid, max_flow, read_cut, read_schedule, residual_reachable,
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
        return Schedule.of(instance, [])

    base_f = problem.baseload_kwh()
    network, scale, e_int, l_int, _ = grid(instance, float(np.abs(base_f).sum()))
    target_int, flows = _peel_targets(network, e_int, l_int, base_f, scale)
    arcs = flows[network.job_arcs()]
    within = (arcs >= 0) & (arcs <= np.repeat(l_int, network.widths))
    missed = np.any(network.delivered(flows) != e_int) or np.any(network.reach(flows) != target_int)
    if missed or not within.all():
        raise SolverError("the allocation read off the cuts misses an energy, a target or a rate")
    # Residuals go to the lowest current totals first.
    totals = base_f.copy()
    return read_schedule(instance, network, flows, scale, totals, totals)


def _capped_fill(basins, caps, rows, volumes) -> np.ndarray:
    """Per row, integer shares of its volume that water-fill its intervals
    up to their caps, with the least sum of (basin + share)^2.

    A row's level X is the highest integer whose fill
    F(X) = sum min(cap, max(0, X - basin)) holds the volume, and each
    interval takes min(cap, max(0, X - basin)).  The rest of the volume
    is less than the count of intervals still filling at X; they take
    one unit each, lowest basin first.  ``rows`` labels the intervals
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
    events = events[order]
    filling = np.cumsum(np.where(order < n, 1, -1))
    fill = np.cumsum(np.diff(events, prepend=events[:1]) * np.concatenate([[0], filling[:-1]]))
    # Each row's level lies past the last of its events whose fill holds
    # the volume, by whole steps of the intervals filling there (none
    # fill past a row's last top, which only a full room reaches).
    held = volumes + np.cumsum(room) - room
    ends = 2 * np.cumsum(np.bincount(rows, minlength=count))
    at = (np.minimum(np.searchsorted(fill, held, "right"), ends) - 1)[rows]
    steps, rest = np.divmod(held[rows] - fill[at], np.maximum(filling[at], 1))
    level = events[at] + steps
    shares = np.clip(level - basins, 0, caps)
    # The intervals still filling at X take the rest in order of basin,
    # ranked within their row.
    up = np.flatnonzero((basins <= level) & (level < basins + caps))
    up = up[np.lexsort((basins[up], rows[up]))]
    shares[up[np.arange(len(up)) - np.searchsorted(rows[up], rows[up]) < rest[up]]] += 1
    return shares


def _peel_targets(
    whole: JobIntervalNetwork,
    e_int: np.ndarray,
    l_int: np.ndarray,
    base_f: np.ndarray,
    scale: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval integer charge targets realizing the water-fill optimum
    on ``whole``, and a flow per arc of ``whole`` that delivers them."""
    m = whole.interval_count
    spilled = np.zeros(whole.job_count, dtype=np.int64)
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
        network, jobs, ints, _, job_start, job_pos, int_pos = block_level(
            whole.starts, whole.stops, job_block, int_block
        )
        volume = np.add.reduceat(remaining[jobs], job_start)
        capacities = network.capacities(remaining[jobs], l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        sink_arcs = network.sink_arcs()
        # Each block's sinks are its rate-capped water fill: a block that
        # routes it is done, and the cut of any other is the threshold cut
        # at the fill's level (module docstring, steps 1 and 2).
        capacities[sink_arcs] = _capped_fill(b_eff_i[ints], network.reach(capacities), int_pos, volume)
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
        if np.any(~done & (np.bincount(int_pos[~cut_int], minlength=len(volume)) == 0)):
            raise SolverError("the cut at a block's shares failed to advance")
        np.add.at(spilled, spill_jobs, 1)
        np.add.at(target_int, spill_ints, l_int[spill_jobs])
        np.add.at(b_eff_i, spill_ints, l_int[spill_jobs])
        # Each block's cut side and rest form the next level.
        job_block[jobs] = np.where(done[job_pos], -1, 2 * job_pos + cut_job)
        int_block[ints] = np.where(done[int_pos], -1, 2 * int_pos + cut_int)
        # Held while block_level builds the next level, they set the memory peak.
        del network, result
