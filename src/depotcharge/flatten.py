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
3. Split.  The cut's spill becomes baseload for the rest, and both
   halves are blocks of the next level
   (:func:`~depotcharge.flow.decompose`).  Any level gives an exact
   split, so each block takes one max flow per level.

The first level's blocks are the chains of overlapping windows: they
share no job, so the objective separates across them.  These steps are
flattening's sink rule in :func:`~depotcharge.flow.decompose`, the
level loop capped CO2 shares, on the instance's integer grid
(:func:`~depotcharge.flow.grid`); the capped fills of a level run for
every block at once, one row per block.  The spills and the flows of the
blocks that route deliver every grid unit, which is checked job by job
and interval by interval.  The aggregate profile is unique even though
the per-job decomposition is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .flow import JobIntervalNetwork, decompose, grid, max_flow, read_schedule, residual_reachable
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
    b_int = np.rint(base_f * scale).astype(np.int64)
    routed = np.zeros(m, dtype=np.int64)

    def route(level, jobs, ints, labels, job_pos, int_pos, remaining, load, volume):
        # Each block's sinks are its rate-capped water fill over the
        # baseload and the spills so far: a block that routes it is done,
        # and the cut of any other is the threshold cut at the fill's level
        # (module docstring, steps 1 and 2).
        capacities = level.capacities(remaining[jobs], l_int[jobs], np.zeros(len(ints), dtype=np.int64))
        shares = _capped_fill(b_int[ints] + load[ints], level.reach(capacities), int_pos, volume)
        capacities[level.sink_arcs()] = shares
        result = max_flow(level, capacities)
        level_flows = level.arc_flows(result)
        done = np.bincount(job_pos, level_flows[: len(jobs)], len(labels)) == volume
        routed[ints[done[int_pos]]] = shares[done[int_pos]]
        reachable = residual_reachable(level, capacities, result)
        outside = np.bincount(int_pos[~reachable[level.interval_nodes()]], minlength=len(labels))
        if np.any(~done & (outside == 0)):
            raise SolverError("the cut at a block's shares failed to advance")
        return reachable, level_flows, done, True

    # Each live job and interval carries its block's label.  The first
    # blocks are the chains of overlapping windows, which share no job:
    # a chain starts at i when no window [s, e) has s < i < e.
    held = np.bincount(whole.starts + 1, minlength=m + 1) - np.bincount(whole.stops, minlength=m + 1)
    int_block = np.cumsum(np.cumsum(held)[:m] == 0) - 1
    flows, load = decompose(whole, e_int, l_int, int_block[whole.starts], int_block, route)
    return routed + load, flows
