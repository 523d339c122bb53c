"""The job/interval flow network and minimum-emission scheduling.

Every scheduler in this package works on one network: a source, one node
per job, one node per interval and a sink.  The source feeds each job
its energy need, each job feeds the intervals of its availability window
at the per-interval rate bound, and each interval drains into the sink.
:class:`JobIntervalNetwork` fixes that numbering and the arc order and
builds the max-flow matrix once; the solvers differ only in the integer
capacities they put on its arcs.  :func:`max_flow` is the "how much fits"
oracle, and :func:`residual_reachable` reads the binding cut off a flow.

Minimum-emission scheduling is a minimum-cost flow on that network, with
each sink arc capped by the aggregate cap (or an amount that never
binds, when the instance has no caps) and paying the interval's emission
factor per unit.  The loads the intervals can take form a polymatroid
whose rank is a max flow, so capped instances are solved by Edmonds'
greedy over max-flow ranks (m + 1 max flows), and every such solve is
checked by the optimality certificate (:func:`verify_optimality`);
without caps the problem separates per job and is filled greedily.

Quantities are scaled to integers before solving: energies at watt-hour
resolution, emission factors at 1e-6 kg/kWh resolution.  The solver is
exact for inputs on those grids, which covers everything this package
generates or loads; off-grid inputs are repaired back to exact delivery
after extraction, a sub-watt-hour adjustment covered by the validator
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InfeasibleError, ScalingOverflowError, SolverError
from .model import FeasibilityReport, Instance, Schedule

#: Largest scaled magnitude representable exactly on the float path.
_INT_LIMIT = 2**53

#: Hard ceiling for single capacities handed to the int32 max-flow kernel.
_INT32_LIMIT = 2**31 - 1


@dataclass(frozen=True)
class EmissionSeries:
    """Per-interval emission factors in kg CO2 per kWh.

    Attributes:
        kg_per_kwh: Array with one non-negative factor per interval.
    """

    kg_per_kwh: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.kg_per_kwh, dtype=float).copy()
        if values.ndim != 1:
            raise ValueError("emission factors must be one-dimensional")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("emission factors must be finite and non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "kg_per_kwh", values)

    def __len__(self) -> int:
        return len(self.kg_per_kwh)


#: Integer units per kWh: energies and rates at watt-hour resolution.
_ENERGY_SCALE = 1000

#: Integer units per kg/kWh for emission factors.
_COST_SCALE = 1_000_000


def _scaled(values, factor: int, what: str, labels) -> np.ndarray:
    """``values * factor`` as floats, refusing magnitudes past exact float range."""
    scaled = np.asarray(values, dtype=float) * factor
    over = np.flatnonzero(scaled > _INT_LIMIT)
    if len(over):
        k = int(over[0])
        raise ScalingOverflowError(
            f"{what} {labels[k]!r} ({values[k]}) exceeds the exactly representable range "
            f"at scale {factor}"
        )
    return scaled


def _snap(values: np.ndarray, rounding) -> np.ndarray:
    """Nearest integers for values within float noise of one, else ``rounding``."""
    nearest = np.rint(values)
    on_grid = np.abs(values - nearest) <= 1e-6 * np.maximum(1.0, np.abs(values))
    return np.where(on_grid, nearest, rounding(values)).astype(np.int64)


def _scaled_caps(instance: Instance, factor: int) -> np.ndarray:
    # Caps snap to the grid when they sit on it up to float noise and are
    # floored otherwise, so the scaled problem never allocates above the
    # true cap by more than noise.
    caps = instance.caps_kwh
    return _snap(_scaled(caps, factor, "cap at interval", range(len(caps))), np.floor)


class JobIntervalNetwork:
    """Source -> jobs -> intervals -> sink, built once and probed many times.

    Nodes are numbered source = 0, job k = 1 + k, interval i = 1 + n + i,
    sink = 1 + n + m.  Job k reaches the intervals ``starts[k]`` up to
    ``stops[k] - 1``.  Arcs are stored in CSR order (rows in order,
    columns sorted within each row), which is also three contiguous
    blocks: source arcs (one per job), job arcs (one per job/window
    interval pair, job-major) and sink arcs (one per interval).
    Capacities and flows are arrays in that arc order.

    Attributes:
        job_count, interval_count: n and m.
        widths: Number of window intervals per job.
        arc_job, arc_interval: Job and interval of each job arc.
        tails, heads: Node endpoints of every arc.
    """

    def __init__(self, starts, stops, interval_count: int) -> None:
        starts = np.asarray(starts, dtype=np.int64)
        widths = np.asarray(stops, dtype=np.int64) - starts
        n, m, w = len(starts), interval_count, int(widths.sum())
        self.job_count = n
        self.interval_count = m
        self.widths = widths
        self.arc_job = np.repeat(np.arange(n), widths)
        self.arc_interval = np.arange(w) + np.repeat(starts - (np.cumsum(widths) - widths), widths)
        nodes = self.node_count
        self.tails = np.concatenate(
            [np.zeros(n, dtype=np.int64), 1 + self.arc_job, 1 + n + np.arange(m)]
        ).astype(np.int32)
        self.heads = np.concatenate(
            [1 + np.arange(n), 1 + n + self.arc_interval, np.full(m, self.sink)]
        ).astype(np.int32)
        row_lengths = np.bincount(self.tails, minlength=nodes)
        self._graph = csr_matrix(
            (np.zeros(self.arc_count, dtype=np.int32), self.heads,
             np.concatenate([[0], np.cumsum(row_lengths)]).astype(np.int32)),
            shape=(nodes, nodes),
        )

        # The kernel pairs every arc with a reverse arc and reports flows on
        # that merged pattern, sorted by row and then column.  Row 0 holds
        # the source arcs; job k's row its reverse source arc, then its
        # window; interval i's row the reverse arcs of the jobs reaching i,
        # then its sink arc; the sink row the reverse sink arcs.
        offsets = np.cumsum(widths) - widths
        per_interval = np.cumsum(np.bincount(self.arc_interval, minlength=m))
        by_interval = np.argsort(self.arc_interval, kind="stable")
        reverse_job = np.empty(w, dtype=np.int64)
        reverse_job[by_interval] = 2 * n + w + np.arange(w) + self.arc_interval[by_interval]
        self._forward = np.concatenate([
            np.arange(n), n + 1 + self.arc_job + np.arange(w), 2 * n + w + per_interval + np.arange(m)
        ])
        self._reverse = np.concatenate([
            n + np.arange(n) + offsets, reverse_job, 2 * n + 2 * w + m + np.arange(m)
        ])
        self._merged_indices = np.empty(2 * self.arc_count, dtype=np.int32)
        self._merged_indices[self._forward] = self.heads
        self._merged_indices[self._reverse] = self.tails
        self._merged_indptr = np.concatenate(
            [[0], np.cumsum(row_lengths + np.bincount(self.heads, minlength=nodes))]
        )

    @classmethod
    def from_instance(cls, instance: Instance) -> "JobIntervalNetwork":
        """The network of every job and interval of an instance."""
        return cls(
            [job.arrival for job in instance.jobs],
            [job.departure for job in instance.jobs],
            instance.interval_count,
        )

    @property
    def node_count(self) -> int:
        return 2 + self.job_count + self.interval_count

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1 + self.job_count + self.interval_count

    @property
    def arc_count(self) -> int:
        return self.job_count + len(self.arc_job) + self.interval_count

    def source_arcs(self) -> slice:
        return slice(0, self.job_count)

    def job_arcs(self) -> slice:
        return slice(self.job_count, self.job_count + len(self.arc_job))

    def sink_arcs(self) -> slice:
        first = self.job_count + len(self.arc_job)
        return slice(first, first + self.interval_count)

    def job_nodes(self) -> slice:
        return slice(1, 1 + self.job_count)

    def interval_nodes(self) -> slice:
        return slice(1 + self.job_count, self.sink)

    def capacities(self, supply, rate, sink) -> np.ndarray:
        """Arc capacities from per-job supplies and rates and per-interval sinks."""
        return np.concatenate([supply, np.repeat(rate, self.widths), sink]).astype(np.int64)

    def reach(self, capacities: np.ndarray) -> np.ndarray:
        """Per-interval sum of the job-arc capacities into each interval."""
        return np.bincount(
            self.arc_interval, weights=capacities[self.job_arcs()], minlength=self.interval_count
        ).astype(np.int64)

    def job_windows(self, arc_values: np.ndarray) -> list[np.ndarray]:
        """Per-job views of an arc array's job arcs, one window each."""
        return np.split(arc_values[self.job_arcs()], np.cumsum(self.widths)[:-1])


def build_network(
    instance: Instance, emissions: EmissionSeries
) -> tuple[JobIntervalNetwork, np.ndarray, np.ndarray]:
    """The min-cost flow problem of an instance: (network, capacities, costs).

    Capacities and costs are scaled integers in arc order.  Source arcs
    carry the job energies, job arcs the rate bounds, and sink arcs the
    caps at the interval's emission factor per unit.  When the instance
    carries no aggregate caps, every sink arc gets the summed rate bound
    of all jobs, which no feasible flow can exceed.
    """
    m = instance.interval_count
    if len(emissions) != m:
        raise ValueError(f"emission series has {len(emissions)} entries, horizon needs {m}")
    jobs = instance.jobs
    ids = [job.id for job in jobs]
    energy = np.rint(
        _scaled([job.energy_kwh for job in jobs], _ENERGY_SCALE, "energy of job", ids)
    ).astype(np.int64)
    rate = np.rint(
        _scaled([job.max_rate_kwh for job in jobs], _ENERGY_SCALE, "rate of job", ids)
    ).astype(np.int64)
    if instance.caps_kwh is None:
        sink = np.full(m, rate.sum())
    else:
        sink = _scaled_caps(instance, _ENERGY_SCALE)
    network = JobIntervalNetwork.from_instance(instance)
    costs = np.zeros(network.arc_count, dtype=np.int64)
    costs[network.sink_arcs()] = np.rint(
        _scaled(emissions.kg_per_kwh, _COST_SCALE, "emission factor at", range(m))
    )
    return network, network.capacities(energy, rate, sink), costs


def _polymatroid_greedy(
    network: JobIntervalNetwork, capacities: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """Minimum-cost flow by Edmonds' greedy over max-flow ranks.

    Costs sit on the sink arcs only.  The interval loads a flow can
    deliver form a polymatroid whose rank r(S) is the max flow with only
    the sink arcs of S open, so a linear cost is minimised by opening the
    sink arcs in stable order of cost and giving interval i exactly
    y(i) = r(S_i) - r(S_{i-1}), its rank increment.  One more max flow
    with sink capacities y extracts the flow; that is m + 1 max flows.
    Returns the integer flow per network arc; raises InfeasibleError when
    the supplies cannot all be routed.
    """
    sink_arcs = network.sink_arcs()
    # A cap beyond the summed rates into its interval never binds;
    # clipping it keeps huge caps inside the kernel range.
    caps = np.minimum(capacities[sink_arcs], network.reach(capacities))
    probe = capacities.copy()
    probe[sink_arcs] = 0
    ranks = np.empty(network.interval_count, dtype=np.int64)
    order = np.argsort(costs[sink_arcs], kind="stable")
    for i in order:
        probe[sink_arcs.start + i] = caps[i]
        ranks[i], _ = max_flow(network, probe)
    probe[sink_arcs.start + order] = np.diff(ranks[order], prepend=0)
    value, flows = max_flow(network, probe)
    if value < int(capacities[network.source_arcs()].sum()):
        raise InfeasibleError("aggregate caps leave no room for the remaining charging energy")
    return flows


@dataclass(frozen=True)
class OptimalityCertificate:
    """Result of checking a flow for minimum cost.

    Attributes:
        optimal: True when the residual graph carries no negative-cost
            cycle, i.e. the flow cost cannot be reduced.
        witness_cycle: When not optimal, node indices of one residual
            cycle with negative total cost; empty otherwise.
    """

    optimal: bool
    witness_cycle: tuple[int, ...] = field(default=())


def verify_optimality(
    network: JobIntervalNetwork, capacities: np.ndarray, costs: np.ndarray, flows: np.ndarray
) -> OptimalityCertificate:
    """Certify a flow as minimum-cost via Bellman-Ford on the residual graph.

    The flow must respect capacities and conservation (checked, since a
    certificate over an invalid flow would be meaningless).  A flow is
    minimum-cost for its routed value exactly when the residual graph has
    no negative-cost cycle; the witness returned for a suboptimal flow is
    one such cycle.
    """
    flows = np.asarray(flows, dtype=np.int64)
    if flows.shape != (network.arc_count,):
        raise ValueError("flow vector does not match the arc count")
    if np.any(flows < 0) or np.any(flows > capacities):
        raise ValueError("flow violates arc capacities")
    balance = np.zeros(network.node_count, dtype=np.int64)
    np.subtract.at(balance, network.tails, flows)
    np.add.at(balance, network.heads, flows)
    interior = np.ones(network.node_count, dtype=bool)
    interior[[network.source, network.sink]] = False
    if np.any(balance[interior] != 0):
        raise ValueError("flow violates conservation at a job or interval node")

    # Residual arcs, each forward arc before its reverse.
    keep = np.stack([flows < capacities, flows > 0], axis=1).ravel()
    edges = list(zip(
        np.stack([network.tails, network.heads], axis=1).ravel()[keep].tolist(),
        np.stack([network.heads, network.tails], axis=1).ravel()[keep].tolist(),
        np.stack([costs, -costs], axis=1).ravel()[keep].tolist(),
    ))

    node_count = network.node_count
    dist = [0] * node_count  # virtual zero-cost source into every node
    prev = [-1] * node_count
    last_updated = -1
    for _ in range(node_count):
        changed = False
        for tail, head, cost in edges:
            nd = dist[tail] + cost
            if nd < dist[head]:
                dist[head] = nd
                prev[head] = tail
                last_updated = head
                changed = True
        if not changed:
            return OptimalityCertificate(optimal=True)

    # Still relaxing after node_count passes: walk back onto the cycle.
    node = last_updated
    for _ in range(node_count):
        node = prev[node]
    cycle = [node]
    walk = prev[node]
    while walk != node:
        cycle.append(walk)
        walk = prev[walk]
    cycle.reverse()
    return OptimalityCertificate(optimal=False, witness_cycle=tuple(cycle))


def _greedy_cheapest_fill(instance: Instance, emissions: EmissionSeries) -> Schedule:
    # Without aggregate caps the interval nodes never bind jobs against
    # each other, so the flow problem separates: each job fills its
    # cheapest window intervals at full rate.  Ties resolve to the
    # earlier interval for determinism.
    co2 = emissions.kg_per_kwh
    allocations: dict[str, np.ndarray] = {}
    for job in instance.jobs:
        width = job.departure - job.arrival
        values = np.zeros(width)
        remaining = job.energy_kwh
        for offset in np.argsort(co2[job.arrival : job.departure], kind="stable"):
            if remaining <= 0:
                break
            amount = min(job.max_rate_kwh, remaining)
            values[offset] = amount
            remaining -= amount
        allocations[job.id] = values
    return Schedule.build(instance, allocations)


def _repair_delivery(
    instance: Instance,
    allocations: dict[str, np.ndarray],
    key: np.ndarray,
    load: np.ndarray,
) -> None:
    """Push sub-grid extraction residuals back into exact delivery.

    Only inputs off the integer grid need this; the adjustment per job is
    below half a grid unit.  A positive residual goes to the window
    intervals with the lowest ``key`` that have rate (and cap) headroom, a
    negative one comes out of the highest.  ``load`` is the per-interval
    load under the charging; the allocations and every step are added to
    it in place, and caps bound it.  The minimum-CO2 solver orders by
    emission factor over a zero load; flattening passes its totals as both
    key and load, so its order follows the steps.
    """
    caps = instance.caps_kwh
    for job in instance.jobs:
        load[job.arrival : job.departure] += allocations[job.id]
    for job in instance.jobs:
        values = allocations[job.id]
        residual = job.energy_kwh - float(values.sum())
        if abs(residual) < 1e-12:
            continue
        window = np.arange(job.arrival, job.departure)
        order = np.argsort(key[window], kind="stable")
        if residual < 0:
            order = order[::-1]
        for offset in order:
            if residual > 0:
                room = job.max_rate_kwh - values[offset]
                if caps is not None:
                    room = min(room, float(caps[window[offset]] - load[window[offset]]))
                step = min(residual, room)
            else:
                step = max(residual, -values[offset])
            if step != 0.0:
                values[offset] += step
                load[window[offset]] += step
                residual -= step
            if abs(residual) < 1e-12:
                break
        if abs(residual) >= 1e-9:
            raise InfeasibleError(
                f"job {job.id!r}: cannot restore exact delivery after integer scaling"
            )


def solve_min_co2(instance: Instance, emissions: EmissionSeries) -> Schedule:
    """Schedule with the smallest total CO2 emission.

    Minimises ``sum_i s(i) * co2(i)`` subject to the window, rate, and
    cap constraints.  Instances without caps separate per job and are
    filled greedily; capped instances run the network solver, whose flow
    must pass the optimality certificate.  Raises InfeasibleError when
    the caps cannot accommodate the demand, and SolverError when the
    certificate fails.
    """
    if len(emissions) != instance.interval_count:
        raise ValueError("emission series does not cover the horizon")
    if instance.caps_kwh is None:
        return _greedy_cheapest_fill(instance, emissions)

    network, capacities, costs = build_network(instance, emissions)
    flows = _polymatroid_greedy(network, capacities, costs)
    certificate = verify_optimality(network, capacities, costs, flows)
    if not certificate.optimal:
        raise SolverError(
            f"min-cost flow is not optimal: residual cycle {certificate.witness_cycle} "
            "has negative cost"
        )
    windows = network.job_windows(flows / _ENERGY_SCALE)
    allocations = {job.id: values for job, values in zip(instance.jobs, windows)}
    _repair_delivery(instance, allocations, emissions.kg_per_kwh, np.zeros(instance.interval_count))
    return Schedule.build(instance, allocations)


def max_flow(network: JobIntervalNetwork, capacities: np.ndarray) -> tuple[int, np.ndarray]:
    """Integer max flow from source to sink; returns (value, flow per arc).

    Capacities are given in arc order and must fit in 32 bits (the caller
    picks the scaling accordingly).  A call only rewrites the data of the
    network's matrix and reads the arc flows back by precomputed index.
    """
    capacities = np.asarray(capacities)
    if capacities.size and int(capacities.max()) > _INT32_LIMIT:
        raise ScalingOverflowError("a scaled capacity exceeds the 32-bit kernel limit")
    network._graph.data[:] = capacities
    result = maximum_flow(network._graph, network.source, network.sink)
    return int(result.flow_value), result.flow.data[network._forward].astype(np.int64)


def residual_reachable(
    network: JobIntervalNetwork, capacities: np.ndarray, flows: np.ndarray
) -> np.ndarray:
    """Boolean mask of nodes reachable from the source in the residual graph."""
    keep = np.empty(2 * network.arc_count, dtype=bool)
    keep[network._forward] = flows < capacities
    keep[network._reverse] = flows > 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    graph = csr_matrix(
        (np.ones(int(kept[-1])), network._merged_indices[keep], kept[network._merged_indptr]),
        shape=(network.node_count, network.node_count),
    )
    visited = breadth_first_order(graph, network.source, directed=True, return_predecessors=False)
    mask = np.zeros(network.node_count, dtype=bool)
    mask[visited] = True
    return mask


def feasibility_cut(instance: Instance) -> FeasibilityReport:
    """Max-flow saturation test for instances with aggregate caps.

    Feasible exactly when the flow saturates every job's supply arc (at
    watt-hour resolution).  When it does not, the jobs reachable from the
    source in the residual graph form a violating set: their combined
    demand exceeds the capacity reachable from their windows.
    """
    energies = np.array([job.energy_kwh for job in instance.jobs], dtype=float)
    rates = np.array([job.max_rate_kwh for job in instance.jobs], dtype=float)
    largest = max(
        float(np.max(instance.caps_kwh)), energies.max(initial=0.0), rates.max(initial=0.0)
    )
    scale = _ENERGY_SCALE
    while scale > 1 and largest * scale > _INT32_LIMIT:
        scale //= 10
    if largest * scale > _INT32_LIMIT:
        raise ScalingOverflowError("instance magnitudes exceed the feasibility kernel range")

    network = JobIntervalNetwork.from_instance(instance)
    supply = np.rint(energies * scale).astype(np.int64)
    # Same snap-or-floor cap rounding as the cost network, so the two agree.
    capacities = network.capacities(supply, np.rint(rates * scale), _scaled_caps(instance, scale))
    value, flows = max_flow(network, capacities)
    if value >= supply.sum():
        return FeasibilityReport(feasible=True)
    reachable = residual_reachable(network, capacities, flows)[network.job_nodes()]
    violating = frozenset(job.id for job, cut in zip(instance.jobs, reachable) if cut)
    return FeasibilityReport(feasible=False, violating_jobs=violating)
