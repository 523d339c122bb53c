"""The job/interval flow network and minimum-emission scheduling.

Every scheduler in this package works on one network: a source, one node
per job, one node per interval and a sink.  The source feeds each job
its energy need, each job feeds the intervals of its availability window
at the per-interval rate bound, and each interval drains into the sink.
:class:`JobIntervalNetwork` fixes that numbering and the arc order and
builds the max-flow matrix once; the solvers differ only in the integer
capacities they put on its arcs.  :func:`max_flow` is the "how much fits"
oracle.  It returns the kernel's own result, whose flow matrix already
pairs every arc with its reverse, so :func:`residual_reachable` reads
the binding cut straight off it and the network keeps no reverse
pattern of its own.

Minimum-emission scheduling is a minimum-cost flow on that network, with
each sink arc capped by the aggregate cap (or an amount that never
binds, when the instance has no caps) and paying the interval's emission
factor per unit.  The loads the intervals can take form a polymatroid
whose rank is a max flow, so capped instances are solved by Edmonds'
greedy over a divide and conquer on the cost ranks, whose levels are
networks of disjoint blocks (:func:`block_level`).  As flattening does,
it reads its flow off the levels' cuts (:func:`read_cut`): a feasibility
max flow and one per level, at most 2 + ceil(log2 m).  The optimality
certificate (:func:`verify_optimality`) checks every such flow with one
Dijkstra search from the sink, since costs sit on the sink arcs only;
without caps the problem separates per job and is filled greedily.

Every max-flow solve, flattening's included, runs on one integer grid
chosen by :func:`grid`: the largest power of ten of units per kWh that
keeps the kernel's capacities and flattening's level sums in range.
Rates and caps snap to the grid or are floored, energies round to
nearest within what the floored rates can deliver, and emission factors
sit at 1e-6 kg/kWh resolution.  The solvers are exact for inputs on the
grid; :func:`read_schedule` repairs off-grid inputs back to exact
delivery, a sub-unit adjustment covered by the validator tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra, maximum_flow

from .errors import InfeasibleError, ScalingOverflowError, SolverError
from .model import Instance, Schedule, add_windows

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


#: Largest scaled magnitude handed to the 32-bit max-flow kernel.
_KERNEL_BUDGET = 2_000_000_000

#: Largest scaled sum of levels over the horizon, well inside int64.
_LEVEL_SUM_BUDGET = 2**62

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
        starts, stops: First and one-past-last window interval per job.
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
        self.starts = starts
        self.stops = starts + widths
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
        per_interval = np.cumsum(np.bincount(self.arc_interval, minlength=m))
        self._forward = np.concatenate([
            np.arange(n), n + 1 + self.arc_job + np.arange(w), 2 * n + w + per_interval + np.arange(m)
        ])

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

    def reach(self, arc_values: np.ndarray) -> np.ndarray:
        """Per-interval sum of an arc array's job arcs into each interval."""
        return np.bincount(
            self.arc_interval, weights=arc_values[self.job_arcs()], minlength=self.interval_count
        ).astype(np.int64)

    def delivered(self, arc_values: np.ndarray) -> np.ndarray:
        """Per-job sum of an arc array's job arcs out of each job."""
        return np.bincount(self.arc_job, arc_values[self.job_arcs()], self.job_count).astype(np.int64)

    def arc_flows(self, result) -> np.ndarray:
        """The flow per arc, in arc order, of a :func:`max_flow` result."""
        return result.flow.data[self._forward].astype(np.int64)

    def job_windows(self, arc_values: np.ndarray) -> list[np.ndarray]:
        """Per-job views of an arc array's job arcs, one window each."""
        return np.split(arc_values[self.job_arcs()], np.cumsum(self.widths)[:-1])


def block_level(starts, stops, job_block: np.ndarray, int_block: np.ndarray) -> tuple:
    """One level of a divide and conquer as disjoint blocks of one network.

    ``job_block`` and ``int_block`` give the block label of every job
    and interval, or -1 once it is done; ``starts``/``stops`` are the
    job windows.  Live jobs and intervals are taken block-major, in
    index order within a block.  Numbered block after block among the
    intervals its jobs reach, every window is a range, so one network
    holds the level, and blocks share no node but the source and the
    sink.  Intervals no job of their block reaches are done: their
    labels are set to -1 in place.

    Returns ``(network, jobs, ints, labels, job_start, job_pos,
    int_pos)``: the network, the job and interval index of each of its
    nodes, the sorted live labels, where each block's jobs begin, and
    each job's and interval's position in ``labels``.
    """
    m = len(int_block)
    # Labels of -1 sort first.
    jobs = np.argsort(job_block, kind="stable")[np.count_nonzero(job_block < 0) :]
    ints = np.argsort(int_block, kind="stable")[np.count_nonzero(int_block < 0) :]
    first = job_block[jobs] * m + starts[jobs]
    last = job_block[jobs] * m + stops[jobs]
    keys = int_block[ints] * m + ints
    ends = [np.bincount(np.searchsorted(keys, end), minlength=len(ints) + 1) for end in (first, last)]
    reached = np.cumsum(ends[0] - ends[1])[:-1] > 0
    int_block[ints[~reached]] = -1
    ints, keys = ints[reached], keys[reached]
    network = JobIntervalNetwork(np.searchsorted(keys, first), np.searchsorted(keys, last), len(ints))
    labels, job_start, job_pos = np.unique(job_block[jobs], return_index=True, return_inverse=True)
    return network, jobs, ints, labels, job_start, job_pos, np.searchsorted(labels, int_block[ints])


def read_cut(whole: JobIntervalNetwork, level: JobIntervalNetwork, jobs, ints, reachable, level_flows,
             finished, flows: np.ndarray) -> tuple:
    """Read the residual cut ``reachable`` of a :func:`block_level` network,
    whose nodes are ``whole``'s ``jobs`` and ``ints``, and keep its final flows.

    A max flow saturates its cut, so each cut job fills every window
    interval of its block outside the cut at full rate.  That spill is
    immovable, as is every ``level_flows`` arc of a job ``finished``
    with its block: both go into ``flows``, in ``whole``'s arc order.
    Returns the cut masks of the level's jobs and intervals and the job
    and interval of ``whole`` of each spill, job-major.
    """
    cut_job, cut_int = reachable[level.job_nodes()], reachable[level.interval_nodes()]
    spill = cut_job[level.arc_job] & ~cut_int[level.arc_interval]
    taken = np.flatnonzero(spill | finished[level.arc_job])
    # The arc of job k into interval i is first[k] + i.
    first = whole.job_count + np.cumsum(whole.widths) - whole.widths - whole.starts
    arcs = first[jobs[level.arc_job[taken]]] + ints[level.arc_interval[taken]]
    flows[arcs] = level_flows[level.job_count + taken]
    return cut_job, cut_int, jobs[level.arc_job[spill]], ints[level.arc_interval[spill]]


def _grid_scale(top: float, bed: float) -> int:
    """Largest power of ten keeping ``top`` in the kernel and ``bed`` in the level sums."""
    if top > _KERNEL_BUDGET:
        raise ScalingOverflowError(
            f"a rate pile-up or energy of {top} kWh exceeds the 32-bit kernel range at scale 1"
        )
    scale = 1
    while top * (scale * 10) <= _KERNEL_BUDGET and bed * (scale * 10) <= _LEVEL_SUM_BUDGET:
        scale *= 10
    return scale


def grid(
    instance: Instance, bed: float = 0.0
) -> tuple[JobIntervalNetwork, int, np.ndarray, np.ndarray, np.ndarray]:
    """The network of an instance on its integer grid: (network, scale, supply, rate, sink).

    ``scale`` units per kWh, the largest power of ten that keeps the
    largest energy and rate pile-up inside the 32-bit kernel and the
    pile-up plus ``bed`` (flattening's summed absolute baseload) inside
    int64 level sums.  Rates and caps (clipped first to the pile-up, the
    sink without caps) snap to the grid or are floored off it, so no
    scaled schedule exceeds them.  Energies round to nearest within the
    floored rate times the window width; :func:`read_schedule`
    restores the sub-unit rest.
    """
    network = JobIntervalNetwork.from_instance(instance)
    energies = np.array([job.energy_kwh for job in instance.jobs], dtype=float)
    rates = np.array([job.max_rate_kwh for job in instance.jobs], dtype=float)
    pile = np.bincount(
        network.arc_interval, weights=rates[network.arc_job], minlength=network.interval_count
    )
    top = max(float(pile.max()), float(energies.max(initial=0.0)), 1.0)
    scale = _grid_scale(top, bed + float(pile.sum()))
    caps = pile if instance.caps_kwh is None else np.minimum(instance.caps_kwh, pile)
    rate = _snap(rates * scale, np.floor)
    supply = np.minimum(np.rint(energies * scale).astype(np.int64), rate * network.widths)
    return network, scale, supply, rate, _snap(caps * scale, np.floor)


def build_network(
    instance: Instance, emissions: EmissionSeries
) -> tuple[JobIntervalNetwork, int, np.ndarray, np.ndarray]:
    """The min-cost flow problem of an instance: (network, scale, capacities, costs).

    Integer capacities on the instance's :func:`grid` and integer costs,
    in arc order: source arcs carry the energies, job arcs the rates, and
    sink arcs the caps at the interval's emission factor per unit.
    """
    m = instance.interval_count
    if len(emissions) != m:
        raise ValueError(f"emission series has {len(emissions)} entries, horizon needs {m}")
    network, scale, supply, rate, sink = grid(instance)
    costs = np.zeros(network.arc_count, dtype=np.int64)
    costs[network.sink_arcs()] = np.rint(
        _scaled(emissions.kg_per_kwh, _COST_SCALE, "emission factor at", range(m))
    )
    return network, scale, network.capacities(supply, rate, sink), costs


def violating_jobs(network: JobIntervalNetwork, capacities: np.ndarray) -> np.ndarray:
    """Jobs on the source side of the residual cut, none when all supplies route.

    Their combined demand exceeds the capacity reachable from their windows.
    """
    result = max_flow(network, capacities)
    if result.flow_value >= capacities[network.source_arcs()].sum():
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(residual_reachable(network, capacities, result)[network.job_nodes()])


def _polymatroid_greedy(
    network: JobIntervalNetwork, capacities: np.ndarray, costs: np.ndarray, job_ids: list[str]
) -> np.ndarray:
    """Minimum-cost flow by Edmonds' greedy, split by cost-rank cuts.

    Costs sit on the sink arcs only.  The interval loads a flow can
    deliver form a polymatroid whose rank r(S) is the max flow with only
    the sink arcs of S open, so a linear cost is minimised by ranking
    the sink arcs in stable order of cost and giving each interval its
    rank increment y(i) = r(S_i) - r(S_{i-1}), S_i being the i cheapest.

    Every flow that delivers y is a max flow of each probe with the sink
    arcs below a rank threshold open, so it saturates that probe's cut:
    the cut's jobs fill every open interval outside it at full rate and
    its open intervals to their caps, and the jobs outside it charge only
    in open intervals outside it.  Blocks of a rank range [lo, hi) thus
    split at theta = (lo + hi) // 2: cut jobs and intervals solve [theta,
    hi), the rest [lo, theta), and closed intervals outside the cut are
    done.  A block keeps its intervals ranked below lo open, and they end
    full; a block of one rank gives its last interval the rest of its
    energy and routes those targets in its level's max flow.  The blocks
    of a level are one network (:func:`block_level`), and the flow is
    read off the cuts' spills and the routed blocks of one rank
    (:func:`read_cut`): a feasibility max flow on the whole network and
    one per level, at most 2 + ceil(log2 m).  Returns the integer flow
    per network arc; raises InfeasibleError, naming the jobs on the
    source side of the cut, when the supplies cannot all be routed, and
    SolverError when the flow misses a job's energy.
    """
    sink_arcs = network.sink_arcs()
    supply = capacities[network.source_arcs()]
    rate = np.zeros(network.job_count, dtype=np.int64)
    rate[network.arc_job] = capacities[network.job_arcs()]
    # A cap beyond the summed rates into its interval never binds;
    # clipping it keeps huge caps inside the kernel range.
    caps = np.minimum(capacities[sink_arcs], network.reach(capacities))
    probe = capacities.copy()
    probe[sink_arcs] = caps
    cut = violating_jobs(network, probe)
    if len(cut):
        names = ", ".join(repr(job_ids[k]) for k in cut)
        raise InfeasibleError(
            f"aggregate caps leave no room for the remaining charging energy of jobs {names}"
        )

    m = network.interval_count
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(costs[sink_arcs], kind="stable")] = np.arange(m)
    remaining = supply.copy()
    headroom = caps.copy()
    flows = np.zeros(network.arc_count, dtype=np.int64)
    job_block = np.zeros(network.job_count, dtype=np.int64)
    int_block = np.zeros(m, dtype=np.int64)
    lo, hi = np.array([0]), np.array([m])
    while True:
        job_block[remaining <= 0] = -1
        if np.all(job_block < 0):
            break
        level, jobs, ints, labels, job_start, job_pos, int_pos = block_level(
            network.starts, network.stops, job_block, int_block
        )
        low, high = lo[labels], hi[labels]
        mid = (low + high) // 2
        leaf = high - low == 1
        volume = np.add.reduceat(remaining[jobs], job_start)

        # Every block probes with its intervals ranked below theta open.  A
        # block of one rank has theta at its rank: it fills those intervals
        # and routes the rest of its energy into the interval of its rank.
        opened = rank[ints] < mid[int_pos]
        last = leaf[int_pos] & (rank[ints] == low[int_pos])
        below = np.bincount(int_pos[opened], headroom[ints[opened]], len(labels)).astype(np.int64)
        room = np.bincount(int_pos[last], headroom[ints[last]], len(labels)).astype(np.int64)
        share = volume - below
        wrong = np.flatnonzero(leaf & ((share < 0) | (share > room)))
        if len(wrong):
            raise SolverError(f"a leaf share of {share[wrong[0]]} lies outside [0, {room[wrong[0]]}]")
        sink = np.where(opened, headroom[ints], np.where(last, share[int_pos], 0))
        level_caps = level.capacities(remaining[jobs], rate[jobs], sink)
        result = max_flow(level, level_caps)
        cut_job, cut_int, spill_jobs, spill_ints = read_cut(
            network, level, jobs, ints, residual_reachable(level, level_caps, result),
            level.arc_flows(result), leaf[job_pos], flows,
        )
        np.subtract.at(remaining, spill_jobs, rate[spill_jobs])
        np.subtract.at(headroom, spill_ints, rate[spill_jobs])
        if np.any(headroom[spill_ints] < 0):
            raise SolverError("the spill of a cut overfills an interval")
        job_block[jobs] = np.where(leaf[job_pos], -1, 2 * job_pos + cut_job)
        int_block[ints] = np.where(leaf[int_pos] | ~(opened | cut_int), -1, 2 * int_pos + cut_int)
        lo, hi = np.stack([low, mid], axis=1).ravel(), np.stack([mid, high], axis=1).ravel()

    flows[network.source_arcs()] = network.delivered(flows)
    flows[sink_arcs] = network.reach(flows)
    if np.any(flows[network.source_arcs()] != supply):
        raise SolverError("the flow read off the cuts misses a job's energy")
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
    """Certify a flow as minimum-cost with one Dijkstra search from the sink.

    The flow must respect capacities and conservation (checked, since a
    certificate over an invalid flow would be meaningless), and costs
    must sit on the sink arcs only.  A flow is minimum-cost for its
    routed value exactly when the residual graph has no negative-cost
    cycle.  Every such cycle leaves the sink through an interval i with
    flow, reaches an interval j with headroom over zero-cost arcs and
    returns at cost c_j < c_i.  Dijkstra from the sink over the reversed
    residual arcs finds the cheapest such c_j for every i; the witness is
    the sink, i and the Dijkstra path from i to j.
    """
    flows = np.asarray(flows, dtype=np.int64)
    if flows.shape != (network.arc_count,):
        raise ValueError("flow vector does not match the arc count")
    if np.any(flows < 0) or np.any(flows > capacities):
        raise ValueError("flow violates arc capacities")
    balance = np.bincount(network.heads, flows, network.node_count) - np.bincount(
        network.tails, flows, network.node_count
    )
    if np.any(balance[1 : network.sink]):  # the job and interval nodes
        raise ValueError("flow violates conservation at a job or interval node")
    sink_arcs = network.sink_arcs()
    if np.any(costs[: sink_arcs.start]):
        raise ValueError("costs must sit on sink arcs only")

    # Reversed, an arc with headroom runs head -> tail at its cost and an
    # arc with flow tail -> head at none.  Dijkstra needs non-negative
    # costs; shifting every sink cost alike changes no comparison.
    sink_costs = costs[sink_arcs] - costs[sink_arcs].min(initial=0)
    weights = np.zeros(network.arc_count)
    weights[sink_arcs] = sink_costs
    room, used = flows < capacities, flows > 0
    graph = csr_matrix(
        (
            np.concatenate([weights[room], np.zeros(np.count_nonzero(used))]),
            (np.concatenate([network.heads[room], network.tails[used]]),
             np.concatenate([network.tails[room], network.heads[used]])),
        ),
        shape=(network.node_count, network.node_count),
    )
    dist, prev = dijkstra(graph, indices=network.sink, return_predecessors=True)
    beaten = np.flatnonzero((flows[sink_arcs] > 0) & (dist[network.interval_nodes()] < sink_costs))
    if not len(beaten):
        return OptimalityCertificate(optimal=True)
    cycle = [network.sink, 1 + network.job_count + int(beaten[0])]
    while prev[cycle[-1]] != network.sink:
        cycle.append(int(prev[cycle[-1]]))
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


def row_sums(values: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """Per-row sums of ``values``, grouped by the non-decreasing ``rows``.

    Each equals numpy's own sum of its row, bit for bit: a zero ahead of
    every row makes ``reduceat`` add the row as ``sum`` does.
    """
    lengths = np.bincount(rows, minlength=count)
    padded = np.zeros(len(values) + count)
    padded[np.arange(len(values)) + rows + 1] = values
    return np.add.reduceat(padded, np.cumsum(lengths) - lengths + np.arange(count))


def read_schedule(
    instance: Instance, network: JobIntervalNetwork, flows: np.ndarray, scale: int, key, load
) -> Schedule:
    """The schedule of an integer flow per arc of the instance's :func:`grid`.

    Each job charges its job arcs' flow in kWh.  Only inputs off the
    grid miss exact delivery, by below half a grid unit per job, and that
    rest is pushed back: a positive one goes to the window intervals with
    the lowest ``key`` that have rate (and cap) headroom, a negative one
    comes out of the highest.  ``load`` is the per-interval load under
    the charging; the windows and every step are added to it in place,
    and caps bound it.  The minimum-CO2 solver orders by emission factor
    over a zero load; flattening passes its totals as both key and load,
    so its order follows the steps.
    """
    jobs, caps, kwh = instance.jobs, instance.caps_kwh, flows / scale
    windows = network.job_windows(kwh)
    add_windows(load, [job.arrival for job in jobs], windows)
    # Only the jobs whose windows miss their energy enter the loop.
    sums = row_sums(kwh[network.job_arcs()], network.arc_job, len(jobs))
    # A job may ask up to ENERGY_ATOL more than its rate times its window
    # width holds; it is aimed at what the window holds.
    rates = np.array([job.max_rate_kwh for job in jobs])
    aims = np.minimum([job.energy_kwh for job in jobs], rates * network.widths)
    for k in np.flatnonzero(np.abs(aims - sums) >= 1e-12):
        job, values = jobs[k], windows[k]
        residual = float(aims[k]) - float(values.sum())
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
    return Schedule.build(instance, {job.id: values for job, values in zip(jobs, windows)})


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

    network, scale, capacities, costs = build_network(instance, emissions)
    flows = _polymatroid_greedy(network, capacities, costs, [job.id for job in instance.jobs])
    certificate = verify_optimality(network, capacities, costs, flows)
    if not certificate.optimal:
        raise SolverError(
            f"min-cost flow is not optimal: residual cycle {certificate.witness_cycle} "
            "has negative cost"
        )
    zero = np.zeros(instance.interval_count)
    return read_schedule(instance, network, flows, scale, emissions.kg_per_kwh, zero)


def max_flow(network: JobIntervalNetwork, capacities: np.ndarray):
    """Integer max flow from source to sink: the kernel's own result, scipy's
    ``MaximumFlowResult``.

    ``result.flow_value`` is the value.  ``result.flow`` pairs every arc
    with its reverse, the flow at the arc and its negation at the
    reverse; :meth:`JobIntervalNetwork.arc_flows` reads the flow per arc
    off it and :func:`residual_reachable` the cut.  Capacities are given
    in arc order and must fit in 32 bits (:func:`grid` picks the scale
    accordingly).  A call only rewrites the data of the network's matrix.
    """
    capacities = np.asarray(capacities)
    if capacities.size and int(capacities.max()) > _INT32_LIMIT:
        raise ScalingOverflowError("a scaled capacity exceeds the 32-bit kernel limit")
    network._graph.data[:] = capacities
    return maximum_flow(network._graph, network.source, network.sink)


def residual_reachable(network: JobIntervalNetwork, capacities: np.ndarray, result) -> np.ndarray:
    """Boolean mask of nodes reachable from the source in the residual graph
    of a :func:`max_flow` result on ``capacities``.

    The search runs on the kernel's flow matrix, where an arc is left
    with its capacity less its flow and its reverse, of capacity zero
    and flow negated, with the flow itself.
    """
    flow = result.flow
    merged = np.zeros(len(flow.data), dtype=np.int64)
    merged[network._forward] = capacities
    kept = np.flatnonzero(flow.data < merged)
    graph = csr_matrix(
        (np.ones(len(kept)), flow.indices[kept], np.searchsorted(kept, flow.indptr)), shape=flow.shape
    )
    visited = breadth_first_order(graph, network.source, directed=True, return_predecessors=False)
    mask = np.zeros(network.node_count, dtype=bool)
    mask[visited] = True
    return mask
