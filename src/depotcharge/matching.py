"""Bus-to-line assignment via bipartite maximum matching.

Each evening's arriving buses are matched against the next day's lines,
day by day across the week.  A bus can take a line only if both use the
same battery type and the bus can reach full charge before the line
starts; buses left unmatched keep charging until the end of the next
day.  The matching fixes each bus's charging deadline, from which the
charging jobs for the schedulers are derived.

Readiness is counted in whole intervals from the interval-ceiled
arrival, so a matched bus's charging window is feasible at the charger
rate by construction.

The matching is Kuhn's augmenting paths with each bus's feasible lines
held as one bitset.  Buses are roots in index order, each with a fresh
set of seen lines, and a root's search always takes the lowest-index
line it has not yet seen; that rule fixes which maximum matching, and
so which charging deadlines, the week gets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import WindowInfeasibleError
from .model import ENERGY_ATOL, Horizon, Job

#: Depot charger power assumed for readiness and job rate limits.
DEFAULT_CHARGE_RATE_KW = 30.0


class BusType(enum.Enum):
    """Battery classes in the fleet, by usable capacity."""

    SMALL = 122.0
    LARGE = 273.0

    @property
    def capacity_kwh(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class LineRecord:
    """One scheduled line on one day of the week.

    Attributes:
        line_id: Identifier, unique within its day.
        day: Day-of-week index, 0 = first day of the horizon.
        start: Departure timestamp of the line.
        end: Arrival timestamp back at the depot.
        bus_type: Battery class the line requires.
        soc_after_kwh: Energy remaining in the battery after driving.
    """

    line_id: str
    day: int
    start: datetime
    end: datetime
    bus_type: BusType
    soc_after_kwh: float

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ValueError(f"line {self.line_id!r}: negative day index")
        if self.start >= self.end:
            raise ValueError(f"line {self.line_id!r}: start must precede end")
        if not np.isfinite(self.soc_after_kwh) or not (
            0.0 <= self.soc_after_kwh <= self.bus_type.capacity_kwh
        ):
            raise ValueError(
                f"line {self.line_id!r}: state of charge outside [0, {self.bus_type.capacity_kwh}]"
            )


@dataclass(frozen=True)
class ArrivingBus:
    """A bus pulling into the depot after finishing its line."""

    bus_id: str
    bus_type: BusType
    arrival: datetime
    soc_kwh: float

    @classmethod
    def from_line(cls, line: LineRecord) -> "ArrivingBus":
        return cls(
            bus_id=f"{line.line_id}:d{line.day}",
            bus_type=line.bus_type,
            arrival=line.end,
            soc_kwh=line.soc_after_kwh,
        )

    @property
    def energy_needed_kwh(self) -> float:
        return self.bus_type.capacity_kwh - self.soc_kwh


@dataclass(frozen=True)
class FleetAssignment:
    """Matching outcome for one evening's arrivals.

    Attributes:
        matched: Pairs of (bus, next-day line it will serve).
        unmatched: Buses without a line, charging until the fallback.
        fallback_deadline: Deadline for unmatched buses, the end of the
            next day clamped to the horizon.
    """

    matched: tuple[tuple[ArrivingBus, LineRecord], ...]
    unmatched: tuple[ArrivingBus, ...]
    fallback_deadline: datetime

    def __post_init__(self) -> None:
        buses = [bus.bus_id for bus, _ in self.matched] + [
            bus.bus_id for bus in self.unmatched
        ]
        lines = [(line.line_id, line.day) for _, line in self.matched]
        if len(set(buses)) != len(buses) or len(set(lines)) != len(lines):
            raise ValueError("assignment is not one-to-one")

    @property
    def cardinality(self) -> int:
        return len(self.matched)


def ready_time_index(
    buses: Sequence[ArrivingBus], horizon: Horizon, charge_rate_kw: float
) -> np.ndarray:
    """First interval boundary by which each bus can be full.

    Whole charging intervals are counted from the interval-ceiled
    arrival, so ``deadline_index - arrival_index`` intervals at the
    charger rate always cover the energy need.
    """
    arrival_index = horizon.index_ceil([bus.arrival for bus in buses])
    rate_kwh = charge_rate_kw * horizon.interval_hours
    need = np.array([bus.energy_needed_kwh for bus in buses], dtype=float)
    intervals = np.ceil((need - ENERGY_ATOL) / rate_kwh).astype(np.int64)
    return arrival_index + np.maximum(intervals, 0)


def build_edges(
    buses: Sequence[ArrivingBus],
    lines: Sequence[LineRecord],
    horizon: Horizon,
    charge_rate_kw: float = DEFAULT_CHARGE_RATE_KW,
) -> list[int]:
    """Each bus's feasible lines as a bitset: bit ``l`` of entry ``b`` is
    set when bus ``b`` can take line ``l``.

    An edge requires the same bus type and enough dwell time: the bus's
    full-charge readiness must not pass the line's interval-floored
    start.  Within a bus type a bus's lines are therefore a suffix of the
    type's lines in start order, one of the suffix unions.
    """
    if not charge_rate_kw > 0:
        raise ValueError("charge rate must be positive")
    ready = ready_time_index(buses, horizon, charge_rate_kw)
    starts = horizon.index_floor([line.start for line in lines])
    rows = [0] * len(buses)
    for bus_type in BusType:
        of_type = np.flatnonzero([line.bus_type is bus_type for line in lines])
        of_type = of_type[np.argsort(starts[of_type])]
        unions = [0]  # unions[k]: the lines from start rank k on
        for l in reversed(of_type.tolist()):
            unions.append(unions[-1] | 1 << l)
        unions.reverse()
        takers = np.flatnonzero([bus.bus_type is bus_type for bus in buses])
        ranks = np.searchsorted(starts[of_type], ready[takers], side="left")
        for b, k in zip(takers.tolist(), ranks.tolist()):
            rows[b] = unions[k]
    return rows


def match(
    buses: Sequence[ArrivingBus],
    lines: Sequence[LineRecord],
    edges: Sequence[int],
    fallback_deadline: datetime,
) -> FleetAssignment:
    """Maximum-cardinality assignment via augmenting paths.

    ``edges[b]`` holds bus ``b``'s feasible lines as a bitset, as
    :func:`build_edges` gives them.  Each bus in turn roots a depth-first
    search with no line seen; the search always takes the lowest-index
    line of its deepest bus that it has not yet seen, and backs up when
    that bus has none left.  The path is kept on an explicit stack, so
    chains as long as the fleet cannot exhaust recursion.
    """
    line_owner = [-1] * len(lines)
    all_lines = (1 << len(lines)) - 1
    for root in range(len(buses)):
        unseen = all_lines
        taken: list[int] = []  # the path's lines; each one's owner is the next bus
        bus = root
        while True:
            free = edges[bus] & unseen
            if free:
                bit = free & -free
                unseen ^= bit
                line = bit.bit_length() - 1
                taken.append(line)
                bus = line_owner[line]
                if bus < 0:
                    # Each line on the path passes to the bus before it.
                    bus = root
                    for line in taken:
                        bus, line_owner[line] = line_owner[line], bus
                    break
            elif taken:
                taken.pop()
                bus = line_owner[taken[-1]] if taken else root
            else:
                break

    bus_to_line = {b: l for l, b in enumerate(line_owner) if b >= 0}
    matched = tuple(
        (bus, lines[bus_to_line[b]]) for b, bus in enumerate(buses) if b in bus_to_line
    )
    unmatched = tuple(bus for b, bus in enumerate(buses) if b not in bus_to_line)
    return FleetAssignment(
        matched=matched, unmatched=unmatched, fallback_deadline=fallback_deadline
    )


def match_week(
    lines: Sequence[LineRecord],
    horizon: Horizon,
    charge_rate_kw: float = DEFAULT_CHARGE_RATE_KW,
) -> tuple[FleetAssignment, ...]:
    """Run the per-evening matchings across the whole horizon.

    Buses arriving on day d are matched against day d+1's lines; the
    last day has no successor, so all of its arrivals take the fallback
    deadline, clamped to the horizon end.
    """
    by_day: dict[int, list[LineRecord]] = {}
    for line in lines:
        by_day.setdefault(line.day, []).append(line)
    if not by_day:
        return ()
    assignments = []
    for day in sorted(by_day):
        buses = [ArrivingBus.from_line(line) for line in by_day[day]]
        next_lines = by_day.get(day + 1, [])
        day_end = horizon.start + timedelta(days=day + 2)
        fallback = min(day_end, horizon.end)
        edges = build_edges(buses, next_lines, horizon, charge_rate_kw)
        assignments.append(match(buses, next_lines, edges, fallback))
    return tuple(assignments)


def to_jobs(
    assignments: Iterable[FleetAssignment],
    horizon: Horizon,
    charge_rate_kw: float = DEFAULT_CHARGE_RATE_KW,
) -> tuple[Job, ...]:
    """Charging jobs for every arriving bus.

    The window runs from the interval-ceiled arrival to the
    interval-floored deadline (matched line start, or the fallback).  A
    window too small for the bus's energy raises
    ``WindowInfeasibleError`` rather than clipping the demand.  A bus
    that is already full and has no interval before its deadline needs
    no charging and produces no job.
    """
    rate_kwh = charge_rate_kw * horizon.interval_hours
    pairs = []
    for assignment in assignments:
        pairs += [(bus, line.start) for bus, line in assignment.matched]
        pairs += [(bus, assignment.fallback_deadline) for bus in assignment.unmatched]
    arrivals = horizon.clip(horizon.index_ceil([bus.arrival for bus, _ in pairs]))
    departures = horizon.clip(horizon.index_floor([deadline for _, deadline in pairs]))
    jobs = []
    for (bus, _), arrival, departure in zip(pairs, arrivals.tolist(), departures.tolist()):
        energy = bus.energy_needed_kwh
        if departure <= arrival:
            if energy <= ENERGY_ATOL:
                continue
            raise WindowInfeasibleError(
                f"bus {bus.bus_id!r}: no charging interval before its deadline"
            )
        width = departure - arrival
        if energy > rate_kwh * width + ENERGY_ATOL:
            raise WindowInfeasibleError(
                f"bus {bus.bus_id!r}: needs {energy} kWh but only "
                f"{rate_kwh * width} kWh fit before the deadline"
            )
        jobs.append(
            Job(
                id=bus.bus_id,
                arrival=arrival,
                departure=departure,
                energy_kwh=min(energy, rate_kwh * width),
                max_rate_kwh=rate_kwh,
            )
        )
    return tuple(jobs)
