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


def ready_time_index(bus: ArrivingBus, horizon: Horizon, charge_rate_kw: float) -> int:
    """First interval boundary by which the bus can be full.

    Whole charging intervals are counted from the interval-ceiled
    arrival, so ``deadline_index - arrival_index`` intervals at the
    charger rate always cover the energy need.
    """
    arrival_index = horizon.index_ceil(bus.arrival)
    rate_kwh = charge_rate_kw * horizon.interval_hours
    intervals = int(np.ceil((bus.energy_needed_kwh - ENERGY_ATOL) / rate_kwh))
    return arrival_index + max(intervals, 0)


def build_edges(
    buses: Sequence[ArrivingBus],
    lines: Sequence[LineRecord],
    horizon: Horizon,
    charge_rate_kw: float = DEFAULT_CHARGE_RATE_KW,
) -> tuple[tuple[int, int], ...]:
    """Feasible (bus index, line index) pairs.

    An edge requires the same bus type and enough dwell time: the bus's
    full-charge readiness must not pass the line's interval-floored
    start.
    """
    if not charge_rate_kw > 0:
        raise ValueError("charge rate must be positive")
    ready = np.array([ready_time_index(bus, horizon, charge_rate_kw) for bus in buses], dtype=np.int64)
    starts = np.array([horizon.index_floor(line.start) for line in lines], dtype=np.int64)
    bus_types = np.array([bus.bus_type for bus in buses], dtype=object)
    line_types = np.array([line.bus_type for line in lines], dtype=object)
    # Row-major order is (bus, line) order, the order match tries edges in.
    b, l = np.nonzero((bus_types[:, None] == line_types) & (ready[:, None] <= starts))
    return tuple(zip(b.tolist(), l.tolist()))


def match(
    buses: Sequence[ArrivingBus],
    lines: Sequence[LineRecord],
    edges: Iterable[tuple[int, int]],
    fallback_deadline: datetime,
) -> FleetAssignment:
    """Maximum-cardinality assignment via augmenting paths."""
    adjacency: list[list[int]] = [[] for _ in buses]
    for b, l in edges:
        adjacency[b].append(l)
    line_owner = [-1] * len(lines)

    def augment(root: int, seen: list[bool]) -> bool:
        # Depth-first search for an augmenting path from `root`, trying
        # each bus's lines in edge order.  The path is kept on an explicit
        # stack, so chains as long as the fleet cannot exhaust recursion.
        untried = iter(adjacency[root])  # lines left to try for the deepest bus
        path: list[tuple] = []  # (untried lines, line taken) per bus above it
        while True:
            for l in untried:
                if not seen[l]:
                    break
            else:
                if not path:
                    return False
                untried, _ = path.pop()
                continue
            seen[l] = True
            owner = line_owner[l]
            if owner < 0:
                # Each line on the path passes to the bus before it.
                bus = root
                for line in [line for _, line in path] + [l]:
                    bus, line_owner[line] = line_owner[line], bus
                return True
            path.append((untried, l))
            untried = iter(adjacency[owner])

    for b in range(len(buses)):
        augment(b, [False] * len(lines))

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
    jobs = []
    for assignment in assignments:
        pairs = [(bus, line.start) for bus, line in assignment.matched]
        pairs += [(bus, assignment.fallback_deadline) for bus in assignment.unmatched]
        for bus, deadline in pairs:
            arrival = horizon.clip(horizon.index_ceil(bus.arrival))
            departure = horizon.clip(horizon.index_floor(deadline))
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
