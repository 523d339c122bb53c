"""Synthetic inputs shaped like the evaluation week.

The proprietary timetable and building load cannot ship, so experiments
run on generated stand-ins: a uniform random baseload, a day-night
emission sinusoid peaking at night, and a weekly roster with fixed
per-day line counts (33 on weekdays, 22 Saturday, 23 Sunday), identical
Monday through Thursday.  Distribution parameters live in
``TimetableProfile`` so they are explicit and overridable rather than
baked in.

Generators are pure functions of (seed, parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from .data import DEFAULT_WEEK_START, LineTimetable
from .errors import GenerationInfeasibleError, WindowInfeasibleError
from .flow import EmissionSeries
from .matching import BusType, LineRecord, match_week, to_jobs
from .model import BaseloadSeries, Horizon


def week_horizon(
    week_start: datetime = DEFAULT_WEEK_START,
    days: int = 7,
    interval_hours: float = 0.25,
) -> Horizon:
    """The standard evaluation horizon: one week of 15-minute intervals."""
    per_day = 24.0 / interval_hours
    if abs(per_day - round(per_day)) > 1e-9:
        raise ValueError("interval length must divide a day")
    return Horizon(
        start=week_start,
        interval_count=days * int(round(per_day)),
        interval_hours=interval_hours,
    )


def random_baseload(
    horizon: Horizon,
    low_kw: float = 40.0,
    high_kw: float = 400.0,
    seed: int = 0,
) -> BaseloadSeries:
    """I.i.d. uniform per-interval power, stored as energy per interval."""
    if not 0 <= low_kw < high_kw:
        raise ValueError("need 0 <= low_kw < high_kw")
    rng = np.random.default_rng(seed)
    kw = rng.uniform(low_kw, high_kw, horizon.interval_count)
    return BaseloadSeries.from_kw(kw, horizon.interval_hours)


def sinusoid_emissions(
    horizon: Horizon,
    mean_factor: float = 300.0,
    amplitude_factor: float = 150.0,
) -> EmissionSeries:
    """Day-night emission curve, dirtiest at midnight, cleanest at noon.

    The solvers treat emission factors as opaque nonnegative cost
    weights.  Defaults follow the numeric convention of public
    grid-carbon datasets, which list factors in grams per kWh; using
    those numbers literally keeps the default weight sweep spanning the
    whole trade-off curve.  Values are rounded to 1e-6, the resolution
    of the integer cost scaling in the flow solver.
    """
    if mean_factor <= 0:
        raise ValueError("mean emission factor must be positive")
    if not 0 <= amplitude_factor <= mean_factor:
        raise ValueError("amplitude must lie in [0, mean]")
    midnight = horizon.start.replace(hour=0, minute=0, second=0, microsecond=0)
    offset = (horizon.start - midnight).total_seconds() / 3600.0
    hours = offset + (np.arange(horizon.interval_count) + 0.5) * horizon.interval_hours
    values = mean_factor + amplitude_factor * np.cos(2.0 * np.pi * hours / 24.0)
    return EmissionSeries(np.round(values, 6))


@dataclass(frozen=True)
class TimetableProfile:
    """Distribution parameters for roster generation.

    Attributes:
        lines_per_day: Line counts for days 0..6.
        weekdays_identical: Reuse day 0's draw for days 1..3.
        large_fraction: Probability a line needs the large battery type.
        soc_fraction: Uniform range for the state of charge after
            driving, as a fraction of battery capacity.
        start_window_hours: Uniform range for line departure clock time.
        end_hours: (low, mode, high) triangular clock-time distribution
            of line ends; values past 24 land after midnight.
        last_day_end_cap_hours: Latest end time allowed on the final
            day, so buses can still recharge before the horizon closes.
        charge_rate_kw: Charger power assumed when flooring the final
            day's state of charge.
    """

    lines_per_day: tuple[int, ...] = (33, 33, 33, 33, 33, 22, 23)
    weekdays_identical: bool = True
    large_fraction: float = 0.5
    soc_fraction: tuple[float, float] = (0.20, 0.70)
    start_window_hours: tuple[float, float] = (5.0, 9.0)
    end_hours: tuple[float, float, float] = (16.0, 22.0, 24.0)
    last_day_end_cap_hours: float = 18.0
    charge_rate_kw: float = 30.0

    def __post_init__(self) -> None:
        if len(self.lines_per_day) != 7 or any(c < 0 for c in self.lines_per_day):
            raise ValueError("lines_per_day must give seven non-negative counts")
        if self.weekdays_identical and len(set(self.lines_per_day[:4])) != 1:
            raise ValueError("identical weekdays need equal counts for days 0..3")
        if not 0 <= self.large_fraction <= 1:
            raise ValueError("large_fraction must lie in [0, 1]")
        low, high = self.soc_fraction
        if not 0 <= low <= high <= 1:
            raise ValueError("soc_fraction must satisfy 0 <= low <= high <= 1")
        if not self.start_window_hours[0] < self.start_window_hours[1]:
            raise ValueError("start window must be a non-empty range")
        lo, mode, hi = self.end_hours
        if not (lo <= mode <= hi and lo < hi):
            raise ValueError("end_hours must be a valid triangular (low, mode, high)")
        if self.start_window_hours[1] >= lo:
            raise ValueError("lines must start before the earliest end time")
        if not self.charge_rate_kw > 0:
            raise ValueError("charge rate must be positive")


def _snap_quarter(hours: float) -> float:
    return round(hours * 4.0) / 4.0


def synth_timetable(
    seed: int,
    profile: TimetableProfile = TimetableProfile(),
    week_start: datetime = DEFAULT_WEEK_START,
) -> LineTimetable:
    """Generate a weekly roster whose derived jobs are feasible.

    End times cluster in the evening; the final day's draws are capped
    earlier and their state of charge floored so that every bus can
    reach full charge before the horizon ends.
    """
    rng = np.random.default_rng(seed)
    horizon = week_horizon(week_start)
    last_day = len(profile.lines_per_day) - 1
    rate_kwh = profile.charge_rate_kw * horizon.interval_hours

    def draw_day(day: int, count: int) -> list[LineRecord]:
        anchor = week_start + timedelta(days=day)
        lines = []
        for k in range(count):
            bus_type = (
                BusType.LARGE if rng.random() < profile.large_fraction else BusType.SMALL
            )
            capacity = bus_type.capacity_kwh
            start_h = _snap_quarter(float(rng.uniform(*profile.start_window_hours)))
            lo, mode, hi = profile.end_hours
            if day == last_day:
                hi = min(hi, profile.last_day_end_cap_hours)
                mode = min(mode, hi)
                lo = min(lo, mode)
            end_h = _snap_quarter(float(rng.triangular(lo, mode, hi)))
            soc_low = profile.soc_fraction[0] * capacity
            soc_high = profile.soc_fraction[1] * capacity
            if day == last_day:
                # The horizon-end deadline must admit a full recharge.
                arrival_index = horizon.index_ceil(anchor + timedelta(hours=end_h))
                room = rate_kwh * (horizon.interval_count - arrival_index)
                floor = capacity - room
                if floor > soc_high:
                    raise GenerationInfeasibleError(
                        f"day {day} line ending {end_h} h leaves only {room} kWh of "
                        f"charging room for a {capacity} kWh battery"
                    )
                soc_low = max(soc_low, floor)
            soc = float(rng.uniform(soc_low, soc_high))
            # Ceil to the watt-hour grid: keeps energies exactly scalable
            # and never dips below the last-day floor.
            soc = min(np.ceil(soc * 1000.0) / 1000.0, capacity)
            lines.append(
                LineRecord(
                    line_id=f"line{k:02d}",
                    day=day,
                    start=anchor + timedelta(hours=start_h),
                    end=anchor + timedelta(hours=end_h),
                    bus_type=bus_type,
                    soc_after_kwh=soc,
                )
            )
        return lines

    lines: list[LineRecord] = []
    # Day 0 comes first, so its draw is in place before days 1-3 copy it.
    weekday_draw: list[LineRecord] = []
    for day, count in enumerate(profile.lines_per_day):
        if profile.weekdays_identical and 0 < day <= 3:
            shift = timedelta(days=day)
            lines.extend(
                replace(line, day=day, start=line.start + shift, end=line.end + shift)
                for line in weekday_draw
            )
            continue
        drawn = draw_day(day, count)
        if day == 0:
            weekday_draw = drawn
        lines.extend(drawn)

    timetable = LineTimetable(lines=tuple(lines), week_start=week_start)
    try:
        to_jobs(match_week(timetable.lines, horizon, profile.charge_rate_kw), horizon,
                profile.charge_rate_kw)
    except WindowInfeasibleError as exc:
        raise GenerationInfeasibleError(str(exc)) from exc
    return timetable
