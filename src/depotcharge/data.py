"""CSV ingestion and serialization for series, timetables, and results.

All files are headered CSV with ISO-8601 naive-local timestamps; a
timestamp with a UTC offset is refused.  The horizon's one week contains
no DST transition, so naive arithmetic is safe.  Schemas:

 - emissions: ``timestamp,co2_kg_per_kwh`` at a uniform hourly or
   15-minute step; hourly values are replicated into the four quarter
   hours they cover.
 - baseload: ``timestamp,baseload_kwh`` at the horizon's own step,
   energy per interval.
 - timetable: ``day,line_id,start,end,bus_type,soc_after_kwh`` with
   clock times ``HH:MM`` relative to the row's day; hours may pass 24
   for lines ending after midnight.
 - profiles: one row per interval with the baseload, each scenario's
   charging power, and the emission factor.
 - report: one row per scenario with the three metrics and optional
   reduction percentages.
 - sweep: one row per flatness weight with the resulting peak,
   emissions, and flatness.
 - flexibility report: ``baseload_peak_kw,bus_only_flat_peak_kw,
   coordinated_peak_kw,additional_kw,gain_pct``, one row.

Every file is written by :func:`_write_csv`: a text cell as it is, a
missing value as an empty cell, and any number as ``repr(float(x))``,
the shortest round-tripping form, with ``\r\n`` line ends.  So
rewriting identical results yields byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CoverageGapError, ParseError, SchemaError
from .flow import EmissionSeries
from .matching import BusType, LineRecord
from .metrics import ScenarioReport
from .model import BaseloadSeries, Horizon

#: Anchor Monday used when a timetable does not name one.  Any week
#: without a DST transition works; times stay naive-local throughout.
DEFAULT_WEEK_START = datetime(2023, 6, 5)

REPORT_COLUMNS = (
    "scenario",
    "flatness_kwh2",
    "co2_kg",
    "peak_kw",
    "flatness_reduction_pct",
    "co2_reduction_pct",
    "peak_reduction_pct",
)

SWEEP_COLUMNS = ("flatness_weight", "peak_kw", "co2_kg", "flatness_kwh2")

TIMETABLE_COLUMNS = ("day", "line_id", "start", "end", "bus_type", "soc_after_kwh")

FLEXIBILITY_COLUMNS = (
    "baseload_peak_kw",
    "bus_only_flat_peak_kw",
    "coordinated_peak_kw",
    "additional_kw",
    "gain_pct",
)


@dataclass(frozen=True)
class LineTimetable:
    """A parsed weekly roster of lines."""

    lines: tuple[LineRecord, ...]
    week_start: datetime

    def __len__(self) -> int:
        return len(self.lines)

    def lines_per_day(self) -> tuple[int, ...]:
        """Line counts for days 0..6."""
        counts = [0] * 7
        for line in self.lines:
            if line.day < 7:
                counts[line.day] += 1
        return tuple(counts)


def _read_rows(path: str | Path, required: Sequence[str]) -> list[tuple[int, dict[str, str]]]:
    """The data rows of a CSV file, each with its line number in the file.

    Blank lines are skipped, so a row's line number is counted by the
    reader, not from its index.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        missing = [name for name in required if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        rows = []
        for row in reader:
            # Surplus cells go under the key None; missing cells hold None.
            if None in row or None in row.values():
                raise SchemaError(f"{path}: a row needs {len(header)} cells", row=reader.line_num)
            rows.append((reader.line_num, row))
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return rows


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        when = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", row=row, column="timestamp") from None
    if when.tzinfo is not None:
        message = f"timestamp {text!r} has a UTC offset; the format is naive local time"
        raise ParseError(message, row=row, column="timestamp")
    return when


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", row=row, column=column) from None


def _uniform_series(
    path: str | Path, value_column: str
) -> tuple[datetime, float, np.ndarray]:
    """Parse a timestamped series and verify its uniform step.

    Returns (first timestamp, step in seconds, values).  A jump of more
    than one step is a coverage gap naming the first missing timestamp;
    a non-increasing or fractional step is a schema violation.
    """
    rows = _read_rows(path, ("timestamp", value_column))
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least two rows to establish the step")
    stamps = []
    values = []
    for line_no, row in rows:
        stamps.append(_parse_timestamp(row["timestamp"], line_no))
        value = _parse_float(row[value_column], line_no, value_column)
        if not np.isfinite(value) or value < 0:
            raise ParseError(
                f"{value_column} must be finite and non-negative",
                row=line_no,
                column=value_column,
            )
        values.append(value)
    diffs = [
        (b - a).total_seconds() for a, b in zip(stamps, stamps[1:])
    ]
    step = min(diffs)
    if step <= 0:
        where = rows[diffs.index(step) + 1][0]
        raise SchemaError(f"{path}: timestamps not strictly increasing", row=where)
    for k, diff in enumerate(diffs):
        steps = diff / step
        if abs(steps - round(steps)) > 1e-9:
            raise SchemaError(f"{path}: non-uniform timestamp step", row=rows[k + 1][0])
        if round(steps) > 1:
            missing = stamps[k] + timedelta(seconds=step)
            raise CoverageGapError(
                f"{path}: missing sample at {missing.isoformat()}", missing=(missing,)
            )
    return stamps[0], step, np.array(values, dtype=float)


def _clip_to_horizon(
    path: str | Path,
    first: datetime,
    step_seconds: float,
    values: np.ndarray,
    horizon: Horizon,
) -> np.ndarray:
    """Replicate to the horizon step and cut the horizon's slice."""
    interval_seconds = horizon.interval_hours * 3600.0
    ratio = step_seconds / interval_seconds
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise SchemaError(
            f"{path}: step of {step_seconds} s is not a whole number of intervals"
        )
    expanded = np.repeat(values, int(round(ratio)))
    offset = (horizon.start - first).total_seconds() / interval_seconds
    if offset < -1e-9:
        raise CoverageGapError(
            f"{path}: data starts {first.isoformat()}, after the horizon start",
            missing=(horizon.start,),
        )
    if abs(offset - round(offset)) > 1e-9:
        raise SchemaError(f"{path}: horizon start is not aligned with the file grid")
    start = int(round(offset))
    end = start + horizon.interval_count
    if end > len(expanded):
        missing = first + timedelta(seconds=len(expanded) * interval_seconds)
        raise CoverageGapError(
            f"{path}: data ends before the horizon, first missing "
            f"{missing.isoformat()}",
            missing=(missing,),
        )
    return expanded[start:end]


def load_emissions(path: str | Path, horizon: Horizon) -> EmissionSeries:
    """Emission factors resampled to the horizon grid.

    Hourly files use step-function resampling: each value is replicated
    into the intervals it covers.
    """
    first, step, values = _uniform_series(path, "co2_kg_per_kwh")
    return EmissionSeries(_clip_to_horizon(path, first, step, values, horizon))


def load_baseload(path: str | Path, horizon: Horizon) -> BaseloadSeries:
    """Baseload energy per interval; the file must match the horizon step."""
    first, step, values = _uniform_series(path, "baseload_kwh")
    if abs(step - horizon.interval_hours * 3600.0) > 1e-9:
        raise SchemaError(f"{path}: baseload step must equal the horizon interval")
    return BaseloadSeries(_clip_to_horizon(path, first, step, values, horizon))


def _is_digits(text: str) -> bool:
    # Decimal digits only: int() would also take a sign, "_" and other scripts' digits.
    return text.isascii() and text.isdigit()


def _parse_clock(text: str, row: int, column: str) -> timedelta:
    parts = [part.strip() for part in text.split(":")]
    if len(parts) != 2 or not all(_is_digits(part) for part in parts):
        raise ParseError(f"bad clock time {text!r}", row=row, column=column)
    hours, minutes = int(parts[0]), int(parts[1])
    if minutes >= 60:
        raise ParseError(f"bad clock time {text!r}", row=row, column=column)
    return timedelta(hours=hours, minutes=minutes)


def load_timetable(
    path: str | Path, week_start: datetime = DEFAULT_WEEK_START
) -> LineTimetable:
    """Weekly roster; clock times are anchored to ``week_start``'s Monday."""
    rows = _read_rows(path, TIMETABLE_COLUMNS)
    lines = []
    seen: set[tuple[int, str]] = set()
    for line_no, row in rows:
        if not _is_digits(row["day"].strip()):
            raise ParseError(f"bad day {row['day']!r}", row=line_no, column="day")
        day = int(row["day"])
        if not 0 <= day <= 6:
            raise SchemaError("day must be 0..6", row=line_no, column="day")
        token = row["bus_type"].strip().upper()
        if token not in BusType.__members__:
            raise SchemaError(
                f"unknown bus type {row['bus_type']!r}", row=line_no, column="bus_type"
            )
        key = (day, row["line_id"])
        if key in seen:
            raise SchemaError(
                f"duplicate line {row['line_id']!r} on day {day}", row=line_no
            )
        seen.add(key)
        anchor = week_start + timedelta(days=day)
        try:
            line = LineRecord(
                line_id=row["line_id"],
                day=day,
                start=anchor + _parse_clock(row["start"], line_no, "start"),
                end=anchor + _parse_clock(row["end"], line_no, "end"),
                bus_type=BusType[token],
                soc_after_kwh=_parse_float(
                    row["soc_after_kwh"], line_no, "soc_after_kwh"
                ),
            )
        except ValueError as exc:
            raise SchemaError(str(exc), row=line_no) from None
        lines.append(line)
    return LineTimetable(lines=tuple(lines), week_start=week_start)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """The one CSV writer: a ``str`` cell as it is, None empty, any other ``repr(float(cell))``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, str) else "" if cell is None else repr(float(cell)) for cell in row]
            for row in rows
        )


def write_timetable(path: str | Path, timetable: LineTimetable) -> None:
    def row(line: LineRecord) -> tuple:
        anchor = timetable.week_start + timedelta(days=line.day)
        return (
            str(line.day),
            line.line_id,
            _clock_of(line.start - anchor),
            _clock_of(line.end - anchor),
            line.bus_type.name,
            line.soc_after_kwh,
        )

    _write_csv(path, TIMETABLE_COLUMNS, map(row, timetable.lines))


def _clock_of(delta: timedelta) -> str:
    minutes = int(round(delta.total_seconds() / 60.0))
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _timestamps(horizon: Horizon) -> list[str]:
    return [horizon.timestamp(i).isoformat() for i in range(horizon.interval_count)]


def write_emissions(path: str | Path, emissions: EmissionSeries, horizon: Horizon) -> None:
    _write_series(path, "co2_kg_per_kwh", emissions.kg_per_kwh, horizon)


def write_baseload(path: str | Path, baseload: BaseloadSeries, horizon: Horizon) -> None:
    _write_series(path, "baseload_kwh", baseload.kwh, horizon)


def _write_series(
    path: str | Path, column: str, values: np.ndarray, horizon: Horizon
) -> None:
    if len(values) != horizon.interval_count:
        raise ValueError("series length does not match the horizon")
    _write_csv(path, ("timestamp", column), zip(_timestamps(horizon), values))


def write_profiles(
    path: str | Path,
    horizon: Horizon,
    baseload_kw: np.ndarray,
    scenario_kw: Mapping[str, np.ndarray],
    emissions: EmissionSeries,
) -> None:
    """Plot-ready per-interval powers: baseload, each scenario, factors."""
    m = horizon.interval_count
    for label, profile in scenario_kw.items():
        if len(profile) != m:
            raise ValueError(f"scenario {label!r} profile length does not match")
    if len(baseload_kw) != m or len(emissions) != m:
        raise ValueError("baseload or emission length does not match the horizon")
    header = ("timestamp", "baseload_kw", *(f"{label}_kw" for label in scenario_kw), "co2_kg_per_kwh")
    columns = (_timestamps(horizon), baseload_kw, *scenario_kw.values(), emissions.kg_per_kwh)
    _write_csv(path, header, zip(*columns))


def write_report(path: str | Path, reports: Sequence[ScenarioReport]) -> None:
    # The report's fields are in REPORT_COLUMNS order.
    _write_csv(path, REPORT_COLUMNS, map(astuple, reports))


def read_report(path: str | Path) -> tuple[ScenarioReport, ...]:
    reports = []
    for line_no, row in _read_rows(path, REPORT_COLUMNS):
        values = {
            # Only the reduction percentages may be empty.
            column: None
            if column in REPORT_COLUMNS[4:] and row[column] == ""
            else _parse_float(row[column], line_no, column)
            for column in REPORT_COLUMNS[1:]
        }
        reports.append(ScenarioReport(scenario=row["scenario"], **values))
    return tuple(reports)


def write_sweep(
    path: str | Path, rows: Sequence[tuple[float, float, float, float]]
) -> None:
    """Trade-off curve rows: (flatness weight, peak kW, co2 kg, flatness kWh^2)."""
    _write_csv(path, SWEEP_COLUMNS, rows)


def write_flexibility_report(path: str | Path, values: Sequence[float]) -> None:
    """One row of the flexibility experiment's peaks, in FLEXIBILITY_COLUMNS order."""
    if len(values) != len(FLEXIBILITY_COLUMNS):
        raise ValueError(f"a flexibility report has {len(FLEXIBILITY_COLUMNS)} values")
    _write_csv(path, FLEXIBILITY_COLUMNS, [values])
