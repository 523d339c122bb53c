"""Output checks computed apart from the solvers, and their self-tests.

Each check returns a list of problems; an empty list means it passed.
Problems start with a tag (``validate:``, ``co2-lp:``, ``exchange:``,
``sweep-monotone:`` ...) so that a self-test can tell which check
rejected a spoiled output.

The checks rest on the explicit constraint system and the written CSV
files, not on the solvers' internals:

* ``validate:`` the package's ``validate_schedule`` (energies, rates,
  windows and, for capped instances, the per-interval caps);
* ``co2-lp:`` the emission total against ``oracle.lp_min_co2``, a
  scipy-HiGHS LP that shares no code with ``flow``;
* ``exchange:`` per-job exchange optimality (the KKT condition of the
  squared-profile objective) at the package README's 1e-5 kWh;
* ``sweep-*:`` monotone trade-off, exact endpoints, no dominated point;
* ``profiles:``, ``report:``, ``sweep.csv:``, ``flex-*:`` the written
  CSVs recomputed from the written profiles and the schedules;
* ``rerun:`` byte-identical outputs across passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

#: Exchange-optimality tolerance (kWh), the package README's criterion 6.
EXCHANGE_TOL = 1e-5

#: Allocation below this (kWh) counts as empty in the exchange test.
EXCHANGE_EPS = 1e-6

#: Relative tolerance of the emission total against the LP optimum.
CO2_RTOL = 1e-9

#: Relative tolerance for sweep monotonicity and dominance.
SWEEP_RTOL = 1e-9

#: Relative tolerance for CSV values recomputed from other CSV values.
CSV_RTOL = 1e-9


# --------------------------------------------------------------- schedules


def check_valid(instance, schedule) -> list[str]:
    from depotcharge.model import validate_schedule

    try:
        validate_schedule(instance, schedule)
    except ValueError as exc:
        return [f"validate: {exc}"]
    return []


def co2_total(aggregate: np.ndarray, factors: np.ndarray) -> float:
    return float(np.dot(np.asarray(aggregate, dtype=float), np.asarray(factors, dtype=float)))


def check_co2(schedule, factors: np.ndarray, lp_objective: float) -> list[str]:
    value = co2_total(schedule.aggregate_kwh, factors)
    gap = abs(value - lp_objective) / max(1.0, abs(lp_objective))
    if gap > CO2_RTOL:
        return [f"co2-lp: total {value!r} vs LP optimum {lp_objective!r} (relative {gap:.2e})"]
    return []


def exchange_gap(instance, schedule, bed_kwh: np.ndarray) -> float:
    """Largest level drop a job could still exploit by moving energy.

    For each job, a donor interval holds more than EXCHANGE_EPS and a
    receiver has more than EXCHANGE_EPS of rate headroom; moving energy
    from the fullest donor to the emptiest receiver would lower the
    squared-profile objective whenever the donor sits higher.
    """
    levels = np.asarray(schedule.aggregate_kwh, dtype=float) + bed_kwh
    worst = 0.0
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        window = levels[job.arrival : job.departure]
        donors = values > EXCHANGE_EPS
        receivers = values < job.max_rate_kwh - EXCHANGE_EPS
        if donors.any() and receivers.any():
            worst = max(worst, float(window[donors].max() - window[receivers].min()))
    return worst


def check_exchange(instance, schedule, bed_kwh: np.ndarray) -> list[str]:
    gap = exchange_gap(instance, schedule, bed_kwh)
    if gap > EXCHANGE_TOL:
        return [f"exchange: a job could move energy down by a level gap of {gap:.3e} kWh"]
    return []


def weighted_value(aggregate, factors, baseload_kwh, flatness_weight: float) -> float:
    """wc * CO2 + wf * sum (s + b)^2 with wc = 1, straight from the definition."""
    totals = np.asarray(aggregate, dtype=float) + baseload_kwh
    return co2_total(aggregate, factors) + flatness_weight * float(np.dot(totals, totals))


def check_sweep(points, co2_schedule, flat_schedule, factors, baseload_kwh) -> list[str]:
    """Sweep points ``[(flatness_weight, schedule), ...]`` in sweep order."""
    problems = []
    weights = [w for w, _ in points]
    if len(points) < 2 or weights[0] != 0.0 or not math.isinf(weights[-1]) or weights != sorted(weights):
        return [f"sweep-monotone: unexpected weight grid {weights}"]
    co2 = [co2_total(s.aggregate_kwh, factors) for _, s in points]
    flat = [
        float(np.dot(s.aggregate_kwh + baseload_kwh, s.aggregate_kwh + baseload_kwh))
        for _, s in points
    ]
    for k in range(1, len(points)):
        if co2[k] < co2[k - 1] - SWEEP_RTOL * abs(co2[k - 1]):
            problems.append(f"sweep-monotone: CO2 falls from w={weights[k - 1]} to w={weights[k]}")
        if flat[k] > flat[k - 1] + SWEEP_RTOL * abs(flat[k - 1]):
            problems.append(f"sweep-monotone: flatness rises from w={weights[k - 1]} to w={weights[k]}")
    if not np.array_equal(points[0][1].aggregate_kwh, co2_schedule.aggregate_kwh):
        problems.append("sweep-endpoint: w=0 differs from the co2 schedule")
    if not np.array_equal(points[-1][1].aggregate_kwh, flat_schedule.aggregate_kwh):
        problems.append("sweep-endpoint: w=inf differs from the flatten schedule")
    problems += check_dominance(points[1:-1], co2_schedule, flat_schedule, factors, baseload_kwh)
    return problems


def check_dominance(points, co2_schedule, flat_schedule, factors, baseload_kwh) -> list[str]:
    problems = []
    for weight, schedule in points:
        value = weighted_value(schedule.aggregate_kwh, factors, baseload_kwh, weight)
        for name, rival in (("co2", co2_schedule), ("flatten", flat_schedule)):
            rival_value = weighted_value(rival.aggregate_kwh, factors, baseload_kwh, weight)
            if value > rival_value + SWEEP_RTOL * max(1.0, abs(rival_value)):
                problems.append(f"sweep-dominance: the {name} schedule beats w={weight}")
    return problems


# --------------------------------------------------------------------- CSVs


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def read_series(path: Path) -> np.ndarray:
    """Second column of a ``timestamp,value`` CSV."""
    _, rows = read_csv(path)
    return np.array([float(row[1]) for row in rows])


def _close(value: float, reference: float, rtol: float = CSV_RTOL) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


def _profile_columns(path: Path, labels: list[str], tag: str):
    header, rows = read_csv(path)
    expected = ["timestamp", "baseload_kw"] + [f"{label}_kw" for label in labels] + ["co2_kg_per_kwh"]
    if header != expected:
        return None, [f"{tag}: header {header} != {expected}"]
    table = np.array([[float(cell) for cell in row[1:]] for row in rows])
    columns = {"baseload": table[:, 0], "co2_kg_per_kwh": table[:, -1]}
    for k, label in enumerate(labels):
        columns[label] = table[:, 1 + k]
    return columns, []


def _match_profile(tag: str, name: str, kw: np.ndarray, kwh: np.ndarray, hours: float) -> list[str]:
    if kw.shape != kwh.shape or not np.allclose(kw * hours, kwh, rtol=1e-12, atol=0.0):
        return [f"{tag}: column {name} does not match the schedule it reports"]
    return []


def check_week_outputs(out_dir: Path, schedules: dict, sweep_points, baseload_kwh, factors, hours) -> list[str]:
    """profiles.csv against the schedules, report.csv and sweep.csv recomputed."""
    labels = list(schedules)
    columns, problems = _profile_columns(out_dir / "profiles.csv", labels, "profiles")
    if columns is None:
        return problems
    problems += _match_profile("profiles", "baseload_kw", columns["baseload"], baseload_kwh, hours)
    if not np.allclose(columns["co2_kg_per_kwh"], factors, rtol=1e-12, atol=0.0):
        problems.append("profiles: emission column differs from the input")
    for label, schedule in schedules.items():
        problems += _match_profile("profiles", f"{label}_kw", columns[label], schedule.aggregate_kwh, hours)

    def metrics_of(kw: np.ndarray) -> tuple[float, float, float]:
        kwh = kw * hours
        return float(np.dot(kwh, kwh)), co2_total(kwh, columns["co2_kg_per_kwh"]), float(kw.max())

    header, rows = read_csv(out_dir / "report.csv")
    if [row[0] for row in rows] != labels:
        return problems + [f"report: scenarios {[row[0] for row in rows]} != {labels}"]
    base = metrics_of(columns["uncontrolled"]) if "uncontrolled" in labels else None
    for row in rows:
        expected = metrics_of(columns[row[0]])
        for name, text, value in zip(header[1:4], row[1:4], expected):
            if not _close(float(text), value):
                problems.append(f"report: {row[0]} {name} {text} != recomputed {value!r}")
        for name, text, value, reference in zip(header[4:7], row[4:7], expected, base or (None,) * 3):
            if base is None or row[0] == "uncontrolled":
                if text != "":
                    problems.append(f"report: {row[0]} {name} should be empty")
            elif not abs(float(text) - 100.0 * (1.0 - value / reference)) <= CSV_RTOL * 100.0:
                problems.append(f"report: {row[0]} {name} {text} does not match its reduction")

    if sweep_points is not None:
        problems += _check_sweep_csv(out_dir / "sweep.csv", sweep_points, columns, metrics_of, factors, hours)
    return problems


def _check_sweep_csv(path, sweep_points, columns, metrics_of, factors, hours) -> list[str]:
    problems = []
    _, rows = read_csv(path)
    if len(rows) != len(sweep_points):
        return [f"sweep.csv: {len(rows)} rows for {len(sweep_points)} sweep points"]
    for row, (weight, schedule) in zip(rows, sweep_points):
        agg = schedule.aggregate_kwh
        expected = (weight, float(agg.max()) / hours, co2_total(agg, factors), float(np.dot(agg, agg)))
        for text, value in zip(row, expected):
            if not (float(text) == value or _close(float(text), value)):
                problems.append(f"sweep.csv: row w={weight} cell {text} != recomputed {value!r}")
    # The endpoints reappear as the co2 and flatten profiles.
    for row, label in ((rows[0], "co2"), (rows[-1], "flatten")):
        if label in columns:
            flat, co2, peak = metrics_of(columns[label])
            for text, value in zip(row[1:], (peak, co2, flat)):
                if not _close(float(text), value):
                    problems.append(f"sweep.csv: endpoint row does not match the {label} profile")
    return problems


def check_flexibility_outputs(out_dir: Path, independent, coordinated, rugged_kwh, hours) -> list[str]:
    """Flexibility CSVs recomputed from the written profiles."""
    columns, problems = _profile_columns(
        out_dir / "flexibility_profiles.csv", ["coordinated", "independent"], "flex-profiles"
    )
    if columns is None:
        return problems
    problems += _match_profile("flex-profiles", "baseload_kw", columns["baseload"], rugged_kwh, hours)
    problems += _match_profile("flex-profiles", "coordinated_kw", columns["coordinated"], coordinated.aggregate_kwh, hours)
    problems += _match_profile("flex-profiles", "independent_kw", columns["independent"], independent.aggregate_kwh, hours)
    combined = read_series(out_dir / "combined_baseload.csv")
    if combined.shape != rugged_kwh.shape or not np.allclose(combined, rugged_kwh, rtol=1e-12, atol=0.0):
        problems.append("flex-profiles: combined_baseload.csv differs from the solved baseload")

    base_kwh = columns["baseload"] * hours
    baseload_peak = float(columns["baseload"].max())
    bus_only = float(columns["independent"].max())
    coordinated_peak = float((columns["coordinated"] * hours + base_kwh).max()) / hours
    additional = coordinated_peak - baseload_peak
    expected = (baseload_peak, bus_only, coordinated_peak, additional, 100.0 * (1.0 - additional / bus_only))
    header, rows = read_csv(out_dir / "flexibility_report.csv")
    if len(rows) != 1 or len(rows[0]) != len(expected):
        return problems + ["flex-report: expected one row of five values"]
    written = [float(text) for text in rows[0]]
    for name, text, value in zip(header, written, expected):
        if not _close(text, value):
            problems.append(f"flex-report: {name} {text!r} != recomputed {value!r}")
    problems += check_stacked(written[0], written[1], written[2])
    return problems


def check_stacked(baseload_peak: float, bus_only_peak: float, coordinated_peak: float) -> list[str]:
    if coordinated_peak > baseload_peak + bus_only_peak + 1e-9:
        return [f"flex-stacked: coordinated peak {coordinated_peak} exceeds the stacked peaks"]
    return []


def digests(out_dir: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*.csv"))
    }


def check_rerun(first: dict[str, str], current: dict[str, str]) -> list[str]:
    if first != current:
        changed = sorted(name for name in set(first) | set(current) if first.get(name) != current.get(name))
        return [f"rerun: outputs differ from the first pass: {changed}"]
    return []


# --------------------------------------------------------------- self-tests


def rejects(problems: list[str], tag: str) -> bool:
    return any(problem.startswith(tag) for problem in problems)


def rebuilt(instance, schedule, job_id: str, values: np.ndarray):
    from depotcharge.model import Schedule

    allocations = {job.id: np.array(schedule.window_energy[job.id]) for job in instance.jobs}
    allocations[job_id] = values
    return Schedule.build(instance, allocations)


def spoil_short_delivery(instance, schedule):
    for job in instance.jobs:
        values = np.array(schedule.window_energy[job.id])
        positive = np.flatnonzero(values > 1e-3)
        if len(positive):
            values[positive[0]] -= 1e-3
            return rebuilt(instance, schedule, job.id, values)
    return None


def spoil_co2(instance, schedule, factors):
    """Move energy to a dirtier interval so the CO2 total rises 1e-6 relative."""
    total = co2_total(schedule.aggregate_kwh, factors)
    best = None
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        window = factors[job.arrival : job.departure]
        donors = np.flatnonzero(values > 0.0)
        receivers = np.flatnonzero(values < job.max_rate_kwh)
        if len(donors) and len(receivers):
            d = donors[np.argmin(window[donors])]
            r = receivers[np.argmax(window[receivers])]
            spread = float(window[r] - window[d])
            if spread > 0 and (best is None or spread > best[0]):
                best = (spread, job, d, r)
    if best is None:
        return None
    spread, job, d, r = best
    values = np.array(schedule.window_energy[job.id])
    amount = 1e-6 * total / spread
    if amount > min(values[d], job.max_rate_kwh - values[r]):
        return None
    values[d] -= amount
    values[r] += amount
    return rebuilt(instance, schedule, job.id, values)


def spoil_exchange(instance, schedule, bed_kwh, amount: float = 1e-3):
    """Move energy from a lower interval into a fuller one of the same window."""
    levels = schedule.aggregate_kwh + bed_kwh
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        window = levels[job.arrival : job.departure]
        donors = np.flatnonzero(values >= amount)
        receivers = np.flatnonzero(values <= job.max_rate_kwh - amount)
        if len(donors) and len(receivers):
            d = donors[np.argmin(window[donors])]
            r = receivers[np.argmax(window[receivers])]
            if window[r] - window[d] > 100 * EXCHANGE_TOL:
                moved = np.array(values)
                moved[d] -= amount
                moved[r] += amount
                return rebuilt(instance, schedule, job.id, moved)
    return None


def spoil_cap(instance, schedule, amount: float = 1e-3):
    """Move energy from an interval below its cap into one at its cap."""
    caps = np.asarray(instance.caps_kwh)
    full = schedule.aggregate_kwh >= caps - 1e-9
    for job in instance.jobs:
        values = schedule.window_energy[job.id]
        window = np.arange(job.arrival, job.departure)
        into = np.flatnonzero(full[window] & (values <= job.max_rate_kwh - amount))
        out_of = np.flatnonzero(~full[window] & (values >= amount))
        if len(into) and len(out_of):
            moved = np.array(values)
            moved[into[0]] += amount
            moved[out_of[0]] -= amount
            return rebuilt(instance, schedule, job.id, moved)
    return None


def spoil_csv_cell(path: Path, row: int, column: int) -> None:
    """Scale one numeric cell by 1 + 1e-6, the way a stale or edited file would differ."""
    header, rows = read_csv(path)
    rows[row][column] = repr(float(rows[row][column]) * (1.0 + 1e-6) or 1e-6)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def spoiled_copy(out_dir: Path, scratch: Path) -> Path:
    if scratch.exists():
        shutil.rmtree(scratch)
    shutil.copytree(out_dir, scratch)
    return scratch
