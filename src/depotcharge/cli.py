"""Command-line scenario runner.

Two subcommands reproduce the evaluation end to end on files or
synthetic stand-ins:

``depotcharge week``
    Matching, scheduling, and metrics for the scenario list
    (uncontrolled, co2, flatten, weighted), plus the flatness-weight
    sweep.  Writes ``profiles.csv``, ``report.csv``, ``sweep.csv``, and
    any synthesized inputs under the output directory.

``depotcharge flexibility``
    The fluctuating-baseload experiment: a uniform dummy baseload is
    added to the real one, and the peak of coordinated flattening is
    compared against planning the fleet independently.  Writes
    ``flexibility_profiles.csv`` and ``flexibility_report.csv``.

Configuration comes from an optional JSON file plus flag overrides;
flags win.  Runs are deterministic given config and seed, and rerunning
produces byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import data, matching, metrics, synth
from .baseline import solve_uncontrolled
from .errors import DepotChargeError
from .flatten import FlattenProblem, solve_flatten
from .flow import EmissionSeries, solve_min_co2
from .model import BaseloadSeries, Horizon, Instance, Schedule, validate_schedule
from .weighted import DEFAULT_FLATNESS_SWEEP, Weights, solve_weighted, sweep

SCENARIOS = ("uncontrolled", "co2", "flatten", "weighted")

#: Power range of the small-office synthetic baseload used by ``week``
#: when no file is given: a depot office draws a few kilowatts at most,
#: marginal next to a megawatt-hour of nightly bus charging.
OFFICE_BASELOAD_KW = (0.0, 12.0)


@dataclass(frozen=True)
class WeekConfig:
    """Inputs for the weekly scenario run; None means synthesize."""

    seed: int = 0
    out_dir: str = "out"
    timetable: str | None = None
    emissions: str | None = None
    baseload: str | None = None
    scenarios: tuple[str, ...] = SCENARIOS
    co2_weight: float = 1.0
    flatness_weight: float = 2.0
    sweep: bool = True
    cap_kw: float | None = None
    charge_rate_kw: float = matching.DEFAULT_CHARGE_RATE_KW


@dataclass(frozen=True)
class FlexibilityConfig:
    """Inputs for the fluctuating-baseload experiment."""

    seed: int = 0
    out_dir: str = "out"
    timetable: str | None = None
    baseload: str | None = None
    dummy_low_kw: float = 40.0
    dummy_high_kw: float = 400.0
    charge_rate_kw: float = matching.DEFAULT_CHARGE_RATE_KW


#: JSON types a config value may take, by the annotation of its field.
_JSON_TYPES = {
    "int": int, "float": (int, float), "bool": bool, "str": str, "tuple[str, ...]": list,
    "str | None": (str, type(None)), "float | None": (int, float, type(None)),
}


@dataclass(frozen=True)
class FlexibilityResult:
    baseload_peak_kw: float
    bus_only_flat_peak_kw: float
    coordinated_peak_kw: float

    @property
    def additional_kw(self) -> float:
        return self.coordinated_peak_kw - self.baseload_peak_kw

    @property
    def gain_pct(self) -> float:
        return metrics.flexibility_gain(
            self.baseload_peak_kw, self.bus_only_flat_peak_kw, self.coordinated_peak_kw
        )


def _load_inputs(
    config: WeekConfig | FlexibilityConfig,
    horizon: Horizon,
    out_dir: Path,
    office_baseload: bool,
) -> tuple[data.LineTimetable, BaseloadSeries]:
    """Timetable and baseload from files or generators.

    Synthesized inputs are also written to the output directory so a
    run can be repeated from files.
    """
    if config.timetable is not None:
        timetable = data.load_timetable(config.timetable)
    else:
        timetable = synth.synth_timetable(seed=config.seed)
        data.write_timetable(out_dir / "timetable.csv", timetable)
    if config.baseload is not None:
        baseload = data.load_baseload(config.baseload, horizon)
    elif office_baseload:
        low, high = OFFICE_BASELOAD_KW
        baseload = synth.random_baseload(horizon, low, high, seed=config.seed)
        data.write_baseload(out_dir / "baseload.csv", baseload, horizon)
    else:
        baseload = BaseloadSeries(np.zeros(horizon.interval_count))
    return timetable, baseload


def _jobs_instance(
    timetable: data.LineTimetable,
    horizon: Horizon,
    charge_rate_kw: float,
    caps_kwh: np.ndarray | None = None,
) -> Instance:
    assignments = matching.match_week(timetable.lines, horizon, charge_rate_kw)
    jobs = matching.to_jobs(assignments, horizon, charge_rate_kw)
    return Instance(horizon=horizon, jobs=jobs, caps_kwh=caps_kwh)


def _solve_scenario(
    label: str,
    instance: Instance,
    emissions: EmissionSeries,
    baseload: BaseloadSeries,
    weights: Weights,
) -> Schedule:
    if label == "uncontrolled":
        return solve_uncontrolled(instance)
    if label == "co2":
        return solve_min_co2(instance, emissions)
    if label == "flatten":
        return solve_flatten(FlattenProblem(instance, baseload))
    if label == "weighted":
        return solve_weighted(instance, emissions, baseload, weights)
    raise ValueError(f"unknown scenario {label!r}")


def run_week(config: WeekConfig) -> tuple[metrics.ScenarioReport, ...]:
    """Execute the weekly experiment and write its CSV outputs."""
    for label in config.scenarios:
        if label not in SCENARIOS:
            raise ValueError(f"unknown scenario {label!r}; choose from {SCENARIOS}")
    if config.cap_kw is not None:
        capped_only = set(config.scenarios) <= {"co2"}
        if not capped_only or config.sweep:
            raise ValueError(
                "a grid cap applies to the co2 scenario only; run it without "
                "the sweep and without flattening scenarios"
            )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizon = synth.week_horizon()
    timetable, baseload = _load_inputs(config, horizon, out_dir, office_baseload=True)
    if config.emissions is not None:
        emissions = data.load_emissions(config.emissions, horizon)
    else:
        emissions = synth.sinusoid_emissions(horizon)
        data.write_emissions(out_dir / "emissions.csv", emissions, horizon)

    caps = None
    if config.cap_kw is not None:
        caps = np.full(
            horizon.interval_count, config.cap_kw * horizon.interval_hours
        )
    instance = _jobs_instance(timetable, horizon, config.charge_rate_kw, caps)
    weights = Weights(
        co2_weight=config.co2_weight, flatness_weight=config.flatness_weight
    )

    schedules: dict[str, Schedule] = {}
    for label in config.scenarios:
        try:
            schedule = _solve_scenario(label, instance, emissions, baseload, weights)
            validate_schedule(instance, schedule)
        except DepotChargeError as exc:
            raise type(exc)(f"scenario {label!r}: {exc}") from exc
        schedules[label] = schedule

    reports = tuple(
        metrics.scenario_report(
            label, schedule.aggregate_kwh, emissions.kg_per_kwh, horizon.interval_hours
        )
        for label, schedule in schedules.items()
    )
    baseline = next((report for report in reports if report.scenario == "uncontrolled"), None)
    if baseline is not None:
        reports = tuple(report if report is baseline else report.versus(baseline) for report in reports)

    hours = horizon.interval_hours
    data.write_profiles(
        out_dir / "profiles.csv",
        horizon,
        baseload.kwh / hours,
        {label: schedule.aggregate_kwh / hours for label, schedule in schedules.items()},
        emissions,
    )
    data.write_report(out_dir / "report.csv", reports)

    if config.sweep:
        points = sweep(
            instance,
            emissions,
            baseload,
            flatness_weights=DEFAULT_FLATNESS_SWEEP,
            co2_weight=config.co2_weight,
        )
        rows = []
        for weights_point, schedule in points:
            validate_schedule(instance, schedule)
            aggregate = schedule.aggregate_kwh
            rows.append(
                (
                    weights_point.flatness_weight,
                    metrics.peak_kw(aggregate, hours),
                    metrics.co2_total(aggregate, emissions.kg_per_kwh),
                    metrics.flatness(aggregate),
                )
            )
        data.write_sweep(out_dir / "sweep.csv", rows)
    return reports


def run_flexibility(config: FlexibilityConfig) -> FlexibilityResult:
    """Execute the fluctuating-baseload experiment and write its CSVs."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizon = synth.week_horizon()
    timetable, real_baseload = _load_inputs(
        config, horizon, out_dir, office_baseload=False
    )
    dummy = synth.random_baseload(
        horizon, config.dummy_low_kw, config.dummy_high_kw, seed=config.seed
    )
    combined = BaseloadSeries(real_baseload.kwh + dummy.kwh)
    data.write_baseload(out_dir / "combined_baseload.csv", combined, horizon)

    instance = _jobs_instance(timetable, horizon, config.charge_rate_kw)
    hours = horizon.interval_hours

    independent = solve_flatten(FlattenProblem(instance, baseload=None))
    validate_schedule(instance, independent)
    coordinated = solve_flatten(FlattenProblem(instance, baseload=combined))
    validate_schedule(instance, coordinated)

    result = FlexibilityResult(
        baseload_peak_kw=metrics.peak_kw(combined.kwh, hours),
        bus_only_flat_peak_kw=metrics.peak_kw(independent.aggregate_kwh, hours),
        coordinated_peak_kw=metrics.peak_kw(
            coordinated.aggregate_kwh + combined.kwh, hours
        ),
    )

    emissions = synth.sinusoid_emissions(horizon)
    data.write_profiles(
        out_dir / "flexibility_profiles.csv",
        horizon,
        combined.kwh / hours,
        {
            "coordinated": coordinated.aggregate_kwh / hours,
            "independent": independent.aggregate_kwh / hours,
        },
        emissions,
    )
    # The result's fields are the first three flexibility report columns.
    data.write_flexibility_report(
        out_dir / "flexibility_report.csv", (*astuple(result), result.additional_kw, result.gain_pct)
    )
    return result


def _config_from(
    cls, path: str | None, overrides: dict[str, object]
):
    """Defaults, then the JSON file, then non-None flag overrides."""
    values: dict[str, object] = {}
    known = {f.name for f in fields(cls)}
    if path is not None:
        with open(path) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = set(loaded) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in loaded.items():
            # A flatness weight may be a string, as with --wf ("inf").
            allowed = (int, float, str) if key == "flatness_weight" else _JSON_TYPES[types[key]]
            if (
                not isinstance(value, allowed)
                or isinstance(value, bool) != (types[key] == "bool")
                or isinstance(value, list) and not all(isinstance(v, str) for v in value)
            ):
                raise ValueError(f"{path}: config key {key!r} takes {types[key]}, not {value!r}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "scenarios" in values:
        values["scenarios"] = tuple(values["scenarios"])
    if "flatness_weight" in values:
        values["flatness_weight"] = float(values["flatness_weight"])
    return cls(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depotcharge",
        description="Depot charging schedules: weekly scenarios and the "
        "baseload flexibility experiment.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("--seed", type=int, help="seed for synthesized inputs")
        sub.add_argument("--out-dir", help="output directory (default: out)")
        sub.add_argument("--timetable", help="timetable CSV; omit to synthesize")
        sub.add_argument("--baseload", help="baseload CSV; omit to synthesize")

    week = commands.add_parser("week", help="run the weekly scenario comparison")
    common(week)
    week.add_argument("--emissions", help="emission CSV; omit to synthesize")
    week.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIOS,
        dest="scenarios",
        help="scenario to run (repeatable; default: all four)",
    )
    week.add_argument("--wc", type=float, dest="co2_weight", help="emission weight")
    week.add_argument(
        "--wf",
        type=str,
        dest="flatness_weight",
        help="flatness weight; 'inf' selects pure flattening",
    )
    week.add_argument(
        "--sweep",
        action=argparse.BooleanOptionalAction,
        help="also sweep the flatness weight (default: on)",
    )
    week.add_argument(
        "--cap-kw",
        type=float,
        dest="cap_kw",
        help="grid connection cap in kW (co2 scenario only)",
    )

    flexibility = commands.add_parser(
        "flexibility", help="run the fluctuating-baseload experiment"
    )
    common(flexibility)
    flexibility.add_argument(
        "--dummy-low-kw", type=float, dest="dummy_low_kw", help="dummy baseload floor"
    )
    flexibility.add_argument(
        "--dummy-high-kw", type=float, dest="dummy_high_kw", help="dummy baseload cap"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        if args.command == "week":
            config = _config_from(WeekConfig, args.config, overrides)
            reports = run_week(config)
            for report in reports:
                print(
                    f"{report.scenario}: flatness={report.flatness_kwh2:.6g} kWh^2, "
                    f"co2={report.co2_kg:.6g} kg, peak={report.peak_kw:.6g} kW"
                )
        else:
            config = _config_from(FlexibilityConfig, args.config, overrides)
            result = run_flexibility(config)
            print(
                f"baseload peak {result.baseload_peak_kw:.1f} kW, "
                f"independent fleet peak {result.bus_only_flat_peak_kw:.1f} kW, "
                f"coordinated peak {result.coordinated_peak_kw:.1f} kW"
            )
            print(
                f"additional capacity {result.additional_kw:.1f} kW "
                f"(gain {result.gain_pct:.0f}%)"
            )
    except (DepotChargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
