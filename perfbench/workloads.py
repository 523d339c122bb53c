"""Workload inputs and passes.

``build_inputs`` makes a workload's CSV inputs from the seed;
``run_pass`` runs the package's public entry points on them once.

* ``week``: the depot's roster is the synthetic seed-0 week (210 jobs),
  fixed like the single real week the paper evaluates; the seed draws
  the 0-12 kW office baseload.  The emission curve is the day-night
  sinusoid.  All four scenarios and the 13-point flatness-weight sweep
  run.  Keeping the roster fixed keeps the work per pass within about
  2% across seeds; new rosters moved it by 10-15%.
* ``capped-co2``: the same inputs, the ``co2`` scenario only, under a
  600 kW grid cap (150 kWh per interval), no sweep.  The baseload does
  not enter the CO2 objective, so this workload's inputs are the same
  for every seed.
* ``fleet-4x``: the flexibility experiment on four 840-job fleets drawn
  with ``TimetableProfile`` at four times the daily line counts
  (timetable seeds 0-3), each under its own rugged 160-1600 kW dummy
  baseload, which ``run_flexibility`` draws from the fleet's seed.  The
  fleets are fixed because the F2 failure (see perfbench/README.md) hits some
  fleets and not others; the dummy baseloads are fixed because a new
  draw moves one coordinated solve's work by up to 27%, more than a
  ``slowest_solve_s`` bound can absorb.  The inputs are therefore the
  same for every seed.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("week", "capped-co2", "fleet-4x")

#: Timetable seed of the fixed week roster.
WEEK_ROSTER_SEED = 0

#: Grid connection cap of ``capped-co2``, kW.
CAP_KW = 600.0

#: Fleet scale and fixed timetable seeds of ``fleet-4x``; each fleet's
#: dummy baseload is drawn from its own seed too.
FLEET_SCALE = 4
FLEET_SEEDS = (0, 1, 2, 3)

#: Rugged dummy baseload range of ``fleet-4x``: the flexibility
#: experiment's 40-400 kW, scaled with the fleet.
DUMMY_KW = (40.0 * FLEET_SCALE, 400.0 * FLEET_SCALE)


def build_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input CSVs for ``seed`` into ``out``."""
    from depotcharge import cli, data, synth

    out.mkdir(parents=True, exist_ok=True)
    horizon = synth.week_horizon()
    if workload in ("week", "capped-co2"):
        data.write_timetable(
            out / "timetable.csv", synth.synth_timetable(seed=WEEK_ROSTER_SEED)
        )
        low, high = cli.OFFICE_BASELOAD_KW
        data.write_baseload(
            out / "baseload.csv", synth.random_baseload(horizon, low, high, seed=seed), horizon
        )
        data.write_emissions(out / "emissions.csv", synth.sinusoid_emissions(horizon), horizon)
        return
    base = synth.TimetableProfile()
    profile = synth.TimetableProfile(
        lines_per_day=tuple(FLEET_SCALE * count for count in base.lines_per_day)
    )
    for fleet in FLEET_SEEDS:
        data.write_timetable(
            out / f"fleet{fleet}.csv", synth.synth_timetable(seed=fleet, profile=profile)
        )


def week_config(workload: str, seed: int, inputs: Path, out: Path):
    from depotcharge.cli import WeekConfig

    files = dict(
        seed=seed,
        out_dir=str(out),
        timetable=str(inputs / "timetable.csv"),
        baseload=str(inputs / "baseload.csv"),
        emissions=str(inputs / "emissions.csv"),
    )
    if workload == "capped-co2":
        return WeekConfig(scenarios=("co2",), sweep=False, cap_kw=CAP_KW, **files)
    return WeekConfig(**files)


def run_pass(workload: str, seed: int, inputs: Path, out: Path, tracer) -> None:
    """One pass of the workload; each entry-point call gets a ``cli.*`` span."""
    from depotcharge import cli
    from depotcharge.cli import FlexibilityConfig

    if workload in ("week", "capped-co2"):
        with tracer.span("cli.run_week"):
            cli.run_week(week_config(workload, seed, inputs, out))
        return
    low, high = DUMMY_KW
    for fleet in FLEET_SEEDS:
        config = FlexibilityConfig(
            seed=fleet,
            out_dir=str(out / f"fleet{fleet}"),
            timetable=str(inputs / f"fleet{fleet}.csv"),
            dummy_low_kw=low,
            dummy_high_kw=high,
        )
        with tracer.span("cli.run_flexibility", f"fleet{fleet}"):
            cli.run_flexibility(config)


def instance_from_files(workload: str, inputs: Path):
    """The instance the week workloads schedule, built as the CLI builds it."""
    import numpy as np

    from depotcharge import data, matching, synth
    from depotcharge.model import Instance

    horizon = synth.week_horizon()
    timetable = data.load_timetable(inputs / "timetable.csv")
    rate = matching.DEFAULT_CHARGE_RATE_KW
    jobs = matching.to_jobs(matching.match_week(timetable.lines, horizon, rate), horizon, rate)
    caps = None
    if workload == "capped-co2":
        caps = np.full(horizon.interval_count, CAP_KW * horizon.interval_hours)
    return Instance(horizon=horizon, jobs=jobs, caps_kwh=caps)


def instance_key(instance) -> str:
    """Digest of an instance's jobs and caps, to tie an oracle to a pass."""
    import hashlib

    text = repr([(j.id, j.arrival, j.departure, j.energy_kwh, j.max_rate_kwh) for j in instance.jobs])
    caps = b"" if instance.caps_kwh is None else instance.caps_kwh.tobytes()
    return hashlib.sha256(text.encode() + caps).hexdigest()
