"""Acceptance suite: eight headline guarantees, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``-v`` plus ``-s``, or in the captured output of a failure) and asserts
the same condition, so the test listing itself reads as the checklist.
"""

import time

import numpy as np
import pytest

from depotcharge import metrics
from depotcharge.baseline import solve_uncontrolled
from depotcharge.cli import (
    OFFICE_BASELOAD_KW,
    FlexibilityConfig,
    WeekConfig,
    run_flexibility,
    run_week,
)
from depotcharge.flatten import FlattenProblem, solve_flatten
from depotcharge.flow import EmissionSeries, solve_min_co2
from depotcharge.matching import match_week, to_jobs
from depotcharge.model import EXCHANGE_ATOL, BaseloadSeries, Instance, Schedule
from depotcharge.oracle import lp_min_co2, qp_flatten
from depotcharge.synth import (
    random_baseload,
    sinusoid_emissions,
    synth_timetable,
    week_horizon,
)
from depotcharge.weighted import Weights, emission_baseload, solve_weighted, sweep, weighted_objective

from helpers import assert_exchange_optimal, random_emissions, random_instance
from helpers import random_baseload as random_baseload_array

ORACLE_RTOL = 1e-6
IDENTITY_RTOL = 1e-8
SEED_COUNT = 10


def verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def week_instance(seed: int) -> tuple[Instance, BaseloadSeries, EmissionSeries]:
    horizon = week_horizon()
    timetable = synth_timetable(seed=seed)
    jobs = to_jobs(match_week(timetable.lines, horizon), horizon)
    low, high = OFFICE_BASELOAD_KW
    return (
        Instance(horizon=horizon, jobs=jobs),
        random_baseload(horizon, low, high, seed=seed),
        sinusoid_emissions(horizon),
    )


def random_schedule(rng: np.random.Generator, instance: Instance) -> Schedule:
    """Even spread followed by random feasibility-preserving transfers."""
    allocations = {}
    for job in instance.jobs:
        width = job.departure - job.arrival
        values = np.full(width, job.energy_kwh / width)
        for _ in range(3 * width):
            a, b = rng.integers(0, width, 2)
            if a == b:
                continue
            move = min(float(values[a]), job.max_rate_kwh - float(values[b]))
            move *= float(rng.random())
            values[a] -= move
            values[b] += move
        allocations[job.id] = values
    return Schedule.build(instance, allocations)


@pytest.fixture(scope="module")
def timed_week_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_week")
    start = time.perf_counter()
    run_week(WeekConfig(seed=0, out_dir=str(out)))
    return time.perf_counter() - start, out


def test_criterion_1_solver_objectives_match_reference_solvers():
    rng = np.random.default_rng(20230605)
    start = time.perf_counter()
    checked = 0
    worst = 0.0

    for _ in range(80):
        instance = random_instance(rng)
        co2 = random_emissions(rng, instance.interval_count)
        schedule = solve_min_co2(instance, EmissionSeries(co2))
        reference = lp_min_co2(instance, co2)
        worst = max(worst, rel_err(metrics.co2_total(schedule.aggregate_kwh, co2), reference.objective))
        checked += 1

    for _ in range(40):
        instance = random_instance(rng, with_caps=True)
        co2 = random_emissions(rng, instance.interval_count)
        schedule = solve_min_co2(instance, EmissionSeries(co2))
        reference = lp_min_co2(instance, co2)
        worst = max(worst, rel_err(metrics.co2_total(schedule.aggregate_kwh, co2), reference.objective))
        checked += 1

    for trial in range(50):
        instance = random_instance(rng)
        baseload = (
            random_baseload_array(rng, instance.interval_count)
            if trial % 2
            else np.zeros(instance.interval_count)
        )
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        reference = qp_flatten(instance, baseload)
        value = metrics.flatness(schedule.aggregate_kwh + baseload)
        worst = max(worst, rel_err(value, reference.objective))
        checked += 1

    for trial in range(30):
        instance = random_instance(rng)
        co2 = random_emissions(rng, instance.interval_count)
        baseload = random_baseload_array(rng, instance.interval_count)
        weights = Weights(1.0, (0.5, 1.0, 2.0, 5.0)[trial % 4])
        schedule = solve_weighted(
            instance, EmissionSeries(co2), BaseloadSeries(baseload), weights
        )
        bed = baseload + emission_baseload(EmissionSeries(co2), weights).kwh
        reference = qp_flatten(instance, bed)
        value = metrics.flatness(schedule.aggregate_kwh + bed)
        worst = max(worst, rel_err(value, reference.objective))
        checked += 1

    elapsed = time.perf_counter() - start
    verdict(
        1,
        checked >= 200 and worst <= ORACLE_RTOL and elapsed <= 60.0,
        f"{checked} instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_square_completion_identity_and_dominance():
    rng = np.random.default_rng(7)
    worst_identity = 0.0
    dominated = True

    for _ in range(60):
        instance = random_instance(rng)
        m = instance.interval_count
        emissions = EmissionSeries(random_emissions(rng, m))
        baseload = random_baseload_array(rng, m)
        weights = Weights(
            float(rng.choice((0.5, 1.0, 2.0))), float(rng.choice((0.5, 1.0, 2.0, 5.0)))
        )
        schedule = random_schedule(rng, instance)
        direct = weighted_objective(schedule, emissions, BaseloadSeries(baseload), weights)
        beta = emission_baseload(emissions, weights).kwh
        totals = schedule.aggregate_kwh + baseload + beta
        expanded = weights.flatness_weight * (
            float(totals @ totals) - float(beta @ (beta + 2.0 * baseload))
        )
        worst_identity = max(worst_identity, rel_err(direct, expanded))

    for _ in range(30):
        instance = random_instance(rng)
        m = instance.interval_count
        emissions = EmissionSeries(random_emissions(rng, m))
        baseload = BaseloadSeries(random_baseload_array(rng, m))
        weights = Weights(1.0, float(rng.choice((0.5, 1.0, 2.0, 5.0))))
        combined = solve_weighted(instance, emissions, baseload, weights)
        flat = solve_flatten(FlattenProblem(instance, baseload))
        cheap = solve_min_co2(instance, emissions)
        best = weighted_objective(combined, emissions, baseload, weights)
        for rival in (flat, cheap):
            rival_value = weighted_objective(rival, emissions, baseload, weights)
            if best > rival_value + IDENTITY_RTOL * max(1.0, abs(rival_value)):
                dominated = False

    verdict(
        2,
        worst_identity <= IDENTITY_RTOL and dominated,
        f"worst identity error {worst_identity:.2e}, dominance={dominated}",
    )


def test_criterion_3_weight_sweep_is_monotone_with_exact_endpoints():
    instance, baseload, emissions = week_instance(seed=0)
    points = sweep(instance, emissions, baseload)

    co2_values = [metrics.co2_total(s.aggregate_kwh, emissions.kg_per_kwh) for _, s in points]
    flatness_values = [
        metrics.flatness(s.aggregate_kwh + baseload.kwh) for _, s in points
    ]
    monotone = True
    for previous, current in zip(co2_values, co2_values[1:]):
        if current < previous - 1e-6 * max(1.0, abs(previous)):
            monotone = False
    for previous, current in zip(flatness_values, flatness_values[1:]):
        if current > previous + 1e-6 * max(1.0, abs(previous)):
            monotone = False

    first_weights, first_schedule = points[0]
    last_weights, last_schedule = points[-1]
    endpoints = (
        first_weights.is_pure_co2
        and last_weights.is_pure_flatten
        and np.array_equal(
            first_schedule.aggregate_kwh, solve_min_co2(instance, emissions).aggregate_kwh
        )
        and np.array_equal(
            last_schedule.aggregate_kwh,
            solve_flatten(FlattenProblem(instance, baseload)).aggregate_kwh,
        )
    )
    verdict(
        3,
        len(points) == 13 and monotone and endpoints,
        f"{len(points)} points, monotone={monotone}, endpoints={endpoints}",
    )


def test_criterion_4_scenario_cuts_hold_across_ten_seeds():
    weights = Weights(1.0, 2.0)
    worst_peak_cut = np.inf
    worst_co2_cut = np.inf
    between_everywhere = True

    for seed in range(SEED_COUNT):
        instance, baseload, emissions = week_instance(seed)
        hours = instance.horizon.interval_hours

        def peak(schedule):
            return metrics.peak_kw(schedule.aggregate_kwh, hours)

        def co2(schedule):
            return metrics.co2_total(schedule.aggregate_kwh, emissions.kg_per_kwh)

        uncontrolled = solve_uncontrolled(instance)
        flat = solve_flatten(FlattenProblem(instance, baseload))
        cheapest = solve_min_co2(instance, emissions)
        balanced = solve_weighted(instance, emissions, baseload, weights)

        worst_peak_cut = min(
            worst_peak_cut, metrics.reduction_pct(peak(uncontrolled), peak(flat))
        )
        worst_co2_cut = min(
            worst_co2_cut, metrics.reduction_pct(co2(uncontrolled), co2(cheapest))
        )
        between = (
            peak(flat) < peak(balanced) < peak(cheapest)
            and co2(cheapest) < co2(balanced) < co2(flat)
        )
        between_everywhere = between_everywhere and between

    verdict(
        4,
        worst_peak_cut >= 40.0 and worst_co2_cut >= 15.0 and between_everywhere,
        f"min peak cut {worst_peak_cut:.1f}%, min co2 cut {worst_co2_cut:.1f}%, "
        f"balanced strictly between on every seed={between_everywhere}",
    )


def test_criterion_5_coordination_recovers_capacity(tmp_path):
    gains = []
    guard_everywhere = True
    for seed in range(SEED_COUNT):
        result = run_flexibility(
            FlexibilityConfig(seed=seed, out_dir=str(tmp_path / f"flex{seed}"))
        )
        stacked = result.baseload_peak_kw + result.bus_only_flat_peak_kw
        if result.coordinated_peak_kw > stacked + 1e-9:
            guard_everywhere = False
        gains.append(result.gain_pct)

    good = sum(gain >= 30.0 for gain in gains)
    verdict(
        5,
        guard_everywhere and good >= SEED_COUNT - 1,
        f"coordinated<=stacked on all seeds={guard_everywhere}, "
        f"gain>=30% on {good}/{SEED_COUNT} seeds (min {min(gains):.1f}%)",
    )


def test_criterion_6_flattening_outputs_are_exchange_optimal():
    rng = np.random.default_rng(99)
    checked = 0

    for trial in range(30):
        instance = random_instance(rng)
        baseload = (
            random_baseload_array(rng, instance.interval_count)
            if trial % 2
            else np.zeros(instance.interval_count)
        )
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        assert_exchange_optimal(instance, schedule, baseload, tol=EXCHANGE_ATOL)
        checked += 1

    for trial in range(30):
        instance = random_instance(rng)
        emissions = EmissionSeries(random_emissions(rng, instance.interval_count))
        baseload = random_baseload_array(rng, instance.interval_count)
        weights = Weights(1.0, (0.5, 1.0, 2.0, 5.0)[trial % 4])
        schedule = solve_weighted(
            instance, emissions, BaseloadSeries(baseload), weights
        )
        bed = baseload + emission_baseload(emissions, weights).kwh
        assert_exchange_optimal(instance, schedule, bed, tol=EXCHANGE_ATOL)
        checked += 1

    instance, baseload, emissions = week_instance(seed=0)
    flat = solve_flatten(FlattenProblem(instance, baseload))
    assert_exchange_optimal(instance, flat, baseload.kwh, tol=EXCHANGE_ATOL)
    checked += 1
    # Weight 0.1 lays the deepest emission bed of the sweep under the week.
    for flatness_weight in (2.0, 0.1):
        weights = Weights(1.0, flatness_weight)
        balanced = solve_weighted(instance, emissions, baseload, weights)
        bed = baseload.kwh + emission_baseload(emissions, weights).kwh
        assert_exchange_optimal(instance, balanced, bed, tol=EXCHANGE_ATOL)
        checked += 1
    # The flexibility experiment's independent schedule: no baseload, so
    # separate groups of the roster can sit less than a grid step apart.
    for seed in range(4):
        horizon = week_horizon()
        jobs = to_jobs(match_week(synth_timetable(seed=seed).lines, horizon), horizon)
        fleet = Instance(horizon=horizon, jobs=jobs)
        independent = solve_flatten(FlattenProblem(fleet))
        assert_exchange_optimal(fleet, independent, None, tol=EXCHANGE_ATOL)
        checked += 1

    verdict(6, True, f"{checked} schedules exchange-optimal at {EXCHANGE_ATOL:g}")


def test_criterion_7_full_week_finishes_in_time(timed_week_run):
    elapsed, _ = timed_week_run
    verdict(7, elapsed <= 10.0, f"four scenarios plus 13-point sweep in {elapsed:.1f}s")


def test_criterion_8_reruns_write_identical_bytes(timed_week_run, tmp_path):
    _, first = timed_week_run
    second = tmp_path / "rerun"
    run_week(WeekConfig(seed=0, out_dir=str(second)))
    names = (
        "report.csv",
        "profiles.csv",
        "sweep.csv",
        "timetable.csv",
        "baseload.csv",
        "emissions.csv",
    )
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes() for name in names
    )
    verdict(8, identical, f"{len(names)} output files byte-identical across reruns")
