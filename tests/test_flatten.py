"""Tests for the profile-flattening solver."""

import numpy as np
import pytest

from depotcharge.baseline import solve_uncontrolled
from depotcharge.flatten import FlattenProblem, levels, solve_flatten
from depotcharge.model import BaseloadSeries, Instance, Job, validate_schedule
from depotcharge.oracle import qp_flatten

from helpers import (
    assert_exchange_optimal,
    make_horizon,
    random_baseload,
    random_instance,
)


def flatness(schedule, baseload=None) -> float:
    totals = levels(schedule, baseload)
    return float(np.dot(totals, totals))


class TestFlattenProblem:
    def test_rejects_caps(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        capped = Instance(horizon, jobs, caps_kwh=np.array([5.0, 5.0]))
        with pytest.raises(ValueError):
            FlattenProblem(capped)

    def test_rejects_short_baseload(self):
        horizon = make_horizon(3)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        with pytest.raises(ValueError):
            FlattenProblem(Instance(horizon, jobs), BaseloadSeries(np.array([1.0])))


class TestLevels:
    def test_elementwise_sum(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        instance = Instance(horizon, jobs)
        schedule = solve_uncontrolled(instance)
        np.testing.assert_allclose(levels(schedule, np.array([1.0, 0.0])), [4.0, 3.0])

    def test_none_baseload_is_identity(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        schedule = solve_uncontrolled(Instance(horizon, jobs))
        np.testing.assert_array_equal(levels(schedule, None), schedule.aggregate_kwh)

    def test_length_mismatch(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        schedule = solve_uncontrolled(Instance(horizon, jobs))
        with pytest.raises(ValueError):
            levels(schedule, np.array([1.0]))


class TestSolveFlatten:
    def test_uniform_spread(self):
        horizon = make_horizon(4)
        jobs = (Job(id="a", arrival=0, departure=4, energy_kwh=12.0, max_rate_kwh=7.5),)
        instance = Instance(horizon, jobs)
        schedule = solve_flatten(FlattenProblem(instance))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [3.0, 3.0, 3.0, 3.0], atol=1e-9)

    def test_fills_valley_to_common_level(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=6.0),)
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([4.0, 0.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [1.0, 5.0], atol=1e-9)

    def test_avoids_interval_above_water(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([10.0, 0.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.0, 1.0], atol=1e-9)

    def test_trapped_job_forces_peak(self):
        # Job "big" can only use the first interval; job "small" must
        # still spread despite the resulting peak next door.
        horizon = make_horizon(2)
        jobs = (
            Job(id="big", arrival=0, departure=1, energy_kwh=10.0, max_rate_kwh=10.0),
            Job(id="small", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.0),
        )
        instance = Instance(horizon, jobs)
        schedule = solve_flatten(FlattenProblem(instance))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [11.0, 1.0], atol=1e-9)

    def test_rate_bound_spills_into_higher_interval(self):
        # The rate bound forces half of "slow" into the loaded interval,
        # lifting it above the naive water level.
        horizon = make_horizon(2)
        jobs = (
            Job(id="big", arrival=0, departure=1, energy_kwh=5.0, max_rate_kwh=5.0),
            Job(id="slow", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=0.5),
        )
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([0.0, 3.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [5.5, 0.5], atol=1e-9)

    def test_closed_form_single_job_even_spread(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            width = int(rng.integers(1, 9))
            start = int(rng.integers(0, 4))
            horizon = make_horizon(start + width)
            rate = round(float(rng.uniform(0.5, 4.0)), 3)
            energy = round(rate * width * float(rng.uniform(0.2, 0.99)), 3)
            jobs = (
                Job(
                    id="a",
                    arrival=start,
                    departure=start + width,
                    energy_kwh=energy,
                    max_rate_kwh=rate,
                ),
            )
            instance = Instance(horizon, jobs)
            schedule = solve_flatten(FlattenProblem(instance))
            expected = np.zeros(start + width)
            expected[start:] = energy / width
            np.testing.assert_allclose(schedule.aggregate_kwh, expected, atol=1e-7)

    def test_matches_reference_qp(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            validate_schedule(instance, schedule)
            reference = qp_flatten(instance, baseload)
            got = flatness(schedule, baseload)
            assert abs(got - reference.objective) <= 1e-6 * max(1.0, reference.objective)

    def test_exchange_optimality(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            assert_exchange_optimal(instance, schedule, baseload)

    def test_exchange_optimality_on_a_deep_baseload(self):
        # The integer grid follows the charging, not the baseload under it.
        rng = np.random.default_rng(89)
        for _ in range(20):
            instance = random_instance(rng)
            baseload = 1e9 + random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            validate_schedule(instance, schedule)
            assert_exchange_optimal(instance, schedule, baseload)

    def test_deep_baseload_over_a_week(self):
        # Scaled levels summed over 672 intervals must stay inside int64.
        rng = np.random.default_rng(97)
        jobs = tuple(
            Job(id=f"j{k}", arrival=start, departure=start + 96, energy_kwh=60.0, max_rate_kwh=37.5)
            for k, start in enumerate((0, 40, 300))
        )
        instance = Instance(make_horizon(672), jobs)
        baseload = 1e11 + random_baseload(rng, 672)
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        validate_schedule(instance, schedule)
        # Floats resolve a 1e11 kWh level to about 1.5e-5 kWh.
        assert_exchange_optimal(instance, schedule, baseload, tol=1e-3)

    def test_aggregate_unique_under_job_permutation(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            instance = random_instance(rng)
            baseload = BaseloadSeries(random_baseload(rng, instance.interval_count))
            schedule = solve_flatten(FlattenProblem(instance, baseload))
            shuffled = Instance(
                instance.horizon, tuple(reversed(instance.jobs)), caps_kwh=None
            )
            other = solve_flatten(FlattenProblem(shuffled, baseload))
            np.testing.assert_allclose(
                schedule.aggregate_kwh, other.aggregate_kwh, atol=1e-5
            )

    def test_never_worse_than_uncontrolled(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            flat = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            greedy = solve_uncontrolled(instance)
            assert flatness(flat, baseload) <= flatness(greedy, baseload) + 1e-9

    def test_empty_job_list(self):
        instance = Instance(make_horizon(3), ())
        schedule = solve_flatten(FlattenProblem(instance))
        np.testing.assert_array_equal(schedule.aggregate_kwh, np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(83)
        instance = random_instance(rng)
        baseload = BaseloadSeries(random_baseload(np.random.default_rng(83), instance.interval_count))
        first = solve_flatten(FlattenProblem(instance, baseload))
        second = solve_flatten(FlattenProblem(instance, baseload))
        assert first.aggregate_kwh.tobytes() == second.aggregate_kwh.tobytes()
