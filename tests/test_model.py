"""Tests for the core data model."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from depotcharge.model import (
    BaseloadSeries,
    Horizon,
    Instance,
    Job,
    Schedule,
    aggregate,
    check_feasible,
    validate_schedule,
)

from helpers import WEEK_START, make_horizon, random_instance


class TestHorizon:
    def test_timestamps(self):
        horizon = Horizon(start=WEEK_START, interval_count=8)
        assert horizon.timestamp(0) == WEEK_START
        assert horizon.timestamp(4) == WEEK_START + timedelta(hours=1)

    def test_index_rounding(self):
        horizon = Horizon(start=WEEK_START, interval_count=96)
        later = WEEK_START + timedelta(minutes=40)
        assert horizon.index_floor(later) == 2
        assert horizon.index_ceil(later) == 3

    def test_boundary_timestamp_has_equal_floor_and_ceil(self):
        horizon = Horizon(start=WEEK_START, interval_count=96)
        on_grid = WEEK_START + timedelta(minutes=30)
        assert horizon.index_floor(on_grid) == horizon.index_ceil(on_grid) == 2

    def test_clip(self):
        horizon = Horizon(start=WEEK_START, interval_count=4)
        assert horizon.clip(-3) == 0
        assert horizon.clip(2) == 2
        assert horizon.clip(9) == 4


class TestJobValidation:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            Job(id="a", arrival=3, departure=3, energy_kwh=1.0, max_rate_kwh=1.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            Job(id="a", arrival=0, departure=2, energy_kwh=-1.0, max_rate_kwh=1.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=0.0)

    def test_rejects_energy_beyond_window_capacity(self):
        # 2 intervals at 1.5 kWh each hold at most 3 kWh.
        with pytest.raises(ValueError):
            Job(id="a", arrival=0, departure=2, energy_kwh=3.1, max_rate_kwh=1.5)

    def test_window_range(self):
        job = Job(id="a", arrival=2, departure=5, energy_kwh=1.0, max_rate_kwh=1.0)
        assert list(job.window) == [2, 3, 4]


class TestInstanceValidation:
    def test_rejects_duplicate_ids(self):
        horizon = make_horizon(4)
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),
            Job(id="a", arrival=2, departure=4, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        with pytest.raises(ValueError):
            Instance(horizon, jobs)

    def test_rejects_departure_beyond_horizon(self):
        horizon = make_horizon(4)
        jobs = (Job(id="a", arrival=0, departure=5, energy_kwh=1.0, max_rate_kwh=1.0),)
        with pytest.raises(ValueError):
            Instance(horizon, jobs)

    def test_rejects_misshapen_caps(self):
        horizon = make_horizon(4)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        with pytest.raises(ValueError):
            Instance(horizon, jobs, caps_kwh=np.array([5.0, 5.0]))


class TestBaseloadSeries:
    def test_from_kw_converts_by_interval_length(self):
        series = BaseloadSeries.from_kw(np.array([100.0, 200.0]), interval_hours=0.25)
        np.testing.assert_allclose(series.kwh, [25.0, 50.0])

    def test_readonly(self):
        series = BaseloadSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.kwh[0] = 9.0


class TestSchedule:
    def test_build_fills_missing_jobs_with_zeros(self):
        horizon = make_horizon(3)
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=0.0, max_rate_kwh=1.0),
            Job(id="b", arrival=1, departure=3, energy_kwh=2.0, max_rate_kwh=1.0),
        )
        instance = Instance(horizon, jobs)
        schedule = Schedule.build(instance, {"b": np.array([1.0, 1.0])})
        start, values = schedule.window("a")
        assert start == 0
        np.testing.assert_array_equal(values, [0.0, 0.0])
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.0, 1.0, 1.0])

    def test_build_rejects_unknown_job(self):
        horizon = make_horizon(3)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        instance = Instance(horizon, jobs)
        with pytest.raises(ValueError):
            Schedule.build(instance, {"ghost": np.array([1.0, 0.0])})

    def test_aggregate_recomputation_is_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            instance = random_instance(rng)
            allocations = {}
            for job in instance.jobs:
                width = job.departure - job.arrival
                spread = np.full(width, job.energy_kwh / width)
                allocations[job.id] = spread
            schedule = Schedule.build(instance, allocations)
            recomputed = aggregate(schedule)
            assert recomputed.tobytes() == schedule.aggregate_kwh.tobytes()

    def test_aggregate_matches_slice_by_slice_sums(self):
        # Each interval adds its jobs' energies in job order, as a loop of
        # slice additions does, bit for bit.
        rng = np.random.default_rng(43)
        for _ in range(200):
            instance = random_instance(rng, max_jobs=12, max_intervals=30)
            allocations = {
                job.id: rng.uniform(0.0, job.max_rate_kwh, job.departure - job.arrival)
                * 10.0 ** rng.integers(-6, 4)
                for job in instance.jobs
            }
            expected = np.zeros(instance.interval_count)
            for job in instance.jobs:
                expected[job.arrival : job.departure] += allocations[job.id]
            schedule = Schedule.build(instance, allocations)
            assert schedule.aggregate_kwh.tobytes() == expected.tobytes()


class TestValidateSchedule:
    def _simple(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),)
        return Instance(horizon, jobs)

    def test_accepts_exact_delivery(self):
        instance = self._simple()
        validate_schedule(instance, Schedule.build(instance, {"a": np.array([1.0, 1.0])}))

    def test_rejects_under_delivery(self):
        instance = self._simple()
        schedule = Schedule.build(instance, {"a": np.array([1.0, 0.5])})
        with pytest.raises(ValueError):
            validate_schedule(instance, schedule)

    def test_rejects_rate_violation(self):
        instance = self._simple()
        schedule = Schedule.build(instance, {"a": np.array([1.6, 0.4])})
        with pytest.raises(ValueError):
            validate_schedule(instance, schedule)

    def test_rejects_negative_allocation(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=0.5, max_rate_kwh=1.5),)
        instance = Instance(horizon, jobs)
        schedule = Schedule.build(instance, {"a": np.array([-0.5, 1.0])})
        with pytest.raises(ValueError):
            validate_schedule(instance, schedule)

    def test_rejects_cap_violation(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([1.2, 1.2]))
        schedule = Schedule.build(instance, {"a": np.array([1.5, 0.5])})
        with pytest.raises(ValueError):
            validate_schedule(instance, schedule)


class TestCheckFeasible:
    def test_capless_instances_are_feasible(self):
        rng = np.random.default_rng(43)
        report = check_feasible(random_instance(rng))
        assert report.feasible

    def test_generous_caps_are_feasible(self):
        rng = np.random.default_rng(47)
        report = check_feasible(random_instance(rng, with_caps=True))
        assert report.feasible

    def test_overloaded_caps_name_jobs(self):
        horizon = make_horizon(1)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
        )
        report = check_feasible(Instance(horizon, jobs, caps_kwh=np.array([10.0])))
        assert not report.feasible
        assert report.violating_jobs == frozenset({"a", "b"})
