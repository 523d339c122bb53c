"""Tests for the core data model."""

import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest

from depotcharge.model import (
    ENERGY_ATOL,
    BaseloadSeries,
    Horizon,
    Instance,
    Job,
    Schedule,
    aggregate,
    check_feasible,
    fill_windows,
    row_sums,
    validate_schedule,
)
from depotcharge.baseline import solve_uncontrolled
from depotcharge.flatten import FlattenProblem, solve_flatten
from depotcharge.flow import EmissionSeries, solve_min_co2

from helpers import (
    WEEK_START, make_horizon, random_emissions, random_instance, reference_fill, reference_validate,
)


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
        np.testing.assert_array_equal(schedule.window_energy["a"], [0.0, 0.0])
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.0, 1.0, 1.0])

    def test_of_rejects_a_wrong_length(self):
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),
            Job(id="b", arrival=1, departure=3, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        instance = Instance(make_horizon(3), jobs)
        for energy in ([0.5, 0.5, 0.5], [0.5] * 5, [[0.5, 0.5], [0.5, 0.5]]):
            with pytest.raises(ValueError, match="the windows need"):
                Schedule.of(instance, energy)

    def test_energy_and_its_views_are_read_only(self):
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),
            Job(id="b", arrival=1, departure=3, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        instance = Instance(make_horizon(3), jobs)
        given = np.array([0.5, 0.5, 0.25, 0.75])
        schedule = Schedule.of(instance, given)
        given[0] = 9.0
        np.testing.assert_array_equal(schedule.window_energy["b"], [0.25, 0.75])
        assert schedule.window_energy["a"].base is schedule.energy
        for array in (schedule.energy, schedule.window_energy["b"], schedule.aggregate_kwh):
            with pytest.raises(ValueError):
                array[0] = 9.0
        assert schedule.energy[0] == 0.5

    def test_views_are_built_on_first_use_from_the_energy_at_hand(self):
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),
            Job(id="b", arrival=1, departure=3, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        schedule = Schedule.of(Instance(make_horizon(3), jobs), [0.5, 0.5, 0.25, 0.75])
        assert "window_energy" not in vars(schedule)
        assert schedule.window_energy is schedule.window_energy
        moved = dataclasses.replace(schedule, energy=np.array([1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(moved.window_energy["b"], [0.0, 1.0])
        np.testing.assert_array_equal(schedule.window_energy["b"], [0.25, 0.75])

    def test_no_jobs_give_a_float_zero_aggregate(self):
        instance = Instance(make_horizon(4), ())
        baseload = BaseloadSeries(np.arange(4.0))
        emissions = EmissionSeries(np.full(4, 0.2))
        for schedule in (
            Schedule.build(instance, {}),
            Schedule.of(instance, []),
            solve_uncontrolled(instance),
            solve_flatten(FlattenProblem(instance)),
            solve_flatten(FlattenProblem(instance, baseload)),
            solve_min_co2(instance, emissions),
        ):
            assert schedule.aggregate_kwh.dtype == np.float64
            assert schedule.aggregate_kwh.tobytes() == np.zeros(4).tobytes()
            assert schedule.window_energy == {}
            validate_schedule(instance, schedule)

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


    def test_rejects_non_finite_allocation(self):
        instance = self._simple()
        for bad in (np.nan, np.inf):
            schedule = Schedule.build(instance, {"a": np.array([bad, 1.0])})
            with pytest.raises(ValueError, match="job 'a': allocation is not finite"):
                validate_schedule(instance, schedule)

    def test_rejects_another_instances_jobs(self):
        instance = self._simple()
        schedule = Schedule.build(instance, {"a": np.array([1.0, 1.0])})
        others = (
            (Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.25),),
            (Job(id="b", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),),
            (Job(id="a", arrival=1, departure=2, energy_kwh=1.0, max_rate_kwh=1.5),),
            instance.jobs + (Job(id="b", arrival=0, departure=1, energy_kwh=0.0, max_rate_kwh=1.0),),
        )
        for jobs in others:
            with pytest.raises(ValueError, match="not laid out for the instance's jobs and horizon"):
                validate_schedule(Instance(instance.horizon, jobs), schedule)

    def test_rejects_another_horizon(self):
        instance = self._simple()
        schedule = Schedule.build(instance, {"a": np.array([1.0, 1.0])})
        for horizon in (
            make_horizon(3),
            make_horizon(2, interval_hours=0.5),
            Horizon(start=WEEK_START + timedelta(days=1), interval_count=2),
        ):
            with pytest.raises(ValueError, match="not laid out for the instance's jobs and horizon"):
                validate_schedule(Instance(horizon, instance.jobs), schedule)

    def test_rejects_a_tampered_layout(self):
        instance = self._simple()
        schedule = Schedule.build(instance, {"a": np.array([1.0, 1.0])})
        validate_schedule(instance, dataclasses.replace(schedule, instance=self._simple()))
        with pytest.raises(ValueError, match="stored aggregate does not match its recomputation"):
            validate_schedule(instance, dataclasses.replace(schedule, aggregate_kwh=np.array([1.0, 1.5])))
        with pytest.raises(ValueError, match="not laid out"):
            validate_schedule(instance, dataclasses.replace(schedule, energy=np.array([1.0, 1.0, 0.0])))

    def test_one_spoiled_job_fails_as_job_by_job(self):
        # Every family of entry fault, spoiled into one job of a valid
        # schedule, draws the verdict and message of the per-job reference.
        rng = np.random.default_rng(151)
        families = ["negative allocation", "exceeds the per-interval rate bound", "delivered",
                    "delivered", "not finite", "exceeds cap"]
        seen = [0] * len(families)
        for trial in range(300):
            instance = random_instance(rng, max_jobs=8, max_intervals=20)
            windows = {key: np.array(values) for key, values in solve_uncontrolled(instance).window_energy.items()}
            job = instance.jobs[int(rng.integers(len(instance.jobs)))]
            values = windows[job.id]
            at = int(rng.integers(len(values)))
            kind = trial % 6
            if kind == 0:
                values[at] = -float(rng.choice([1e-3, 1.0]))
            elif kind == 1:
                values[at] = job.max_rate_kwh + float(rng.choice([1e-5, 1.0]))
            elif kind == 2:
                values[np.argmax(values)] -= float(rng.choice([1e-5, 1e-3]))
            elif kind == 3:
                values[np.argmin(values)] += float(rng.choice([1e-5, 1e-3]))
            elif kind == 4:
                values[at] = float(rng.choice([np.nan, np.inf]))
            caps = None
            if kind == 5:
                # Moving energy within a job lifts one interval past a cap
                # set at the unspoiled profile.
                caps = Schedule.build(instance, windows).aggregate_kwh
                if len(values) < 2 or values[0] < 1e-3:
                    continue
                values[0] -= 1e-3
                values[-1] += 1e-3
            instance = Instance(instance.horizon, instance.jobs, caps_kwh=caps)
            schedule = Schedule.build(instance, windows)
            with pytest.raises(ValueError) as expected:
                reference_validate(instance, schedule)
            with pytest.raises(ValueError) as got:
                validate_schedule(instance, schedule)
            assert str(got.value) == str(expected.value)
            assert families[kind] in str(got.value)
            seen[kind] += 1
        assert min(seen) > 20, seen

    def test_valid_schedules_pass_both(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            instance = random_instance(rng, max_jobs=8, max_intervals=20, with_caps=True)
            schedule = solve_min_co2(instance, EmissionSeries(random_emissions(rng, instance.interval_count)))
            reference_validate(instance, schedule)
            validate_schedule(instance, schedule)

    def test_several_spoiled_jobs_fail_family_first(self):
        horizon = make_horizon(2)
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),
            Job(id="b", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),
        )
        instance = Instance(horizon, jobs)
        schedule = Schedule.build(instance, {"a": np.array([1.75, 0.25]), "b": np.array([-0.25, 2.25])})
        with pytest.raises(ValueError, match="job 'a': allocation exceeds"):
            reference_validate(instance, schedule)
        with pytest.raises(ValueError, match="job 'b': negative allocation"):
            validate_schedule(instance, schedule)


class TestRowSums:
    def test_each_row_sums_as_numpy_sums_it(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            lengths = rng.integers(0, 300, size=int(rng.integers(1, 6)))
            parts = [rng.uniform(0.0, 50.0, size) * 10.0 ** rng.integers(-3, 4) for size in lengths]
            rows = np.repeat(np.arange(len(parts)), lengths)
            sums = row_sums(np.concatenate(parts), rows, len(parts))
            assert sums.tobytes() == np.array([part.sum() for part in parts]).tobytes()


def fill_instance(rng: np.random.Generator) -> Instance:
    """Up to eight jobs at rates k/3, k/7, k/9 or k/11, each needing no
    energy, ``ENERGY_ATOL``/2 past its window's rate times width, a whole
    number of rates, one ulp past that, or an amount in between."""
    m = int(rng.integers(1, 17))
    jobs = []
    for k in range(int(rng.integers(0, 9))):
        arrival = int(rng.integers(0, m))
        departure = int(rng.integers(arrival + 1, m + 1))
        rate = int(rng.integers(1, 40)) / int(rng.choice([3, 7, 9, 11]))
        width = departure - arrival
        whole = rate * int(rng.integers(0, width))
        energy = (
            0.0, rate * width + ENERGY_ATOL / 2, whole, np.nextafter(whole, np.inf),
            rate * rng.uniform(0, width),
        )[int(rng.integers(5))]
        jobs.append(Job(id=f"j{k}", arrival=arrival, departure=departure, energy_kwh=energy,
                        max_rate_kwh=rate))
    return Instance(make_horizon(m), tuple(jobs))


class TestFillWindows:
    def test_both_solvers_fill_as_the_per_job_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            instance = fill_instance(rng)
            m = instance.interval_count
            # Few distinct factors, so that many intervals tie.
            factors = rng.choice([0.1, 0.2, 0.3], m)
            for schedule, expected in (
                (solve_uncontrolled(instance), reference_fill(instance, np.arange(m))),
                (solve_min_co2(instance, EmissionSeries(factors)), reference_fill(instance, factors)),
            ):
                validate_schedule(instance, schedule)
                np.testing.assert_allclose(schedule.energy, expected.energy, rtol=0, atol=1e-12)

    def test_ties_go_to_the_earlier_interval(self):
        jobs = (Job(id="a", arrival=1, departure=5, energy_kwh=2.5, max_rate_kwh=1.0),)
        instance = Instance(make_horizon(5), jobs)
        factors = np.array([0.0, 0.2, 0.1, 0.2, 0.1])
        # Intervals 2 and 4 fill first; of 1 and 3, interval 1 takes the rest.
        assert list(fill_windows(instance, factors).energy) == [0.5, 1.0, 0.0, 1.0]
        assert list(solve_min_co2(instance, EmissionSeries(factors)).energy) == [0.5, 1.0, 0.0, 1.0]
        assert list(solve_uncontrolled(instance).energy) == [1.0, 1.0, 0.5, 0.0]
        assert list(fill_windows(instance, np.zeros(5)).energy) == [1.0, 1.0, 0.5, 0.0]

    def test_no_jobs(self):
        instance = Instance(make_horizon(3), ())
        for schedule in (fill_windows(instance, np.arange(3)), reference_fill(instance, np.arange(3))):
            assert schedule.energy.shape == (0,)
            assert schedule.aggregate_kwh.tobytes() == np.zeros(3).tobytes()


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
