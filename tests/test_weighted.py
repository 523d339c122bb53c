"""Tests for the weighted objective and its flattening reduction."""

import math

import numpy as np
import pytest

from depotcharge.flatten import FlattenProblem, solve_flatten
from depotcharge.flow import EmissionSeries, solve_min_co2
from depotcharge.model import BaseloadSeries, Instance, Job, Schedule
from depotcharge.oracle import qp_flatten
from depotcharge.weighted import (
    DEFAULT_FLATNESS_SWEEP,
    Weights,
    emission_baseload,
    solve_weighted,
    sweep,
    weighted_objective,
)

from helpers import (
    assert_exchange_optimal,
    assert_valid,
    make_horizon,
    random_baseload,
    random_emissions,
    random_instance,
)


def random_schedule(rng: np.random.Generator, instance: Instance) -> Schedule:
    """A feasible schedule chosen at random, not an optimizer output.

    Starts from the even spread and applies random feasibility-preserving
    transfers between window slots, so delivery stays exact.
    """
    allocations = {}
    for job in instance.jobs:
        width = job.departure - job.arrival
        values = np.full(width, job.energy_kwh / width)
        for _ in range(3 * width):
            a, b = rng.integers(0, width, size=2)
            if a == b:
                continue
            room = min(float(values[a]), job.max_rate_kwh - float(values[b]))
            if room <= 0:
                continue
            move = room * float(rng.random())
            values[a] -= move
            values[b] += move
        allocations[job.id] = values
    return Schedule.build(instance, allocations)


def co2_of(schedule: Schedule, co2: np.ndarray) -> float:
    return float(np.dot(schedule.aggregate_kwh, co2))


def flatness_of(schedule: Schedule, baseload: np.ndarray | None) -> float:
    totals = schedule.aggregate_kwh
    if baseload is not None:
        totals = totals + baseload
    return float(np.dot(totals, totals))


class TestWeights:
    def test_defaults_are_finite_and_mixed(self):
        weights = Weights()
        assert not weights.is_pure_co2 and not weights.is_pure_flatten

    def test_endpoint_sentinels(self):
        assert Weights(flatness_weight=0.0).is_pure_co2
        assert Weights(flatness_weight=math.inf).is_pure_flatten

    @pytest.mark.parametrize("co2_weight", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_co2_weight(self, co2_weight):
        with pytest.raises(ValueError):
            Weights(co2_weight=co2_weight)

    @pytest.mark.parametrize("flatness_weight", [-0.5, math.nan])
    def test_rejects_bad_flatness_weight(self, flatness_weight):
        with pytest.raises(ValueError):
            Weights(flatness_weight=flatness_weight)


class TestEmissionBaseload:
    def test_halved_ratio_times_emissions(self):
        emissions = EmissionSeries(np.array([0.3, 0.3]))
        beta = emission_baseload(emissions, Weights(co2_weight=1.0, flatness_weight=2.0))
        # 1 / (2 * 2) * 0.3
        np.testing.assert_allclose(beta.kwh, [0.075, 0.075])

    def test_scales_with_the_weight_ratio(self):
        emissions = EmissionSeries(np.array([0.2, 0.4, 0.0]))
        beta = emission_baseload(emissions, Weights(co2_weight=3.0, flatness_weight=0.5))
        np.testing.assert_allclose(beta.kwh, [0.6, 1.2, 0.0])

    def test_pure_endpoints_have_no_baseload(self):
        emissions = EmissionSeries(np.array([0.3]))
        with pytest.raises(ValueError):
            emission_baseload(emissions, Weights(flatness_weight=0.0))
        with pytest.raises(ValueError):
            emission_baseload(emissions, Weights(flatness_weight=math.inf))


class TestReductionIdentity:
    def test_completing_the_square_on_random_schedules(self):
        # For any schedule, not just optimal ones:
        #   wc*C(s) + wf*sum (s+br)^2
        #     == wf*sum (s+br+beta)^2 - wf*sum beta*(beta+2*br)
        rng = np.random.default_rng(20230711)
        for trial in range(100):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = random_emissions(rng, m)
            base = random_baseload(rng, m) if trial % 2 else np.zeros(m)
            weights = Weights(
                co2_weight=float(rng.uniform(0.1, 5.0)),
                flatness_weight=float(rng.uniform(0.1, 5.0)),
            )
            schedule = random_schedule(rng, instance)
            beta = emission_baseload(EmissionSeries(co2), weights).kwh

            direct = weights.co2_weight * co2_of(schedule, co2) + (
                weights.flatness_weight * flatness_of(schedule, base)
            )
            shifted = schedule.aggregate_kwh + base + beta
            constant = float(np.dot(beta, beta + 2.0 * base))
            reduced = weights.flatness_weight * (float(np.dot(shifted, shifted)) - constant)
            assert abs(direct - reduced) <= 1e-8 * max(1.0, abs(direct))

    def test_matches_weighted_objective_helper(self):
        rng = np.random.default_rng(7)
        instance = random_instance(rng)
        m = instance.interval_count
        co2 = random_emissions(rng, m)
        base = random_baseload(rng, m)
        weights = Weights(co2_weight=2.0, flatness_weight=0.7)
        schedule = random_schedule(rng, instance)
        expected = 2.0 * co2_of(schedule, co2) + 0.7 * flatness_of(schedule, base)
        got = weighted_objective(
            schedule, EmissionSeries(co2), BaseloadSeries(base), weights
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_objective_rejects_endpoint_weights(self):
        rng = np.random.default_rng(8)
        instance = random_instance(rng)
        co2 = EmissionSeries(random_emissions(rng, instance.interval_count))
        schedule = random_schedule(rng, instance)
        with pytest.raises(ValueError):
            weighted_objective(schedule, co2, None, Weights(flatness_weight=0.0))
        with pytest.raises(ValueError):
            weighted_objective(schedule, co2, None, Weights(flatness_weight=math.inf))


def single_job_instance(energy: float, rate: float) -> Instance:
    job = Job(id="bus", arrival=0, departure=2, energy_kwh=energy, max_rate_kwh=rate)
    return Instance(horizon=make_horizon(2), jobs=(job,))


class TestSolveWeighted:
    def test_two_interval_tradeoff_interior(self):
        # min 2*s0 + s0^2 + s1^2 subject to s0 + s1 = 2 has s0 = 1/2.
        instance = single_job_instance(energy=2.0, rate=6.0)
        emissions = EmissionSeries(np.array([1.0, 0.0]))
        schedule = solve_weighted(
            instance, emissions, None, Weights(co2_weight=2.0, flatness_weight=1.0)
        )
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.5, 1.5], atol=1e-6)

    def test_two_interval_tradeoff_clamped_at_zero(self):
        # The unconstrained optimum (e-1)/2 is negative, so s0 clamps to 0.
        instance = single_job_instance(energy=0.5, rate=6.0)
        emissions = EmissionSeries(np.array([1.0, 0.0]))
        schedule = solve_weighted(
            instance, emissions, None, Weights(co2_weight=2.0, flatness_weight=1.0)
        )
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.0, 0.5], atol=1e-6)

    def test_two_interval_tradeoff_clamped_by_rate(self):
        # e=4 with rate 2 forces [2, 2] regardless of the emission slope.
        instance = single_job_instance(energy=4.0, rate=2.0)
        emissions = EmissionSeries(np.array([1.0, 0.0]))
        schedule = solve_weighted(
            instance, emissions, None, Weights(co2_weight=2.0, flatness_weight=1.0)
        )
        np.testing.assert_allclose(schedule.aggregate_kwh, [2.0, 2.0], atol=1e-6)

    def test_zero_emissions_reduce_to_plain_flattening(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            instance = random_instance(rng)
            m = instance.interval_count
            base = BaseloadSeries(random_baseload(rng, m))
            emissions = EmissionSeries(np.zeros(m))
            weighted = solve_weighted(instance, emissions, base, Weights(1.0, 1.0))
            flat = solve_flatten(FlattenProblem(instance, base))
            np.testing.assert_array_equal(weighted.aggregate_kwh, flat.aggregate_kwh)

    def test_constant_emissions_do_not_change_the_profile(self):
        # A constant beta shifts every water level equally, so the
        # flattening argmin is unchanged.
        rng = np.random.default_rng(12)
        for _ in range(10):
            instance = random_instance(rng)
            m = instance.interval_count
            base = BaseloadSeries(random_baseload(rng, m))
            emissions = EmissionSeries(np.full(m, 0.42))
            weighted = solve_weighted(instance, emissions, base, Weights(1.0, 0.5))
            flat = solve_flatten(FlattenProblem(instance, base))
            np.testing.assert_allclose(
                weighted.aggregate_kwh, flat.aggregate_kwh, atol=1e-5
            )

    def test_matches_quadratic_oracle_on_the_shifted_problem(self):
        # The reduction is exact, so the weighted solution must reach the
        # reference optimum of flattening against b_real + beta.
        rng = np.random.default_rng(13)
        for trial in range(30):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = random_emissions(rng, m)
            base = random_baseload(rng, m) if trial % 2 else np.zeros(m)
            weights = Weights(
                co2_weight=1.0, flatness_weight=float(rng.choice([0.3, 1.0, 2.0, 5.0]))
            )
            schedule = solve_weighted(
                instance, EmissionSeries(co2), BaseloadSeries(base), weights
            )
            assert_valid(instance, schedule)
            beta = emission_baseload(EmissionSeries(co2), weights).kwh
            achieved = flatness_of(schedule, base + beta)
            reference = qp_flatten(instance, base + beta).objective
            assert achieved <= reference + 1e-6 * max(1.0, reference)

    def test_exchange_optimal_against_combined_baseload(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = random_emissions(rng, m)
            base = random_baseload(rng, m)
            weights = Weights(co2_weight=1.0, flatness_weight=2.0)
            schedule = solve_weighted(
                instance, EmissionSeries(co2), BaseloadSeries(base), weights
            )
            beta = emission_baseload(EmissionSeries(co2), weights).kwh
            assert_exchange_optimal(instance, schedule, baseload=base + beta)

    def test_never_worse_than_either_pure_schedule(self):
        rng = np.random.default_rng(15)
        for trial in range(40):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = EmissionSeries(random_emissions(rng, m))
            base = BaseloadSeries(random_baseload(rng, m))
            weights = Weights(
                co2_weight=1.0, flatness_weight=float(rng.choice([0.3, 1.0, 2.0, 5.0]))
            )
            best = solve_weighted(instance, co2, base, weights)
            rivals = (
                solve_min_co2(instance, co2),
                solve_flatten(FlattenProblem(instance, base)),
            )
            w_best = weighted_objective(best, co2, base, weights)
            for rival in rivals:
                w_rival = weighted_objective(rival, co2, base, weights)
                assert w_best <= w_rival + 1e-6 * max(1.0, abs(w_rival))

    def test_tiny_flatness_weight_passes_the_square_check(self):
        # At weight 1e-9 the emission bed is about 1e8 kWh deep, so the
        # expanded square cancels terms far larger than the objective.
        rng = np.random.default_rng(5)
        for _ in range(40):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = EmissionSeries(random_emissions(rng, m))
            base = BaseloadSeries(random_baseload(rng, m))
            schedule = solve_weighted(instance, co2, base, Weights(1.0, 1e-9))
            assert_valid(instance, schedule)

    def test_rejects_aggregate_caps(self):
        rng = np.random.default_rng(16)
        instance = random_instance(rng, with_caps=True)
        co2 = EmissionSeries(random_emissions(rng, instance.interval_count))
        with pytest.raises(ValueError, match="caps"):
            solve_weighted(instance, co2, None, Weights(1.0, 1.0))

    def test_rejects_mismatched_emission_length(self):
        instance = single_job_instance(energy=1.0, rate=2.0)
        with pytest.raises(ValueError, match="horizon"):
            solve_weighted(
                instance, EmissionSeries(np.array([0.3])), None, Weights(1.0, 1.0)
            )


class TestSweep:
    def test_default_grid_covers_both_endpoints(self):
        assert DEFAULT_FLATNESS_SWEEP[0] == 0.0
        assert math.isinf(DEFAULT_FLATNESS_SWEEP[-1])
        assert len(DEFAULT_FLATNESS_SWEEP) == 13

    def test_endpoints_route_to_the_pure_solvers(self):
        rng = np.random.default_rng(17)
        instance = random_instance(rng)
        m = instance.interval_count
        co2 = EmissionSeries(random_emissions(rng, m))
        base = BaseloadSeries(random_baseload(rng, m))
        points = sweep(instance, co2, base, flatness_weights=(0.0, 1.0, math.inf))
        pure_co2 = solve_min_co2(instance, co2)
        pure_flat = solve_flatten(FlattenProblem(instance, base))
        np.testing.assert_array_equal(points[0][1].aggregate_kwh, pure_co2.aggregate_kwh)
        np.testing.assert_array_equal(points[-1][1].aggregate_kwh, pure_flat.aggregate_kwh)

    def test_emissions_and_flatness_move_monotonically(self):
        # Raising the flatness weight trades emissions for smoothness:
        # C is non-decreasing, F non-increasing along the sweep.
        rng = np.random.default_rng(18)
        grid = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, math.inf)
        for _ in range(12):
            instance = random_instance(rng)
            m = instance.interval_count
            co2 = random_emissions(rng, m)
            base = random_baseload(rng, m)
            points = sweep(
                instance,
                EmissionSeries(co2),
                BaseloadSeries(base),
                flatness_weights=grid,
            )
            co2_curve = [co2_of(s, co2) for _, s in points]
            flat_curve = [flatness_of(s, base) for _, s in points]
            for prev, nxt in zip(co2_curve, co2_curve[1:]):
                assert nxt >= prev - 1e-6 * max(1.0, abs(prev))
            for prev, nxt in zip(flat_curve, flat_curve[1:]):
                assert nxt <= prev + 1e-6 * max(1.0, abs(prev))

    def test_every_point_is_a_valid_schedule(self):
        rng = np.random.default_rng(19)
        instance = random_instance(rng)
        m = instance.interval_count
        co2 = EmissionSeries(random_emissions(rng, m))
        points = sweep(instance, co2, None)
        assert len(points) == len(DEFAULT_FLATNESS_SWEEP)
        for _, schedule in points:
            assert_valid(instance, schedule)
