"""Self-tests for the reference solvers.

The references certify the production solvers elsewhere, so they get
their own independent checks here: closed-form instances, exhaustive
grid search on two-variable problems, and structural identities.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depotcharge
from depotcharge.errors import InfeasibleError
from depotcharge.model import Instance, Job
from depotcharge.oracle import lp_min_co2, qp_flatten

from helpers import make_horizon, random_baseload, random_emissions, random_instance


def _single_job_instance(m, arrival, departure, energy, rate):
    job = Job(id="only", arrival=arrival, departure=departure,
              energy_kwh=energy, max_rate_kwh=rate)
    return Instance(horizon=make_horizon(m), jobs=(job,))


class TestMinCo2Reference:
    def test_single_interval_degenerate(self):
        instance = _single_job_instance(1, 0, 1, energy=2.5, rate=3.0)
        result = lp_min_co2(instance, np.array([0.4]))
        assert result.objective == pytest.approx(2.5 * 0.4, rel=1e-9)
        assert result.allocations["only"] == pytest.approx([2.5])

    def test_fills_cheapest_intervals_first(self):
        instance = _single_job_instance(3, 0, 3, energy=4.0, rate=3.0)
        result = lp_min_co2(instance, np.array([0.3, 0.1, 0.2]))
        # 3 kWh at 0.1, the remaining 1 kWh at 0.2.
        assert result.objective == pytest.approx(0.5, rel=1e-9)
        assert result.allocations["only"] == pytest.approx([0.0, 3.0, 1.0])

    def test_capped_instance_shifts_to_pricier_interval(self):
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=3.0, max_rate_kwh=3.0),
            Job(id="b", arrival=0, departure=2, energy_kwh=3.0, max_rate_kwh=3.0),
        )
        instance = Instance(horizon=make_horizon(2), jobs=jobs,
                            caps_kwh=np.array([4.0, 6.0]))
        result = lp_min_co2(instance, np.array([0.1, 0.5]))
        # Cheap interval saturates at the cap; 2 kWh spill to the dear one.
        assert result.objective == pytest.approx(4.0 * 0.1 + 2.0 * 0.5, rel=1e-9)

    def test_infeasible_caps_raise(self):
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=2.0, max_rate_kwh=2.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=2.0, max_rate_kwh=2.0),
        )
        instance = Instance(horizon=make_horizon(1), jobs=jobs, caps_kwh=np.array([3.0]))
        with pytest.raises(InfeasibleError):
            lp_min_co2(instance, np.array([0.2]))

    def test_translation_adds_constant_times_total_energy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            instance = random_instance(rng)
            co2 = random_emissions(rng, instance.interval_count)
            shift = 0.25
            base = lp_min_co2(instance, co2)
            shifted = lp_min_co2(instance, co2 + shift)
            total = sum(job.energy_kwh for job in instance.jobs)
            assert shifted.objective == pytest.approx(
                base.objective + shift * total, rel=1e-9, abs=1e-9
            )


class TestFlattenReference:
    def test_single_job_spreads_evenly(self):
        instance = _single_job_instance(4, 0, 4, energy=6.0, rate=3.0)
        result = qp_flatten(instance, np.zeros(4))
        assert result.objective == pytest.approx(4 * 1.5**2, abs=1e-7)
        assert result.allocations["only"] == pytest.approx([1.5] * 4, abs=1e-6)

    def test_valley_filling_with_baseload(self):
        instance = _single_job_instance(2, 0, 2, energy=2.0, rate=10.0)
        result = qp_flatten(instance, np.array([1.0, 5.0]))
        # The valley is 4 kWh deep, so all 2 kWh go into it.
        assert result.allocations["only"] == pytest.approx([2.0, 0.0], abs=1e-6)
        assert result.objective == pytest.approx(3.0**2 + 5.0**2, abs=1e-6)

    def test_rate_cap_binds_before_levels_equalise(self):
        instance = _single_job_instance(4, 0, 4, energy=6.0, rate=2.0)
        result = qp_flatten(instance, np.array([0.0, 0.0, 3.0, 3.0]))
        assert result.allocations["only"] == pytest.approx([2.0, 2.0, 1.0, 1.0], abs=1e-6)
        assert result.objective == pytest.approx(4.0 + 4.0 + 16.0 + 16.0, abs=1e-5)

    def test_matches_exhaustive_grid_on_two_variable_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rate = round(float(rng.uniform(0.5, 5.0)), 3)
            energy = round(rate * 2 * float(rng.uniform(0.1, 0.95)), 3)
            instance = _single_job_instance(2, 0, 2, energy=energy, rate=rate)
            baseload = random_baseload(rng, 2)
            lo = max(0.0, energy - rate)
            hi = min(rate, energy)
            grid = np.linspace(lo, hi, 20001)
            values = (grid + baseload[0]) ** 2 + (energy - grid + baseload[1]) ** 2
            best_grid = float(values.min())
            result = qp_flatten(instance, baseload)
            assert abs(result.objective - best_grid) <= 1e-4

    def test_translation_identity(self):
        rng = np.random.default_rng(13)
        instance = random_instance(rng)
        m = instance.interval_count
        baseload = random_baseload(rng, m)
        shift = 2.0
        base = qp_flatten(instance, baseload)
        shifted = qp_flatten(instance, baseload + shift)
        total = sum(job.energy_kwh for job in instance.jobs)
        cross = base.objective + 2 * shift * (total + baseload.sum()) + m * shift**2
        assert shifted.objective == pytest.approx(cross, rel=1e-7)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(17)
        instance = random_instance(rng)
        baseload = random_baseload(rng, instance.interval_count)
        first = qp_flatten(instance, baseload)
        second = qp_flatten(instance, baseload)
        assert first.objective == second.objective
        for job_id in first.allocations:
            assert np.array_equal(first.allocations[job_id], second.allocations[job_id])

    def test_rejects_caps(self):
        instance = Instance(
            horizon=make_horizon(2),
            jobs=(Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),),
            caps_kwh=np.array([1.0, 1.0]),
        )
        with pytest.raises(ValueError):
            qp_flatten(instance, np.zeros(2))


def test_package_import_leaves_the_oracle_out():
    # The references pull in scipy.optimize, which no solver needs.
    code = "import sys, depotcharge; print(sorted({'depotcharge.oracle', 'scipy.optimize'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(depotcharge.__file__).resolve().parents[1])},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
