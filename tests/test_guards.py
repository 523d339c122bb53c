"""Load-bearing solver checks must hold under ``python -O``.

Each test forces one internal fault and runs it in a subprocess with
assertions stripped, expecting an error (a SolverError unless stated)
rather than a wrong result or a hang.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import depotcharge

SRC = Path(depotcharge.__file__).resolve().parents[1]

PRELUDE = """
import numpy as np
from datetime import datetime
from depotcharge import flatten, flow, weighted
from depotcharge.errors import InfeasibleError, SolverError
from depotcharge.flow import EmissionSeries
from depotcharge.model import BaseloadSeries, Horizon, Instance, Job

assert not __debug__, "assertions are still on"
horizon = Horizon(start=datetime(2023, 6, 5), interval_count=4)
instance = Instance(horizon, (
    Job(id="a", arrival=0, departure=3, energy_kwh=4.0, max_rate_kwh=2.0),
    Job(id="b", arrival=1, departure=4, energy_kwh=3.0, max_rate_kwh=2.0),
))
"""


def run_optimized(body: str, expected: str, error: str = "SolverError") -> None:
    code = PRELUDE + textwrap.dedent(body) + f"""
try:
    fault()
except {error} as error:
    print("refused:", error)
else:
    raise SystemExit("the fault went unnoticed")
"""
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr + result.stdout
    assert result.stdout.startswith("refused:") and expected in result.stdout


def test_stalled_level_search():
    run_optimized("""
        # A level that never advances past zero.
        flatten._min_int_level = lambda basins, volume: 0

        def fault():
            flatten.solve_flatten(flatten.FlattenProblem(instance))
    """, "failed to advance")


def test_integer_water_fill_without_a_level():
    run_optimized("""
        def fault():
            flatten._min_int_level(np.array([1, 2]), 0)
    """, "found no level")


def test_negative_apportion_total():
    run_optimized("""
        def fault():
            flatten._apportion(np.array([0.5, 0.5]), -1)
    """, "negative total")


def test_completed_square_drift():
    run_optimized("""
        exact = weighted.weighted_objective
        weighted.weighted_objective = lambda *args: exact(*args) + 1.0

        def fault():
            emissions = EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
            weights = weighted.Weights(co2_weight=1.0, flatness_weight=2.0)
            weighted.solve_weighted(instance, emissions, None, weights)
    """, "completing-the-square")


def test_short_extraction():
    run_optimized("""
        # Every max flow comes back empty, so the extraction routes nothing.
        flow.max_flow = lambda network, capacities: (0, np.zeros(network.arc_count, dtype=np.int64))

        def fault():
            capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 10.0))
            flow.solve_min_co2(capped, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
    """, "no room", error="InfeasibleError")
