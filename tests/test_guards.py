"""Load-bearing solver checks must hold under ``python -O``.

Each test forces one internal fault and runs it in a subprocess with
assertions stripped, expecting an error (a SolverError unless stated)
rather than a wrong result or a hang, or, where a fault is one the
solver recovers from, a schedule that passes the checks.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import depotcharge
from depotcharge.model import Horizon, Instance, Job, Schedule, validate_schedule

from helpers import assert_exchange_optimal

SRC = Path(depotcharge.__file__).resolve().parents[1]

PRELUDE = """
import json
import numpy as np
from datetime import datetime
from depotcharge import flatten, flow, weighted
from depotcharge.errors import InfeasibleError, SolverError
from depotcharge.flow import EmissionSeries
from depotcharge.model import BaseloadSeries, Horizon, Instance, Job

assert not __debug__, "assertions are still on"


# Every fault goes through patch: a name that no longer exists must fail
# the test rather than leave the fault unapplied.
def patch(module, name, value):
    if not hasattr(module, name):
        raise SystemExit(f"{module.__name__} has no {name} to patch")
    setattr(module, name, value)


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


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so none may guard anything.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "depotcharge").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements at {found}"


def test_fill_that_ignores_the_caps():
    # Caps far above every rate make each block's fill the plain water
    # fill, whose shares here overfill the interval only job b reaches.
    # Any level still gives an exact cut, so the search takes more max
    # flows but ends in an exchange-optimal schedule.
    code = PRELUDE + textwrap.dedent("""
        exact_fill, exact_flow = flatten._capped_fill, flatten.max_flow
        calls = []
        patch(flatten, "_capped_fill", lambda basins, caps, *rest: exact_fill(basins, caps + 10**12, *rest))
        patch(flatten, "max_flow", lambda *args: calls.append(args) or exact_flow(*args))
        problem = flatten.FlattenProblem(instance, BaseloadSeries(np.array([1.0, 0.0, 2.5, 0.5])))
        schedule = flatten.solve_flatten(problem)
        windows = {job: list(values) for job, values in schedule.window_energy.items()}
        print(json.dumps({"max_flows": len(calls), "windows": windows}))
    """)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr + result.stdout
    horizon = Horizon(start=datetime(2023, 6, 5), interval_count=4)
    instance = Instance(horizon, (
        Job(id="a", arrival=0, departure=3, energy_kwh=4.0, max_rate_kwh=2.0),
        Job(id="b", arrival=1, departure=4, energy_kwh=3.0, max_rate_kwh=2.0),
    ))
    out = json.loads(result.stdout)
    # The capped fill routes this chain in one max flow.
    assert out["max_flows"] > 1
    schedule = Schedule.build(instance, {job: np.array(values) for job, values in out["windows"].items()})
    validate_schedule(instance, schedule)
    assert_exchange_optimal(instance, schedule, np.array([1.0, 0.0, 2.5, 0.5]))


@pytest.mark.parametrize(
    "unit, expected",
    # Shares a unit short never route the volume, and their cut takes in
    # the whole block; shares a unit over route it but leave one share
    # unfilled, so the targets miss the allocation.
    [(-1, "a block's shares failed to advance"), (1, "misses an energy, a target or a rate")],
    ids=["loses", "invents"],
)
def test_fill_that_misses_the_volume(unit, expected):
    run_optimized("""
        # The largest share of every fill is one grid unit off, so the
        # shares lose or invent a unit of their block's volume.
        exact = flatten._capped_fill

        def one_unit_off(*args):
            shares = exact(*args)
            shares[np.argmax(shares)] += UNIT
            return shares

        patch(flatten, "_capped_fill", one_unit_off)

        def fault():
            flatten.solve_flatten(flatten.FlattenProblem(instance))
    """.replace("UNIT", str(unit)), expected)


def test_group_shares_that_never_route():
    run_optimized("""
        # Zero shares route nothing, so the cut takes in the whole group.
        patch(flatten, "_apportion", lambda raw, rows, totals: np.zeros(len(raw), dtype=np.int64))

        def fault():
            flatten.solve_flatten(flatten.FlattenProblem(instance))
    """, "a block's shares")


def test_group_shares_that_never_route_beside_a_routing_block():
    run_optimized("""
        # Two groups share a level: the first one's zero shares route
        # nothing while the second one's route in the same max flow.
        exact = flatten._apportion

        def first_group_routes_nothing(raw, rows, totals):
            if len(np.unique(rows)) != 2:
                raise SystemExit("the two groups are not apportioned together")
            shares = exact(raw, rows, totals)
            shares[rows == rows[0]] = 0
            return shares

        patch(flatten, "_apportion", first_group_routes_nothing)
        halves = Instance(horizon, (
            Job(id="a", arrival=0, departure=2, energy_kwh=4.0, max_rate_kwh=4.0),
            Job(id="b", arrival=2, departure=4, energy_kwh=1.0, max_rate_kwh=4.0),
        ))

        def fault():
            flatten.solve_flatten(flatten.FlattenProblem(halves))
    """, "a block's shares")


def test_allocation_that_misses_a_job():
    run_optimized("""
        # Every flow that routes all supplies moves one grid unit from job
        # a's arc into interval 1 to job b's: block volumes and interval
        # loads hold, but a delivers one unit short and b one unit over.
        exact = flatten.max_flow

        def one_unit_moved(network, capacities):
            result = exact(network, capacities)
            into = network._forward[network.job_arcs().start + np.flatnonzero(network.arc_interval == 1)]
            if result.flow_value == capacities[network.source_arcs()].sum() and len(into) == 2:
                result.flow.data[into] += [-1, 1]
            return result

        patch(flatten, "max_flow", one_unit_moved)

        def fault():
            flatten.solve_flatten(flatten.FlattenProblem(instance))
    """, "allocation read off the cuts")


def test_integer_water_fill_without_a_level():
    run_optimized("""
        # Caps of 1 and 2 grid units cannot hold a volume of 4.
        def fault():
            flatten._capped_fill(
                np.array([0, 0]), np.array([1, 2]), np.array([0, 0]), np.array([4]), np.zeros(2), np.array([4.0]), 1
            )
    """, "found no level")


def test_integer_water_fill_without_basins():
    run_optimized("""
        def fault():
            none = np.array([], dtype=np.int64)
            flatten._capped_fill(none, none, none, np.array([5]), np.array([]), np.array([5.0]), 1)
    """, "found no level")


def test_negative_apportion_total():
    run_optimized("""
        def fault():
            flatten._apportion(np.array([0.5, 0.5]), np.array([0, 0]), np.array([-1]))
    """, "negative total")


def test_completed_square_drift():
    run_optimized("""
        exact = weighted.weighted_objective
        patch(weighted, "weighted_objective", lambda *args: exact(*args) + 1.0)

        def fault():
            emissions = EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
            weights = weighted.Weights(co2_weight=1.0, flatness_weight=2.0)
            weighted.solve_weighted(instance, emissions, None, weights)
    """, "completing-the-square")


def test_short_extraction():
    run_optimized("""
        # Every max flow comes back empty, so the feasibility probe routes nothing.
        exact = flow.max_flow
        patch(flow, "max_flow", lambda network, capacities: exact(network, np.zeros_like(capacities)))

        def fault():
            capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 10.0))
            flow.solve_min_co2(capped, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
    """, "no room", error="InfeasibleError")


# Indented like the bodies it ends, so that they dedent together.
CAPPED = """
        capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 3.0))

        def fault():
            flow.solve_min_co2(capped, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
"""


def test_greedy_cuts_that_take_in_nothing():
    run_optimized("""
        # No cut: every job stays with the cheaper half until a leaf of one
        # interval is left with all of the energy.
        patch(flow, "residual_reachable", lambda network, capacities, result: np.zeros(
            network.node_count, dtype=bool
        ))
    """ + CAPPED, "a leaf share of 700000000 lies outside [0, 300000000]")


def test_greedy_cuts_that_take_in_everything():
    run_optimized("""
        # Every cut takes in everything, so the last leaf owes its full
        # intervals more than its jobs have left.
        patch(flow, "residual_reachable", lambda network, capacities, result: np.ones(
            network.node_count, dtype=bool
        ))
    """ + CAPPED, "a leaf share of -100000000 lies outside [0, 200000000]")


def test_greedy_spill_past_a_cap():
    run_optimized("""
        # Cuts of jobs alone: both jobs spill their full rate into both
        # open intervals, 4 kWh into each 3 kWh cap.
        def jobs_only(network, capacities, result):
            mask = np.zeros(network.node_count, dtype=bool)
            mask[network.job_nodes()] = True
            return mask

        patch(flow, "residual_reachable", jobs_only)
    """ + CAPPED, "overfills")


def test_greedy_leaf_that_does_not_route():
    run_optimized("""
        # The fourth max flow, the level of blocks of one rank, comes back
        # empty, so the leaves' jobs deliver nothing there.
        exact = flow.max_flow
        calls = []

        def short_leaves(network, capacities):
            calls.append(network)
            if len(calls) == 4:
                return exact(network, np.zeros_like(capacities))
            return exact(network, capacities)

        patch(flow, "max_flow", short_leaves)
    """ + CAPPED, "misses a job's energy")


def test_greedy_read_off_that_drops_a_spill():
    run_optimized("""
        # The first spill of job b into interval 1 is left out of the flow,
        # so b delivers one rate short.
        exact = flow.read_cut
        dropped = []

        def one_spill_dropped(whole, level, jobs, ints, reachable, level_flows, finished, flows):
            cut = exact(whole, level, jobs, ints, reachable, level_flows, finished, flows)
            if len(cut[2]) and not dropped:
                job_arcs = np.flatnonzero((whole.arc_job == cut[2][0]) & (whole.arc_interval == cut[3][0]))
                dropped.append(whole.job_count + job_arcs)
                flows[dropped[0]] = 0
            return cut

        patch(flow, "read_cut", one_spill_dropped)
        spilling = Instance(horizon, (
            Job(id="a", arrival=0, departure=2, energy_kwh=4.0, max_rate_kwh=2.0),
            Job(id="b", arrival=1, departure=4, energy_kwh=5.0, max_rate_kwh=2.0),
        ), caps_kwh=np.full(4, 4.0))

        def fault():
            flow.solve_min_co2(spilling, EmissionSeries(np.array([0.1, 0.2, 0.3, 0.4])))
            if not dropped:
                raise SystemExit("no spill to drop")
    """, "misses a job's energy")


def test_dearer_flow_fails_the_certificate():
    run_optimized("""
        # A feasible flow that charges job a in intervals 0 and 2 while
        # interval 1, the cheapest, has room.  Arcs: the source arcs, a's
        # window 0-2, b's window 1-3, the sink arcs 0-3, in kWh.
        capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 3.0))
        emissions = EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
        scale = flow.build_network(capped, emissions)[1]
        dearer = np.array([4, 3, 2, 0, 2, 2, 0, 1, 2, 2, 2, 1]) * scale
        patch(flow, "_polymatroid_greedy", lambda network, capacities, costs, job_ids: dearer)

        def fault():
            flow.solve_min_co2(capped, emissions)
    """, "not optimal")
