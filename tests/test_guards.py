"""Load-bearing solver checks must hold under ``python -O``.

Each case forces one internal fault and runs it with assertions stripped,
expecting an error (a SolverError unless stated) rather than a wrong
result or a hang, or, where a fault is one the solver recovers from, a
schedule that passes the checks.  All cases share one ``python -O``
process: each runs in a fresh namespace, its patches are undone when it
ends, and it reports its outcome as JSON to its own test.
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

#: Seconds one case may take before it counts as a hang.
CASE_SECONDS = 120

PRELUDE = """
import numpy as np
from datetime import datetime
from depotcharge import flatten, flow, weighted
from depotcharge.errors import InfeasibleError, SolverError
from depotcharge.flow import EmissionSeries
from depotcharge.model import BaseloadSeries, Horizon, Instance, Job

horizon = Horizon(start=datetime(2023, 6, 5), interval_count=4)
instance = Instance(horizon, (
    Job(id="a", arrival=0, departure=3, energy_kwh=4.0, max_rate_kwh=2.0),
    Job(id="b", arrival=1, departure=4, energy_kwh=3.0, max_rate_kwh=2.0),
))
"""

# Reads {name: body} as JSON on stdin and writes {name: outcome} as the
# last line of stdout.  A body defines run(); its outcome is what run()
# returns, or the error that the body or run() raised and where.
RUNNER = """
import json, signal, sys, traceback

assert not __debug__, "assertions are still on"


def overdue(signum, frame):
    raise TimeoutError("the case did not finish in time")


signal.signal(signal.SIGALRM, overdue)
prelude, cases, seconds = json.load(sys.stdin)
outcomes = {}
for case, body in cases.items():
    patched = []

    # Every fault goes through patch: a name that no longer exists must
    # fail its case rather than leave the fault unapplied.
    def patch(module, name, value):
        if not hasattr(module, name):
            raise LookupError(f"{module.__name__} has no {name} to patch")
        patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    outcome = {"stage": "setup"}
    signal.alarm(seconds)
    try:
        namespace = {"patch": patch}
        exec(prelude + body, namespace)
        outcome["stage"] = "run"
        outcome["returned"] = namespace["run"]()
    except Exception as error:
        outcome.update(raised=type(error).__name__, message=str(error), trace=traceback.format_exc())
    finally:
        signal.alarm(0)
        for module, name, original in reversed(patched):
            setattr(module, name, original)
    outcomes[case] = outcome
print(json.dumps(outcomes))
"""

CASES: dict[str, str] = {}


def case(name: str, body: str) -> str:
    """Register ``body``, which defines ``run()``, for the shared run."""
    CASES[name] = textwrap.dedent(body)
    return name


@pytest.fixture(scope="module")
def optimized() -> dict:
    """Every case's outcome, from one ``python -O`` process."""
    result = subprocess.run(
        [sys.executable, "-O", "-c", RUNNER],
        input=json.dumps([PRELUDE, CASES, CASE_SECONDS]),
        capture_output=True, text=True, timeout=CASE_SECONDS * len(CASES),
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr + result.stdout
    return json.loads(result.stdout.splitlines()[-1])


def assert_refused(outcome: dict, expected: str, error: str = "SolverError") -> None:
    assert "returned" not in outcome, "the fault went unnoticed"
    assert outcome["stage"] == "run" and outcome["raised"] == error, outcome["trace"]
    assert expected in outcome["message"], outcome["message"]


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so none may guard anything.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "depotcharge").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements at {found}"


def writes_a_file(node: ast.AST) -> bool:
    """A ``csv.writer`` call, or an ``open`` call whose mode is not read-only."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("writer", "write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = node.args[:1]
    else:
        return False
    modes = modes + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) <= set("rbt"))
        for mode in modes
    )


def placed(matches, owner_file: str, owner: str) -> tuple[list[str], list[str]]:
    """``file:line`` of the package's AST nodes that ``matches``, inside
    the top-level function ``owner`` of ``owner_file`` and elsewhere."""
    inside, found = [], []
    for path in sorted((SRC / "depotcharge").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == owner_file:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == owner:
                    allowed = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if matches(node):
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    return inside, found


def test_only_the_csv_writer_writes_files():
    # Every file the package writes gets its cells and line ends from data._write_csv.
    inside, found = placed(writes_a_file, "data.py", "_write_csv")
    assert len(inside) == 2, f"data._write_csv should open a file and make a csv.writer: {inside}"
    assert not found, f"files written outside data._write_csv at {found}"


def test_only_decompose_builds_and_fills_levels():
    # flow.decompose is the one level loop and holds the one sink rule,
    # so no other code may name block_level or _capped_fill.
    def names_a_level_step(node: ast.AST) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return isinstance(node, (ast.Name, ast.Attribute)) and name in ("block_level", "_capped_fill")

    inside, found = placed(names_a_level_step, "flow.py", "decompose")
    assert len(inside) == 2, f"flow.decompose should build each level and fill it: {inside}"
    assert not found, f"block_level or _capped_fill named outside flow.decompose at {found}"


def test_solvers_build_schedules_in_the_job_arc_layout():
    # Schedule.build assembles per-job arrays; solvers lay their energy
    # out in the network's job-arc order and call Schedule.of.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "depotcharge").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "build" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "Schedule"
    ]
    assert not found, f"Schedule.build called at {found}"


IGNORED_CAPS = case("fill that ignores the caps", """
    # Caps far above every rate make each block's fill the plain water
    # fill, whose shares here overfill the interval only job b reaches.
    # Any level still gives an exact cut, so the search takes more max
    # flows but ends in an exchange-optimal schedule.
    exact_fill, exact_flow = flow._capped_fill, flatten.max_flow
    calls = []
    patch(flow, "_capped_fill", lambda basins, caps, *rest: exact_fill(basins, caps + 10**12, *rest))
    patch(flatten, "max_flow", lambda *args: calls.append(args) or exact_flow(*args))

    def run():
        problem = flatten.FlattenProblem(instance, BaseloadSeries(np.array([1.0, 0.0, 2.5, 0.5])))
        schedule = flatten.solve_flatten(problem)
        windows = {job: list(values) for job, values in schedule.window_energy.items()}
        return {"max_flows": len(calls), "windows": windows}
""")


def test_fill_that_ignores_the_caps(optimized):
    outcome = optimized[IGNORED_CAPS]
    assert "returned" in outcome, outcome.get("trace")
    horizon = Horizon(start=datetime(2023, 6, 5), interval_count=4)
    instance = Instance(horizon, (
        Job(id="a", arrival=0, departure=3, energy_kwh=4.0, max_rate_kwh=2.0),
        Job(id="b", arrival=1, departure=4, energy_kwh=3.0, max_rate_kwh=2.0),
    ))
    out = outcome["returned"]
    # The capped fill routes this chain in one max flow.
    assert out["max_flows"] > 1
    schedule = Schedule.build(instance, {job: np.array(values) for job, values in out["windows"].items()})
    validate_schedule(instance, schedule)
    assert_exchange_optimal(instance, schedule, np.array([1.0, 0.0, 2.5, 0.5]))


MISSED_VOLUME = {
    unit: case(f"fill {unit:+d} unit", """
        # The largest share of every fill is one grid unit off, so the
        # shares lose or invent a unit of their block's volume.
        exact = flow._capped_fill

        def one_unit_off(*args):
            shares = exact(*args)
            shares[np.argmax(shares)] += UNIT
            return shares

        patch(flow, "_capped_fill", one_unit_off)

        def run():
            flatten.solve_flatten(flatten.FlattenProblem(instance))
    """.replace("UNIT", str(unit)))
    for unit in (-1, 1)
}


@pytest.mark.parametrize(
    "unit, expected",
    # Shares a unit short never route the volume, and their cut takes in
    # the whole block; shares a unit over route it but leave one share
    # unfilled, so the routed shares miss the allocation.
    [(-1, "a block's shares failed to advance"), (1, "misses a job's energy, a share or a rate")],
    ids=["loses", "invents"],
)
def test_fill_that_misses_the_volume(optimized, unit, expected):
    assert_refused(optimized[MISSED_VOLUME[unit]], expected)


UNROUTED = case("group shares that never route", """
    # Zero shares route nothing, so the cut takes in the whole group.
    patch(flow, "_capped_fill", lambda basins, *rest: np.zeros(len(basins), dtype=np.int64))

    def run():
        flatten.solve_flatten(flatten.FlattenProblem(instance))
""")


def test_group_shares_that_never_route(optimized):
    assert_refused(optimized[UNROUTED], "a block's shares")


UNROUTED_BESIDE_ROUTED = case("group shares that never route beside a routing block", """
    # Two groups share a level: the first one's zero shares route
    # nothing while the second one's route in the same max flow.
    exact = flow._capped_fill

    def first_group_routes_nothing(basins, caps, rows, volumes):
        if len(np.unique(rows)) != 2:
            raise RuntimeError("the two groups are not filled together")
        shares = exact(basins, caps, rows, volumes)
        shares[rows == rows[0]] = 0
        return shares

    patch(flow, "_capped_fill", first_group_routes_nothing)
    halves = Instance(horizon, (
        Job(id="a", arrival=0, departure=2, energy_kwh=4.0, max_rate_kwh=4.0),
        Job(id="b", arrival=2, departure=4, energy_kwh=1.0, max_rate_kwh=4.0),
    ))

    def run():
        flatten.solve_flatten(flatten.FlattenProblem(halves))
""")


def test_group_shares_that_never_route_beside_a_routing_block(optimized):
    assert_refused(optimized[UNROUTED_BESIDE_ROUTED], "a block's shares")


EMPTY_CUT = case("flattening cut that holds no interval", """
    # The chain [0, 2) does not route its first fill: interval 0 takes 2
    # of its 4 kWh, but only job a, with 0.5 kWh, reaches it.
    # An empty cut leaves the block as it is.
    patch(flatten, "residual_reachable", lambda network, capacities, result: np.zeros(
        network.node_count, dtype=bool
    ))
    short = Instance(horizon, (
        Job(id="a", arrival=0, departure=2, energy_kwh=0.5, max_rate_kwh=2.0),
        Job(id="b", arrival=1, departure=2, energy_kwh=3.5, max_rate_kwh=4.0),
    ))

    def run():
        flatten.solve_flatten(flatten.FlattenProblem(short))
""")


def test_flattening_cut_that_holds_no_interval(optimized):
    assert_refused(optimized[EMPTY_CUT], "failed to advance")


MISSED_JOB = case("allocation that misses a job", """
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

    def run():
        flatten.solve_flatten(flatten.FlattenProblem(instance))
""")


def test_allocation_that_misses_a_job(optimized):
    assert_refused(optimized[MISSED_JOB], "allocation read off the cuts")


NO_LEVEL = case("integer water fill without a level", """
    # Caps of 1 and 2 grid units cannot hold a volume of 4.
    def run():
        flow._capped_fill(np.array([0, 0]), np.array([1, 2]), np.array([0, 0]), np.array([4]))
""")


def test_integer_water_fill_without_a_level(optimized):
    assert_refused(optimized[NO_LEVEL], "found no level")


NO_BASINS = case("integer water fill without basins", """
    def run():
        none = np.array([], dtype=np.int64)
        flow._capped_fill(none, none, none, np.array([5]))
""")


def test_integer_water_fill_without_basins(optimized):
    assert_refused(optimized[NO_BASINS], "found no level")


DRIFT = case("completed square drift", """
    exact = weighted.weighted_objective
    patch(weighted, "weighted_objective", lambda *args: exact(*args) + 1.0)

    def run():
        emissions = EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
        weights = weighted.Weights(co2_weight=1.0, flatness_weight=2.0)
        weighted.solve_weighted(instance, emissions, None, weights)
""")


def test_completed_square_drift(optimized):
    assert_refused(optimized[DRIFT], "completing-the-square")


SHORT = case("short extraction", """
    # Every max flow comes back empty, so the feasibility probe routes nothing.
    exact = flow.max_flow
    patch(flow, "max_flow", lambda network, capacities: exact(network, np.zeros_like(capacities)))

    def run():
        capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 10.0))
        flow.solve_min_co2(capped, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
""")


def test_short_extraction(optimized):
    assert_refused(optimized[SHORT], "no room", error="InfeasibleError")


# Indented like the bodies they end, so that they dedent together.  The
# first fill of CAPPED routes; that of COUPLED does not, since it gives
# interval 0, the cheapest, more than job a, the only job reaching it, has.
CAPPED = """
    capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 3.0))

    def run():
        flow.solve_min_co2(capped, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
"""

COUPLED = """
    coupled = Instance(horizon, (
        Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=2.0),
        Job(id="b", arrival=1, departure=4, energy_kwh=4.0, max_rate_kwh=2.0),
    ), caps_kwh=np.full(4, 3.0))

    def run():
        flow.solve_min_co2(coupled, EmissionSeries(np.array([0.1, 0.2, 0.3, 0.4])))
"""


CUT_NOTHING = case("greedy cuts that take in nothing", """
    # No cut: the block that does not route would stay as it is.
    patch(flow, "residual_reachable", lambda network, capacities, result: np.zeros(
        network.node_count, dtype=bool
    ))
""" + COUPLED)


def test_greedy_cuts_that_take_in_nothing(optimized):
    assert_refused(optimized[CUT_NOTHING], "failed to advance")


CUT_EVERYTHING = case("greedy cuts that take in everything", """
    # Every cut takes in everything, so no block ever splits.
    patch(flow, "residual_reachable", lambda network, capacities, result: np.ones(
        network.node_count, dtype=bool
    ))
""" + COUPLED)


def test_greedy_cuts_that_take_in_everything(optimized):
    assert_refused(optimized[CUT_EVERYTHING], "failed to advance")


SPILL = case("greedy spill past a cap", """
    # Cuts of jobs alone: both jobs spill their full rate into both
    # open intervals, 4 kWh into each 3 kWh cap.
    def jobs_only(network, capacities, result):
        mask = np.zeros(network.node_count, dtype=bool)
        mask[network.job_nodes()] = True
        return mask

    patch(flow, "residual_reachable", jobs_only)
""" + CAPPED)


def test_greedy_spill_past_a_cap(optimized):
    assert_refused(optimized[SPILL], "overfills")


SHORT_LEAVES = case("greedy leaf that does not route", """
    # The third and last max flow, the level of the two blocks that the
    # first level's cut split off, comes back empty, so neither block
    # routes and each cut takes in all of its block.
    exact = flow.max_flow
    calls = []

    def short_leaves(network, capacities):
        calls.append(network)
        if len(calls) == 3:
            return exact(network, np.zeros_like(capacities))
        return exact(network, capacities)

    patch(flow, "max_flow", short_leaves)
""" + COUPLED)


def test_greedy_leaf_that_does_not_route(optimized):
    assert_refused(optimized[SHORT_LEAVES], "failed to advance")


DROPPED_SPILL = case("greedy read-off that drops a spill", """
    # The first spill of job b into interval 1 is left out of the flow,
    # so b delivers one rate short.  The first level holds both jobs and
    # every interval, the two cheapest open: a fills both at its rate, and
    # b takes the rest of interval 1's cap, which its cut spills.
    exact = flow.JobIntervalNetwork.arc_flows
    dropped = []

    def one_spill_dropped(network, result):
        flows = exact(network, result)
        if not dropped:
            dropped.extend(network.job_arcs().start + np.flatnonzero(
                (network.arc_job == 1) & (network.arc_interval == 1)
            ))
            flows[dropped] = 0
        return flows

    patch(flow.JobIntervalNetwork, "arc_flows", one_spill_dropped)
    spilling = Instance(horizon, (
        Job(id="a", arrival=0, departure=2, energy_kwh=4.0, max_rate_kwh=2.0),
        Job(id="b", arrival=1, departure=4, energy_kwh=5.0, max_rate_kwh=2.0),
    ), caps_kwh=np.full(4, 4.0))

    def run():
        flow.solve_min_co2(spilling, EmissionSeries(np.array([0.1, 0.2, 0.3, 0.4])))
        if not dropped:
            raise RuntimeError("no spill to drop")
""")


def test_greedy_read_off_that_drops_a_spill(optimized):
    assert_refused(optimized[DROPPED_SPILL], "misses a job's energy")


DEARER = case("dearer flow fails the certificate", """
    # A feasible flow that charges job a in intervals 0 and 2 while
    # interval 1, the cheapest, has room.  Arcs: the source arcs, a's
    # window 0-2, b's window 1-3, the sink arcs 0-3, in kWh.
    capped = Instance(horizon, instance.jobs, caps_kwh=np.full(4, 3.0))
    emissions = EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
    scale = flow.build_network(capped, emissions)[1]
    dearer = np.array([4, 3, 2, 0, 2, 2, 0, 1, 2, 2, 2, 1]) * scale
    patch(flow, "_polymatroid_greedy", lambda network, capacities, costs, job_ids: dearer)

    def run():
        flow.solve_min_co2(capped, emissions)
""")


def test_dearer_flow_fails_the_certificate(optimized):
    assert_refused(optimized[DEARER], "not optimal")


DEARER_FILL = case("uncapped fill into a dearer interval", """
    # Job a's 4 kWh belong in intervals 1 and 2, the cleanest of its
    # window; one kWh moves from interval 1 to interval 0, the dearest.
    # Delivery and rates still hold.
    from depotcharge.model import Schedule
    exact = flow.fill_windows

    def one_kwh_dearer(instance, key):
        energy = exact(instance, key).energy.copy()
        energy[[0, 1]] += [1.0, -1.0]
        return Schedule.of(instance, energy)

    patch(flow, "fill_windows", one_kwh_dearer)

    def run():
        flow.solve_min_co2(instance, EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4])))
""")


def test_dearer_uncapped_fill_fails_the_certificate(optimized):
    assert_refused(optimized[DEARER_FILL], "not optimal")
