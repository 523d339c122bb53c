"""Tests for the job/interval network and the minimum-emission solvers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from depotcharge import flow
from depotcharge.cli import SCENARIOS, _solve_scenario
from depotcharge.errors import InfeasibleError, ScalingOverflowError, SolverError
from depotcharge.matching import match_week, to_jobs
from depotcharge.model import BaseloadSeries, Instance, Job, check_feasible, validate_schedule
from depotcharge.oracle import lp_min_co2
from depotcharge.synth import sinusoid_emissions, synth_timetable, week_horizon
from depotcharge.weighted import Weights

from helpers import make_horizon, random_emissions, random_instance


def co2_total(schedule, emissions: flow.EmissionSeries) -> float:
    return float(np.dot(schedule.aggregate_kwh, emissions.kg_per_kwh))


def emission_series(rng, interval_count: int) -> flow.EmissionSeries:
    return flow.EmissionSeries(random_emissions(rng, interval_count))


class TestNetworkShape:
    def test_node_and_arc_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            instance = random_instance(rng, with_caps=True)
            emissions = emission_series(rng, instance.interval_count)
            network, _, capacities, costs = flow.build_network(instance, emissions)
            n = len(instance.jobs)
            m = instance.interval_count
            window_total = sum(job.departure - job.arrival for job in instance.jobs)
            assert network.node_count == 2 + n + m
            assert network.arc_count == n + m + window_total
            assert network.sink == network.node_count - 1
            assert capacities.shape == costs.shape == (network.arc_count,)
            # Arc by arc, as a loop over the windows lays them out.
            tails = [0] * n + [1 + k for k, job in enumerate(instance.jobs) for _ in job.window]
            heads = [1 + k for k in range(n)] + [
                1 + n + i for job in instance.jobs for i in job.window
            ]
            assert list(network.tails) == tails + [1 + n + i for i in range(m)]
            assert list(network.heads) == heads + [network.sink] * m

    def test_arc_blocks(self):
        horizon = make_horizon(3)
        jobs = (
            Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.5),
            Job(id="b", arrival=1, departure=3, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        emissions = flow.EmissionSeries(np.array([0.3, 0.1, 0.2]))
        network, scale, capacities, costs = flow.build_network(Instance(horizon, jobs), emissions)
        # The largest rate pile-up, 2.5 kWh, keeps 1e8 units per kWh in the kernel.
        assert scale == 10**8

        source = network.source_arcs()
        assert list(network.tails[source]) == [0, 0]
        assert list(network.heads[source]) == [1, 2]
        assert list(capacities[source]) == [2 * scale, 1 * scale]

        job_arcs = network.job_arcs()
        assert list(network.tails[job_arcs]) == [1, 1, 2, 2]
        assert list(network.heads[job_arcs]) == [3, 4, 4, 5]
        assert list(network.arc_job) == [0, 0, 1, 1]
        assert list(network.arc_interval) == [0, 1, 1, 2]
        assert list(capacities[job_arcs]) == [1.5 * scale, 1.5 * scale, 1 * scale, 1 * scale]

        sink = network.sink_arcs()
        assert list(network.tails[sink]) == [3, 4, 5]
        assert list(network.heads[sink]) == [6, 6, 6]
        # No caps: sink capacity is the summed rate into the interval, never binding.
        assert list(capacities[sink]) == [1.5 * scale, 2.5 * scale, 1 * scale]
        assert list(costs[sink]) == [300000, 100000, 200000]
        assert not costs[: sink.start].any()

    def test_capped_sink_arcs(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=6.0),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([4.0, 6.0]))
        emissions = flow.EmissionSeries(np.array([0.1, 0.5]))
        network, scale, capacities, _ = flow.build_network(instance, emissions)
        assert list(capacities[network.sink_arcs()]) == [4 * scale, 6 * scale]

    def test_emission_length_mismatch(self):
        horizon = make_horizon(3)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        with pytest.raises(ValueError):
            flow.build_network(Instance(horizon, jobs), flow.EmissionSeries(np.array([0.1, 0.2])))

    def test_scaling_overflow(self):
        horizon = make_horizon(1)
        jobs = (Job(id="a", arrival=0, departure=1, energy_kwh=1e13, max_rate_kwh=1e13),)
        with pytest.raises(ScalingOverflowError):
            flow.build_network(
                Instance(horizon, jobs), flow.EmissionSeries(np.array([0.1]))
            )


class TestEmissionSeries:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            flow.EmissionSeries(np.array([0.1, -0.2]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            flow.EmissionSeries(np.zeros((2, 2)))


def replicated_week(copies: int, cap_kwh: float) -> Instance:
    """The seed-0 roster ``copies`` times over under a flat cap per interval."""
    horizon = week_horizon()
    roster = to_jobs(match_week(synth_timetable(seed=0).lines, horizon), horizon)
    jobs = tuple(replace(job, id=f"{job.id}/{copy}") for copy in range(copies) for job in roster)
    return Instance(horizon, jobs, caps_kwh=np.full(horizon.interval_count, cap_kwh))


def assert_matches_reference_lp(instance: Instance) -> None:
    """The capped week's schedule validates and its CO2 is the LP optimum."""
    emissions = sinusoid_emissions(instance.horizon)
    schedule = flow.solve_min_co2(instance, emissions)
    validate_schedule(instance, schedule)
    reference = lp_min_co2(instance, emissions.kg_per_kwh)
    assert co2_total(schedule, emissions) == pytest.approx(reference.objective, rel=1e-9)


class TestSolveMinCo2:
    def test_fills_cheapest_intervals(self):
        horizon = make_horizon(3)
        jobs = (Job(id="a", arrival=0, departure=3, energy_kwh=4.0, max_rate_kwh=3.0),)
        instance = Instance(horizon, jobs)
        emissions = flow.EmissionSeries(np.array([0.3, 0.1, 0.2]))
        schedule = flow.solve_min_co2(instance, emissions)
        validate_schedule(instance, schedule)
        _, values = schedule.window("a")
        assert np.allclose(values, [0.0, 3.0, 1.0])
        assert co2_total(schedule, emissions) == pytest.approx(0.5, rel=1e-9)

    def test_caps_push_energy_to_dearer_interval(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=6.0),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([4.0, 6.0]))
        emissions = flow.EmissionSeries(np.array([0.1, 0.5]))
        schedule = flow.solve_min_co2(instance, emissions)
        validate_schedule(instance, schedule)
        assert co2_total(schedule, emissions) == pytest.approx(4 * 0.1 + 2 * 0.5, rel=1e-9)

    def test_matches_reference_lp_without_caps(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            instance = random_instance(rng)
            emissions = emission_series(rng, instance.interval_count)
            schedule = flow.solve_min_co2(instance, emissions)
            validate_schedule(instance, schedule)
            reference = lp_min_co2(instance, emissions.kg_per_kwh)
            got = co2_total(schedule, emissions)
            assert got <= reference.objective + 1e-6 * max(1.0, reference.objective)
            assert got >= reference.objective - 1e-6 * max(1.0, reference.objective)

    def test_matches_reference_lp_with_caps(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            instance = random_instance(rng, with_caps=True)
            emissions = emission_series(rng, instance.interval_count)
            schedule = flow.solve_min_co2(instance, emissions)
            validate_schedule(instance, schedule)
            reference = lp_min_co2(instance, emissions.kg_per_kwh)
            got = co2_total(schedule, emissions)
            assert abs(got - reference.objective) <= 1e-6 * max(1.0, reference.objective)

    def test_greedy_and_network_paths_agree(self):
        # Non-binding caps force the network solver onto instances the
        # separable path also accepts; both must land on the same cost.
        rng = np.random.default_rng(17)
        for _ in range(30):
            instance = random_instance(rng)
            emissions = emission_series(rng, instance.interval_count)
            greedy = flow.solve_min_co2(instance, emissions)
            slack = sum(job.max_rate_kwh for job in instance.jobs)
            capped = Instance(
                instance.horizon,
                instance.jobs,
                caps_kwh=np.full(instance.interval_count, slack),
            )
            network = flow.solve_min_co2(capped, emissions)
            validate_schedule(capped, network)
            assert co2_total(greedy, emissions) == pytest.approx(
                co2_total(network, emissions), abs=1e-9
            )

    def test_cost_translation_shifts_objective_only(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            instance = random_instance(rng)
            emissions = emission_series(rng, instance.interval_count)
            shifted = flow.EmissionSeries(emissions.kg_per_kwh + 0.05)
            base = flow.solve_min_co2(instance, emissions)
            moved = flow.solve_min_co2(instance, shifted)
            np.testing.assert_array_equal(base.aggregate_kwh, moved.aggregate_kwh)
            total = sum(job.energy_kwh for job in instance.jobs)
            assert co2_total(moved, shifted) == pytest.approx(
                co2_total(base, emissions) + 0.05 * total, rel=1e-9
            )

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        instance = random_instance(rng, with_caps=True)
        emissions = emission_series(np.random.default_rng(23), instance.interval_count)
        first = flow.solve_min_co2(instance, emissions)
        second = flow.solve_min_co2(instance, emissions)
        assert first.aggregate_kwh.tobytes() == second.aggregate_kwh.tobytes()

    def test_suboptimal_flow_fails_the_certificate(self, monkeypatch):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=2.0),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([3.0, 3.0]))
        emissions = flow.EmissionSeries(np.array([0.1, 0.5]))
        # Everything through the dear interval: feasible, but beatable.
        scale = flow.build_network(instance, emissions)[1]
        monkeypatch.setattr(
            flow, "_polymatroid_greedy",
            lambda network, capacities, costs, job_ids: np.array([2, 0, 2, 0, 2]) * scale,
        )
        with pytest.raises(SolverError):
            flow.solve_min_co2(instance, emissions)

    def test_huge_caps_match_the_uncapped_greedy(self):
        # Caps this large never bind and must solve like no caps at all;
        # they are clipped to the rates into their interval before scaling,
        # so even 1e13 kWh fits the grid.
        rng = np.random.default_rng(41)
        for cap in (1e7, 1e12, 1e13) * 4:
            instance = random_instance(rng)
            emissions = emission_series(rng, instance.interval_count)
            capped = Instance(
                instance.horizon, instance.jobs, caps_kwh=np.full(instance.interval_count, cap)
            )
            schedule = flow.solve_min_co2(capped, emissions)
            validate_schedule(capped, schedule)
            assert co2_total(schedule, emissions) == pytest.approx(
                co2_total(flow.solve_min_co2(instance, emissions), emissions), abs=1e-9
            )

    def test_energy_past_watt_hour_resolution(self):
        # 4e6 kWh is 4e9 Wh, past the 32-bit kernel; the grid takes 100
        # units per kWh instead.
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=4e6, max_rate_kwh=3e6),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([3e6, 3e6]))
        emissions = flow.EmissionSeries(np.array([1.0, 2.0]))
        schedule = flow.solve_min_co2(instance, emissions)
        validate_schedule(instance, schedule)
        reference = lp_min_co2(instance, emissions.kg_per_kwh)
        assert reference.objective == pytest.approx(5e6, rel=1e-9)
        assert co2_total(schedule, emissions) == pytest.approx(reference.objective, rel=1e-9)

    def test_capped_solve_takes_a_max_flow_per_level(self, monkeypatch):
        # Feasibility and one per level of the rank halving, in which the
        # blocks of one rank route their own targets.
        calls = []
        exact = flow.max_flow
        monkeypatch.setattr(flow, "max_flow", lambda *args: calls.append(args) or exact(*args))
        rng = np.random.default_rng(43)
        for _ in range(10):
            instance = random_instance(rng, with_caps=True)
            calls.clear()
            flow.solve_min_co2(instance, emission_series(rng, instance.interval_count))
            assert 0 < len(calls) <= 2 + math.ceil(math.log2(instance.interval_count))

    def test_week_cap_takes_twelve_max_flows(self, monkeypatch):
        # 672 intervals halve in ten levels to blocks of one rank: 1 + 10 + 1
        # max flows with feasibility, where one per prefix of the cost
        # order would take m + 1 = 673.
        calls = []
        exact = flow.max_flow
        monkeypatch.setattr(flow, "max_flow", lambda *args: calls.append(args) or exact(*args))
        horizon = week_horizon()
        jobs = to_jobs(match_week(synth_timetable(seed=0).lines, horizon), horizon)
        instance = Instance(horizon, jobs, caps_kwh=np.full(horizon.interval_count, 150.0))
        schedule = flow.solve_min_co2(instance, sinusoid_emissions(horizon))
        validate_schedule(instance, schedule)
        assert 0 < len(calls) <= 12

    def test_whole_network_goes_to_the_kernel_once(self, monkeypatch):
        # Only the feasibility check runs on the whole network; the flow
        # is read off the levels' cuts, with no extraction max flow.
        built, calls = [], []
        exact_build, exact_flow = flow.build_network, flow.max_flow
        monkeypatch.setattr(flow, "build_network", lambda *args: built.append(exact_build(*args)) or built[-1])
        monkeypatch.setattr(flow, "max_flow", lambda *args: calls.append(args[0]) or exact_flow(*args))
        rng = np.random.default_rng(53)
        for _ in range(10):
            instance = random_instance(rng, with_caps=True)
            built.clear()
            calls.clear()
            flow.solve_min_co2(instance, emission_series(rng, instance.interval_count))
            whole = built[0][0]
            assert [network is whole for network in calls].count(True) == 1
            assert calls[0] is whole

    def test_replicated_week_matches_reference_lp(self):
        # The seed-0 roster twice over (420 jobs) under a 300 kWh cap per
        # interval: the coupled regime the greedy exists for.
        instance = replicated_week(2, 300.0)
        assert len(instance.jobs) == 420
        assert_matches_reference_lp(instance)

    def test_fleet_scale_week_matches_reference_lp(self):
        # Five times over, 1,050 jobs under 750 kWh per interval.
        instance = replicated_week(5, 750.0)
        assert len(instance.jobs) == 1050
        assert_matches_reference_lp(instance)

    def test_infeasible_caps_raise(self):
        horizon = make_horizon(1)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0]))
        # The residual cut of the feasibility max flow names the jobs.
        with pytest.raises(InfeasibleError, match="of jobs 'a', 'b'$"):
            flow.solve_min_co2(instance, flow.EmissionSeries(np.array([0.2])))

    def test_infeasible_caps_name_only_the_overloaded_jobs(self):
        horizon = make_horizon(2)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="c", arrival=1, departure=2, energy_kwh=2.0, max_rate_kwh=2.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0, 5.0]))
        with pytest.raises(InfeasibleError, match="of jobs 'a', 'b'$"):
            flow.solve_min_co2(instance, flow.EmissionSeries(np.array([0.2, 0.1])))


def prefix_rank_greedy(network, capacities, costs):
    """Edmonds' greedy with one max flow per prefix of the cost order.

    The plain form of the greedy, m + 1 max flows in all: interval i
    takes r(S_i) - r(S_{i-1}), with S_i its i cheapest intervals open.
    """
    sink = network.sink_arcs()
    caps = np.minimum(capacities[sink], network.reach(capacities))
    probe = capacities.copy()
    probe[sink] = 0
    increments = np.zeros(network.interval_count, dtype=np.int64)
    ranked = 0
    for i in np.argsort(costs[sink], kind="stable"):
        probe[sink.start + i] = caps[i]
        rank = flow.max_flow(network, probe).flow_value
        increments[i], ranked = rank - ranked, rank
    probe[sink] = increments
    result = flow.max_flow(network, probe)
    if result.flow_value < capacities[network.source_arcs()].sum():
        raise InfeasibleError("the prefix ranks leave supply unrouted")
    return network.arc_flows(result)


def greedy_matches_prefix_ranks(instance: Instance, emissions: flow.EmissionSeries) -> bool:
    """Both greedies load the intervals alike (True) or both refuse (False)."""
    network, _, capacities, costs = flow.build_network(instance, emissions)
    try:
        expected = prefix_rank_greedy(network, capacities, costs)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            flow._polymatroid_greedy(network, capacities, costs, [job.id for job in instance.jobs])
        return False
    flows = flow._polymatroid_greedy(network, capacities, costs, [job.id for job in instance.jobs])
    # The sink-arc flows are the greedy's increments; the per-job split
    # is one decomposition among many.
    sink, source = network.sink_arcs(), network.source_arcs()
    np.testing.assert_array_equal(flows[sink], expected[sink])
    assert np.all((flows >= 0) & (flows <= capacities))
    np.testing.assert_array_equal(flows[source], capacities[source])
    np.testing.assert_array_equal(network.delivered(flows), flows[source])
    np.testing.assert_array_equal(network.reach(flows), flows[sink])
    return True


class TestGreedyAgainstPrefixRanks:
    def test_random_capped_instances(self):
        # Half the instances draw their factors from 3-4 values, so the
        # stable order breaks ties; every third shrinks its caps to
        # 0.3-0.9x, which leaves some of them infeasible.
        rng = np.random.default_rng(47)
        outcomes = []
        for trial in range(200):
            instance = random_instance(rng, max_jobs=8, max_intervals=16, with_caps=True)
            m = instance.interval_count
            if trial % 2:
                factors = rng.choice(random_emissions(rng, int(rng.integers(3, 5))), size=m)
            else:
                factors = random_emissions(rng, m)
            if trial % 3 == 0:
                shrunk = np.round(instance.caps_kwh * rng.uniform(0.3, 0.9), 3)
                instance = Instance(instance.horizon, instance.jobs, caps_kwh=shrunk)
            outcomes.append(greedy_matches_prefix_ranks(instance, flow.EmissionSeries(factors)))
        assert any(outcomes) and not all(outcomes)

    def test_replicated_week(self):
        instance = replicated_week(2, 300.0)
        assert greedy_matches_prefix_ranks(instance, sinusoid_emissions(instance.horizon))


def residual_cycle_cost(network, capacities, costs, flows, cycle) -> int:
    """Cost of a node cycle; every step must be an arc of the residual graph."""
    residual_cost = {}
    for a in range(network.arc_count):
        tail, head = int(network.tails[a]), int(network.heads[a])
        if flows[a] < capacities[a]:
            residual_cost[(tail, head)] = int(costs[a])
        if flows[a] > 0:
            residual_cost[(head, tail)] = -int(costs[a])
    total = 0
    for pos, node in enumerate(cycle):
        succ = cycle[(pos + 1) % len(cycle)]
        assert (node, succ) in residual_cost
        total += residual_cost[(node, succ)]
    return total


def move_one_job(rng, network, capacities, flows):
    """``flows`` with part of one job's energy moved to another of its intervals.

    The receiving interval needs rate and cap headroom; None when no job
    has such a pair.
    """
    first, sink = network.job_arcs().start, network.sink_arcs().start
    for k in rng.permutation(network.job_count):
        window = first + np.flatnonzero(network.arc_job == k)
        ints = sink + network.arc_interval[window - first]
        room = np.minimum(capacities[window] - flows[window], capacities[ints] - flows[ints])
        pairs = [
            (a, b) for a in np.flatnonzero(flows[window] > 0) for b in np.flatnonzero(room > 0)
            if a != b
        ]
        if pairs:
            a, b = pairs[rng.integers(len(pairs))]
            amount = int(rng.integers(1, min(flows[window[a]], room[b]) + 1))
            moved = flows.copy()
            moved[[window[a], ints[a]]] -= amount
            moved[[window[b], ints[b]]] += amount
            return moved
    return None


class TestVerifyOptimality:
    def _tiny_network(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=2.0),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([3.0, 3.0]))
        emissions = flow.EmissionSeries(np.array([0.1, 0.5]))
        return flow.build_network(instance, emissions)

    def test_certifies_solver_output(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            instance = random_instance(rng, with_caps=True)
            emissions = emission_series(rng, instance.interval_count)
            network, _, capacities, costs = flow.build_network(instance, emissions)
            ids = [job.id for job in instance.jobs]
            flows = flow._polymatroid_greedy(network, capacities, costs, ids)
            certificate = flow.verify_optimality(network, capacities, costs, flows)
            assert certificate.optimal
            assert certificate.witness_cycle == ()

    def test_suboptimal_flow_yields_negative_witness_cycle(self):
        network, scale, capacities, costs = self._tiny_network()
        # Arc order: source->job, job->i0, job->i1, i0->sink, i1->sink.
        # Routing everything through the dear interval is feasible but
        # beatable, so the certificate must expose a cycle.
        flows = np.array([2, 0, 2, 0, 2], dtype=np.int64) * scale
        certificate = flow.verify_optimality(network, capacities, costs, flows)
        assert not certificate.optimal
        assert len(certificate.witness_cycle) >= 2
        assert residual_cycle_cost(network, capacities, costs, flows, certificate.witness_cycle) < 0

    def test_perturbed_flows_against_exact_cost(self):
        # Moving part of one job's energy between two of its intervals
        # keeps a flow feasible, and it stays optimal exactly when its
        # integer cost equals the greedy's.  Half the instances draw their
        # factors from 3-4 values, so that ties give both verdicts.
        rng = np.random.default_rng(53)
        verdicts = []
        for trial in range(120):
            instance = random_instance(rng, max_jobs=8, max_intervals=16, with_caps=True)
            m = instance.interval_count
            if trial % 2:
                factors = rng.choice(random_emissions(rng, int(rng.integers(3, 5))), size=m)
            else:
                factors = random_emissions(rng, m)
            emissions = flow.EmissionSeries(factors)
            network, _, capacities, costs = flow.build_network(instance, emissions)
            ids = [job.id for job in instance.jobs]
            best = flow._polymatroid_greedy(network, capacities, costs, ids)
            for _ in range(4):
                moved = move_one_job(rng, network, capacities, best)
                if moved is None:
                    break
                certificate = flow.verify_optimality(network, capacities, costs, moved)
                optimal = int(costs @ moved) == int(costs @ best)
                assert certificate.optimal == optimal
                if optimal:
                    assert certificate.witness_cycle == ()
                else:
                    cycle = certificate.witness_cycle
                    assert residual_cycle_cost(network, capacities, costs, moved, cycle) < 0
                verdicts.append(optimal)
        assert any(verdicts) and not all(verdicts)

    def test_rejects_costs_off_the_sink_arcs(self):
        network, scale, capacities, costs = self._tiny_network()
        flows = np.array([2, 2, 0, 2, 0], dtype=np.int64) * scale
        assert flow.verify_optimality(network, capacities, costs, flows).optimal
        costs = costs.copy()
        costs[network.job_arcs().start] = 1
        with pytest.raises(ValueError, match="costs must sit on sink arcs only"):
            flow.verify_optimality(network, capacities, costs, flows)

    def test_rejects_flow_violating_conservation(self):
        network, scale, capacities, costs = self._tiny_network()
        flows = np.array([2, 1, 0, 1, 0], dtype=np.int64) * scale
        with pytest.raises(ValueError):
            flow.verify_optimality(network, capacities, costs, flows)

    def test_rejects_flow_violating_capacity(self):
        network, scale, capacities, costs = self._tiny_network()
        flows = np.array([9, 9, 0, 9, 0], dtype=np.int64) * scale
        with pytest.raises(ValueError):
            flow.verify_optimality(network, capacities, costs, flows)


class TestFeasibilityCut:
    def test_generous_caps_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            instance = random_instance(rng, with_caps=True)
            report = check_feasible(instance)
            assert report.feasible
            assert report.violating_jobs == frozenset()

    def test_overloaded_interval_names_both_jobs(self):
        horizon = make_horizon(1)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0]))
        report = check_feasible(instance)
        assert not report.feasible
        assert report.violating_jobs == frozenset({"a", "b"})

    def test_off_grid_rate_at_full_use_under_tight_caps(self):
        # Job "a" needs its full 1/3 kWh in every interval, which rounds
        # below 1 kWh on any decimal grid, and the caps leave no slack.
        horizon = make_horizon(3)
        jobs = (
            Job(id="a", arrival=0, departure=3, energy_kwh=1.0, max_rate_kwh=1 / 3),
            Job(id="b", arrival=0, departure=3, energy_kwh=0.5, max_rate_kwh=1 / 3),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.full(3, 0.5))
        factors = np.array([1.0, 2.0, 3.0])
        assert lp_min_co2(instance, factors).objective == pytest.approx(3.0, rel=1e-9)
        report = check_feasible(instance)
        assert report.feasible
        assert report.violating_jobs == frozenset()
        schedule = flow.solve_min_co2(instance, flow.EmissionSeries(factors))
        validate_schedule(instance, schedule)
        assert co2_total(schedule, flow.EmissionSeries(factors)) == pytest.approx(3.0, rel=1e-6)

    def test_cut_isolates_overloaded_window(self):
        # Job "c" charges in a separate, uncongested interval and must
        # stay out of the violating set.
        horizon = make_horizon(2)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="c", arrival=1, departure=2, energy_kwh=2.0, max_rate_kwh=2.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0, 5.0]))
        report = check_feasible(instance)
        assert not report.feasible
        assert report.violating_jobs == frozenset({"a", "b"})


@pytest.mark.parametrize("scenario", SCENARIOS + ("capped co2",))
def test_job_past_its_window_by_less_than_the_tolerance(scenario):
    # Job allows an energy up to ENERGY_ATOL above the rate times the
    # window width; every solver charges the window in full.
    instance = Instance(make_horizon(4), (Job("a", 0, 4, 30.0 + 5e-7, 7.5),))
    emissions = flow.EmissionSeries(np.array([0.3, 0.1, 0.2, 0.4]))
    if scenario == "capped co2":
        instance = replace(instance, caps_kwh=np.full(4, 10.0))
        schedule = flow.solve_min_co2(instance, emissions)
    else:
        baseload = BaseloadSeries(np.array([1.0, 0.0, 2.0, 0.5]))
        schedule = _solve_scenario(scenario, instance, emissions, baseload, Weights(1.0, 2.0))
    validate_schedule(instance, schedule)
    np.testing.assert_array_equal(schedule.aggregate_kwh, np.full(4, 7.5))


class TestMaxFlowKernel:
    def test_diamond_graph(self):
        # Two jobs share interval 1: source -> {a, b} -> 1 -> sink is a
        # diamond, with a side branch from a into interval 0.
        network = flow.JobIntervalNetwork([0, 1], [2, 2], 2)
        caps = network.capacities([10, 5], [7, 9], [4, 6])
        result = flow.max_flow(network, caps)
        value, flows = result.flow_value, network.arc_flows(result)
        # Interval 1 drains at most 6 and interval 0 at most 4.
        assert value == 10
        assert np.all(flows >= 0) and np.all(flows <= caps)
        balance = np.zeros(network.node_count, dtype=np.int64)
        np.subtract.at(balance, network.tails, flows)
        np.add.at(balance, network.heads, flows)
        assert not balance[1:-1].any()
        assert balance[0] == -10 and balance[-1] == 10

    def test_capacities_change_between_calls(self):
        network = flow.JobIntervalNetwork([0, 1], [2, 2], 2)
        for sink_caps, expected in (([4, 6], 10), ([0, 0], 0), ([9, 9], 15), ([1, 2], 3)):
            result = flow.max_flow(network, network.capacities([10, 5], [7, 9], sink_caps))
            value, flows = result.flow_value, network.arc_flows(result)
            assert value == expected
            assert flows[network.sink_arcs()].sum() == expected

    def test_flow_index_matches_the_kernel_layout(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            starts = rng.integers(0, m, size=int(rng.integers(0, 6)))
            stops = np.minimum(starts + rng.integers(1, 5, size=len(starts)), m)
            network = flow.JobIntervalNetwork(starts, stops, m)
            caps = rng.integers(0, 5, size=network.arc_count)
            result = flow.max_flow(network, caps)
            value, flows = result.flow_value, network.arc_flows(result)
            reference = maximum_flow(
                csr_matrix(
                    (caps.astype(np.int32), (network.tails, network.heads)),
                    shape=(network.node_count, network.node_count),
                ),
                network.source, network.sink,
            )
            assert value == reference.flow_value
            expected = np.asarray(reference.flow[network.tails, network.heads]).ravel()
            np.testing.assert_array_equal(flows, expected)

    def test_residual_reachability_stops_at_cut(self):
        # One job, two intervals; the sink arc of interval 1 is closed.
        network = flow.JobIntervalNetwork([0], [2], 2)
        caps = network.capacities([5], [3], [3, 0])
        result = flow.max_flow(network, caps)
        assert result.flow_value == 3
        mask = flow.residual_reachable(network, caps, result)
        # The job is unsaturated.  Its arc into interval 0 is full, so only
        # interval 1 is reachable, and interval 1 cannot drain to the sink.
        assert list(mask) == [True, True, False, True, False]

    def test_rejects_capacities_beyond_kernel_range(self):
        network = flow.JobIntervalNetwork([0], [1], 1)
        caps = np.array([2**40, 1, 1], dtype=np.int64)
        with pytest.raises(ScalingOverflowError):
            flow.max_flow(network, caps)


def residual_bfs(network, capacities, flows):
    """Nodes the source reaches over residual arcs, searched node by node:
    an arc runs forward while its flow is below its capacity and backward
    while it carries flow."""
    residual = {node: [] for node in range(network.node_count)}
    for tail, head, cap, used in zip(network.tails, network.heads, capacities, flows):
        if used < cap:
            residual[int(tail)].append(int(head))
        if used > 0:
            residual[int(head)].append(int(tail))
    seen, frontier = {network.source}, [network.source]
    while frontier:
        frontier = [nxt for node in frontier for nxt in residual[node] if nxt not in seen]
        seen.update(frontier)
    return np.isin(np.arange(network.node_count), list(seen))


class TestRowSums:
    def test_each_row_sums_as_numpy_sums_it(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            lengths = rng.integers(0, 300, size=int(rng.integers(1, 6)))
            parts = [rng.uniform(0.0, 50.0, size) * 10.0 ** rng.integers(-3, 4) for size in lengths]
            rows = np.repeat(np.arange(len(parts)), lengths)
            sums = flow.row_sums(np.concatenate(parts), rows, len(parts))
            assert sums.tobytes() == np.array([part.sum() for part in parts]).tobytes()


class TestResidualCut:
    def test_cut_off_the_kernel_matrix_matches_a_plain_search(self):
        # Zero-capacity arcs throughout, and on some networks whole blocks
        # of jobs and intervals that sit the flow out with no supply.
        rng = np.random.default_rng(131)
        for _ in range(300):
            m = int(rng.integers(1, 13))
            starts = rng.integers(0, m, size=int(rng.integers(0, 9)))
            stops = np.minimum(starts + rng.integers(1, 6, size=len(starts)), m)
            network = flow.JobIntervalNetwork(starts, stops, m)
            caps = rng.integers(0, 6, size=network.arc_count) * (rng.random(network.arc_count) < 0.8)
            if rng.random() < 0.5:
                idle = rng.random(network.job_count) < 0.4
                caps[network.source_arcs().start + np.flatnonzero(idle)] = 0
                caps[network.job_arcs().start + np.flatnonzero(idle[network.arc_job])] = 0
            result = flow.max_flow(network, caps)
            expected = residual_bfs(network, caps, network.arc_flows(result))
            np.testing.assert_array_equal(flow.residual_reachable(network, caps, result), expected)

    def test_blocks_of_a_level_sit_a_flow_out(self):
        # One network of disjoint blocks, every other block with no supply:
        # none of its nodes is reachable, and the live blocks cut as alone.
        rng = np.random.default_rng(137)
        for _ in range(50):
            m = int(rng.integers(2, 16))
            starts = rng.integers(0, m, size=int(rng.integers(1, 9)))
            stops = np.minimum(starts + rng.integers(1, 5, size=len(starts)), m)
            job_block = rng.integers(0, 3, size=len(starts))
            int_block = rng.integers(0, 3, size=m)
            int_block[starts] = job_block
            network, jobs, _, labels, _, job_pos, _ = flow.block_level(starts, stops, job_block, int_block)
            caps = rng.integers(0, 6, size=network.arc_count)
            asleep = labels[job_pos] == 1
            caps[network.source_arcs().start + np.flatnonzero(asleep)] = 0
            result = flow.max_flow(network, caps)
            reachable = flow.residual_reachable(network, caps, result)
            np.testing.assert_array_equal(reachable, residual_bfs(network, caps, network.arc_flows(result)))
            assert not reachable[network.job_nodes()][asleep].any()

