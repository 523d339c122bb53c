"""Tests for the job/interval network and the minimum-emission solvers."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from depotcharge import flow
from depotcharge.errors import InfeasibleError, ScalingOverflowError, SolverError
from depotcharge.matching import match_week, to_jobs
from depotcharge.model import Instance, Job, validate_schedule
from depotcharge.oracle import lp_min_co2
from depotcharge.synth import sinusoid_emissions, synth_timetable, week_horizon

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
            network, capacities, costs = flow.build_network(instance, emissions)
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
        network, capacities, costs = flow.build_network(Instance(horizon, jobs), emissions)

        source = network.source_arcs()
        assert list(network.tails[source]) == [0, 0]
        assert list(network.heads[source]) == [1, 2]
        assert list(capacities[source]) == [2000, 1000]

        job_arcs = network.job_arcs()
        assert list(network.tails[job_arcs]) == [1, 1, 2, 2]
        assert list(network.heads[job_arcs]) == [3, 4, 4, 5]
        assert list(network.arc_job) == [0, 0, 1, 1]
        assert list(network.arc_interval) == [0, 1, 1, 2]
        assert list(capacities[job_arcs]) == [1500, 1500, 1000, 1000]

        sink = network.sink_arcs()
        assert list(network.tails[sink]) == [3, 4, 5]
        assert list(network.heads[sink]) == [6, 6, 6]
        # No caps: sink capacity is the summed rate bound, never binding.
        assert list(capacities[sink]) == [2500, 2500, 2500]
        assert list(costs[sink]) == [300000, 100000, 200000]
        assert not costs[: sink.start].any()

    def test_capped_sink_arcs(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=6.0),)
        instance = Instance(horizon, jobs, caps_kwh=np.array([4.0, 6.0]))
        emissions = flow.EmissionSeries(np.array([0.1, 0.5]))
        network, capacities, _ = flow.build_network(instance, emissions)
        assert list(capacities[network.sink_arcs()]) == [4000, 6000]

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
        monkeypatch.setattr(
            flow, "_polymatroid_greedy",
            lambda network, capacities, costs: np.array([2000, 0, 2000, 0, 2000]),
        )
        with pytest.raises(SolverError):
            flow.solve_min_co2(instance, emissions)

    def test_huge_caps_match_the_uncapped_greedy(self):
        # 1e7 kWh is 1e10 watt-hours, past the 32-bit kernel range; caps
        # that large never bind and must solve like no caps at all.
        rng = np.random.default_rng(41)
        for _ in range(10):
            instance = random_instance(rng)
            emissions = emission_series(rng, instance.interval_count)
            capped = Instance(
                instance.horizon, instance.jobs, caps_kwh=np.full(instance.interval_count, 1e7)
            )
            schedule = flow.solve_min_co2(capped, emissions)
            validate_schedule(capped, schedule)
            assert co2_total(schedule, emissions) == pytest.approx(
                co2_total(flow.solve_min_co2(instance, emissions), emissions), abs=1e-9
            )

    def test_capped_solve_takes_at_most_m_plus_one_max_flows(self, monkeypatch):
        calls = []
        exact = flow.max_flow
        monkeypatch.setattr(flow, "max_flow", lambda *args: calls.append(args) or exact(*args))
        rng = np.random.default_rng(43)
        for _ in range(10):
            instance = random_instance(rng, with_caps=True)
            calls.clear()
            flow.solve_min_co2(instance, emission_series(rng, instance.interval_count))
            assert 0 < len(calls) <= instance.interval_count + 1

    def test_replicated_week_matches_reference_lp(self):
        # The seed-0 roster twice over (420 jobs) under a 300 kWh cap per
        # interval: the coupled regime the greedy exists for.
        horizon = week_horizon()
        roster = to_jobs(match_week(synth_timetable(seed=0).lines, horizon), horizon)
        jobs = tuple(replace(job, id=f"{job.id}/{copy}") for copy in range(2) for job in roster)
        instance = Instance(horizon, jobs, caps_kwh=np.full(horizon.interval_count, 300.0))
        emissions = sinusoid_emissions(horizon)
        schedule = flow.solve_min_co2(instance, emissions)
        validate_schedule(instance, schedule)
        reference = lp_min_co2(instance, emissions.kg_per_kwh)
        assert len(jobs) == 420
        assert co2_total(schedule, emissions) == pytest.approx(reference.objective, rel=1e-9)

    def test_infeasible_caps_raise(self):
        horizon = make_horizon(1)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0]))
        with pytest.raises(InfeasibleError):
            flow.solve_min_co2(instance, flow.EmissionSeries(np.array([0.2])))


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
            network, capacities, costs = flow.build_network(instance, emissions)
            flows = flow._polymatroid_greedy(network, capacities, costs)
            certificate = flow.verify_optimality(network, capacities, costs, flows)
            assert certificate.optimal
            assert certificate.witness_cycle == ()

    def test_suboptimal_flow_yields_negative_witness_cycle(self):
        network, capacities, costs = self._tiny_network()
        # Arc order: source->job, job->i0, job->i1, i0->sink, i1->sink.
        # Routing everything through the dear interval is feasible but
        # beatable, so the certificate must expose a cycle.
        flows = np.array([2000, 0, 2000, 0, 2000], dtype=np.int64)
        certificate = flow.verify_optimality(network, capacities, costs, flows)
        assert not certificate.optimal
        cycle = certificate.witness_cycle
        assert len(cycle) >= 2

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
        assert total < 0

    def test_rejects_flow_violating_conservation(self):
        network, capacities, costs = self._tiny_network()
        flows = np.array([2000, 1000, 0, 1000, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            flow.verify_optimality(network, capacities, costs, flows)

    def test_rejects_flow_violating_capacity(self):
        network, capacities, costs = self._tiny_network()
        flows = np.array([9000, 9000, 0, 9000, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            flow.verify_optimality(network, capacities, costs, flows)


class TestFeasibilityCut:
    def test_generous_caps_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            instance = random_instance(rng, with_caps=True)
            report = flow.feasibility_cut(instance)
            assert report.feasible
            assert report.violating_jobs == frozenset()

    def test_overloaded_interval_names_both_jobs(self):
        horizon = make_horizon(1)
        jobs = (
            Job(id="a", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
            Job(id="b", arrival=0, departure=1, energy_kwh=6.0, max_rate_kwh=6.0),
        )
        instance = Instance(horizon, jobs, caps_kwh=np.array([10.0]))
        report = flow.feasibility_cut(instance)
        assert not report.feasible
        assert report.violating_jobs == frozenset({"a", "b"})

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
        report = flow.feasibility_cut(instance)
        assert not report.feasible
        assert report.violating_jobs == frozenset({"a", "b"})


class TestMaxFlowKernel:
    def test_diamond_graph(self):
        # Two jobs share interval 1: source -> {a, b} -> 1 -> sink is a
        # diamond, with a side branch from a into interval 0.
        network = flow.JobIntervalNetwork([0, 1], [2, 2], 2)
        caps = network.capacities([10, 5], [7, 9], [4, 6])
        value, flows = flow.max_flow(network, caps)
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
            value, flows = flow.max_flow(network, network.capacities([10, 5], [7, 9], sink_caps))
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
            value, flows = flow.max_flow(network, caps)
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
        value, flows = flow.max_flow(network, caps)
        assert value == 3
        mask = flow.residual_reachable(network, caps, flows)
        # The job is unsaturated.  Its arc into interval 0 is full, so only
        # interval 1 is reachable, and interval 1 cannot drain to the sink.
        assert list(mask) == [True, True, False, True, False]

    def test_rejects_capacities_beyond_kernel_range(self):
        network = flow.JobIntervalNetwork([0], [1], 1)
        caps = np.array([2**40, 1, 1], dtype=np.int64)
        with pytest.raises(ScalingOverflowError):
            flow.max_flow(network, caps)
