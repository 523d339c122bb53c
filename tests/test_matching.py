"""Tests for bus-to-line matching and job derivation."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from depotcharge.errors import WindowInfeasibleError
from depotcharge.matching import (
    ArrivingBus,
    BusType,
    FleetAssignment,
    LineRecord,
    build_edges,
    match,
    match_week,
    ready_time_index,
    to_jobs,
)
from depotcharge.model import check_feasible, Instance
from depotcharge.synth import synth_timetable, week_horizon

from helpers import WEEK_START, make_horizon

WEEK = make_horizon(7 * 96)


def small_line(line_id, day, start_hour, end_hour, soc=60.0):
    base = WEEK_START + timedelta(days=day)
    return LineRecord(
        line_id=line_id,
        day=day,
        start=base + timedelta(hours=start_hour),
        end=base + timedelta(hours=end_hour),
        bus_type=BusType.SMALL,
        soc_after_kwh=soc,
    )


def bus_at(hour, soc, bus_type=BusType.SMALL, day=0, bus_id="bus"):
    return ArrivingBus(
        bus_id=bus_id,
        bus_type=bus_type,
        arrival=WEEK_START + timedelta(days=day, hours=hour),
        soc_kwh=soc,
    )


class TestTypes:
    def test_battery_capacities(self):
        assert BusType.SMALL.capacity_kwh == 122.0
        assert BusType.LARGE.capacity_kwh == 273.0

    def test_line_rejects_inverted_times(self):
        with pytest.raises(ValueError):
            small_line("l1", 0, 10.0, 8.0)

    def test_line_rejects_soc_beyond_capacity(self):
        with pytest.raises(ValueError):
            small_line("l1", 0, 8.0, 10.0, soc=130.0)
        with pytest.raises(ValueError):
            small_line("l1", 0, 8.0, 10.0, soc=-1.0)

    def test_bus_energy_need(self):
        assert bus_at(18.0, soc=61.0).energy_needed_kwh == pytest.approx(61.0)

    def test_assignment_rejects_double_booking(self):
        bus = bus_at(18.0, 61.0)
        line = small_line("l1", 1, 6.0, 10.0)
        with pytest.raises(ValueError):
            FleetAssignment(
                matched=((bus, line), (bus_at(19.0, 61.0, bus_id="bus2"), line)),
                unmatched=(),
                fallback_deadline=WEEK.end,
            )


class TestReadyTime:
    def test_sixty_one_kwh_at_thirty_kw(self):
        # 61 kWh at 30 kW lasts 2 h 2 min; whole intervals round that up
        # to 20:15 for an 18:00 arrival.
        bus = bus_at(18.0, soc=61.0)
        index = ready_time_index(bus, WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=20.25)

    def test_exact_multiple_does_not_round_up(self):
        bus = bus_at(18.0, soc=62.0)  # 60 kWh is exactly 8 intervals
        index = ready_time_index(bus, WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=20.0)

    def test_full_bus_is_ready_on_arrival(self):
        bus = bus_at(18.0, soc=122.0)
        index = ready_time_index(bus, WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=18.0)


class TestBuildEdges:
    def test_overnight_dwell_creates_edge(self):
        buses = [bus_at(18.0, soc=61.0)]
        lines = [small_line("l1", 1, 6.0, 10.0)]
        assert build_edges(buses, lines, WEEK) == ((0, 0),)

    def test_insufficient_time_blocks_edge(self):
        # 240 kWh needs 8 h at 30 kW; 05:00 to 07:00 is not enough.
        buses = [bus_at(5.0, soc=33.0, bus_type=BusType.LARGE, day=1)]
        lines = [
            LineRecord(
                line_id="l1",
                day=1,
                start=WEEK_START + timedelta(days=1, hours=7.0),
                end=WEEK_START + timedelta(days=1, hours=9.0),
                bus_type=BusType.LARGE,
                soc_after_kwh=50.0,
            )
        ]
        assert build_edges(buses, lines, WEEK) == ()

    def test_no_lines_means_no_edges(self):
        assert build_edges([bus_at(18.0, 61.0)], [], WEEK) == ()

    def test_bus_type_must_agree(self):
        buses = [bus_at(18.0, soc=100.0, bus_type=BusType.LARGE)]
        lines = [small_line("l1", 1, 6.0, 10.0)]
        assert build_edges(buses, lines, WEEK) == ()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            build_edges([], [], WEEK, charge_rate_kw=0.0)

    def test_no_buses_means_no_edges(self):
        assert build_edges([], [small_line("l1", 1, 6.0, 10.0)], WEEK) == ()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_week_matches_a_double_loop(self, seed):
        # The edges, in the (bus, line) order match tries them in, on every
        # evening of a synthetic week.
        horizon = week_horizon()
        by_day = {}
        for line in synth_timetable(seed=seed).lines:
            by_day.setdefault(line.day, []).append(line)
        for day, arriving in by_day.items():
            buses = [ArrivingBus.from_line(line) for line in arriving]
            lines = by_day.get(day + 1, [])
            expected = tuple(
                (b, l)
                for b, bus in enumerate(buses)
                for l, line in enumerate(lines)
                if bus.bus_type is line.bus_type
                and ready_time_index(bus, horizon, 30.0) <= horizon.index_floor(line.start)
            )
            assert build_edges(buses, lines, horizon, 30.0) == expected


def random_bipartite(rng, max_side=8, density=0.4):
    nb = int(rng.integers(1, max_side + 1))
    nl = int(rng.integers(1, max_side + 1))
    edges = tuple(
        (b, l) for b in range(nb) for l in range(nl) if rng.random() < density
    )
    return nb, nl, edges


def matching_by_flow(nb, nl, edges):
    """Independent cardinality via unit-capacity maximum flow."""
    source, sink = nb + nl, nb + nl + 1
    tails = [source] * nb + [b for b, _ in edges] + [nb + l for l in range(nl)]
    heads = list(range(nb)) + [nb + l for _, l in edges] + [sink] * nl
    graph = csr_matrix(
        (np.ones(len(tails), dtype=np.int32), (tails, heads)),
        shape=(nb + nl + 2, nb + nl + 2),
    )
    return maximum_flow(graph, source, sink).flow_value


def run_match(nb, nl, edges):
    buses = [bus_at(18.0, soc=61.0, bus_id=f"b{k}") for k in range(nb)]
    lines = [small_line(f"l{k}", 1, 6.0, 10.0) for k in range(nl)]
    return match(buses, lines, edges, fallback_deadline=WEEK.end)


class TestMatch:
    def test_complete_graph_matches_perfectly(self):
        edges = tuple((b, l) for b in range(3) for l in range(3))
        assignment = run_match(3, 3, edges)
        assert assignment.cardinality == 3
        assert assignment.unmatched == ()

    def test_cardinality_agrees_with_max_flow(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            nb, nl, edges = random_bipartite(rng)
            assignment = run_match(nb, nl, edges)
            assert assignment.cardinality == matching_by_flow(nb, nl, edges)

    def test_long_augmenting_chain(self):
        # Bus i can take line i - 1 or line i; every new bus first tries to
        # push the previous one down the chain, a path as long as the fleet.
        nb = 1500
        edges = ((0, 0),) + tuple(
            edge for i in range(1, nb) for edge in ((i, i - 1), (i, i))
        )
        assignment = run_match(nb, nb, edges)
        assert assignment.cardinality == nb
        assert all(
            bus.bus_id[1:] == line.line_id[1:] for bus, line in assignment.matched
        )

    def test_removing_an_edge_never_helps(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            nb, nl, edges = random_bipartite(rng, max_side=6, density=0.5)
            full = run_match(nb, nl, edges).cardinality
            for k in range(len(edges)):
                reduced = edges[:k] + edges[k + 1 :]
                assert run_match(nb, nl, reduced).cardinality <= full

    def test_matched_pairs_come_from_the_edge_set(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            nb, nl, edges = random_bipartite(rng)
            assignment = run_match(nb, nl, edges)
            allowed = {(f"b{b}", f"l{l}") for b, l in edges}
            for bus, line in assignment.matched:
                assert (bus.bus_id, line.line_id) in allowed


class TestMatchWeek:
    def test_pairs_each_day_with_the_next(self):
        lines = [
            small_line("mon", 0, 8.0, 18.0),
            small_line("tue", 1, 8.0, 18.0),
        ]
        monday, tuesday = match_week(lines, WEEK)
        assert monday.cardinality == 1
        assert monday.matched[0][1].line_id == "tue"
        # Tuesday has no successor day, so its bus takes the fallback.
        assert tuesday.cardinality == 0
        assert tuesday.fallback_deadline == WEEK_START + timedelta(days=3)

    def test_last_day_fallback_clamps_to_horizon_end(self):
        lines = [small_line("sun", 6, 8.0, 18.0)]
        (sunday,) = match_week(lines, WEEK)
        assert sunday.unmatched[0].bus_id == "sun:d6"
        assert sunday.fallback_deadline == WEEK.end

    def test_empty_roster(self):
        assert match_week([], WEEK) == ()


class TestToJobs:
    def test_matched_bus_window_ends_at_line_start(self):
        lines = [
            small_line("mon", 0, 8.0, 18.0, soc=61.0),
            small_line("tue", 1, 6.0, 18.0),
        ]
        assignments = match_week(lines, WEEK)
        jobs = to_jobs(assignments, WEEK)
        by_id = {job.id: job for job in jobs}
        mon = by_id["mon:d0"]
        assert WEEK.timestamp(mon.arrival) == WEEK_START + timedelta(hours=18.0)
        assert WEEK.timestamp(mon.departure) == WEEK_START + timedelta(days=1, hours=6.0)
        assert mon.energy_kwh == pytest.approx(61.0)
        assert mon.max_rate_kwh == pytest.approx(7.5)

    def test_unmatched_bus_charges_until_end_of_next_day(self):
        lines = [small_line("mon", 0, 8.0, 18.0, soc=61.0)]
        jobs = to_jobs(match_week(lines, WEEK), WEEK)
        (job,) = jobs
        assert WEEK.timestamp(job.departure) == WEEK_START + timedelta(days=2)

    def test_large_bus_energy_arithmetic(self):
        line = LineRecord(
            line_id="big",
            day=6,
            start=WEEK_START + timedelta(days=6, hours=8.0),
            end=WEEK_START + timedelta(days=6, hours=18.0),
            bus_type=BusType.LARGE,
            soc_after_kwh=173.0,
        )
        (job,) = to_jobs(match_week([line], WEEK), WEEK)
        assert job.energy_kwh == pytest.approx(100.0)
        # 100 kWh at 7.5 kWh per interval needs at least 14 intervals.
        assert job.departure - job.arrival >= 14

    def test_full_bus_yields_zero_energy_job(self):
        lines = [small_line("mon", 0, 8.0, 18.0, soc=122.0)]
        (job,) = to_jobs(match_week(lines, WEEK), WEEK)
        assert job.energy_kwh == 0.0

    def test_full_bus_without_window_is_skipped(self):
        lines = [small_line("sun", 6, 8.0, 23.9, soc=122.0)]
        assert to_jobs(match_week(lines, WEEK), WEEK) == ()

    def test_impossible_window_is_surfaced(self):
        # Sunday arrival at 22:00 with 61 kWh cannot finish by midnight.
        lines = [small_line("sun", 6, 8.0, 22.0, soc=61.0)]
        with pytest.raises(WindowInfeasibleError):
            to_jobs(match_week(lines, WEEK), WEEK)

    def test_jobs_form_a_feasible_instance(self):
        lines = [
            small_line("a", 0, 7.0, 17.0, soc=40.0),
            small_line("b", 0, 9.0, 19.0, soc=80.0),
            small_line("a", 1, 7.0, 17.0, soc=40.0),
            small_line("b", 1, 9.0, 19.0, soc=80.0),
        ]
        jobs = to_jobs(match_week(lines, WEEK), WEEK)
        instance = Instance(horizon=WEEK, jobs=jobs)
        assert check_feasible(instance).feasible
