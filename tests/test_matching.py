"""Tests for bus-to-line matching and job derivation."""

import functools
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
from depotcharge.model import check_feasible, Instance, Job
from depotcharge.synth import TimetableProfile, synth_timetable, week_horizon

from helpers import WEEK_START, make_horizon, reference_match

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
        (index,) = ready_time_index([bus], WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=20.25)

    def test_exact_multiple_does_not_round_up(self):
        bus = bus_at(18.0, soc=62.0)  # 60 kWh is exactly 8 intervals
        (index,) = ready_time_index([bus], WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=20.0)

    def test_full_bus_is_ready_on_arrival(self):
        bus = bus_at(18.0, soc=122.0)
        (index,) = ready_time_index([bus], WEEK, charge_rate_kw=30.0)
        assert WEEK.timestamp(index) == WEEK_START + timedelta(hours=18.0)


class TestBuildEdges:
    def test_overnight_dwell_creates_edge(self):
        buses = [bus_at(18.0, soc=61.0)]
        lines = [small_line("l1", 1, 6.0, 10.0)]
        assert build_edges(buses, lines, WEEK) == [0b1]

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
        assert build_edges(buses, lines, WEEK) == [0]

    def test_no_lines_means_no_edges(self):
        assert build_edges([bus_at(18.0, 61.0)], [], WEEK) == [0]

    def test_bus_type_must_agree(self):
        buses = [bus_at(18.0, soc=100.0, bus_type=BusType.LARGE)]
        lines = [small_line("l1", 1, 6.0, 10.0)]
        assert build_edges(buses, lines, WEEK) == [0]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            build_edges([], [], WEEK, charge_rate_kw=0.0)

    def test_no_buses_means_no_edges(self):
        assert build_edges([], [small_line("l1", 1, 6.0, 10.0)], WEEK) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_week_matches_a_double_loop(self, seed):
        # Each bus's bitset, bit l for line l, on every evening of a
        # synthetic week, against a double loop over scalar start indices.
        horizon = week_horizon()
        for buses, lines in synthetic_evenings(seed, 1):
            ready = ready_time_index(buses, horizon, 30.0)
            expected = [
                sum(
                    1 << l
                    for l, line in enumerate(lines)
                    if bus.bus_type is line.bus_type
                    and ready[b] <= horizon.index_floor(line.start)
                )
                for b, bus in enumerate(buses)
            ]
            assert build_edges(buses, lines, horizon, 30.0) == expected


@functools.lru_cache(maxsize=None)
def synthetic_evenings(seed, scale):
    """(arriving buses, next day's lines) per evening of the seed's roster
    with ``scale`` times the default lines per day."""
    counts = tuple(scale * count for count in TimetableProfile().lines_per_day)
    by_day = {}
    for line in synth_timetable(seed=seed, profile=TimetableProfile(lines_per_day=counts)).lines:
        by_day.setdefault(line.day, []).append(line)
    return tuple(
        ([ArrivingBus.from_line(line) for line in arriving], by_day.get(day + 1, []))
        for day, arriving in sorted(by_day.items())
    )


def as_bitsets(nb, edges):
    rows = [0] * nb
    for b, l in edges:
        rows[b] |= 1 << l
    return rows


def as_edges(rows):
    """(bus, line) tuples in (bus, line) order."""
    return tuple(
        (b, l) for b, row in enumerate(rows) for l in range(row.bit_length()) if row >> l & 1
    )


def index_pairs(assignment, buses, lines):
    bus_index = {bus.bus_id: b for b, bus in enumerate(buses)}
    line_index = {line.line_id: l for l, line in enumerate(lines)}
    return sorted(
        (bus_index[bus.bus_id], line_index[line.line_id]) for bus, line in assignment.matched
    )


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
    return match(buses, lines, as_bitsets(nb, edges), fallback_deadline=WEEK.end)


def run_pairs(nb, nl, edges):
    """``run_match``'s (bus, line) index pairs, sorted."""
    matched = run_match(nb, nl, edges).matched
    return sorted((int(bus.bus_id[1:]), int(line.line_id[1:])) for bus, line in matched)


def random_nested(rng, max_side=30):
    """Two bus types; a bus takes the lines of its type that start at or
    after its ready index, so each type's neighbourhoods are suffixes in
    start order, as ``build_edges`` gives them."""
    nb = int(rng.integers(1, max_side + 1))
    nl = int(rng.integers(1, max_side + 1))
    bus_types, line_types = rng.integers(0, 2, nb), rng.integers(0, 2, nl)
    ready, starts = rng.integers(0, 12, nb), rng.integers(0, 12, nl)
    edges = tuple(
        (b, l)
        for b in range(nb)
        for l in range(nl)
        if bus_types[b] == line_types[l] and ready[b] <= starts[l]
    )
    return nb, nl, edges


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


class TestAgainstReference:
    """The bitset search picks the very pairs of the list-iterator Kuhn."""

    def test_random_bipartite_graphs(self):
        rng = np.random.default_rng(44)
        for _ in range(400):
            density = float(rng.uniform(0.1, 0.9))
            nb, nl, edges = random_bipartite(rng, max_side=12, density=density)
            assert run_pairs(nb, nl, edges) == reference_match(nb, nl, edges)

    def test_random_nested_two_type_graphs(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            nb, nl, edges = random_nested(rng)
            assert run_pairs(nb, nl, edges) == reference_match(nb, nl, edges)

    @pytest.mark.parametrize(
        "seed, scale",
        [(seed, 1) for seed in range(6)]
        + [(seed, 4) for seed in range(6)]
        + [(seed, 10) for seed in range(3)],
    )
    def test_every_synthetic_evening(self, seed, scale):
        horizon = week_horizon()
        for buses, lines in synthetic_evenings(seed, scale):
            rows = build_edges(buses, lines, horizon)
            assignment = match(buses, lines, rows, horizon.end)
            expected = reference_match(len(buses), len(lines), as_edges(rows))
            assert index_pairs(assignment, buses, lines) == expected

    def test_fleet_scale_cardinality_agrees_with_max_flow(self):
        horizon = week_horizon()
        for buses, lines in synthetic_evenings(0, 10):
            rows = build_edges(buses, lines, horizon)
            assignment = match(buses, lines, rows, horizon.end)
            flow = matching_by_flow(len(buses), len(lines), as_edges(rows))
            assert assignment.cardinality == flow


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

    def test_first_infeasible_bus_in_matched_then_unmatched_order(self):
        # The full bus has no interval before its line and is skipped.  Of
        # the two short buses, the unmatched one arrives first, but matched
        # buses come first, and the first assignment before the second.
        full = bus_at(23.9, soc=122.0, day=0, bus_id="full")
        early = bus_at(17.0, soc=61.0, day=0, bus_id="early")
        short = bus_at(18.0, soc=61.0, day=0, bus_id="short")
        first = FleetAssignment(
            matched=(
                (full, small_line("l0", 0, 23.5, 23.8)),
                (short, small_line("l1", 0, 19.0, 23.0)),
            ),
            unmatched=(early,),
            fallback_deadline=WEEK_START + timedelta(hours=17.0),
        )
        second = FleetAssignment(
            matched=((bus_at(6.0, soc=61.0, day=1, bus_id="late"), small_line("l2", 1, 6.5, 9.0)),),
            unmatched=(),
            fallback_deadline=WEEK.end,
        )
        with pytest.raises(WindowInfeasibleError) as raised:
            to_jobs([first, second], WEEK)
        assert str(raised.value) == (
            "bus 'short': needs 61.0 kWh but only 30.0 kWh fit before the deadline"
        )
        first = FleetAssignment(
            matched=first.matched[:1], unmatched=first.unmatched,
            fallback_deadline=first.fallback_deadline,
        )
        with pytest.raises(WindowInfeasibleError) as raised:
            to_jobs([first, second], WEEK)
        assert str(raised.value) == "bus 'early': no charging interval before its deadline"

    def test_every_job_passes_its_own_validation(self, monkeypatch):
        horizon = week_horizon()
        assignments = match_week(synth_timetable(seed=0).lines, horizon)
        validated = []
        post_init = Job.__post_init__

        def counted(job):
            validated.append(job.id)
            post_init(job)

        monkeypatch.setattr(Job, "__post_init__", counted)
        jobs = to_jobs(assignments, horizon)
        assert validated == [job.id for job in jobs]
