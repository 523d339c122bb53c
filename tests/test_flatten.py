"""Tests for the profile-flattening solver."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depotcharge import flatten, flow, synth
from depotcharge.baseline import solve_uncontrolled
from depotcharge.cli import OFFICE_BASELOAD_KW
from depotcharge.flatten import FlattenProblem, levels, solve_flatten
from depotcharge.matching import match_week, to_jobs
from depotcharge.model import BaseloadSeries, Instance, Job, validate_schedule
from depotcharge.oracle import qp_flatten
from depotcharge.weighted import sweep

from helpers import (
    assert_exchange_optimal,
    make_horizon,
    random_baseload,
    random_instance,
)


def flatness(schedule, baseload=None) -> float:
    totals = levels(schedule, baseload)
    return float(np.dot(totals, totals))


@st.composite
def off_grid_instances(draw, coarse=False):
    """Small instances whose rates are k/3, k/7, k/9 or k/11 kWh per interval.

    A third of the jobs need their full rate in every window interval.
    With ``coarse``, a 30,000 kWh job in one interval coarsens the grid
    to 1e4 units per kWh.
    """
    m = draw(st.integers(2, 12))
    jobs = []
    for k in range(draw(st.integers(1, 5))):
        arrival = draw(st.integers(0, m - 1))
        departure = draw(st.integers(arrival + 1, m))
        rate = draw(st.integers(1, 40)) / draw(st.sampled_from([3, 7, 9, 11]))
        fill = draw(st.sampled_from([1.0, 1.0, 0.5]) | st.floats(0.05, 1.0))
        jobs.append(
            Job(id=f"job{k}", arrival=arrival, departure=departure,
                energy_kwh=rate * (departure - arrival) * fill, max_rate_kwh=rate)
        )
    if coarse:
        i = draw(st.integers(0, m - 1))
        jobs.append(Job(id="big", arrival=i, departure=i + 1, energy_kwh=3e4, max_rate_kwh=3e4))
    baseload = np.array(draw(st.lists(st.floats(0.0, 12.0), min_size=m, max_size=m)))
    return Instance(make_horizon(m), tuple(jobs)), baseload


def scanned_capped_fill(basins, caps, volume):
    """One row's capped fill, its level raised one grid unit at a time."""
    if not len(basins):
        return basins
    level, top = int(basins.min()), int((basins + caps).max())
    while level < top and np.clip(level + 1 - basins, 0, caps).sum() <= volume:
        level += 1
    shares = np.clip(level - basins, 0, caps)
    rest = volume - int(shares.sum())
    # The intervals still filling at the level take the rest, one unit
    # each, lowest basin first.
    for i in sorted(np.flatnonzero((basins <= level) & (level < basins + caps)), key=lambda i: basins[i]):
        if rest > 0:
            shares[i] += 1
            rest -= 1
    return shares


def random_rows(rng, draw):
    """Up to six rows of up to eight values each: (values, row labels, per-row values)."""
    parts = [draw(int(rng.integers(0, 9))) for _ in range(int(rng.integers(1, 7)))]
    rows = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return np.concatenate(parts), rows, parts


def record_levels(monkeypatch):
    """Lists that fill with the block count of each level and the args of each max flow."""
    blocks, calls = [], []
    exact_level, exact_flow = flow.block_level, flatten.max_flow

    def counted(*args):
        level = exact_level(*args)
        blocks.append(len(level[3]))  # the level's block labels
        return level

    monkeypatch.setattr(flow, "block_level", counted)
    monkeypatch.setattr(flatten, "max_flow", lambda *args: calls.append(args) or exact_flow(*args))
    return blocks, calls


class TestGridHelpers:
    def test_capped_fill_matches_the_scan(self):
        # Rows with no interval, zero caps, rows where every interval
        # binds, and volumes of 0 and of the whole room come up among
        # the random ones.
        rng = np.random.default_rng(139)
        seen = set()
        for _ in range(300):
            basins, rows, parts = random_rows(rng, lambda size: rng.integers(-50, 200, size))
            caps = rng.integers(0, 40, size=len(basins)) * (rng.random(len(basins)) < 0.8)
            room = np.bincount(rows, caps, len(parts)).astype(np.int64)
            kinds = rng.choice(["some", "none", "all"], size=len(parts))
            volumes = np.where(kinds == "all", room, np.where(kinds == "some", rng.integers(0, room + 1), 0))
            shares = flow._capped_fill(basins, caps, rows, volumes)
            np.testing.assert_array_equal(np.bincount(rows, shares, len(parts)), volumes)
            assert np.all((shares >= 0) & (shares <= caps))
            for r in range(len(parts)):
                row = rows == r
                np.testing.assert_array_equal(shares[row], scanned_capped_fill(basins[row], caps[row], volumes[r]))
            seen.update(kinds[room > 0])
            seen.update(["no interval"] * any(len(part) == 0 for part in parts) + ["zero cap"] * any(caps == 0))
        assert seen == {"some", "none", "all", "no interval", "zero cap"}
        # A lone row with no interval, and basins 1e5 grid units apart
        # under volumes of 0 and 1.
        none = np.array([], dtype=np.int64)
        assert flow._capped_fill(none, none, none, np.array([0])).shape == (0,)
        basins, caps = np.array([0, 100_000, 50_000, 150_000]), np.array([3, 3, 3, 3])
        shares = flow._capped_fill(basins, caps, np.array([0, 0, 1, 1]), np.array([0, 1]))
        np.testing.assert_array_equal(shares, [0, 0, 1, 0])

    def test_capped_fill_minimizes_the_squares(self):
        # Among every share vector of a tiny row that sums to its volume
        # within the caps, the fill's has the least sum of squared levels;
        # of those that tie, its units sit on the lowest basins, and the
        # earliest interval among equal basins.
        rng = np.random.default_rng(151)
        for _ in range(500):
            size = int(rng.integers(1, 5))
            basins, caps = rng.integers(0, 6, size), rng.integers(0, 4, size)
            volume = int(rng.integers(0, caps.sum() + 1))
            shares = flow._capped_fill(basins, caps, np.zeros(size, dtype=np.int64), np.array([volume]))
            vectors = [
                np.array(v) for v in itertools.product(*(range(cap + 1) for cap in caps)) if sum(v) == volume
            ]
            best = min(vectors, key=lambda v: (int(((basins + v) ** 2).sum()), int(basins @ v), tuple(-v)))
            np.testing.assert_array_equal(shares, best)


class TestFlattenProblem:
    def test_rejects_caps(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        capped = Instance(horizon, jobs, caps_kwh=np.array([5.0, 5.0]))
        with pytest.raises(ValueError):
            FlattenProblem(capped)

    def test_rejects_short_baseload(self):
        horizon = make_horizon(3)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        with pytest.raises(ValueError):
            FlattenProblem(Instance(horizon, jobs), BaseloadSeries(np.array([1.0])))


class TestLevels:
    def test_elementwise_sum(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        instance = Instance(horizon, jobs)
        schedule = solve_uncontrolled(instance)
        np.testing.assert_allclose(levels(schedule, np.array([1.0, 0.0])), [4.0, 3.0])

    def test_none_baseload_is_identity(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        schedule = solve_uncontrolled(Instance(horizon, jobs))
        np.testing.assert_array_equal(levels(schedule, None), schedule.aggregate_kwh)

    def test_length_mismatch(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=3.0),)
        schedule = solve_uncontrolled(Instance(horizon, jobs))
        with pytest.raises(ValueError):
            levels(schedule, np.array([1.0]))


class TestSolveFlatten:
    def test_uniform_spread(self):
        horizon = make_horizon(4)
        jobs = (Job(id="a", arrival=0, departure=4, energy_kwh=12.0, max_rate_kwh=7.5),)
        instance = Instance(horizon, jobs)
        schedule = solve_flatten(FlattenProblem(instance))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [3.0, 3.0, 3.0, 3.0], atol=1e-9)

    def test_fills_valley_to_common_level(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=6.0, max_rate_kwh=6.0),)
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([4.0, 0.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [1.0, 5.0], atol=1e-9)

    def test_avoids_interval_above_water(self):
        horizon = make_horizon(2)
        jobs = (Job(id="a", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=1.0),)
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([10.0, 0.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        np.testing.assert_allclose(schedule.aggregate_kwh, [0.0, 1.0], atol=1e-9)

    def test_trapped_job_forces_peak(self):
        # Job "big" can only use the first interval; job "small" must
        # still spread despite the resulting peak next door.
        horizon = make_horizon(2)
        jobs = (
            Job(id="big", arrival=0, departure=1, energy_kwh=10.0, max_rate_kwh=10.0),
            Job(id="small", arrival=0, departure=2, energy_kwh=2.0, max_rate_kwh=1.0),
        )
        instance = Instance(horizon, jobs)
        schedule = solve_flatten(FlattenProblem(instance))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [11.0, 1.0], atol=1e-9)

    def test_rate_bound_spills_into_higher_interval(self):
        # The rate bound forces half of "slow" into the loaded interval,
        # lifting it above the naive water level.
        horizon = make_horizon(2)
        jobs = (
            Job(id="big", arrival=0, departure=1, energy_kwh=5.0, max_rate_kwh=5.0),
            Job(id="slow", arrival=0, departure=2, energy_kwh=1.0, max_rate_kwh=0.5),
        )
        instance = Instance(horizon, jobs)
        baseload = BaseloadSeries(np.array([0.0, 3.0]))
        schedule = solve_flatten(FlattenProblem(instance, baseload))
        validate_schedule(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [5.5, 0.5], atol=1e-9)

    def test_closed_form_single_job_even_spread(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            width = int(rng.integers(1, 9))
            start = int(rng.integers(0, 4))
            horizon = make_horizon(start + width)
            rate = round(float(rng.uniform(0.5, 4.0)), 3)
            energy = round(rate * width * float(rng.uniform(0.2, 0.99)), 3)
            jobs = (
                Job(
                    id="a",
                    arrival=start,
                    departure=start + width,
                    energy_kwh=energy,
                    max_rate_kwh=rate,
                ),
            )
            instance = Instance(horizon, jobs)
            schedule = solve_flatten(FlattenProblem(instance))
            expected = np.zeros(start + width)
            expected[start:] = energy / width
            np.testing.assert_allclose(schedule.aggregate_kwh, expected, atol=1e-7)

    def test_matches_reference_qp(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            validate_schedule(instance, schedule)
            reference = qp_flatten(instance, baseload)
            got = flatness(schedule, baseload)
            assert abs(got - reference.objective) <= 1e-6 * max(1.0, reference.objective)

    def test_exchange_optimality(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            assert_exchange_optimal(instance, schedule, baseload)

    def test_exchange_optimality_on_a_deep_baseload(self):
        # The integer grid follows the charging, not the baseload under it.
        rng = np.random.default_rng(89)
        for _ in range(20):
            instance = random_instance(rng)
            baseload = 1e9 + random_baseload(rng, instance.interval_count)
            schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            validate_schedule(instance, schedule)
            assert_exchange_optimal(instance, schedule, baseload)

    def test_deep_baseload_over_a_week(self):
        # Scaled levels summed over 672 intervals must stay inside int64.
        rng = np.random.default_rng(97)
        jobs = tuple(
            Job(id=f"j{k}", arrival=start, departure=start + 96, energy_kwh=60.0, max_rate_kwh=37.5)
            for k, start in enumerate((0, 40, 300))
        )
        instance = Instance(make_horizon(672), jobs)
        baseload = 1e11 + random_baseload(rng, 672)
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        validate_schedule(instance, schedule)
        # Floats resolve a 1e11 kWh level to about 1.5e-5 kWh.
        assert_exchange_optimal(instance, schedule, baseload, tol=1e-3)

    def test_week_sweep_probe_budget(self, monkeypatch):
        # One max flow decides every block of a level: the seed-0 sweep
        # made 3,252 max flows with a level ladder and 1,744 with one
        # network per block.
        _, calls = record_levels(monkeypatch)
        horizon = synth.week_horizon()
        jobs = to_jobs(match_week(synth.synth_timetable(seed=0).lines, horizon), horizon)
        low, high = OFFICE_BASELOAD_KW
        baseload = synth.random_baseload(horizon, low, high, seed=0)
        sweep(Instance(horizon, jobs), synth.sinusoid_emissions(horizon), baseload)
        # Starting from the chains of overlapping windows and reading the
        # schedule off the cuts took it from 197 max flows over 1,007,383
        # arcs to 170 over 714,176; probing one grid step below the pooled
        # level, with no second max flow per level, to 103 over 452,751;
        # routing each block's rate-capped water fill, so that a block is
        # done or split by every max flow, to 71 over 292,488.
        assert 0 < len(calls) <= 75
        assert sum(args[0].arc_count for args in calls) <= 310_000

    def test_chain_whose_capped_fill_routes_takes_one_max_flow(self, monkeypatch):
        # Interval 0 is reached by bus a alone and interval 5 by bus b
        # alone.  Both sit in a valley, so the water fill caps them at one
        # bus's rate, and the capped fill routes at the first max flow.
        blocks, calls = record_levels(monkeypatch)
        jobs = (
            Job(id="a", arrival=0, departure=5, energy_kwh=5.0, max_rate_kwh=2.0),
            Job(id="b", arrival=1, departure=6, energy_kwh=5.0, max_rate_kwh=2.0),
        )
        instance = Instance(make_horizon(6), jobs)
        baseload = np.array([0.0, 3.0, 3.0, 3.0, 3.0, 0.0])
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        validate_schedule(instance, schedule)
        assert blocks == [1] and len(calls) == 1
        np.testing.assert_allclose(schedule.aggregate_kwh, [2.0, 1.5, 1.5, 1.5, 1.5, 2.0], atol=1e-9)

    def test_one_max_flow_and_one_cut_per_level(self, monkeypatch):
        blocks, calls = record_levels(monkeypatch)
        cuts = []
        exact_cut = flatten.residual_reachable
        monkeypatch.setattr(
            flatten, "residual_reachable", lambda *args: cuts.append(args) or exact_cut(*args)
        )
        rng = np.random.default_rng(127)
        for _ in range(40):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            del blocks[:], calls[:], cuts[:]
            solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            assert len(blocks) == len(calls) == len(cuts) > 0
            assert [args[0] for args in calls] == [args[0] for args in cuts]

    def test_no_max_flow_on_the_whole_network(self, monkeypatch):
        # The allocation is read off the cuts, so no max flow runs on the
        # network of every job and interval.
        wholes, solved = [], []
        exact_grid, exact_flow = flatten.grid, flatten.max_flow
        monkeypatch.setattr(flatten, "grid", lambda *args: wholes.append(exact_grid(*args)) or wholes[-1])
        monkeypatch.setattr(flatten, "max_flow", lambda *args: solved.append(args[0]) or exact_flow(*args))
        rng = np.random.default_rng(109)
        for _ in range(20):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        assert len(wholes) == 20 and solved
        assert not {id(whole[0]) for whole in wholes} & {id(network) for network in solved}

    @pytest.mark.parametrize("bed", [0.0, 12.0])
    def test_disjoint_halves_solve_as_blocks(self, monkeypatch, bed):
        # Two instances on disjoint halves of one horizon share no job and
        # no interval, so solved together each half must come out as it
        # does alone.  One grid for all three solves rounds them alike.
        monkeypatch.setattr(flow, "_grid_scale", lambda top, bed: 10**6)
        rng = np.random.default_rng(101)
        for _ in range(20):
            left, right = random_instance(rng), random_instance(rng)
            m = left.interval_count
            shifted = tuple(
                replace(job, id=f"r{job.id}", arrival=job.arrival + m, departure=job.departure + m)
                for job in right.jobs
            )
            whole = Instance(make_horizon(m + right.interval_count), left.jobs + shifted)
            baseload = random_baseload(rng, whole.interval_count, high=bed)
            together = solve_flatten(FlattenProblem(whole, BaseloadSeries(baseload)))
            alone = [
                solve_flatten(FlattenProblem(half, BaseloadSeries(part))).aggregate_kwh
                for half, part in ((left, baseload[:m]), (right, baseload[m:]))
            ]
            np.testing.assert_allclose(
                together.aggregate_kwh, np.concatenate(alone), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize(
        "windows, chains",
        [([(0, 3), (3, 5)], 2), ([(0, 3), (2, 5)], 1), ([(0, 3), (3, 5), (2, 4)], 1)],
    )
    def test_first_level_blocks_are_chains_of_overlapping_windows(self, monkeypatch, windows, chains):
        blocks, _ = record_levels(monkeypatch)
        jobs = tuple(
            Job(id=f"j{k}", arrival=start, departure=stop, energy_kwh=1.0, max_rate_kwh=1.0)
            for k, (start, stop) in enumerate(windows)
        )
        instance = Instance(make_horizon(5), jobs)
        validate_schedule(instance, solve_flatten(FlattenProblem(instance)))
        assert blocks[0] == chains

    def test_copies_on_separate_stretches_share_every_max_flow(self, monkeypatch):
        # Three copies of one instance, one idle interval apart, form
        # chains of their own: each level takes all three in the max
        # flows that one copy alone takes.
        monkeypatch.setattr(flow, "_grid_scale", lambda top, bed: 10**6)
        blocks, calls = record_levels(monkeypatch)
        rng = np.random.default_rng(113)
        for _ in range(10):
            single = random_instance(rng)
            m = single.interval_count
            baseload = random_baseload(rng, m)
            del blocks[:], calls[:]
            alone = solve_flatten(FlattenProblem(single, BaseloadSeries(baseload))).aggregate_kwh
            alone_blocks, alone_calls = blocks[0], len(calls)
            copies = tuple(
                replace(job, id=f"{c}{job.id}", arrival=job.arrival + c * (m + 1),
                        departure=job.departure + c * (m + 1))
                for c in range(3) for job in single.jobs
            )
            tripled = Instance(make_horizon(3 * m + 2), copies)
            gapped = np.concatenate([baseload, [0.0], baseload, [0.0], baseload])
            del blocks[:], calls[:]
            together = solve_flatten(FlattenProblem(tripled, BaseloadSeries(gapped))).aggregate_kwh
            assert blocks[0] == 3 * alone_blocks and len(calls) == alone_calls
            expected = np.concatenate([alone, [0.0], alone, [0.0], alone])
            np.testing.assert_allclose(together, expected, rtol=0, atol=1e-9)

    def test_off_grid_rate_at_full_use(self):
        # 1/3 kWh per interval rounds below 1 kWh over 3 intervals on any
        # decimal grid, so job "a" charges the rest in the sub-unit repair.
        horizon = make_horizon(4)
        jobs = (
            Job(id="a", arrival=0, departure=3, energy_kwh=1.0, max_rate_kwh=1 / 3),
            Job(id="b", arrival=1, departure=4, energy_kwh=1.0, max_rate_kwh=1.0),
        )
        instance = Instance(horizon, jobs)
        schedule = solve_flatten(FlattenProblem(instance))
        validate_schedule(instance, schedule)
        assert_exchange_optimal(instance, schedule)
        np.testing.assert_allclose(schedule.aggregate_kwh, [1 / 3, 5 / 9, 5 / 9, 5 / 9], atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(off_grid_instances())
    def test_off_grid_rates_stay_valid_and_optimal(self, case):
        instance, baseload = case
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        validate_schedule(instance, schedule)
        assert_exchange_optimal(instance, schedule, baseload)

    @settings(max_examples=100, deadline=None)
    @given(off_grid_instances(coarse=True))
    def test_off_grid_rates_hold_on_a_coarse_grid(self, case):
        # A rate rounded up on a 1e-4 kWh grid exceeds its bound by more
        # than the validator tolerance, so rates are floored on every grid.
        instance, baseload = case
        assert flow.grid(instance, float(baseload.sum()))[1] == 10**4
        schedule = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
        validate_schedule(instance, schedule)

    def test_aggregate_unique_under_job_permutation(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            instance = random_instance(rng)
            baseload = BaseloadSeries(random_baseload(rng, instance.interval_count))
            schedule = solve_flatten(FlattenProblem(instance, baseload))
            shuffled = Instance(
                instance.horizon, tuple(reversed(instance.jobs)), caps_kwh=None
            )
            other = solve_flatten(FlattenProblem(shuffled, baseload))
            np.testing.assert_allclose(
                schedule.aggregate_kwh, other.aggregate_kwh, atol=1e-5
            )

    def test_never_worse_than_uncontrolled(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            instance = random_instance(rng)
            baseload = random_baseload(rng, instance.interval_count)
            flat = solve_flatten(FlattenProblem(instance, BaseloadSeries(baseload)))
            greedy = solve_uncontrolled(instance)
            assert flatness(flat, baseload) <= flatness(greedy, baseload) + 1e-9

    def test_empty_job_list(self):
        instance = Instance(make_horizon(3), ())
        schedule = solve_flatten(FlattenProblem(instance))
        np.testing.assert_array_equal(schedule.aggregate_kwh, np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(83)
        instance = random_instance(rng)
        baseload = BaseloadSeries(random_baseload(np.random.default_rng(83), instance.interval_count))
        first = solve_flatten(FlattenProblem(instance, baseload))
        second = solve_flatten(FlattenProblem(instance, baseload))
        assert first.aggregate_kwh.tobytes() == second.aggregate_kwh.tobytes()
