"""Tests for CSV ingestion and serialization."""

from dataclasses import fields
from datetime import timedelta

import numpy as np
import pytest

from depotcharge.data import (
    REPORT_COLUMNS,
    LineTimetable,
    load_baseload,
    load_emissions,
    load_timetable,
    read_report,
    write_baseload,
    write_emissions,
    write_flexibility_report,
    write_profiles,
    write_report,
    write_sweep,
    write_timetable,
)
from depotcharge.errors import CoverageGapError, ParseError, SchemaError
from depotcharge.flow import EmissionSeries
from depotcharge.matching import BusType, LineRecord
from depotcharge.metrics import ScenarioReport
from depotcharge.model import BaseloadSeries

from helpers import WEEK_START, make_horizon


def stamp(hours):
    return (WEEK_START + timedelta(hours=hours)).isoformat()


def emissions_csv(tmp_path, rows, name="emissions.csv"):
    path = tmp_path / name
    path.write_text("timestamp,co2_kg_per_kwh\n" + "".join(rows))
    return path


class TestLoadEmissions:
    def test_hourly_replication(self, tmp_path):
        path = emissions_csv(
            tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},0.2\n"]
        )
        series = load_emissions(path, make_horizon(8))
        np.testing.assert_allclose(
            series.kg_per_kwh, [0.4, 0.4, 0.4, 0.4, 0.2, 0.2, 0.2, 0.2]
        )

    def test_quarter_hour_passthrough(self, tmp_path):
        values = [0.1, 0.2, 0.3, 0.4]
        path = emissions_csv(
            tmp_path,
            [f"{stamp(0.25 * k)},{v}\n" for k, v in enumerate(values)],
        )
        series = load_emissions(path, make_horizon(4))
        np.testing.assert_allclose(series.kg_per_kwh, values)

    def test_gap_names_the_missing_hour(self, tmp_path):
        path = emissions_csv(
            tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},0.2\n", f"{stamp(3)},0.1\n"]
        )
        with pytest.raises(CoverageGapError) as excinfo:
            load_emissions(path, make_horizon(4))
        assert excinfo.value.missing == (WEEK_START + timedelta(hours=2),)
        assert "02:00" in str(excinfo.value)

    def test_clips_a_longer_file_to_the_horizon(self, tmp_path):
        path = emissions_csv(
            tmp_path, [f"{stamp(k)},{0.1 * (k + 1)}\n" for k in range(6)]
        )
        horizon = make_horizon(4, interval_hours=1.0)
        series = load_emissions(path, horizon)
        np.testing.assert_allclose(series.kg_per_kwh, [0.1, 0.2, 0.3, 0.4])

    def test_offset_horizon_takes_the_right_slice(self, tmp_path):
        path = emissions_csv(
            tmp_path, [f"{stamp(k)},{0.1 * (k + 1)}\n" for k in range(6)]
        )
        horizon = make_horizon(4, interval_hours=1.0)
        shifted = type(horizon)(
            start=WEEK_START + timedelta(hours=2),
            interval_count=4,
            interval_hours=1.0,
        )
        series = load_emissions(path, shifted)
        np.testing.assert_allclose(series.kg_per_kwh, [0.3, 0.4, 0.5, 0.6])

    def test_file_starting_after_horizon_is_a_gap(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(1)},0.4\n", f"{stamp(2)},0.2\n"])
        with pytest.raises(CoverageGapError):
            load_emissions(path, make_horizon(8))

    def test_file_ending_early_is_a_gap(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},0.2\n"])
        with pytest.raises(CoverageGapError):
            load_emissions(path, make_horizon(12))

    def test_misaligned_horizon_start(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},0.2\n"])
        horizon = make_horizon(2, interval_hours=1.0)
        shifted = type(horizon)(
            start=WEEK_START + timedelta(minutes=10), interval_count=1, interval_hours=1.0
        )
        with pytest.raises(SchemaError):
            load_emissions(path, shifted)

    def test_bad_number_reports_the_row(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},oops\n"])
        with pytest.raises(ParseError) as excinfo:
            load_emissions(path, make_horizon(8))
        assert excinfo.value.row == 3

    def test_bad_number_after_a_blank_line_reports_its_line(self, tmp_path):
        # Line 3 is blank, so the bad number sits on line 4.
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", "\n", f"{stamp(1)},oops\n"])
        with pytest.raises(ParseError) as excinfo:
            load_emissions(path, make_horizon(8))
        assert excinfo.value.row == 4

    def test_decreasing_timestamp_after_a_blank_line_reports_its_line(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(1)},0.4\n", "\n", f"{stamp(0)},0.2\n"])
        with pytest.raises(SchemaError, match="not strictly increasing") as excinfo:
            load_emissions(path, make_horizon(4))
        assert excinfo.value.row == 4

    def test_timestamp_with_an_offset_reports_the_row(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)}+02:00,0.2\n"])
        with pytest.raises(ParseError, match="UTC offset") as excinfo:
            load_emissions(path, make_horizon(8))
        assert (excinfo.value.row, excinfo.value.column) == (3, "timestamp")

    def test_negative_factor_rejected(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)},-0.2\n"])
        with pytest.raises(ParseError):
            load_emissions(path, make_horizon(8))

    def test_missing_column_is_a_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,factor\n2023-06-05T00:00:00,0.4\n")
        with pytest.raises(SchemaError):
            load_emissions(path, make_horizon(4))

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(1)},0.4\n", f"{stamp(0)},0.2\n"])
        with pytest.raises(SchemaError):
            load_emissions(path, make_horizon(4))

    def test_row_without_a_value_is_a_schema_error(self, tmp_path):
        path = emissions_csv(tmp_path, [f"{stamp(0)},0.4\n", f"{stamp(1)}\n"])
        with pytest.raises(SchemaError, match="a row needs 2 cells") as excinfo:
            load_emissions(path, make_horizon(8))
        assert excinfo.value.row == 3


class TestLoadBaseload:
    def test_loads_interval_energies(self, tmp_path):
        path = tmp_path / "base.csv"
        rows = [f"{stamp(0.25 * k)},{5.0 + k}\n" for k in range(4)]
        path.write_text("timestamp,baseload_kwh\n" + "".join(rows))
        series = load_baseload(path, make_horizon(4))
        np.testing.assert_allclose(series.kwh, [5.0, 6.0, 7.0, 8.0])

    def test_hourly_baseload_rejected(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text(
            "timestamp,baseload_kwh\n" + f"{stamp(0)},5\n" + f"{stamp(1)},6\n"
        )
        with pytest.raises(SchemaError):
            load_baseload(path, make_horizon(8))

    def test_timestamp_with_an_offset_reports_the_row(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("timestamp,baseload_kwh\n" + f"{stamp(0)}Z,5\n" + f"{stamp(0.25)}Z,6\n")
        with pytest.raises(ParseError, match="UTC offset") as excinfo:
            load_baseload(path, make_horizon(2))
        assert (excinfo.value.row, excinfo.value.column) == (2, "timestamp")

    def test_row_with_a_surplus_cell_is_a_schema_error(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text(
            "timestamp,baseload_kwh\n" + f"{stamp(0)},5\n\n" + f"{stamp(0.25)},6,7\n"
        )
        # Line 3 is blank; the row with a surplus cell is line 4.
        with pytest.raises(SchemaError, match="a row needs 2 cells") as excinfo:
            load_baseload(path, make_horizon(2))
        assert excinfo.value.row == 4

    def test_row_without_a_value(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("timestamp,baseload_kwh\n" + f"{stamp(0)},5\n" + f"{stamp(0.25)}\n")
        with pytest.raises(SchemaError) as excinfo:
            load_baseload(path, make_horizon(2))
        assert excinfo.value.row == 3

    def test_round_trip_conserves_energy(self, tmp_path):
        rng = np.random.default_rng(51)
        horizon = make_horizon(16)
        series = BaseloadSeries(rng.uniform(0.0, 30.0, 16))
        path = tmp_path / "base.csv"
        write_baseload(path, series, horizon)
        loaded = load_baseload(path, horizon)
        np.testing.assert_array_equal(loaded.kwh, series.kwh)
        assert loaded.kwh.sum() == series.kwh.sum()


class TestTimetable:
    def build(self, counts=(2, 1, 0, 0, 0, 0, 1)):
        lines = []
        for day, count in enumerate(counts):
            for k in range(count):
                anchor = WEEK_START + timedelta(days=day)
                lines.append(
                    LineRecord(
                        line_id=f"line{k}",
                        day=day,
                        start=anchor + timedelta(hours=7.0 + k),
                        end=anchor + timedelta(hours=18.5 + k),
                        bus_type=BusType.SMALL if k % 2 == 0 else BusType.LARGE,
                        soc_after_kwh=40.0 + k,
                    )
                )
        return LineTimetable(lines=tuple(lines), week_start=WEEK_START)

    def test_write_then_load_round_trips(self, tmp_path):
        timetable = self.build()
        path = tmp_path / "timetable.csv"
        write_timetable(path, timetable)
        loaded = load_timetable(path, week_start=WEEK_START)
        assert loaded.lines == timetable.lines

    def test_reports_per_day_counts(self, tmp_path):
        counts = (33, 33, 33, 33, 33, 22, 23)
        timetable = self.build(counts)
        path = tmp_path / "timetable.csv"
        write_timetable(path, timetable)
        loaded = load_timetable(path, week_start=WEEK_START)
        assert loaded.lines_per_day() == counts
        assert len(loaded) == 210

    def test_after_midnight_times_use_hours_past_24(self, tmp_path):
        anchor = WEEK_START + timedelta(days=2)
        line = LineRecord(
            line_id="night",
            day=2,
            start=anchor + timedelta(hours=18.0),
            end=anchor + timedelta(hours=25.5),
            bus_type=BusType.SMALL,
            soc_after_kwh=50.0,
        )
        path = tmp_path / "timetable.csv"
        write_timetable(path, LineTimetable(lines=(line,), week_start=WEEK_START))
        text = path.read_text()
        assert "25:30" in text
        loaded = load_timetable(path, week_start=WEEK_START)
        assert loaded.lines[0].end == anchor + timedelta(hours=25.5)

    def test_unknown_bus_type_token(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,MEDIUM,40.0\n"
        )
        with pytest.raises(SchemaError) as excinfo:
            load_timetable(path)
        assert excinfo.value.column == "bus_type"

    def test_unknown_bus_type_after_a_blank_line_reports_its_line(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,40.0\n"
            "\n"
            "0,l2,07:00,18:00,MEDIUM,40.0\n"
        )
        with pytest.raises(SchemaError, match="unknown bus type") as excinfo:
            load_timetable(path)
        assert (excinfo.value.row, excinfo.value.column) == (4, "bus_type")

    def test_day_out_of_range(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "7,l1,07:00,18:00,SMALL,40.0\n"
        )
        with pytest.raises(SchemaError):
            load_timetable(path)

    def test_duplicate_line_on_a_day(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,40.0\n"
            "0,l1,08:00,19:00,SMALL,41.0\n"
        )
        with pytest.raises(SchemaError):
            load_timetable(path)

    def test_soc_beyond_capacity_is_surfaced_with_row(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,150.0\n"
        )
        with pytest.raises(SchemaError) as excinfo:
            load_timetable(path)
        assert excinfo.value.row == 2

    def test_row_with_missing_cells_is_a_schema_error(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,40.0\n"
            "0,l2,06:00,20:00\n"
        )
        with pytest.raises(SchemaError, match="a row needs 6 cells") as excinfo:
            load_timetable(path)
        assert excinfo.value.row == 3

    def test_bad_clock_time(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:61,18:00,SMALL,40.0\n"
        )
        with pytest.raises(ParseError):
            load_timetable(path)

    @pytest.mark.parametrize(
        "start, end, column",
        [("-0:30", "18:00", "start"), ("07:30", "+7:30", "end"), ("07:30", "1_8:00", "end")],
    )
    def test_signed_clock_time_names_its_cell(self, tmp_path, start, end, column):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,40.0\n"
            f"0,l2,{start},{end},SMALL,40.0\n"
        )
        with pytest.raises(ParseError, match="bad clock time") as excinfo:
            load_timetable(path)
        assert (excinfo.value.row, excinfo.value.column) == (3, column)

    @pytest.mark.parametrize("day", ["+1", "-0", "0_3"])
    def test_signed_day_names_its_cell(self, tmp_path, day):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1,07:00,18:00,SMALL,40.0\n"
            f"{day},l2,07:00,18:00,SMALL,40.0\n"
        )
        with pytest.raises(ParseError, match="bad day") as excinfo:
            load_timetable(path)
        assert (excinfo.value.row, excinfo.value.column) == (3, "day")

    def test_day_may_carry_spaces(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            " 2 ,l1,07:00,18:00,SMALL,40.0\n"
        )
        (line,) = load_timetable(path).lines
        assert line.day == 2

    def test_clock_time_parts_may_carry_spaces(self, tmp_path):
        path = tmp_path / "timetable.csv"
        path.write_text(
            "day,line_id,start,end,bus_type,soc_after_kwh\n"
            "0,l1, 07 :30,25: 05 ,SMALL,40.0\n"
        )
        (line,) = load_timetable(path).lines
        assert (line.end - line.start) == timedelta(hours=17, minutes=35)


class TestReportRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        baseline = ScenarioReport("uncontrolled", 4.37e7, 7.04e6, 606.30)
        rows = (
            baseline,
            ScenarioReport("flatten", 2.38e7, 5.60e6, 272.05).versus(baseline),
        )
        path = tmp_path / "report.csv"
        write_report(path, rows)
        assert read_report(path) == rows

    def test_header_orders_flatness_co2_peak(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, (ScenarioReport("x", 1.0, 2.0, 3.0),))
        header = path.read_text().splitlines()[0]
        assert header.startswith("scenario,flatness_kwh2,co2_kg,peak_kw")


class TestWriters:
    def test_sweep_keeps_weight_peak_co2_flatness_order(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep(path, [(0.0, 3.0, 2.0, 1.0), (float("inf"), 1.0, 4.0, 0.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "flatness_weight,peak_kw,co2_kg,flatness_kwh2"
        assert lines[2].startswith("inf,")

    def test_profiles_layout_and_determinism(self, tmp_path):
        rng = np.random.default_rng(52)
        horizon = make_horizon(8)
        baseload_kw = rng.uniform(40.0, 400.0, 8)
        scenarios = {
            "uncontrolled": rng.uniform(0.0, 100.0, 8),
            "flatten": rng.uniform(0.0, 100.0, 8),
        }
        emissions = EmissionSeries(rng.uniform(0.1, 0.5, 8))
        path1 = tmp_path / "profiles1.csv"
        path2 = tmp_path / "profiles2.csv"
        write_profiles(path1, horizon, baseload_kw, scenarios, emissions)
        write_profiles(path2, horizon, baseload_kw, scenarios, emissions)
        text = path1.read_text()
        assert path2.read_text() == text
        lines = text.splitlines()
        assert lines[0] == "timestamp,baseload_kw,uncontrolled_kw,flatten_kw,co2_kg_per_kwh"
        assert len(lines) == 9

    def test_emission_writer_round_trips(self, tmp_path):
        horizon = make_horizon(6)
        series = EmissionSeries(np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.05]))
        path = tmp_path / "emissions.csv"
        write_emissions(path, series, horizon)
        loaded = load_emissions(path, horizon)
        np.testing.assert_array_equal(loaded.kg_per_kwh, series.kg_per_kwh)


class TestWrittenBytes:
    """Every writer's exact bytes: header order, ``repr`` floats, empty
    cells for missing values and ``\\r\\n`` line ends."""

    def test_timetable(self, tmp_path):
        anchor = WEEK_START + timedelta(days=1)
        line = LineRecord(
            line_id="l1",
            day=1,
            start=anchor + timedelta(hours=7.0),
            end=anchor + timedelta(hours=25.5),
            bus_type=BusType.LARGE,
            soc_after_kwh=0.1,
        )
        path = tmp_path / "timetable.csv"
        write_timetable(path, LineTimetable(lines=(line,), week_start=WEEK_START))
        assert path.read_bytes() == (
            b"day,line_id,start,end,bus_type,soc_after_kwh\r\n"
            b"1,l1,07:00,25:30,LARGE,0.1\r\n"
        )

    def test_emissions_and_baseload(self, tmp_path):
        horizon = make_horizon(4)
        values = np.array([0.1, 1e-05, 2.0, 0.30000000000000004])
        rows = (
            b"2023-06-05T00:00:00,0.1\r\n"
            b"2023-06-05T00:15:00,1e-05\r\n"
            b"2023-06-05T00:30:00,2.0\r\n"
            b"2023-06-05T00:45:00,0.30000000000000004\r\n"
        )
        write_emissions(tmp_path / "e.csv", EmissionSeries(values), horizon)
        write_baseload(tmp_path / "b.csv", BaseloadSeries(values), horizon)
        assert (tmp_path / "e.csv").read_bytes() == b"timestamp,co2_kg_per_kwh\r\n" + rows
        assert (tmp_path / "b.csv").read_bytes() == b"timestamp,baseload_kwh\r\n" + rows

    def test_profiles(self, tmp_path):
        horizon = make_horizon(4)
        path = tmp_path / "profiles.csv"
        write_profiles(
            path,
            horizon,
            np.array([1.0, 0.1, 0.0, 3.5]),
            {"co2": np.array([0.0, 1e-05, 2.0, 0.0]), "flatten": np.array([1.0, 1.0, 1.0, 1.0])},
            EmissionSeries(np.array([0.2, 0.2, 0.3, 0.1])),
        )
        assert path.read_bytes() == (
            b"timestamp,baseload_kw,co2_kw,flatten_kw,co2_kg_per_kwh\r\n"
            b"2023-06-05T00:00:00,1.0,0.0,1.0,0.2\r\n"
            b"2023-06-05T00:15:00,0.1,1e-05,1.0,0.2\r\n"
            b"2023-06-05T00:30:00,0.0,2.0,1.0,0.3\r\n"
            b"2023-06-05T00:45:00,3.5,0.0,1.0,0.1\r\n"
        )

    def test_report(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(
            path,
            (
                ScenarioReport("uncontrolled", 4.0, 2.0, 0.1),
                ScenarioReport("flatten", 2.0, 1e-05, 0.05, 50.0, 99.9995, 50.0),
            ),
        )
        assert path.read_bytes() == (
            b"scenario,flatness_kwh2,co2_kg,peak_kw,"
            b"flatness_reduction_pct,co2_reduction_pct,peak_reduction_pct\r\n"
            b"uncontrolled,4.0,2.0,0.1,,,\r\n"
            b"flatten,2.0,1e-05,0.05,50.0,99.9995,50.0\r\n"
        )

    def test_report_fields_follow_the_columns(self):
        assert tuple(field.name for field in fields(ScenarioReport)) == REPORT_COLUMNS

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep(path, [(0.0, 3.0, 2.0, 1e-05), (float("inf"), 0.1, 4.0, 0.5)])
        assert path.read_bytes() == (
            b"flatness_weight,peak_kw,co2_kg,flatness_kwh2\r\n"
            b"0.0,3.0,2.0,1e-05\r\n"
            b"inf,0.1,4.0,0.5\r\n"
        )

    def test_flexibility_report(self, tmp_path):
        path = tmp_path / "flexibility_report.csv"
        write_flexibility_report(path, (400.0, 0.1, 450.0, 50.0, 1e-05))
        assert path.read_bytes() == (
            b"baseload_peak_kw,bus_only_flat_peak_kw,coordinated_peak_kw,"
            b"additional_kw,gain_pct\r\n"
            b"400.0,0.1,450.0,50.0,1e-05\r\n"
        )

    def test_flexibility_report_needs_five_values(self, tmp_path):
        with pytest.raises(ValueError, match="5 values"):
            write_flexibility_report(tmp_path / "f.csv", (400.0, 0.1, 450.0, 50.0))


class TestLengthGuards:
    def test_series_longer_than_the_horizon(self, tmp_path):
        with pytest.raises(ValueError, match="series length"):
            write_baseload(tmp_path / "b.csv", BaseloadSeries(np.ones(5)), make_horizon(4))

    def test_profile_of_the_wrong_length(self, tmp_path):
        with pytest.raises(ValueError, match="'co2' profile length"):
            write_profiles(
                tmp_path / "p.csv",
                make_horizon(4),
                np.ones(4),
                {"co2": np.ones(3)},
                EmissionSeries(np.ones(4)),
            )

    @pytest.mark.parametrize("baseload, factors", [(3, 4), (4, 5)])
    def test_baseload_or_factors_of_the_wrong_length(self, tmp_path, baseload, factors):
        with pytest.raises(ValueError, match="baseload or emission length"):
            write_profiles(
                tmp_path / "p.csv",
                make_horizon(4),
                np.ones(baseload),
                {"co2": np.ones(4)},
                EmissionSeries(np.ones(factors)),
            )
