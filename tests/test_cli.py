"""End-to-end tests for the command-line scenario runner."""

import json
import math
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

import depotcharge
from depotcharge import data, metrics
from depotcharge.cli import WeekConfig, _config_from, main, run_week
from depotcharge.matching import BusType, LineRecord


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def week_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("week")
    assert main(["week", "--seed", "0", "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def nosweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("nosweep")
    assert main(["week", "--seed", "0", "--no-sweep", "--out-dir", str(out)]) == 0
    return out


class TestWeekOutputs:
    def test_writes_results_and_synthesized_inputs(self, week_dir):
        for name in (
            "report.csv",
            "profiles.csv",
            "sweep.csv",
            "timetable.csv",
            "baseload.csv",
            "emissions.csv",
        ):
            assert (week_dir / name).exists()

    def test_report_rows_and_reductions(self, week_dir):
        reports = data.read_report(week_dir / "report.csv")
        assert [r.scenario for r in reports] == [
            "uncontrolled",
            "co2",
            "flatten",
            "weighted",
        ]
        by_name = {r.scenario: r for r in reports}
        assert by_name["uncontrolled"].peak_reduction_pct is None
        assert by_name["flatten"].peak_kw < by_name["uncontrolled"].peak_kw
        assert by_name["co2"].co2_kg < by_name["uncontrolled"].co2_kg
        # The balanced point trades away part of each pure optimum.
        assert by_name["flatten"].peak_kw < by_name["weighted"].peak_kw < by_name["co2"].peak_kw
        assert by_name["co2"].co2_kg < by_name["weighted"].co2_kg < by_name["flatten"].co2_kg

    def test_sweep_grid_has_both_endpoints(self, week_dir):
        lines = read_lines(week_dir / "sweep.csv")
        assert lines[0] == ",".join(data.SWEEP_COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 13
        assert float(rows[0][0]) == 0.0
        assert rows[-1][0] == "inf"
        reports = {r.scenario: r for r in data.read_report(week_dir / "report.csv")}
        assert float(rows[-1][1]) == reports["flatten"].peak_kw
        assert float(rows[0][2]) == reports["co2"].co2_kg

    def test_profiles_header_and_row_count(self, week_dir):
        lines = read_lines(week_dir / "profiles.csv")
        assert lines[0] == (
            "timestamp,baseload_kw,uncontrolled_kw,co2_kw,flatten_kw,"
            "weighted_kw,co2_kg_per_kwh"
        )
        assert len(lines) == 1 + 7 * 96

    def test_stdout_lists_each_scenario(self, tmp_path, capsys):
        out = tmp_path / "solo"
        rc = main(
            ["week", "--seed", "1", "--out-dir", str(out), "--scenario", "co2", "--no-sweep"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("co2: flatness=")
        assert "peak=" in captured.out


class TestDeterminism:
    def test_rerun_is_byte_identical(self, nosweep_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["week", "--seed", "0", "--no-sweep", "--out-dir", str(again)]) == 0
        for name in ("report.csv", "profiles.csv", "timetable.csv", "baseload.csv", "emissions.csv"):
            assert read_bytes(again / name) == read_bytes(nosweep_dir / name)

    def test_written_inputs_reproduce_the_run(self, nosweep_dir, tmp_path):
        replay = tmp_path / "replay"
        rc = main(
            [
                "week",
                "--out-dir",
                str(replay),
                "--no-sweep",
                "--timetable",
                str(nosweep_dir / "timetable.csv"),
                "--baseload",
                str(nosweep_dir / "baseload.csv"),
                "--emissions",
                str(nosweep_dir / "emissions.csv"),
            ]
        )
        assert rc == 0
        assert read_bytes(replay / "report.csv") == read_bytes(nosweep_dir / "report.csv")
        assert read_bytes(replay / "profiles.csv") == read_bytes(nosweep_dir / "profiles.csv")


class TestConfigFile:
    def test_flags_override_the_file(self, nosweep_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "sweep": False}))
        out = tmp_path / "override"
        rc = main(
            ["week", "--config", str(config), "--seed", "0", "--out-dir", str(out)]
        )
        assert rc == 0
        assert read_bytes(out / "report.csv") == read_bytes(nosweep_dir / "report.csv")

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sweeps": True}))
        rc = main(["week", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("week", "sweep", "false"),
            ("week", "scenarios", "co2"),
            ("week", "scenarios", ["co2", 1]),
            ("week", "seed", 1.5),
            ("week", "seed", True),
            ("week", "cap_kw", "600"),
            ("week", "timetable", 3),
            ("flexibility", "dummy_low_kw", "40"),
            ("flexibility", "dummy_high_kw", False),
        ],
    )
    def test_mistyped_values_are_rejected(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        rc = main([command, "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert f"config key {key!r} takes" in capsys.readouterr().err

    def test_typed_values_load(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 3, "scenarios": ["co2"], "sweep": False, "cap_kw": 600,
            "co2_weight": 2, "flatness_weight": "inf", "timetable": None,
        }))
        loaded = _config_from(WeekConfig, str(config), {})
        assert loaded == WeekConfig(
            seed=3, scenarios=("co2",), sweep=False, cap_kw=600, co2_weight=2,
            flatness_weight=math.inf,
        )


def tiny_timetable(path):
    """Three lines over two days; small enough to solve instantly."""
    week_start = data.DEFAULT_WEEK_START
    day1 = week_start + timedelta(days=1)
    lines = (
        LineRecord(
            line_id="a",
            day=0,
            start=week_start + timedelta(hours=7),
            end=week_start + timedelta(hours=18),
            bus_type=BusType.SMALL,
            soc_after_kwh=100.0,
        ),
        LineRecord(
            line_id="b",
            day=0,
            start=week_start + timedelta(hours=8),
            end=week_start + timedelta(hours=20),
            bus_type=BusType.LARGE,
            soc_after_kwh=250.0,
        ),
        LineRecord(
            line_id="a",
            day=1,
            start=day1 + timedelta(hours=7),
            end=day1 + timedelta(hours=16),
            bus_type=BusType.SMALL,
            soc_after_kwh=110.0,
        ),
    )
    data.write_timetable(path, data.LineTimetable(lines=lines, week_start=week_start))


class TestGridCap:
    def test_cap_limits_the_co2_schedule(self, tmp_path):
        timetable = tmp_path / "tiny.csv"
        tiny_timetable(timetable)
        out = tmp_path / "capped"
        rc = main(
            [
                "week",
                "--out-dir",
                str(out),
                "--timetable",
                str(timetable),
                "--scenario",
                "co2",
                "--no-sweep",
                "--cap-kw",
                "100",
            ]
        )
        assert rc == 0
        (report,) = data.read_report(out / "report.csv")
        assert report.scenario == "co2"
        assert report.peak_kw <= 100.0 + 1e-9

    def test_cap_refuses_flattening_scenarios(self, tmp_path, capsys):
        rc = main(["week", "--out-dir", str(tmp_path / "o"), "--cap-kw", "300"])
        assert rc == 1
        assert "co2 scenario only" in capsys.readouterr().err

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_week(WeekConfig(scenarios=("nope",)))


class TestWeightRouting:
    def test_infinite_flatness_weight_reproduces_flatten(self, tmp_path):
        out = tmp_path / "winf"
        rc = main(
            [
                "week",
                "--seed",
                "0",
                "--out-dir",
                str(out),
                "--scenario",
                "flatten",
                "--scenario",
                "weighted",
                "--wf",
                "inf",
                "--no-sweep",
            ]
        )
        assert rc == 0
        flat, weighted = data.read_report(out / "report.csv")
        assert weighted.peak_kw == flat.peak_kw
        assert weighted.co2_kg == flat.co2_kg
        assert weighted.flatness_kwh2 == flat.flatness_kwh2


class TestFlexibility:
    def test_experiment_outputs_and_summary(self, tmp_path, capsys):
        out = tmp_path / "flex"
        rc = main(["flexibility", "--seed", "0", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "additional capacity" in captured.out
        for name in ("flexibility_report.csv", "flexibility_profiles.csv", "combined_baseload.csv"):
            assert (out / name).exists()

        header, row = read_lines(out / "flexibility_report.csv")
        assert header == (
            "baseload_peak_kw,bus_only_flat_peak_kw,coordinated_peak_kw,"
            "additional_kw,gain_pct"
        )
        base, bus_only, coordinated, additional, gain = map(float, row.split(","))
        assert additional == coordinated - base
        assert gain == metrics.flexibility_gain(base, bus_only, coordinated)
        # Coordination never does worse than stacking the flat fleet on
        # top of the baseload peak.
        assert coordinated <= base + bus_only + 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "f1"
        second = tmp_path / "f2"
        assert main(["flexibility", "--seed", "3", "--out-dir", str(first)]) == 0
        assert main(["flexibility", "--seed", "3", "--out-dir", str(second)]) == 0
        for name in ("flexibility_report.csv", "flexibility_profiles.csv", "combined_baseload.csv"):
            assert read_bytes(first / name) == read_bytes(second / name)


class TestErrorReporting:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            [
                "week",
                "--out-dir",
                str(tmp_path / "o"),
                "--timetable",
                str(tmp_path / "absent.csv"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_timetable_row_with_missing_cells(self, tmp_path, capsys):
        timetable = tmp_path / "timetable.csv"
        timetable.write_text("day,line_id,start,end,bus_type,soc_after_kwh\n0,l1,06:00,20:00\n")
        rc = main(["week", "--out-dir", str(tmp_path / "o"), "--timetable", str(timetable)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(row 2)" in err
        assert "Traceback" not in err

    def test_emission_timestamps_with_an_offset(self, tmp_path, capsys):
        # Naive horizon times cannot be compared with offset-aware ones.
        emissions = tmp_path / "emissions.csv"
        rows = [f"2023-06-{day:02d}T00:00:00+02:00,0.3\n" for day in range(4, 14)]
        emissions.write_text("timestamp,co2_kg_per_kwh\n" + "".join(rows))
        rc = main(["week", "--no-sweep", "--out-dir", str(tmp_path / "o"), "--emissions", str(emissions)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(row 2, column 'timestamp')" in err
        assert "Traceback" not in err


def test_package_runs_as_a_module_without_warnings():
    # ``python -m depotcharge.cli`` warns that the package has already
    # imported the module; ``python -m depotcharge`` must not.
    src = Path(depotcharge.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "depotcharge", "week", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "--seed" in result.stdout
