"""Evaluation metrics for charging profiles.

Three numbers summarize a week: the flatness cost (sum of squared
per-interval energies, kWh^2), the emission cost (kWh times the
interval's kg CO2eq per kWh, summed), and the peak power (largest
per-interval energy divided by the interval length, kW).  All operate
on plain profile arrays so callers decide whether a profile is bus
charging alone or charging plus baseload.

The flexibility statistic compares three peaks: how much extra feeder
capacity coordinated charging needs on top of the baseload, expressed
as a saving against the capacity a flattened-but-uncoordinated fleet
would need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def flatness(profile_kwh: np.ndarray) -> float:
    """Sum of squared per-interval energies, in kWh^2."""
    values = np.asarray(profile_kwh, dtype=float)
    return float(np.dot(values, values))


def co2_total(profile_kwh: np.ndarray, emissions_kg_per_kwh: np.ndarray) -> float:
    """Total emissions of a profile, in kg CO2eq."""
    values = np.asarray(profile_kwh, dtype=float)
    factors = np.asarray(emissions_kg_per_kwh, dtype=float)
    if values.shape != factors.shape:
        raise ValueError("profile and emission series lengths differ")
    return float(np.dot(values, factors))


def peak_kw(profile_kwh: np.ndarray, interval_hours: float) -> float:
    """Largest per-interval draw converted to power, in kW."""
    if not interval_hours > 0:
        raise ValueError("interval length must be positive")
    values = np.asarray(profile_kwh, dtype=float)
    return float(values.max()) / interval_hours


def flexibility_gain(
    baseload_peak_kw: float, bus_only_flat_peak_kw: float, coordinated_peak_kw: float
) -> float:
    """Peak-capacity saving of coordinated charging, as a percentage.

    Coordinated charging needs ``coordinated - baseload`` kW of feeder
    capacity beyond the baseload's own peak.  A flattened fleet that
    ignores the baseload would need its full ``bus_only_flat`` peak on
    top.  The gain is the fraction of that naive requirement avoided.
    """
    if baseload_peak_kw <= 0 or bus_only_flat_peak_kw <= 0 or coordinated_peak_kw <= 0:
        raise ValueError("peaks must be positive")
    if coordinated_peak_kw < baseload_peak_kw:
        raise ValueError("a coordinated peak cannot undercut the baseload peak")
    additional = coordinated_peak_kw - baseload_peak_kw
    return 100.0 * (1.0 - additional / bus_only_flat_peak_kw)


def reduction_pct(baseline_value: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline_value``."""
    if baseline_value <= 0:
        raise ValueError("baseline value must be positive")
    return 100.0 * (1.0 - value / baseline_value)


@dataclass(frozen=True)
class ScenarioReport:
    """One table row: the three metrics for a named scenario.

    Reduction percentages are present only when the report was built
    against a baseline scenario; they are always recomputable from the
    stored absolutes of the two reports.
    """

    scenario: str
    flatness_kwh2: float
    co2_kg: float
    peak_kw: float
    flatness_reduction_pct: float | None = None
    co2_reduction_pct: float | None = None
    peak_reduction_pct: float | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("flatness", self.flatness_kwh2),
            ("co2", self.co2_kg),
            ("peak", self.peak_kw),
        ):
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{label} metric must be finite and non-negative")

    def versus(self, baseline: "ScenarioReport") -> "ScenarioReport":
        """A copy with reduction percentages filled in against ``baseline``."""
        return replace(
            self,
            flatness_reduction_pct=reduction_pct(baseline.flatness_kwh2, self.flatness_kwh2),
            co2_reduction_pct=reduction_pct(baseline.co2_kg, self.co2_kg),
            peak_reduction_pct=reduction_pct(baseline.peak_kw, self.peak_kw),
        )


def scenario_report(
    scenario: str,
    profile_kwh: np.ndarray,
    emissions_kg_per_kwh: np.ndarray,
    interval_hours: float,
    baseline: ScenarioReport | None = None,
) -> ScenarioReport:
    """Evaluate all three metrics on one profile."""
    report = ScenarioReport(
        scenario=scenario,
        flatness_kwh2=flatness(profile_kwh),
        co2_kg=co2_total(profile_kwh, emissions_kg_per_kwh),
        peak_kw=peak_kw(profile_kwh, interval_hours),
    )
    if baseline is not None:
        report = report.versus(baseline)
    return report
