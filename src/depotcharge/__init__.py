"""Optimal charging schedules for an electric bus depot.

The package plans overnight charging for a fleet of electric buses under
three objectives: minimal time-of-use CO2 emissions, a flat depot power
profile, and any weighted combination of the two.  It also carries the
surrounding pipeline: bus-to-line matching, synthetic data generation,
metrics, and a command-line runner for week-long experiments.

The reference solvers in :mod:`depotcharge.oracle` are for tests and are
not imported here: they pull in ``scipy.optimize``.
"""

from .baseline import solve_uncontrolled
from .cli import (
    FlexibilityConfig,
    FlexibilityResult,
    WeekConfig,
    main,
    run_flexibility,
    run_week,
)
from .data import (
    LineTimetable,
    load_baseload,
    load_emissions,
    load_timetable,
    read_report,
    write_baseload,
    write_emissions,
    write_profiles,
    write_report,
    write_sweep,
    write_timetable,
)
from .errors import (
    CoverageGapError,
    DepotChargeError,
    GenerationInfeasibleError,
    InfeasibleError,
    NonConvergenceError,
    ParseError,
    ScalingOverflowError,
    SchemaError,
    SolverError,
    WindowInfeasibleError,
)
from .flatten import FlattenProblem, levels, solve_flatten
from .flow import EmissionSeries, solve_min_co2, verify_optimality
from .matching import (
    ArrivingBus,
    BusType,
    FleetAssignment,
    LineRecord,
    match,
    match_week,
    to_jobs,
)
from .metrics import (
    ScenarioReport,
    co2_total,
    flatness,
    flexibility_gain,
    peak_kw,
    reduction_pct,
    scenario_report,
)
from .model import (
    ENERGY_ATOL,
    EXCHANGE_ATOL,
    BaseloadSeries,
    FeasibilityReport,
    Horizon,
    Instance,
    Job,
    Schedule,
    aggregate,
    check_feasible,
    validate_schedule,
)
from .synth import (
    TimetableProfile,
    random_baseload,
    sinusoid_emissions,
    synth_timetable,
    week_horizon,
)
from .weighted import (
    DEFAULT_FLATNESS_SWEEP,
    Weights,
    emission_baseload,
    solve_weighted,
    sweep,
    weighted_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ENERGY_ATOL",
    "EXCHANGE_ATOL",
    "DEFAULT_FLATNESS_SWEEP",
    "ArrivingBus",
    "BaseloadSeries",
    "BusType",
    "CoverageGapError",
    "DepotChargeError",
    "EmissionSeries",
    "FeasibilityReport",
    "FlattenProblem",
    "FleetAssignment",
    "FlexibilityConfig",
    "FlexibilityResult",
    "GenerationInfeasibleError",
    "Horizon",
    "InfeasibleError",
    "Instance",
    "Job",
    "LineRecord",
    "LineTimetable",
    "NonConvergenceError",
    "ParseError",
    "ScalingOverflowError",
    "ScenarioReport",
    "Schedule",
    "SchemaError",
    "SolverError",
    "TimetableProfile",
    "WeekConfig",
    "Weights",
    "WindowInfeasibleError",
    "aggregate",
    "check_feasible",
    "co2_total",
    "emission_baseload",
    "flatness",
    "flexibility_gain",
    "levels",
    "load_baseload",
    "load_emissions",
    "load_timetable",
    "main",
    "match",
    "match_week",
    "peak_kw",
    "random_baseload",
    "read_report",
    "reduction_pct",
    "run_flexibility",
    "run_week",
    "scenario_report",
    "sinusoid_emissions",
    "solve_flatten",
    "solve_min_co2",
    "solve_uncontrolled",
    "solve_weighted",
    "sweep",
    "synth_timetable",
    "to_jobs",
    "validate_schedule",
    "verify_optimality",
    "weighted_objective",
    "week_horizon",
    "write_baseload",
    "write_emissions",
    "write_profiles",
    "write_report",
    "write_sweep",
    "write_timetable",
    "__version__",
]
