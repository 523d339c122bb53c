"""Exception types shared across the package."""


class DepotChargeError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleError(DepotChargeError):
    """No schedule satisfies the energy, rate, and cap constraints."""


class ScalingOverflowError(DepotChargeError):
    """Scaled integer quantities exceed the supported integer range."""


class SolverError(DepotChargeError):
    """A solver's internal check failed.

    This signals a defect or a numerical breakdown in the solver, not a
    property of the input: the result it was about to return is unsound.
    """


class WindowInfeasibleError(DepotChargeError):
    """A charging job cannot receive its energy within its time window."""


class NonConvergenceError(DepotChargeError):
    """An iterative reference solver hit its iteration cap.

    This signals a bug in the calling test harness (bad tolerance or
    step choice), not a property of the model.
    """


class ParseError(DepotChargeError):
    """A CSV cell could not be parsed; carries row/column context."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column!r})" if column else ")")
        super().__init__(message + where)


class SchemaError(ParseError):
    """A CSV file is missing required columns or has malformed structure."""


class CoverageGapError(DepotChargeError):
    """An input series does not cover the requested horizon."""

    def __init__(self, message: str, missing: tuple = ()):
        self.missing = tuple(missing)
        super().__init__(message)


class GenerationInfeasibleError(DepotChargeError):
    """A synthetic roster draw produced jobs that cannot be scheduled."""
