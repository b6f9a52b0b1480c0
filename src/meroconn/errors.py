"""Exception hierarchy shared by all modules."""


class ToolkitError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroPolynomial(ToolkitError):
    pass


class ZeroFunction(ToolkitError):
    pass


class SingularMatrix(ToolkitError):
    pass


class ZeroSection(ToolkitError):
    pass


class PoleOutsideAllowedSet(ToolkitError):
    def __init__(self, points, message=None):
        self.points = list(points)
        super().__init__(message or f"poles outside the allowed set at {self.points}")


class NotASingularPoint(ToolkitError):
    pass


class DegenerateSection(ToolkitError):
    pass


class NotCyclic(ToolkitError):
    pass


class SingularEvaluationPoint(ToolkitError):
    pass


class SingularityTooClose(ToolkitError):
    pass


class StepUnderflow(ToolkitError):
    pass


class DegenerateJet(ToolkitError):
    pass


class InvalidArgument(ToolkitError, ValueError):
    """An argument lies outside the range the operation accepts."""


class ParseError(ToolkitError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class ValidationFailed(ToolkitError):
    """A connection fails validation; carries the ValidationReport."""

    def __init__(self, report):
        self.report = report
        super().__init__("validation failed: " + "; ".join(report.violations))
