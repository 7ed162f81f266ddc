"""Exception hierarchy shared across the package."""


class TargetCostError(Exception):
    """Base class for all package errors."""


class DomainError(TargetCostError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UsageError(TargetCostError, ValueError):
    """Inputs are individually valid but mutually inconsistent."""


class CalibrationError(TargetCostError, RuntimeError):
    """The shooting method could not bracket or meet the boundary targets.

    Attributes:
        diagnostics: dict with the best candidate and residuals seen.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ResourceError(TargetCostError, RuntimeError):
    """A request would overflow floating point range or memory."""
