"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedRangeError(ValueError):
    """The argument is mathematically fine but outside the supported range."""


class InsufficientDataError(ValueError):
    """Not enough data points to perform the requested estimate."""


class CrossCheckError(ArithmeticError):
    """Two independent reference computations disagree beyond their
    allowance; the message names both routes with their values and bounds."""


class UsageError(ValueError):
    """Invalid command-line flags or flag combinations."""
