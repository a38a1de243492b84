"""Exception types shared across the package."""


class EprbError(Exception):
    """Base class for all package errors."""


class TtagFormatError(EprbError):
    """Malformed or incompatible time-tag file."""


class QuadratureError(EprbError):
    """Adaptive quadrature did not converge, or its value overflows float64."""


class FitError(EprbError):
    """Window fit could not bracket or reach the requested target."""


class UsageError(EprbError):
    """Bad command line or configuration input."""
