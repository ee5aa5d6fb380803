"""Shared exception types."""

from __future__ import annotations


class ExocastError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRangeError(ExocastError, ValueError):
    """A min-max transform was asked to operate on a constant series."""


class UndefinedCorrelationError(ExocastError, ValueError):
    """Correlation requested against a constant (zero-variance) input."""


class MissingValueError(ExocastError, ValueError):
    """A model-facing operation received a series that still has gaps."""


class InsufficientDataError(ExocastError, ValueError):
    """Not enough observations for the requested model structure."""


class ConvergenceFailureError(ExocastError, RuntimeError):
    """An iterative solver ran out of budget.

    Carries the best iterate found so far in ``best`` so callers can decide
    whether to use it anyway.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class SelectionError(ExocastError, RuntimeError):
    """A feature-selection method could not produce any result."""


class GridSearchError(ExocastError, RuntimeError):
    """Every candidate in an order grid failed to fit or forecast."""


class NotCachedError(ExocastError, FileNotFoundError):
    """A cache lookup found nothing under the given root."""


class PayloadError(ExocastError, ValueError):
    """A remote payload (catalog or dataset) could not be parsed."""


class ConfigError(ExocastError, ValueError):
    """An experiment config file is missing, unreadable or not a valid config."""


class SchemaError(ExocastError, ValueError):
    """A persisted document names a schema this version cannot read."""
