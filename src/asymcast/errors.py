"""Exception hierarchy shared across the package, and the argument checks that raise it.

Every error the package raises on purpose derives from ``AsymcastError``;
its subclass names the kind of failure (configuration, input, numerics).
The ``require_*`` checks raise ConfigurationError naming the argument.
"""

import numpy as np


class AsymcastError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AsymcastError):
    """Invalid or inconsistent configuration (bad parameter, unknown family...)."""


class InvalidInputError(AsymcastError):
    """Operation called with data violating its preconditions."""


class IngestionError(InvalidInputError):
    """CSV/schema ingestion failure; message carries the offending row."""


class SchemaError(InvalidInputError):
    """Column mismatch between fitted model and prediction input."""


class SingularDesignError(AsymcastError):
    """Rank-deficient design matrix; names the offending columns."""


class ConvergenceError(AsymcastError):
    """Iterative solver exhausted its budget; carries the best value found."""

    def __init__(self, message, best_objective=None):
        super().__init__(message)
        self.best_objective = best_objective


class TrainingError(AsymcastError):
    """Model training diverged (NaN loss or similar)."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name: str, value) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is an integer, not a bool."""
    if not is_integer(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def require_seed(name: str, value) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is an integer >= 0, not a bool."""
    require_integer(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
