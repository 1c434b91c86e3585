"""Exception hierarchy shared across the package.

Every error the package raises on purpose derives from ``AsymcastError``;
its subclass names the kind of failure (configuration, input, numerics).
"""


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
