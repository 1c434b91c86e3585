"""Exception hierarchy shared across the package.

Each class carries the exit code a command-line front end should use:
  2 configuration, 3 data/input, 4 numerical failure, 5 verification failure.
"""


class AsymcastError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(AsymcastError):
    """Invalid or inconsistent configuration (bad parameter, unknown family...)."""

    exit_code = 2


class InvalidInputError(AsymcastError):
    """Operation called with data violating its preconditions."""

    exit_code = 3


class IngestionError(InvalidInputError):
    """CSV/schema ingestion failure; message carries the offending row."""

    exit_code = 3


class SchemaError(InvalidInputError):
    """Column mismatch between fitted model and prediction input."""

    exit_code = 3


class SingularDesignError(AsymcastError):
    """Rank-deficient design matrix; names the offending columns."""

    exit_code = 4


class ConvergenceError(AsymcastError):
    """Iterative solver exhausted its budget; carries the best value found."""

    exit_code = 4

    def __init__(self, message, best_objective=None):
        super().__init__(message)
        self.best_objective = best_objective


class TrainingError(AsymcastError):
    """Model training diverged (NaN loss or similar)."""

    exit_code = 4


class VerificationError(AsymcastError):
    """A built-in self-check failed."""

    exit_code = 5
