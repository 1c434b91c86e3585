"""Shared model record and prediction dispatch.

A fitted model is its family tag, the hyperparameters it was fitted
with, a state object, the loss mode used for training, and a
symmetric/asymmetric provenance flag, which follows the loss
(``losses.is_symmetric``). A library wires the states that share
prediction work in one place, ``library._share``, for each work unit of
a build and each shared locator of a loaded bundle alike: a unit's tree
models (a single tree, or the sizes of one ensemble group) get one tree
walk, and its kNN models one neighbour index. States never change
once built. The shared parts keep what they computed for the latest
query in a ``QueryMemo``, one per library. The memo is keyed on the
query's contents and swapped whole, so prediction stays deterministic
and safe for concurrent callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, SchemaError
from ..losses import CostSpec, is_symmetric

FAMILY_OLS = "ols"
FAMILY_RIDGE = "ridge"
FAMILY_QUANTILE = "quantile"
FAMILY_KNN = "knn"
FAMILY_TREE = "tree"
FAMILY_NN = "nn"
FAMILY_BAGGED_TREE = "bagged_tree"
FAMILY_RANDOM_FOREST = "random_forest"

SYMMETRIC_LOSS = CostSpec("squared_error")


@dataclass(frozen=True)
class Model:
    family: str
    hyperparams: dict
    state: object
    n_features: int
    loss_mode: CostSpec = SYMMETRIC_LOSS

    @property
    def provenance(self) -> str:
        return "symmetric" if is_symmetric(self.loss_mode) else "asymmetric"


class QueryMemo:
    """Values computed for the latest query, keyed on one copy of its contents.

    Models of a library that score the same rows one after another share
    the work, and a query changed in place is computed again. The query
    copy and its values are replaced whole, so concurrent callers see one
    query's values or another's, never a mix.
    """

    def __init__(self):
        self._memo = None  # (query copy, {key: value})

    def get(self, key, X: np.ndarray, compute):
        """``compute(X)``, or its value stored under ``key`` for an equal query.

        A key must not refer to the memo: the memo would then hold itself
        in a reference cycle, and every query it keeps would wait for the
        cyclic garbage collector. The value is shared with the memo:
        callers must not write to it.
        """
        memo = self._memo
        if memo is None or not np.array_equal(memo[0], X):
            memo = (X.copy(), {})
            self._memo = memo
        values = memo[1]
        if key not in values:
            values[key] = compute(X)
        return values[key]


def check_training_data(X, y, min_rows: int = 1):
    """``X`` as a C-contiguous float matrix and ``y`` as a float vector of its rows.

    Every fitter calls this first. Raises InvalidInputError on a bad shape,
    fewer than ``min_rows`` rows, or a NaN or infinite value, naming the
    array that holds it.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] < min_rows:
        raise InvalidInputError(f"bad design: X {X.shape}, y {y.shape}")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise InvalidInputError(f"training {name} must be finite (no NaN/inf)")
    return X, y


def predict(model: Model, X) -> np.ndarray:
    """Forecast for each row of X; raises SchemaError on width mismatch."""
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise SchemaError(
            f"{model.family} model was fitted on {model.n_features} columns, "
            f"got input of shape {X.shape}"
        )
    return model.state.predict(X)
