"""Base learners and the model library."""

from .base import Model, predict
from .library import (
    LibraryConfig,
    LibraryEntry,
    ModelLibrary,
    build_library,
    load_library,
    save_library,
    select_best,
)
from .linear import fit_ols, fit_quantile, fit_ridge, quantile_objective
from .neighbors import fit_knn
from .neural import fit_nn, nn_objective_and_grad
from .trees import fit_bagged_tree, fit_random_forest, fit_tree

__all__ = [
    "Model",
    "predict",
    "LibraryConfig",
    "LibraryEntry",
    "ModelLibrary",
    "build_library",
    "load_library",
    "save_library",
    "select_best",
    "fit_ols",
    "fit_quantile",
    "fit_ridge",
    "quantile_objective",
    "fit_knn",
    "fit_nn",
    "nn_objective_and_grad",
    "fit_bagged_tree",
    "fit_random_forest",
    "fit_tree",
]
