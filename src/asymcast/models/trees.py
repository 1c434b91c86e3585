"""Regression trees, bootstrap bagging, and random forests.

Trees grow greedily on variance reduction; ``complexity`` is the
minimum sum-of-squares improvement required for a split, relative to
the root sum of squares (rpart-style), and ``min_node`` is the minimum
number of rows each side of a split must keep.

Bagging averages trees fitted on bootstrap resamples; a random forest
additionally samples ``mtry`` candidate features per split. Both draw
their bootstrap indices from the same seeded stream, so a one-tree
forest with mtry equal to the feature count reproduces a one-bag
bagged tree exactly.

Every tree family stores its model as a ``ForestState``: a single tree
is a one-tree forest, so the three families predict and persist the
same way. ``TreeState`` holds the node arrays of one tree.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ConfigurationError
from .base import FAMILY_BAGGED_TREE, FAMILY_RANDOM_FOREST, FAMILY_TREE, Model, check_training_data

MAX_DEPTH = 30


# the node arrays of one tree, in the order kernels.tree_build returns them
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class TreeState:
    def __init__(self, arrays):
        self.feature, self.threshold, self.left, self.right, self.value = arrays

    def predict(self, X: np.ndarray) -> np.ndarray:
        return kernels.tree_predict(
            self.feature, self.threshold, self.left, self.right, self.value, X
        )


class ForestState:
    def __init__(self, trees):
        self.trees = trees

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)


def _grow_tree(X, y, sample_idx, min_node, complexity, mtry, lcg_seed) -> TreeState:
    arrays = kernels.tree_build(
        X, y, sample_idx, min_node, complexity, mtry, lcg_seed, MAX_DEPTH
    )
    return TreeState(arrays[:5])


def fit_tree(X, y, complexity: float = 1e-3, min_node: int = 10) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    _check_growth(complexity, min_node)
    idx = np.arange(X.shape[0], dtype=np.int64)
    state = ForestState([_grow_tree(X, y, idx, min_node, complexity, X.shape[1], 0)])
    params = {"complexity": complexity, "min_node": min_node}
    return Model(FAMILY_TREE, params, state, X.shape[1])


def _check_growth(complexity, min_node):
    if complexity < 0 or min_node < 1:
        raise ConfigurationError(
            f"need complexity >= 0 and min_node >= 1, got {complexity}, {min_node}"
        )


def _fit_tree_ensemble(X, y, n_trees, mtry, seed, complexity, min_node) -> ForestState:
    _check_growth(complexity, min_node)
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        boot = rng.integers(0, n, size=n).astype(np.int64)
        lcg_seed = int(rng.integers(0, 2**31 - 1))
        trees.append(_grow_tree(X, y, boot, min_node, complexity, mtry, lcg_seed))
    return ForestState(trees)


def fit_bagged_tree(
    X, y, bags: int, seed: int, complexity: float = 0.0, min_node: int = 5
) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    if bags < 1:
        raise ConfigurationError(f"need at least one bag, got {bags}")
    state = _fit_tree_ensemble(X, y, bags, X.shape[1], seed, complexity, min_node)
    params = {"bags": bags, "seed": seed, "complexity": complexity, "min_node": min_node}
    return Model(FAMILY_BAGGED_TREE, params, state, X.shape[1])


def fit_random_forest(
    X, y, trees: int, mtry: int, seed: int, complexity: float = 0.0, min_node: int = 5
) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    if trees < 1:
        raise ConfigurationError(f"need at least one tree, got {trees}")
    if not 1 <= mtry <= X.shape[1]:
        raise ConfigurationError(f"mtry must lie in [1, m={X.shape[1]}], got {mtry}")
    state = _fit_tree_ensemble(X, y, trees, mtry, seed, complexity, min_node)
    params = {"trees": trees, "mtry": mtry, "seed": seed, "complexity": complexity, "min_node": min_node}
    return Model(FAMILY_RANDOM_FOREST, params, state, X.shape[1])
