"""Regression trees, bootstrap bagging, and random forests.

Trees grow greedily on variance reduction; ``complexity`` is the
minimum sum-of-squares improvement required for a split, relative to
the root sum of squares (rpart-style), and ``min_node`` is the minimum
number of rows each side of a split must keep. The ensembles grow every
tree with ``ENSEMBLE_COMPLEXITY`` and ``ENSEMBLE_MIN_NODE``.

Bagging averages trees fitted on bootstrap resamples; a random forest
additionally samples ``mtry`` candidate features per split. An ensemble
has one random stream, ``default_rng(seed)``, which gives each tree its
bootstrap indices and then the seed of its feature draws. A tree that
scans every feature draws nothing from that seed, so a forest with mtry
equal to the feature count reproduces a bagged tree of the same seed
and size exactly.

Tree t of an ensemble depends on the stream's draws for trees 0..t-1
and on nothing else, so an ensemble is a prefix of every larger one
with the same seed and settings: the first t trees of a T-tree fit are
the t-tree fit, node array for node array. ``ensemble_prefix`` cuts
such a prefix, which lets a model library fit each group of sizes once.

An ensemble grows its trees one after another in one loop: for each
tree it draws the bootstrap rows and then the tree seed from the
stream, and grows the tree. A standalone fit runs in the calling
process; ``build_library`` grows its ensemble groups side by side with
its other fits, one group per work unit of its process pool.

Every tree family stores its model as a ``ForestState``: a single tree
is a one-tree forest, so the three families predict and persist the
same way. ``TreeState`` holds the node arrays of one tree and its depth.

The forests of one nested group share their trees and one ``TreeSums``,
wired where the group is created: ``build_library`` gives each ensemble
it grows one ``TreeSums`` for the prefixes it cuts with
``ensemble_prefix``, and ``load_library`` gives one to the entries that
name the same first stored tree. For a new query the group walks each tree once and keeps
the running sum at every member's size, summed in the order
``ForestState.predict`` sums, so a member's forecast keeps its bits
whichever member asks first. The sums live in the library's
``QueryMemo``, which holds one copy of the latest query for every group
and neighbour index, keyed on contents, so a query changed in place is
walked again. A forest in no group predicts on its own.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ConfigurationError, require_integer, require_nonnegative, require_seed
from .base import (
    FAMILY_BAGGED_TREE,
    FAMILY_RANDOM_FOREST,
    FAMILY_TREE,
    Model,
    QueryMemo,
    check_training_data,
)

MAX_DEPTH = 30
# the growth settings of every bagged and forest tree
ENSEMBLE_COMPLEXITY = 0.0
ENSEMBLE_MIN_NODE = 5


# the node arrays of one tree, in the order kernels.tree_build returns them
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class TreeState:
    def __init__(self, feature, threshold, left, right, value, depth):
        self.feature, self.threshold, self.left, self.right, self.value = (
            feature, threshold, left, right, value
        )
        self.depth = int(depth)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return kernels.tree_predict(
            self.feature, self.threshold, self.left, self.right, self.value, self.depth, X
        )


def _tree_sum(trees, X, sizes=()):
    """Sum of the trees' forecasts, and copies of the running sum after each size in ``sizes``."""
    out = np.zeros(X.shape[0])
    kept = {}
    for count, tree in enumerate(trees, start=1):
        out += tree.predict(X)
        if count in sizes:
            kept[count] = out.copy()
    return out, kept


class ForestState:
    def __init__(self, trees, shared=None):
        self.trees = trees
        # the TreeSums of the forest's group, which holds at least its trees
        self.shared = shared

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.shared is not None:
            return self.shared.prefix_sum(len(self.trees), X) / len(self.trees)
        return _tree_sum(self.trees, X)[0] / len(self.trees)


class TreeSums:
    """A group's trees, walked once per query for every member forest.

    The group is the trees of its largest forest and the sizes of its
    members, each a ``ForestState`` of the group's first trees that holds
    this object; the running sums at those sizes live in the library's
    ``QueryMemo``.
    """

    def __init__(self, trees, sizes, memo: QueryMemo):
        self.trees = trees
        self.sizes = frozenset(sizes)
        self.memo = memo
        self._key = object()

    def prefix_sum(self, size: int, X: np.ndarray) -> np.ndarray:
        """Sum of the forecasts of the first ``size`` trees; callers must not write to it."""
        return self.memo.get(self._key, X, self._walk)[size]

    def _walk(self, X):
        return _tree_sum(self.trees, X, self.sizes)[1]


def fit_tree(X, y, complexity: float = 1e-3, min_node: int = 10) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    require_integer("min_node", min_node)
    require_nonnegative("complexity", complexity)
    if min_node < 1:
        raise ConfigurationError(f"need min_node >= 1, got {min_node}")
    idx = np.arange(X.shape[0], dtype=np.int64)
    tree = TreeState(*kernels.tree_build(X, y, idx, min_node, complexity, X.shape[1], 0, MAX_DEPTH))
    state = ForestState([tree])
    params = {"complexity": complexity, "min_node": min_node}
    return Model(FAMILY_TREE, params, state, X.shape[1])


def _fit_tree_ensemble(X, y, n_trees, mtry, seed) -> ForestState:
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trees = []
    for _ in range(n_trees):
        boot = rng.integers(0, n, size=n).astype(np.int64)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        arrays = kernels.tree_build(
            X, y, boot, ENSEMBLE_MIN_NODE, ENSEMBLE_COMPLEXITY, mtry, tree_seed, MAX_DEPTH
        )
        trees.append(TreeState(*arrays))
    return ForestState(trees)


def fit_bagged_tree(X, y, bags: int, seed: int) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    require_integer("bags", bags)
    if bags < 1:
        raise ConfigurationError(f"need at least one bag, got {bags}")
    require_seed("seed", seed)
    state = _fit_tree_ensemble(X, y, bags, X.shape[1], seed)
    params = {"bags": bags, "seed": seed}
    return Model(FAMILY_BAGGED_TREE, params, state, X.shape[1])


# the hyperparameter that holds an ensemble family's tree count
_SIZE_PARAMS = {FAMILY_BAGGED_TREE: "bags", FAMILY_RANDOM_FOREST: "trees"}


def ensemble_prefix(model: Model, size: int) -> Model:
    """The ensemble of ``model``'s first ``size`` trees, 1 <= size <= its tree count.

    By the prefix property this equals the fitter's model for ``size``
    trees with ``model``'s seed and settings, hyperparameters included.
    """
    if model.family not in _SIZE_PARAMS:
        raise ConfigurationError(
            f"ensemble_prefix takes a {FAMILY_BAGGED_TREE} or {FAMILY_RANDOM_FOREST} model, "
            f"got a {model.family} model"
        )
    trees = model.state.trees
    require_integer("size", size)
    if not 1 <= size <= len(trees):
        raise ConfigurationError(
            f"a prefix of {len(trees)} trees needs a size in [1, {len(trees)}], got {size}"
        )
    params = {**model.hyperparams, _SIZE_PARAMS[model.family]: size}
    return Model(model.family, params, ForestState(trees[:size]), model.n_features)


def fit_random_forest(X, y, trees: int, mtry: int, seed: int) -> Model:
    X, y = check_training_data(X, y, min_rows=2)
    require_integer("trees", trees)
    require_integer("mtry", mtry)
    if trees < 1:
        raise ConfigurationError(f"need at least one tree, got {trees}")
    if not 1 <= mtry <= X.shape[1]:
        raise ConfigurationError(f"mtry must lie in [1, m={X.shape[1]}], got {mtry}")
    require_seed("seed", seed)
    state = _fit_tree_ensemble(X, y, trees, mtry, seed)
    params = {"trees": trees, "mtry": mtry, "seed": seed}
    return Model(FAMILY_RANDOM_FOREST, params, state, X.shape[1])
