import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcast import kernels
from asymcast.errors import ConfigurationError, SchemaError
from asymcast.models import (
    fit_bagged_tree,
    fit_knn,
    fit_ols,
    fit_random_forest,
    fit_tree,
    predict,
)
from asymcast.models.neighbors import _CHUNK_DISTANCES, NeighborIndex, share_index
from asymcast.models.trees import NODE_ARRAYS, ForestState, ensemble_prefix
from reference_kernels import tree_build_loop, tree_predict_loop


def make_nonlinear_problem(seed, n=600, noise=0.15):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 4))
    y = np.sin(2 * X[:, 0]) + np.abs(X[:, 1]) + 0.3 * X[:, 2] * X[:, 3]
    return X, y + rng.normal(0, noise, n)


# --------------------------------------------------------------------- knn

def test_knn_with_all_neighbors_predicts_global_mean():
    X, y = make_nonlinear_problem(seed=1, n=100)
    model = fit_knn(X, y, k_neighbors=100)
    np.testing.assert_allclose(predict(model, X[:7]), y.mean())


def test_knn_k1_memorizes_training_points():
    X, y = make_nonlinear_problem(seed=2, n=80)
    model = fit_knn(X, y, k_neighbors=1)
    np.testing.assert_allclose(predict(model, X), y)


def test_knn_brute_force_matches_argsort_oracle():
    X, y = make_nonlinear_problem(seed=3, n=200)
    Xq = make_nonlinear_problem(seed=4, n=500)[0]
    assert Xq.shape[0] > _CHUNK_DISTANCES // X.shape[0]  # the query spans at least two chunks
    d2 = ((Xq[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    expected = np.array([y[np.argsort(row)[:7]].mean() for row in d2])
    np.testing.assert_allclose(predict(fit_knn(X, y, 7), Xq), expected, atol=1e-10)


def ranked_mean_oracle(X, y, Q):
    """Column k - 1: the k-neighbour mean of each query row.

    Exact distances ordered with ties broken by training row, then a
    running-sum mean.
    """
    rows = np.arange(X.shape[0])
    ranked = [np.cumsum(y[np.lexsort((rows, ((X - q) ** 2).sum(axis=1)))]) for q in Q]
    return np.array(ranked) / np.arange(1, X.shape[0] + 1)


@pytest.mark.parametrize("largest", ["n", "n-1"])
def test_shared_knn_matches_full_sort_oracle_for_every_k(largest):
    X, y = make_nonlinear_problem(seed=18, n=40)
    Xq = make_nonlinear_problem(seed=19, n=1700)[0]
    assert Xq.shape[0] > _CHUNK_DISTANCES // X.shape[0]  # the query spans at least two chunks
    # the largest k ranks by a full sort (n) or by a partition first (n - 1)
    ks = range(1, X.shape[0] + (largest == "n"))
    models = [fit_knn(X, y, k) for k in ks]
    share_index([model.state for model in models])
    assert models[0].state.index is models[-1].state.index
    expected = ranked_mean_oracle(X, y, Xq)
    for k, model in zip(ks, models):
        np.testing.assert_array_equal(predict(model, Xq), expected[:, k - 1])


def test_shared_knn_predicts_the_bits_of_a_model_fitted_alone():
    X, y = make_nonlinear_problem(seed=20, n=300)
    Xq = make_nonlinear_problem(seed=21, n=400)[0]
    ks = (3, 5, 10, 25, 100)
    shared = [fit_knn(X, y, k) for k in ks]
    share_index([model.state for model in shared])
    assert shared[0].state.index.ks == ks
    for k, model in zip(ks, shared):
        np.testing.assert_array_equal(predict(model, Xq), predict(fit_knn(X, y, k), Xq))


def test_knn_memo_follows_the_query_contents():
    X, y = make_nonlinear_problem(seed=22, n=200)
    Xq = make_nonlinear_problem(seed=23, n=50)[0]
    model = fit_knn(X, y, 5)
    first = predict(model, Xq)
    # an equal copy is answered from the memo with the same bits
    np.testing.assert_array_equal(predict(model, Xq.copy()), first)
    # a returned forecast is the caller's own: writing to it changes no later answer
    first[:] = np.nan
    np.testing.assert_array_equal(predict(model, Xq), predict(fit_knn(X, y, 5), Xq))
    # a query changed in place is ranked again, not answered from the memo
    Xq[:10] += 1.0
    np.testing.assert_array_equal(predict(model, Xq), predict(fit_knn(X, y, 5), Xq))


def test_knn_keeps_its_training_rows_when_the_caller_writes_to_them():
    X, y = make_nonlinear_problem(seed=26, n=200)
    Xq = make_nonlinear_problem(seed=27, n=50)[0]
    model = fit_knn(X, y, 3)
    expected = fit_knn(X.copy(), y.copy(), 3)
    X[:, 0] = -X[:, 0]
    y += 1.0
    # the second query differs from the first, so it is ranked, not recalled
    for Q in (Xq, Xq[:20]):
        np.testing.assert_array_equal(predict(model, Q), predict(expected, Q))


def test_knn_index_answers_concurrent_queries_separately():
    X, y = make_nonlinear_problem(seed=24, n=300)
    queries = [make_nonlinear_problem(seed=25 + t, n=64)[0] for t in range(4)]
    index = NeighborIndex(X, y, (3, 10))
    expected = [NeighborIndex(X, y, (3, 10)).means(Q) for Q in queries]
    wrong = []

    def work(t):
        for _ in range(200):
            got = index.means(queries[t])
            if any(not np.array_equal(got[k], expected[t][k]) for k in (3, 10)):
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_knn_validates_configuration():
    X, y = make_nonlinear_problem(seed=5, n=30)
    with pytest.raises(ConfigurationError):
        fit_knn(X, y, k_neighbors=31)
    with pytest.raises(ConfigurationError):
        fit_knn(X, y, k_neighbors=0)


# ------------------------------------------------------------------- trees

def test_tree_reduces_training_error_below_constant():
    X, y = make_nonlinear_problem(seed=6)
    model = fit_tree(X, y, complexity=1e-4, min_node=5)
    assert np.mean((y - predict(model, X)) ** 2) < 0.5 * np.var(y)


def test_tree_with_prohibitive_complexity_is_a_stump():
    X, y = make_nonlinear_problem(seed=7)
    model = fit_tree(X, y, complexity=1.1, min_node=5)
    np.testing.assert_allclose(predict(model, X), y.mean())


def test_tree_is_deterministic():
    X, y = make_nonlinear_problem(seed=8)
    a = fit_tree(X, y, 1e-3, 10)
    b = fit_tree(X, y, 1e-3, 10)
    np.testing.assert_array_equal(predict(a, X), predict(b, X))


def test_single_tree_is_a_one_tree_forest():
    X, y = make_nonlinear_problem(seed=9, n=300)
    model = fit_tree(X, y, 1e-3, 10)
    assert isinstance(model.state, ForestState)
    (tree,) = model.state.trees
    # averaging over one tree is exact: the forest predicts the tree's own output
    np.testing.assert_array_equal(predict(model, X), tree.predict(X))


def test_duplicated_prediction_rows_get_identical_outputs():
    X, y = make_nonlinear_problem(seed=9)
    model = fit_tree(X, y, 1e-3, 10)
    row = X[3:4]
    two = predict(model, np.vstack([row, row]))
    assert two[0] == two[1]


def test_predict_rejects_column_mismatch():
    X, y = make_nonlinear_problem(seed=10)
    model = fit_tree(X, y, 1e-3, 10)
    with pytest.raises(SchemaError):
        predict(model, X[:, :2])


def make_tied_problem(seed, n=300):
    """Rounded numeric columns (repeated x values) plus a one-hot block.

    In a node holding only two of the three categories, two dummy
    columns give the same partition, so equal gains must break toward
    the first candidate feature.
    """
    rng = np.random.default_rng(seed)
    numeric = np.round(rng.normal(size=(n, 3)), 1)
    category = rng.integers(0, 3, n)
    onehot = (category[:, None] == np.arange(3)).astype(float)
    X = np.column_stack([numeric, onehot])
    y = numeric[:, 0] ** 2 + 0.5 * (category == 2) + rng.normal(0, 0.2, n)
    return X, y


@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("min_node", [1, 5, 20])
@pytest.mark.parametrize("complexity", [0.0, 1e-2])
@pytest.mark.parametrize("mtry", [1, 3, 6])
def test_tree_build_matches_feature_loop_reference(bootstrap, min_node, complexity, mtry):
    X, y = make_tied_problem(seed=100 + mtry + min_node)
    rng = np.random.default_rng(min_node)
    if bootstrap:
        rows = rng.integers(0, len(y), size=len(y)).astype(np.int64)
    else:
        rows = np.arange(len(y), dtype=np.int64)
    args = (X, y, rows, min_node, complexity, mtry, 4242, 30)
    fast = kernels.tree_build(*args)
    reference = tree_build_loop(*args)
    assert len(fast) == len(reference) == len(NODE_ARRAYS)
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    Xq = make_tied_problem(seed=7, n=200)[0]
    np.testing.assert_array_equal(
        kernels.tree_predict(*fast, Xq), tree_predict_loop(*reference, Xq)
    )


def test_tree_build_ties_between_dummies_go_to_the_first_column():
    # rows of categories 0 and 1 only: both dummies split them identically
    X = np.array([[1.0, 0.0]] * 6 + [[0.0, 1.0]] * 6)
    y = np.array([0.0] * 6 + [1.0] * 6)
    rows = np.arange(12, dtype=np.int64)
    feature = kernels.tree_build(X, y, rows, 1, 0.0, 2, 0, 30)[0]
    assert feature[0] == 0
    assert feature[0] == tree_build_loop(X, y, rows, 1, 0.0, 2, 0, 30)[0][0]


@pytest.mark.parametrize("max_depth", [0, 2, 30])
def test_tree_predict_matches_row_loop_reference(max_depth):
    X, y = make_nonlinear_problem(seed=16, n=400)
    Xq = make_nonlinear_problem(seed=17, n=300)[0]
    # NaN fails every <= test and goes right, like +inf; -inf goes left
    Xq[0, :] = np.nan
    Xq[1, :] = np.inf
    Xq[2, :] = -np.inf
    Xq[3:60:3, 0] = np.nan
    Xq[4:60:3, 1] = np.inf
    Xq[5:60:3, 2] = -np.inf
    arrays = kernels.tree_build(X, y, np.arange(400, dtype=np.int64), 3, 0.0, 4, 0, max_depth)
    np.testing.assert_array_equal(
        kernels.tree_predict(*arrays, Xq), tree_predict_loop(*arrays, Xq)
    )


@pytest.mark.parametrize("fit", ["tree", "bagged_tree", "random_forest"])
def test_single_row_tree_predictions_equal_the_batch_rows(fit):
    X, y = make_nonlinear_problem(seed=18, n=300)
    model = {
        "tree": lambda: fit_tree(X, y, complexity=0.0, min_node=2),
        "bagged_tree": lambda: fit_bagged_tree(X, y, bags=4, seed=3),
        "random_forest": lambda: fit_random_forest(X, y, trees=4, mtry=2, seed=3),
    }[fit]()
    Xq = make_nonlinear_problem(seed=19, n=40)[0]
    Xq[0, :] = np.nan
    Xq[1, 0] = -np.inf
    batch = predict(model, Xq)
    rows = np.array([predict(model, Xq[i : i + 1])[0] for i in range(len(Xq))])
    assert np.array_equal(rows.view(np.int64), batch.view(np.int64))


# ----------------------------------------------------------- bagging / rf

def test_forest_single_tree_full_mtry_equals_single_bag():
    # a forest that scans every feature draws only its bootstraps, so it
    # equals the bagged ensemble of the same seed tree for tree
    X, y = make_nonlinear_problem(seed=11, n=300)
    rf = fit_random_forest(X, y, trees=5, mtry=X.shape[1], seed=99)
    bag = fit_bagged_tree(X, y, bags=5, seed=99)
    assert_same_trees(rf.state.trees, bag.state.trees)
    np.testing.assert_array_equal(predict(rf, X), predict(bag, X))


def assert_same_trees(trees, expected):
    assert len(trees) == len(expected)
    for tree, other in zip(trees, expected):
        for name in NODE_ARRAYS:
            np.testing.assert_array_equal(getattr(tree, name), getattr(other, name))


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=2).map(sorted),
    mtry=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    bagged=st.booleans(),
)
def test_smaller_ensembles_are_prefixes_of_larger_ones(sizes, mtry, seed, bagged):
    X, y = make_nonlinear_problem(seed=20, n=120)
    t = sizes[0]
    if bagged:
        small, large = (fit_bagged_tree(X, y, bags=size, seed=seed) for size in sizes)
    else:
        small, large = (fit_random_forest(X, y, size, mtry, seed) for size in sizes)
    assert_same_trees(small.state.trees, large.state.trees[:t])
    cut = ensemble_prefix(large, t)
    assert cut.hyperparams == small.hyperparams
    assert_same_trees(cut.state.trees, small.state.trees)
    np.testing.assert_array_equal(predict(cut, X), predict(small, X))


def test_ensemble_prefix_needs_a_size_within_the_ensemble():
    X, y = make_nonlinear_problem(seed=21, n=60)
    forest = fit_random_forest(X, y, trees=3, mtry=2, seed=0)
    for size in (0, 4):
        with pytest.raises(ConfigurationError, match=f"in \\[1, 3\\], got {size}"):
            ensemble_prefix(forest, size)


def test_forest_seeded_determinism():
    X, y = make_nonlinear_problem(seed=12, n=300)
    a = fit_random_forest(X, y, trees=5, mtry=2, seed=7)
    b = fit_random_forest(X, y, trees=5, mtry=2, seed=7)
    c = fit_random_forest(X, y, trees=5, mtry=2, seed=8)
    np.testing.assert_array_equal(predict(a, X), predict(b, X))
    assert not np.array_equal(predict(a, X), predict(c, X))


def test_forest_validates_mtry():
    X, y = make_nonlinear_problem(seed=13, n=50)
    with pytest.raises(ConfigurationError):
        fit_random_forest(X, y, trees=3, mtry=9, seed=0)


def test_bagging_beats_single_tree_on_most_seeds():
    """Averaging bootstrap trees should not hurt held-out error."""
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.uniform(-2, 2, size=(500, 4))
        y = np.sin(2 * X[:, 0]) + np.abs(X[:, 1]) + rng.normal(0, 0.3, 500)
        Xv = rng.uniform(-2, 2, size=(300, 4))
        yv = np.sin(2 * Xv[:, 0]) + np.abs(Xv[:, 1]) + rng.normal(0, 0.3, 300)
        single = fit_tree(X, y, complexity=0.0, min_node=5)
        bagged = fit_bagged_tree(X, y, bags=25, seed=seed)
        mse_single = np.mean((yv - predict(single, Xv)) ** 2)
        mse_bagged = np.mean((yv - predict(bagged, Xv)) ** 2)
        wins += mse_bagged <= mse_single
    assert wins >= 8


def test_ols_is_no_better_than_forest_on_interactions():
    X, y = make_nonlinear_problem(seed=14, n=800)
    Xv, yv = make_nonlinear_problem(seed=15, n=400)
    forest = fit_random_forest(X, y, trees=30, mtry=2, seed=0)
    ols = fit_ols(X, y)
    assert np.mean((yv - predict(forest, Xv)) ** 2) < np.mean((yv - predict(ols, Xv)) ** 2)
