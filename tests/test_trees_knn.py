import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from asymcast.models import neighbors as neighbors_module
from asymcast.models.base import QueryMemo
from asymcast.models.neighbors import _CHUNK_DISTANCES, KnnState, NeighborIndex
from asymcast.models.trees import (
    ENSEMBLE_COMPLEXITY,
    ENSEMBLE_MIN_NODE,
    MAX_DEPTH,
    NODE_ARRAYS,
    ForestState,
    TreeState,
    TreeSums,
    ensemble_prefix,
)
from reference_kernels import knn_rank_means, tree_build_loop, tree_depth, tree_predict_loop


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
    index = NeighborIndex(X, y, ks, QueryMemo())
    expected = ranked_mean_oracle(X, y, Xq)
    for k in ks:
        np.testing.assert_array_equal(KnnState(index, k).predict(Xq), expected[:, k - 1])


def test_shared_knn_predicts_the_bits_of_a_model_fitted_alone():
    X, y = make_nonlinear_problem(seed=20, n=300)
    Xq = make_nonlinear_problem(seed=21, n=400)[0]
    ks = (3, 5, 10, 25, 100)
    # one index over the training rows and every k, as build_library wires it
    index = NeighborIndex(X, y, (25, 3, 100, 5, 10, 3), QueryMemo())
    assert index.ks == ks
    for k in (10, 3, 100, 5, 25):
        assert same_bits(KnnState(index, k).predict(Xq), predict(fit_knn(X, y, k), Xq))


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
    index = NeighborIndex(X, y, (3, 10), QueryMemo())
    expected = [NeighborIndex(X, y, (3, 10), QueryMemo()).means(Q) for Q in queries]
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


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.integers(1, 12),
    n=st.integers(1, 60),
    m=st.integers(1, 3),
    queries=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(distinct=3, n=40, m=2, queries=30, seed=0, data=None)
def test_neighbor_ranking_equals_the_stable_sort_oracle(distinct, n, m, queries, seed, data):
    # half-integer coordinates and repeated training rows give equal distances
    rng = np.random.default_rng(seed)
    points = np.round(2 * rng.normal(size=(distinct, m))) / 2
    X = points[rng.integers(0, distinct, n)]
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    Q = np.round(2 * rng.normal(size=(queries, m))) / 2
    if data is None:
        ks, chunk = [1, n - 1, n], 3 * n
    else:
        ks = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=4), label="ks")
        # a few query rows per chunk, so the query spans chunks
        chunk = data.draw(st.integers(1, 4 * n), label="chunk_distances")
    expected = knn_rank_means(X, y, ks, Q, chunk)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighbors_module, "_CHUNK_DISTANCES", chunk)
        got = NeighborIndex(X, y, ks, QueryMemo()).means(Q)
    assert sorted(got) == sorted(expected)
    for k in expected:
        assert same_bits(got[k], expected[k])


@pytest.mark.parametrize("top", [150, 200])
def test_neighbor_ranking_breaks_ties_by_training_row(top):
    # 200 training rows on 5 points: every query sees long runs of equal distances
    rng = np.random.default_rng(40)
    X = rng.integers(-2, 3, size=(5, 2)).astype(float)[rng.integers(0, 5, 200)]
    y = rng.normal(size=200)
    Q = rng.integers(-2, 3, size=(50, 2)).astype(float)
    d2 = np.einsum("ij,ij->i", X, X) - 2.0 * (Q @ X.T)
    # where the default sort keeps equal distances in row order, this test shows nothing
    assert not np.array_equal(np.argsort(d2, axis=1), np.argsort(d2, axis=1, kind="stable"))
    ks = (1, 7, top)
    got = NeighborIndex(X, y, ks, QueryMemo()).means(Q)
    expected = knn_rank_means(X, y, ks, Q, _CHUNK_DISTANCES)
    for k in ks:
        assert same_bits(got[k], expected[k])


@pytest.mark.parametrize("k", [1, 3, 7, 40])
def test_a_k_alone_forecasts_the_bits_of_the_same_k_in_any_group(k):
    # integer points: equal distances at the boundary of every k
    rng = np.random.default_rng(45)
    X = rng.integers(-3, 4, size=(300, 2)).astype(float)
    y = rng.normal(size=300)
    Q = rng.integers(-3, 4, size=(50, 2)).astype(float)
    d2 = np.sort(np.einsum("ij,ij->i", X, X) - 2.0 * (Q @ X.T), axis=1)
    assert (d2[:, k - 1] == d2[:, k]).any()
    alone = NeighborIndex(X, y, (k,), QueryMemo()).means(Q)[k]
    for group in ((k, k + 1), (k, 2 * k + 3), (1, k, 100), (k, 299), (k, 300)):
        assert same_bits(NeighborIndex(X, y, group, QueryMemo()).means(Q)[k], alone), group


def test_neighbor_distances_keep_the_bits_of_the_unscaled_product():
    X, _ = make_nonlinear_problem(seed=41, n=300)
    Q = make_nonlinear_problem(seed=42, n=100)[0]
    index = NeighborIndex(X, np.zeros(300), (1,), QueryMemo())
    d2 = Q @ index._m2.T
    d2 += index._sq
    assert same_bits(d2, np.einsum("ij,ij->i", X, X)[None, :] - 2.0 * (Q @ X.T))


def test_knn_validates_configuration():
    X, y = make_nonlinear_problem(seed=5, n=30)
    with pytest.raises(ConfigurationError):
        fit_knn(X, y, k_neighbors=31)
    with pytest.raises(ConfigurationError):
        fit_knn(X, y, k_neighbors=0)


@pytest.mark.parametrize("k", [5.5, 5.0, True, "5"])
def test_a_k_that_is_not_an_integer_is_named(k):
    X, y = make_nonlinear_problem(seed=5, n=30)
    with pytest.raises(ConfigurationError, match=f"k_neighbors must be an integer, got {k!r}"):
        fit_knn(X, y, k_neighbors=k)
    with pytest.raises(ConfigurationError, match="k_neighbors must be an integer"):
        NeighborIndex(X, y, (3, k, 10), QueryMemo())
    # numpy integers are integers
    assert NeighborIndex(X, y, (np.int64(3), np.int32(10)), QueryMemo()).ks == (3, 10)


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
    *fast, depth = kernels.tree_build(*args)
    *reference, reference_depth = tree_build_loop(*args)
    assert len(fast) == len(reference) == len(NODE_ARRAYS)
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # the recorded depth is the one a walk over the levels finds
    assert depth == reference_depth == tree_depth(fast[0], fast[2], fast[3])

    Xq = make_tied_problem(seed=7, n=200)[0]
    np.testing.assert_array_equal(
        kernels.tree_predict(*fast, depth, Xq), tree_predict_loop(*reference, Xq)
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
    *arrays, depth = kernels.tree_build(
        X, y, np.arange(400, dtype=np.int64), 3, 0.0, 4, 0, max_depth
    )
    assert depth == tree_depth(arrays[0], arrays[2], arrays[3]) <= max_depth
    np.testing.assert_array_equal(
        kernels.tree_predict(*arrays, depth, Xq), tree_predict_loop(*arrays, Xq)
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
            assert getattr(tree, name).dtype == getattr(other, name).dtype
        assert tree.depth == other.depth


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


@pytest.mark.parametrize("fit", [fit_tree, fit_ols], ids=["tree", "ols"])
def test_ensemble_prefix_names_the_families_it_takes(fit):
    X, y = make_nonlinear_problem(seed=21, n=60)
    fitted = fit(X, y)
    message = f"takes a bagged_tree or random_forest model, got a {fitted.family} model"
    with pytest.raises(ConfigurationError, match=message):
        ensemble_prefix(fitted, 1)


@pytest.mark.parametrize("fit", [
    lambda X, y, size: fit_bagged_tree(X, y, bags=size, seed=31),
    # mtry < m, so every tree also draws its split features from its seed
    lambda X, y, size: fit_random_forest(X, y, size, 2, seed=31),
], ids=["bagged", "forest"])
def test_a_standalone_ensemble_grows_its_trees_in_one_loop_in_the_caller(monkeypatch, fit):
    X, y = make_nonlinear_problem(seed=22, n=150)
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(9)), raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    grown = fit(X, y, 7)
    assert forks == []
    # each tree draws its bootstrap rows, then its seed, from the ensemble's one stream
    rng = np.random.default_rng(31)
    mtry = grown.hyperparams.get("mtry", X.shape[1])
    expected = []
    for _ in range(7):
        boot = rng.integers(0, X.shape[0], size=X.shape[0]).astype(np.int64)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        arrays = kernels.tree_build(
            X, y, boot, ENSEMBLE_MIN_NODE, ENSEMBLE_COMPLEXITY, mtry, tree_seed, MAX_DEPTH
        )
        expected.append(TreeState(*arrays))
    assert_same_trees(grown.state.trees, expected)
    for t in (1, 4):
        assert_same_trees(fit(X, y, t).state.trees, grown.state.trees[:t])


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


@pytest.mark.parametrize(
    "name, fit",
    [
        ("min_node", lambda X, y, count: fit_tree(X, y, 1e-3, min_node=count)),
        ("bags", lambda X, y, count: fit_bagged_tree(X, y, bags=count, seed=0)),
        ("trees", lambda X, y, count: fit_random_forest(X, y, trees=count, mtry=2, seed=0)),
        ("mtry", lambda X, y, count: fit_random_forest(X, y, trees=2, mtry=count, seed=0)),
        ("size", lambda X, y, count: ensemble_prefix(fit_bagged_tree(X, y, 3, 0), count)),
    ],
)
@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_tree_counts_that_are_not_integers_are_named(name, fit, count):
    X, y = make_nonlinear_problem(seed=13, n=50)
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {count!r}"):
        fit(X, y, count)
    # numpy integers are integers
    assert predict(fit(X, y, np.int64(2)), X).shape == (50,)


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


# ---------------------------------------------------------- shared trees

def nested_forests(sizes=(2, 4, 7), seed=5, memo=None):
    """Prefixes of one forest over one ``TreeSums``, as a library wires them, and unshared ones."""
    X, y = make_nonlinear_problem(seed=30, n=200)
    trees = fit_random_forest(X, y, trees=max(sizes), mtry=2, seed=seed).state.trees
    sums = TreeSums(trees, sizes, QueryMemo() if memo is None else memo)
    shared = [ForestState(trees[:size], sums) for size in sizes]
    alone = [ForestState(trees[:size]) for size in sizes]
    return shared, alone


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(range(4)))
def test_shared_forests_predict_the_bits_of_unshared_ones_in_any_order(order):
    shared, alone = nested_forests(sizes=(1, 3, 3, 7))
    Q = make_nonlinear_problem(seed=31, n=150)[0]
    for i in order:
        assert same_bits(shared[i].predict(Q), alone[i].predict(Q))


def test_shared_forests_walk_a_query_changed_in_place_again():
    shared, alone = nested_forests()
    Q = make_nonlinear_problem(seed=32, n=100)[0]
    first = shared[0].predict(Q)
    assert same_bits(first, alone[0].predict(Q))
    # a returned forecast is the caller's own
    first[:] = np.nan
    assert same_bits(shared[0].predict(Q), alone[0].predict(Q))
    Q[:10] += 1.0
    for state, expected in zip(shared, alone):
        assert same_bits(state.predict(Q), expected.predict(Q))


def test_one_query_walks_each_distinct_tree_once(monkeypatch):
    shared, alone = nested_forests()
    other = fit_bagged_tree(*make_nonlinear_problem(seed=33, n=200), bags=3, seed=1).state
    walked = []
    tree_predict = kernels.tree_predict

    def counted(feature, *args):
        walked.append(id(feature))
        return tree_predict(feature, *args)

    monkeypatch.setattr(kernels, "tree_predict", counted)
    Q = make_nonlinear_problem(seed=34, n=50)[0]
    for state in shared + [other]:
        state.predict(Q)
    assert len(walked) == len(set(walked)) == 7 + 3
    # the same query again is answered from the memo, an unshared forest walks again
    for state in shared + [other]:
        state.predict(Q.copy())
    assert len(walked) == 7 + 3 + 3


def test_a_forest_that_shares_nothing_keeps_the_direct_path():
    X, y = make_nonlinear_problem(seed=35, n=200)
    lone = fit_tree(X, y).state
    # the fitters and a prefix of an unshared ensemble share no walk
    ensemble = fit_random_forest(X, y, trees=3, mtry=2, seed=0)
    assert lone.shared is None and ensemble.state.shared is None
    assert ensemble_prefix(ensemble, 2).state.shared is None
    Q = make_nonlinear_problem(seed=36, n=50)[0]
    assert same_bits(lone.predict(Q), lone.trees[0].predict(Q))


def test_shared_forests_answer_concurrent_queries_separately():
    shared, alone = nested_forests(sizes=(2, 5))
    queries = [make_nonlinear_problem(seed=38 + t, n=40)[0] for t in range(4)]
    expected = [[state.predict(Q) for state in alone] for Q in queries]
    wrong = []

    def work(t):
        for round_ in range(60):
            i = (t + round_) % len(shared)
            if not same_bits(shared[i].predict(queries[t]), expected[t][i]):
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


def test_a_dropped_memo_is_freed_without_the_cycle_collector():
    memo = QueryMemo()
    shared, _ = nested_forests(memo=memo)
    index = NeighborIndex(*make_nonlinear_problem(seed=43, n=100), (3,), memo)
    knn = KnnState(index, 3)
    Q = make_nonlinear_problem(seed=44, n=50)[0]
    knn.predict(Q)
    shared[0].predict(Q)
    ref = weakref.ref(memo)
    gc.disable()
    try:
        # a memo in a reference cycle would keep its query until a collection
        del memo, index, knn, shared
        assert ref() is None
    finally:
        gc.enable()
