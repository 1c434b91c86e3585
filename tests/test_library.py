import ctypes
import io
import json
import multiprocessing
import os
import re
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcast import kernels
from asymcast.data import SynthConfig, split, standardize, synth_generate
from asymcast.errors import (
    ConfigurationError,
    ConvergenceError,
    InvalidInputError,
    TrainingError,
)
from asymcast.losses import (
    CostSpec,
    eval_mean,
    is_symmetric,
    loss_from_text,
    loss_to_text,
    tau_from_weights,
)
from asymcast.models import (
    LibraryConfig,
    LibraryEntry,
    Model,
    ModelLibrary,
    build_library,
    fit_bagged_tree,
    fit_knn,
    fit_nn,
    fit_random_forest,
    load_library,
    predict,
    save_library,
    select_best,
)
from asymcast.models import library as library_module
from asymcast.models.library import PATH_EPOCHS, SUPPORTED_FAMILIES
from asymcast.models.neighbors import _CHUNK_DISTANCES
from asymcast.models.trees import NODE_ARRAYS
from reference_kernels import knn_rank_means

SMALL_CONFIG = LibraryConfig(
    ridge_lambdas=(0.01, 1.0),
    knn_ks=(5, 25),
    tree_complexities=(1e-3,),
    tree_min_nodes=(10,),
    nn_hidden=(2,),
    nn_epochs=120,
    bag_counts=(5,),
    rf_trees=(10,),
    rf_mtrys=(4,),
    aug_a_levels=(0.2, 0.5),
    aug_nn_hidden=(2,),
    master_seed=77,
)


@pytest.fixture(scope="module")
def small_splits():
    ds = synth_generate(SynthConfig(n=700, seed=50))
    std, _ = standardize(split(ds, seed=4))
    return std


@pytest.fixture(scope="module")
def symmetric_library(small_splits):
    return build_library(small_splits, SMALL_CONFIG, augment=False)


@pytest.fixture(scope="module")
def augmented_library(small_splits):
    return build_library(small_splits, SMALL_CONFIG, augment=True)


def test_symmetric_build_marks_everything_symmetric(symmetric_library):
    assert len(symmetric_library) == 1 + 2 + 2 + 1 + 1 + 1 + 1
    assert all(e.provenance == "symmetric" for e in symmetric_library.entries)
    assert symmetric_library.failures == []


def test_augmented_build_adds_asymmetric_models(symmetric_library, augmented_library, path_library):
    assert len(augmented_library) > len(symmetric_library)
    quantiles = [e for e in augmented_library.entries if e.family == "quantile"]
    llc_nets = [
        e for e in augmented_library.entries
        if e.family == "nn" and e.hyperparams.get("loss") == "llc"
    ]
    qqc_nets = [
        e for e in augmented_library.entries
        if e.family == "nn" and e.hyperparams.get("loss") == "qqc"
    ]
    assert len(quantiles) >= 1 and len(llc_nets) >= 1 and len(qqc_nets) >= 1
    for group in (quantiles, llc_nets, qqc_nets):
        assert all(e.provenance == "asymmetric" for e in group)
    # at a = 1 the median regression, llc(0.5, 0.5) and qqc(1, 1) are symmetric
    graded = [e for e in path_library.entries if "a" in e.hyperparams]
    assert sum(e.hyperparams["a"] == 1.0 for e in graded) == 3
    for e in graded:
        assert e.provenance == ("symmetric" if e.hyperparams["a"] == 1.0 else "asymmetric")


def test_cached_validation_predictions_match_fresh_predict(small_splits, augmented_library):
    rng = np.random.default_rng(0)
    for index in rng.choice(len(augmented_library), size=3, replace=False):
        entry = augmented_library.entry(int(index))
        fresh = predict(entry.model, small_splits.validation.features)
        np.testing.assert_array_equal(entry.val_pred, fresh)


def test_build_is_deterministic(small_splits, symmetric_library):
    again = build_library(small_splits, SMALL_CONFIG, augment=False)
    np.testing.assert_array_equal(
        symmetric_library.validation_matrix(), again.validation_matrix()
    )


def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs look usable, and count the forks a build makes."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


# SMALL_CONFIG's augmented build as work units: OLS, two ridge fits, the kNN ks, one tree,
# one symmetric network, the bagging group, the forest group, two quantile fits, two paths
SMALL_UNITS = 12


@pytest.fixture(scope="module")
def one_cpu_library(small_splits):
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_cpus(monkeypatch, 1)
        return build_library(small_splits, SMALL_CONFIG, augment=True)


@pytest.mark.parametrize("cpus", [1, 2, 3, 9])
def test_a_build_across_cpus_equals_the_one_cpu_build(
    small_splits, one_cpu_library, monkeypatch, cpus
):
    # 9 CPUs is more than there are units
    forks = use_cpus(monkeypatch, cpus)
    library = build_library(small_splits, SMALL_CONFIG, augment=True)
    assert len(forks) == (0 if cpus == 1 else min(cpus, SMALL_UNITS))
    assert library.failures == one_cpu_library.failures == []
    assert same_bits(library.validation_matrix(), one_cpu_library.validation_matrix())
    for entry, alone in zip(library.entries, one_cpu_library.entries, strict=True):
        assert entry.hyperparams == alone.hyperparams
        assert entry.model.hyperparams == alone.model.hyperparams
        if entry.family in ("tree", "bagged_tree", "random_forest"):
            assert_same_trees(entry.model.state.trees, alone.model.state.trees)


def test_a_fitter_rebound_in_the_library_module_is_the_one_each_worker_calls(
    small_splits, monkeypatch
):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def marked(*args, **kwargs):
        where = "the caller" if os.getpid() == caller else "a worker"
        raise TrainingError(f"rebound fit_nn ran in {where}")

    monkeypatch.setattr(library_module, "fit_nn", marked)
    config = replace(SMALL_CONFIG, families=("ols", "nn"))
    library = build_library(small_splits, config, augment=True)
    # one symmetric network, then an llc and a qqc path of two levels each
    assert [failure[0] for failure in library.failures] == ["nn"] * 5
    assert {failure[2] for failure in library.failures} == {"rebound fit_nn ran in a worker"}


def blas_threads() -> set:
    """The thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    counts = set()
    for path in paths:
        if "openblas" in os.path.basename(path):
            blas = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(blas, name):
                    getter = getattr(blas, name)
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    counts.add(getter())
                    break
    return counts


def test_each_worker_runs_its_openblas_on_one_thread(small_splits, monkeypatch):
    use_cpus(monkeypatch, 2)
    before = blas_threads()
    assert before, "no OpenBLAS is loaded"

    def report(X, y):
        raise TrainingError(f"BLAS threads {sorted(blas_threads())}")

    monkeypatch.setattr(library_module, "fit_ols", report)
    config = replace(SMALL_CONFIG, families=("ols", "ridge"))
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [("ols", {}, "BLAS threads [1]")]
    # the caller's own threads do not change
    assert blas_threads() == before


def test_build_accepts_no_job_count_but_one(small_splits):
    with pytest.raises(ConfigurationError, match="jobs must be 1, got 2"):
        build_library(small_splits, SMALL_CONFIG, augment=False, jobs=2)


def test_unsupported_family_is_named():
    with pytest.raises(ConfigurationError, match="svr"):
        LibraryConfig(families=("ols", "svr"))
    with pytest.raises(ConfigurationError, match="quintic"):
        LibraryConfig(families=("quintic",))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("master_seed", -1, "master_seed must be >= 0, got -1"),
        ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
        ("master_seed", True, "master_seed must be an integer, got True"),
        ("aug_a_levels", (0.5, float("nan")), r"aug_a_levels must be positive and finite, got nan"),
        ("aug_a_levels", (0.5, -1.0), r"aug_a_levels must be positive and finite, got -1.0"),
        ("aug_a_levels", (0.0, 0.5), r"aug_a_levels must be positive and finite, got 0.0"),
    ],
)
def test_a_bad_seed_or_a_level_is_rejected_before_any_fit(field, value, message):
    # both are read outside the per-plan failure records, so no build may start with them
    with pytest.raises(ConfigurationError, match=message):
        LibraryConfig(families=("ols", "nn"), **{field: value})


def test_a_failed_fit_is_logged_but_not_printed(small_splits, capfd, caplog):
    n_ats = small_splits.ats.target.shape[0]
    config = replace(SMALL_CONFIG, families=("ols", "knn"), knn_ks=(5, n_ats + 1))
    with caplog.at_level("WARNING", logger="asymcast"):
        library = build_library(small_splits, config, augment=False)
    assert len(library.failures) == 1
    assert [r.name for r in caplog.records] == ["asymcast.library"]
    assert "skipping knn" in caplog.records[0].getMessage()
    assert capfd.readouterr().err == ""


def test_every_fitter_and_predict_is_called_through_the_library_module(
    small_splits, augmented_library, monkeypatch
):
    # a tracer rebinds these names in the library module's namespace; on one CPU every fit
    # runs in this process, where the counts are kept (a worker's counts are lost)
    use_cpus(monkeypatch, 1)
    calls = {}

    def counted(name):
        original = getattr(library_module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(library_module, name, wrapper)

    for name in (
        "fit_ols", "fit_ridge", "fit_quantile", "fit_knn", "fit_tree",
        "fit_bagged_tree", "fit_random_forest", "fit_nn", "predict",
    ):
        counted(name)
    library = build_library(small_splits, SMALL_CONFIG, augment=True)
    assert calls == {
        "fit_ols": 1,
        "fit_ridge": 2,
        "fit_knn": 2,
        "fit_tree": 1,
        # one symmetric network, then an llc and a qqc path of two levels each
        "fit_nn": 5,
        "fit_bagged_tree": 1,
        "fit_random_forest": 1,
        "fit_quantile": 2,
        "predict": len(library),
    }
    np.testing.assert_array_equal(
        library.validation_matrix(), augmented_library.validation_matrix()
    )


# ------------------------------------------------ nested tree ensembles

NESTED_CONFIG = replace(
    SMALL_CONFIG,
    families=("bagged_tree", "random_forest"),
    bag_counts=(2, 5),
    rf_trees=(3, 6),
    rf_mtrys=(4, 8),
)


@pytest.fixture(scope="module")
def nested_library(small_splits):
    return build_library(small_splits, NESTED_CONFIG, augment=False)


def refit(entry, splits):
    """The public fitter called with the hyperparameters the entry's model records."""
    fit = {"bagged_tree": fit_bagged_tree, "random_forest": fit_random_forest}[entry.family]
    return fit(splits.ats.features, splits.ats.target, **entry.model.hyperparams)


def assert_same_trees(trees, expected):
    assert len(trees) == len(expected)
    for tree, other in zip(trees, expected):
        for name in NODE_ARRAYS:
            np.testing.assert_array_equal(getattr(tree, name), getattr(other, name))
            assert getattr(tree, name).dtype == getattr(other, name).dtype
        assert tree.depth == other.depth


def test_nested_ensembles_equal_the_public_fitters(small_splits, nested_library):
    assert [e.hyperparams for e in nested_library.entries] == [
        {"bags": 2},
        {"bags": 5},
        {"trees": 3, "mtry": 4},
        {"trees": 3, "mtry": 8},
        {"trees": 6, "mtry": 4},
        {"trees": 6, "mtry": 8},
    ]
    for entry in nested_library.entries:
        model = refit(entry, small_splits)
        assert model.hyperparams == entry.model.hyperparams
        assert_same_trees(entry.model.state.trees, model.state.trees)
        np.testing.assert_array_equal(
            predict(model, small_splits.validation.features), entry.val_pred
        )


def test_each_group_grows_once_and_smaller_entries_are_its_prefixes(nested_library):
    # plan index -> index of the larger plan of its group
    groups = {0: 1, 2: 4, 3: 5}
    seeds = [e.model.hyperparams["seed"] for e in nested_library.entries]
    assert len(set(seeds)) == 3
    for small, large in groups.items():
        small_trees = nested_library.entry(small).model.state.trees
        large_trees = nested_library.entry(large).model.state.trees
        assert seeds[small] == seeds[large]
        assert all(a is b for a, b in zip(small_trees, large_trees))
        assert len(small_trees) < len(large_trees)
        assert_same_trees(small_trees, large_trees[: len(small_trees)])


def test_each_group_calls_its_fitter_once_through_the_library_module(
    small_splits, nested_library, monkeypatch
):
    # a tracer rebinds the fitters in the library module's namespace; one CPU keeps the counts
    use_cpus(monkeypatch, 1)
    calls = []

    def counted(name, fit):
        def wrapper(X, y, size, *args):
            calls.append((name, size) + args[:-1])
            return fit(X, y, size, *args)

        monkeypatch.setattr(library_module, name, wrapper)

    counted("fit_bagged_tree", fit_bagged_tree)
    counted("fit_random_forest", fit_random_forest)
    library = build_library(small_splits, NESTED_CONFIG, augment=False)
    assert calls == [
        ("fit_bagged_tree", 5),
        ("fit_random_forest", 6, 4),
        ("fit_random_forest", 6, 8),
    ]
    np.testing.assert_array_equal(library.validation_matrix(), nested_library.validation_matrix())


def test_a_failed_growth_is_one_fitter_call_and_fails_every_size_of_its_group(
    small_splits, monkeypatch
):
    use_cpus(monkeypatch, 1)  # the stub's calls are counted in this process
    calls = []

    def stub(X, y, bags, seed):
        calls.append(bags)
        raise TrainingError("stubbed bagging failure")

    monkeypatch.setattr(library_module, "fit_bagged_tree", stub)
    config = replace(NESTED_CONFIG, families=("ols", "bagged_tree"), bag_counts=(2, 3))
    library = build_library(small_splits, config, augment=False)
    assert calls == [3]
    assert library.failures == [
        ("bagged_tree", {"bags": 2}, "stubbed bagging failure"),
        ("bagged_tree", {"bags": 3}, "stubbed bagging failure"),
    ]
    assert [e.family for e in library.entries] == ["ols"]


def assert_no_pool_left(threads, open_fds):
    """No worker process, pool thread or file descriptor remains from a build."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert len(os.listdir("/dev/fd")) == open_fds


@pytest.mark.parametrize("failing", ["child", "caller"])
def test_a_tree_that_raises_in_any_worker_is_raised_recorded_and_leaves_no_child(
    small_splits, monkeypatch, failing
):
    # on two usable CPUs pool workers fit the units; on one the caller fits them all
    use_cpus(monkeypatch, 2 if failing == "child" else 1)
    caller = os.getpid()

    def breaking(*args):
        raise TrainingError(f"tree broke in the {'caller' if os.getpid() == caller else 'child'}")

    # patched before the fork, so a worker calls it too
    monkeypatch.setattr(kernels, "tree_build", breaking)
    threads, open_fds = threading.active_count(), len(os.listdir("/dev/fd"))
    X, y = small_splits.ats.features, small_splits.ats.target
    # a standalone fit grows its trees in the caller
    with pytest.raises(TrainingError, match="^tree broke in the caller$"):
        fit_random_forest(X, y, 6, 4, seed=0)
    config = replace(NESTED_CONFIG, families=("ols", "random_forest"), rf_mtrys=(4,))
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [
        ("random_forest", {"trees": 3, "mtry": 4}, f"tree broke in the {failing}"),
        ("random_forest", {"trees": 6, "mtry": 4}, f"tree broke in the {failing}"),
    ]
    assert [e.family for e in library.entries] == ["ols"]
    assert_no_pool_left(threads, open_fds)


# OLS, one quantile regression and an llc and a qqc path of one level: four work units
ONE_LEVEL_CONFIG = replace(SMALL_CONFIG, families=("ols",), aug_a_levels=(0.5,))


def test_a_convergence_error_in_a_worker_keeps_its_type_message_and_best_objective(
    small_splits, monkeypatch, caplog
):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def stub(X, y, tau):
        where = "the caller" if os.getpid() == caller else "a worker"
        raise ConvergenceError(f"stubbed LP stop in {where}", best_objective=1.25)

    monkeypatch.setattr(library_module, "fit_quantile", stub)
    threads, open_fds = threading.active_count(), len(os.listdir("/dev/fd"))
    with caplog.at_level("WARNING", logger="asymcast"):
        library = build_library(small_splits, ONE_LEVEL_CONFIG, augment=True)
    assert library.failures == [
        ("quantile", {"tau": tau_from_weights(0.5, 1.0), "a": 0.5}, "stubbed LP stop in a worker")
    ]
    # the log record holds the exception the worker's fit raised, pickled back
    (record,) = caplog.records
    error = record.args[2]
    assert type(error) is ConvergenceError and error.best_objective == 1.25
    assert_no_pool_left(threads, open_fds)


def test_a_worker_that_dies_breaks_the_build_and_leaves_no_pool(small_splits, monkeypatch):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def dying(X, y, tau):
        if os.getpid() != caller:
            os._exit(3)
        raise AssertionError("the caller fits no unit on two CPUs")

    monkeypatch.setattr(library_module, "fit_quantile", dying)
    threads, open_fds = threading.active_count(), len(os.listdir("/dev/fd"))
    with pytest.raises(BrokenProcessPool):
        build_library(small_splits, ONE_LEVEL_CONFIG, augment=True)
    assert_no_pool_left(threads, open_fds)


def test_a_build_across_cpus_leaves_no_child_thread_or_descriptor(small_splits, monkeypatch):
    use_cpus(monkeypatch, 2)
    threads, open_fds = threading.active_count(), len(os.listdir("/dev/fd"))
    config = replace(NESTED_CONFIG, families=("random_forest", "bagged_tree"), rf_mtrys=(4,))
    library = build_library(small_splits, config, augment=False)
    assert library.failures == []
    assert_no_pool_left(threads, open_fds)


def test_a_size_0_plan_fails_alone_and_the_rest_of_its_group_fits(small_splits, nested_library):
    config = replace(NESTED_CONFIG, bag_counts=(0, 2, 5), rf_trees=(3, 0, 6))
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [
        ("bagged_tree", {"bags": 0}, "need at least one bag, got 0"),
        ("random_forest", {"trees": 0, "mtry": 4}, "need at least one tree, got 0"),
        ("random_forest", {"trees": 0, "mtry": 8}, "need at least one tree, got 0"),
    ]
    assert [e.hyperparams for e in library.entries] == [
        e.hyperparams for e in nested_library.entries
    ]
    for entry in library.entries:
        model = refit(entry, small_splits)
        np.testing.assert_array_equal(
            predict(model, small_splits.validation.features), entry.val_pred
        )
    # a family with no sizes plans nothing
    library = build_library(small_splits, replace(NESTED_CONFIG, bag_counts=()), augment=False)
    assert [e.family for e in library.entries] == ["random_forest"] * 4


@pytest.mark.parametrize(
    "sizes,family,params,message",
    [
        ({"bag_counts": (2, 2.5)}, "bagged_tree", {"bags": 2.5}, "bags must be an integer, got 2.5"),
        ({"bag_counts": (2.5, 5)}, "bagged_tree", {"bags": 2.5}, "bags must be an integer, got 2.5"),
        (
            {"rf_trees": (3, 4.5), "rf_mtrys": (4,)},
            "random_forest",
            {"trees": 4.5, "mtry": 4},
            "trees must be an integer, got 4.5",
        ),
        (
            {"rf_trees": (4.5, 6), "rf_mtrys": (4,)},
            "random_forest",
            {"trees": 4.5, "mtry": 4},
            "trees must be an integer, got 4.5",
        ),
    ],
    ids=["bags-largest", "bags-smallest", "trees-largest", "trees-smallest"],
)
def test_a_size_that_is_not_an_integer_fails_alone_naming_its_parameter(
    small_splits, sizes, family, params, message
):
    config = replace(NESTED_CONFIG, families=("ols", family), **sizes)
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [(family, params, message)]
    (entry,) = [e for e in library.entries if e.family == family]
    model = refit(entry, small_splits)
    assert_same_trees(entry.model.state.trees, model.state.trees)
    assert same_bits(predict(model, small_splits.validation.features), entry.val_pred)


def test_build_wires_each_group_to_one_walk_and_one_index_over_one_memo(small_splits):
    config = replace(
        NESTED_CONFIG, families=("knn", "tree", "bagged_tree", "random_forest"), knn_ks=(25, 5)
    )
    library = build_library(small_splits, config, augment=False)
    states = {}
    for entry in library.entries:
        key = (entry.family, entry.hyperparams.get("mtry"))
        states.setdefault(key, []).append(entry.model.state)
    (tree,) = states.pop(("tree", None))
    assert tree.shared is None
    knn = states.pop(("knn", None))
    index = knn[0].index
    assert all(state.index is index for state in knn) and index.ks == (5, 25)
    assert same_bits(index.X, small_splits.ats.features)
    assert same_bits(index.y, small_splits.ats.target)
    # each group: a bagging group and a forest group per mtry, two sizes each
    assert len(states) == 3
    for group in states.values():
        small, large = sorted(group, key=lambda state: len(state.trees))
        assert small.shared is large.shared is not None
        assert large.shared.trees == large.trees
        assert all(a is b for a, b in zip(small.trees, large.trees))
    assert len(query_memos(library)) == 1


def test_a_k_that_is_not_an_integer_fails_alone(small_splits):
    config = replace(SMALL_CONFIG, families=("knn",), knn_ks=(3, 5.5, 10))
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [("knn", {"k": 5.5}, "k_neighbors must be an integer, got 5.5")]
    assert [entry.hyperparams["k"] for entry in library.entries] == [3, 10]
    X, y = small_splits.ats.features, small_splits.ats.target
    for entry in library.entries:
        alone = fit_knn(X, y, entry.hyperparams["k"])
        assert same_bits(entry.val_pred, predict(alone, small_splits.validation.features))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_grid_value_is_one_recorded_failure_naming_it(small_splits, bad):
    config = replace(
        SMALL_CONFIG, families=("ridge", "tree"), ridge_lambdas=(1.0, bad), tree_complexities=(bad,)
    )
    library = build_library(small_splits, config, augment=False)
    assert library.failures == [
        ("ridge", {"lambda": bad}, f"lam must be finite and >= 0, got {bad!r}"),
        ("tree", {"complexity": bad, "min_node": 10},
         f"complexity must be finite and >= 0, got {bad!r}"),
    ]
    assert [entry.hyperparams for entry in library.entries] == [{"lambda": 1.0}]


def test_nested_ensembles_survive_save_and_load(tmp_path, small_splits, nested_library):
    path = tmp_path / "library.npz"
    save_library(nested_library, path)
    loaded = load_library(path)
    X = small_splits.test.features
    for original, rebuilt in zip(nested_library.entries, loaded.entries):
        assert rebuilt.hyperparams == original.hyperparams
        assert rebuilt.model.hyperparams == original.model.hyperparams
        assert_same_trees(rebuilt.model.state.trees, original.model.state.trees)
        np.testing.assert_array_equal(rebuilt.val_pred, original.val_pred)
        np.testing.assert_array_equal(predict(rebuilt.model, X), predict(original.model, X))


# ------------------------------------------------------------- select_best

def stub_library(predictions, actuals):
    entries = [
        LibraryEntry(i, {"id": i}, Model("stub", {}, None, 1), np.asarray(p, dtype=float))
        for i, p in enumerate(predictions)
    ]
    return ModelLibrary(entries, np.asarray(actuals, dtype=float), False, 0)


REFERENCE_ACTUALS = [53.66, 45.36, 67.07]
REFERENCE_FORECASTS = [
    [62.90, 35.76, 66.90],
    [65.63, 47.91, 65.63],
    [61.26, 38.92, 64.50],
]


def test_select_best_picks_reference_third_model_under_mse():
    library = stub_library(REFERENCE_FORECASTS, REFERENCE_ACTUALS)
    assert select_best(library, CostSpec("squared_error")) == 2


def test_select_best_single_candidate():
    library = stub_library([[0.5, 0.6]], [0.55, 0.58])
    assert select_best(library, CostSpec("qqc", a=0.3, b=1.0)) == 0


def test_select_best_prefers_low_biased_model_under_asymmetry():
    actuals = np.full(50, 0.6)
    unbiased = actuals + np.tile([0.05, -0.05], 25)
    low_biased = actuals - 0.05  # always underestimates: cheap when a << b
    library = stub_library([unbiased, low_biased], actuals)
    assert select_best(library, CostSpec("squared_error")) == 0
    assert select_best(library, CostSpec("qqc", a=0.1, b=1.0)) == 1


def test_select_best_breaks_ties_by_lowest_index():
    library = stub_library([[1.0, 1.0], [1.0, 1.0]], [0.9, 1.1])
    assert select_best(library, CostSpec("squared_error")) == 0


def test_select_best_returns_entry_index_of_a_sub_library():
    full = stub_library(REFERENCE_FORECASTS + [REFERENCE_ACTUALS], REFERENCE_ACTUALS)
    sub = ModelLibrary([full.entry(0), full.entry(2)], full.val_actuals, False, 0)
    assert select_best(sub, CostSpec("squared_error")) == 2


def test_entry_looks_up_the_index_select_best_returns():
    full = stub_library([np.full(3, 0.5 + 0.1 * i) for i in range(8)], [0.75, 0.8, 0.7])
    sub = ModelLibrary([full.entry(i) for i in (1, 2, 4, 6)], full.val_actuals, False, 0)
    best = select_best(sub, CostSpec("llc", a=0.2, b=1.0))
    assert best == 2
    assert sub.entry(best) is full.entry(2)
    assert [sub.entry(i).index for i in (1, 2, 4, 6)] == [1, 2, 4, 6]
    for missing in (0, 3, 5, 7, 8, -1):
        with pytest.raises(InvalidInputError, match=f"no entry with index {missing}"):
            sub.entry(missing)


def noisy_forecasts(entries: int, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    actuals = rng.uniform(0.3, 1.0, size=rows)
    return [actuals + rng.normal(0, 0.05, size=rows) for _ in range(entries)], actuals


@pytest.mark.parametrize("family", ["squared_error", "llc", "qqc", "lec"])
def test_select_best_is_the_first_argmin_of_each_entry_cost(family):
    distinct, actuals = noisy_forecasts(20, 2400, seed=3)
    # every forecast twice, in blocks far apart, so the best cost is tied
    predictions = distinct + distinct[::-1] + distinct[:2]
    spec = CostSpec(family, a=0.3, b=1.0)
    costs = [eval_mean(spec, actuals, p) for p in predictions]
    assert costs.count(min(costs)) >= 2
    library = stub_library(predictions, actuals)
    assert select_best(library, spec) == costs.index(min(costs))


def test_select_best_memory_stays_below_half_an_entries_by_rows_array():
    predictions, actuals = noisy_forecasts(42, 2400, seed=8)
    library = stub_library(predictions, actuals)
    half_matrix = 42 * 2400 * 8 // 2
    for family in ("llc", "qqc", "lec"):
        spec = CostSpec(family, a=0.3, b=1.0)
        select_best(library, spec)
        tracemalloc.start()
        try:
            select_best(library, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < half_matrix, (family, peak)


def test_select_best_rejects_empty_library():
    library = ModelLibrary([], np.array([1.0]), False, 0)
    with pytest.raises(InvalidInputError):
        select_best(library, CostSpec("squared_error"))


# ------------------------------------------------ asymmetric network paths

# the default a-grid and nn_epochs; one narrow width keeps the 20 fits quick
PATH_CONFIG = LibraryConfig(families=("ols",), aug_nn_hidden=(2,), master_seed=5)
DEFAULT_PATH = sorted(PATH_CONFIG.aug_a_levels, reverse=True)


@pytest.fixture(scope="module")
def path_library(small_splits):
    return build_library(small_splits, PATH_CONFIG, augment=True)


def networks(library) -> dict:
    """The asymmetric networks by (loss, a)."""
    return {
        (e.hyperparams["loss"], e.hyperparams["a"]): e.model
        for e in library.entries
        if e.family == "nn" and "loss" in e.hyperparams
    }


def refit_along_path(splits, model):
    """The state of ``fit_nn`` called along the path ``model``'s hyperparameters record."""
    params = model.hyperparams
    own = {"loss": loss_to_text(model.loss_mode), "epochs": params["epochs"]}
    state = None
    for level in params["path"] + [own]:
        state = fit_nn(
            splits.ats.features,
            splits.ats.target,
            params["hidden_nodes"],
            level["epochs"],
            params["seed"],
            loss_from_text(level["loss"]),
            start=state,
        ).state
    return state


def same_network(state, other) -> bool:
    return all(
        np.array_equal(getattr(state, name).view(np.int64), getattr(other, name).view(np.int64))
        for name in ("W1", "b1", "v", "v0")
    )


def path_loss(family, a) -> CostSpec:
    if family == "llc":
        tau = tau_from_weights(a, 1.0)
        return CostSpec("llc", a=tau, b=1.0 - tau)
    return CostSpec("qqc", a=a, b=1.0)


def path_seed(master_seed, family, hidden_nodes) -> int:
    """The seed of a network path, which is named by its loss label and width."""
    label = {"loss": "llc"} if family == "llc" else {"b": 1.0, "loss": "qqc"}
    identity = {"family": "nn", "hidden_nodes": hidden_nodes, **label}
    return library_module._model_seed(master_seed, identity)


def test_each_path_level_is_fit_nn_called_along_its_recorded_path(
    tmp_path, small_splits, path_library
):
    path = tmp_path / "library.npz"
    save_library(path_library, path)
    loaded = networks(load_library(path))
    built = networks(path_library)
    assert len(built) == 20 and loaded.keys() == built.keys()
    for (family, a), model in built.items():
        # from a = 1.0 down, every level records the levels before it
        above = [level for level in DEFAULT_PATH if level > a]
        assert model.hyperparams["path"] == [
            {"loss": loss_to_text(path_loss(family, level)), "epochs": 100 if level == 1.0 else 30}
            for level in above
        ]
        assert model.hyperparams["seed"] == path_seed(5, family, 2)
        rebuilt = loaded[family, a]
        assert rebuilt.hyperparams == model.hyperparams
        assert same_network(rebuilt.state, model.state)
        # the record read back from the bundle reproduces the entry bit for bit
        assert same_network(refit_along_path(small_splits, rebuilt), model.state)


def test_later_path_levels_record_at_most_path_epochs_iterations(path_library):
    for e in path_library.entries:
        if e.family != "nn":
            continue
        params = e.model.hyperparams
        later = bool(params.get("path"))
        assert params["epochs"] == (min(PATH_CONFIG.nn_epochs, PATH_EPOCHS) if later else 100)
        assert 1 <= params["iterations"] <= (PATH_EPOCHS if later else 100)


def test_each_path_level_is_one_fit_nn_call_through_the_library_module(
    small_splits, path_library, monkeypatch
):
    # a tracer rebinds fit_nn in the library module's namespace; one CPU keeps the counts
    use_cpus(monkeypatch, 1)
    calls = []

    def counted(X, y, hidden_nodes, epochs, seed, loss_mode, start=None):
        model = fit_nn(X, y, hidden_nodes, epochs, seed, loss_mode, start=start)
        calls.append((loss_mode.family, model.hyperparams["epochs"]))
        return model

    monkeypatch.setattr(library_module, "fit_nn", counted)
    library = build_library(small_splits, PATH_CONFIG, augment=True)
    path = [100] + [PATH_EPOCHS] * 9
    assert calls == [("llc", cap) for cap in path] + [("qqc", cap) for cap in path]
    np.testing.assert_array_equal(library.validation_matrix(), path_library.validation_matrix())


def test_a_failed_path_level_fails_alone_and_the_next_starts_from_the_last_fitted(
    small_splits, path_library, monkeypatch
):
    failing = {path_loss("llc", 0.5), path_loss("qqc", 1.0)}

    def stub(X, y, hidden_nodes, epochs, seed, loss_mode, start=None):
        if loss_mode in failing:
            raise TrainingError(f"stubbed failure at {loss_mode.describe()}")
        return fit_nn(X, y, hidden_nodes, epochs, seed, loss_mode, start=start)

    monkeypatch.setattr(library_module, "fit_nn", stub)
    library = build_library(small_splits, PATH_CONFIG, augment=True)
    monkeypatch.undo()
    assert library.failures == [
        ("nn", {"hidden_nodes": 2, "a": 0.5, "loss": "llc"},
         f"stubbed failure at {path_loss('llc', 0.5).describe()}"),
        ("nn", {"hidden_nodes": 2, "a": 1.0, "b": 1.0, "loss": "qqc"},
         "stubbed failure at qqc(a=1, b=1)"),
    ]
    nets, whole = networks(library), networks(path_library)
    assert len(nets) == 18
    # the llc levels above the failure are the ones of a build without it
    for a in (1.0, 0.9, 0.8, 0.7, 0.6):
        assert same_network(nets["llc", a].state, whole["llc", a].state)
    # a = 0.4 starts from a = 0.6, the last llc level that fitted
    assert [loss_from_text(level["loss"]) for level in nets["llc", 0.4].hyperparams["path"]] == [
        path_loss("llc", a) for a in (1.0, 0.9, 0.8, 0.7, 0.6)
    ]
    # no qqc level fitted before a = 0.9, so it starts cold with nn_epochs
    cold = nets["qqc", 0.9].hyperparams
    assert (cold["path"], cold["epochs"]) == ([], PATH_CONFIG.nn_epochs)
    assert nets["qqc", 0.8].hyperparams["path"] == [
        {"loss": loss_to_text(path_loss("qqc", 0.9)), "epochs": 100}
    ]
    for key in (("llc", 0.4), ("llc", 0.1), ("qqc", 0.9), ("qqc", 0.8)):
        assert same_network(refit_along_path(small_splits, nets[key]), nets[key].state)


def test_a_width_the_network_config_rejects_fails_each_path_level_alone(small_splits):
    config = replace(PATH_CONFIG, aug_nn_hidden=(0,))
    library = build_library(small_splits, config, augment=True)
    assert library.failures == [
        ("nn", {"hidden_nodes": 0, "a": a, **label}, "need at least one hidden node, got 0")
        for label in ({"loss": "llc"}, {"b": 1.0, "loss": "qqc"})
        for a in config.aug_a_levels
    ]
    assert [e.family for e in library.entries] == ["ols"] + ["quantile"] * 10


def test_a_path_runs_in_a_order_and_caps_later_levels_at_nn_epochs_when_lower(small_splits):
    config = replace(PATH_CONFIG, aug_a_levels=(0.3, 0.6, 0.45), nn_epochs=12)
    library = build_library(small_splits, config, augment=True)
    for family in ("llc", "qqc"):
        entries = [e for e in library.entries if e.hyperparams.get("loss") == family]
        paths = {e.hyperparams["a"]: e.model.hyperparams["path"] for e in entries}
        assert [loss_from_text(level["loss"]) for level in paths[0.3]] == [
            path_loss(family, 0.6), path_loss(family, 0.45)
        ]
        assert paths[0.6] == [] and len(paths[0.45]) == 1
        assert {e.model.hyperparams["epochs"] for e in entries} == {12}
        # every level draws the seed of its path, whatever its a-grid
        assert {e.model.hyperparams["seed"] for e in entries} == {
            path_seed(config.master_seed, family, 2)
        }


# ------------------------------------------------------------- seeds

def entry_name(entry) -> tuple:
    return entry.family, tuple(sorted(entry.hyperparams.items()))


def test_entries_keep_their_forecasts_whatever_other_plans_the_grids_hold(small_splits):
    config = LibraryConfig(master_seed=5)
    library = build_library(small_splits, config, augment=True)
    forecasts = {entry_name(e): e.val_pred for e in library.entries}
    # each seeded plan or group draws one seed of its own
    seeds = {}
    for e in library.entries:
        if "seed" in e.model.hyperparams:
            group = {k: v for k, v in e.hyperparams.items() if k not in ("bags", "trees", "a")}
            seeds.setdefault((e.family, *sorted(group.items())), set()).add(
                e.model.hyperparams["seed"]
            )
    # 4 symmetric networks, bagging, 2 forest groups and 2 network paths
    assert len(seeds) == 9 and all(len(drawn) == 1 for drawn in seeds.values())
    assert len(set.union(*seeds.values())) == 9
    without_knn = tuple(family for family in config.families if family != "knn")
    flipped = {"rf_mtrys": config.rf_mtrys[::-1], "ridge_lambdas": config.ridge_lambdas[::-1]}
    for other, common in (
        (replace(config, families=without_knn, tree_min_nodes=(10,)), 51),
        (replace(config, **flipped), 60),
    ):
        pruned = build_library(small_splits, other, augment=True)
        assert pruned.failures == [] and len(pruned) == common
        for entry in pruned.entries:
            assert same_bits(entry.val_pred, forecasts[entry_name(entry)]), entry_name(entry)


# ------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path, small_splits, augmented_library):
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    loaded = load_library(path)
    assert len(loaded) == len(augmented_library)
    assert loaded.augmented is True
    X = small_splits.test.features
    for original, rebuilt in zip(augmented_library.entries, loaded.entries):
        assert original.family == rebuilt.family
        assert original.provenance == rebuilt.provenance
        assert original.hyperparams == rebuilt.hyperparams
        assert original.model.hyperparams == rebuilt.model.hyperparams
        np.testing.assert_array_equal(original.val_pred, rebuilt.val_pred)
        np.testing.assert_allclose(
            predict(original.model, X), predict(rebuilt.model, X), atol=1e-12
        )
    assert loaded.failures == []

    # a fit that fails (k above the ATS row count) survives the round trip
    n_ats = small_splits.ats.target.shape[0]
    config = replace(SMALL_CONFIG, families=("ols", "knn"), knn_ks=(5, n_ats + 1))
    failing = build_library(small_splits, config, augment=False)
    assert [(family, params["k"]) for family, params, _ in failing.failures] == [("knn", n_ats + 1)]
    save_library(failing, path)
    assert load_library(path).failures == failing.failures


def test_grids_of_numpy_integers_save_and_load(tmp_path, tiny_splits):
    config = replace(
        TINY_CONFIG,
        families=("knn", "nn", "bagged_tree", "random_forest"),
        knn_ks=(np.int64(5),),
        nn_hidden=(np.int64(2),),
        nn_epochs=np.int64(10),
        bag_counts=(np.int32(2),),
        rf_trees=(np.int64(2),),
        rf_mtrys=(np.int64(4),),
        aug_nn_hidden=(np.int64(2),),
        master_seed=np.int64(7),
    )
    library = build_library(tiny_splits, config, augment=True)
    assert library.failures == []
    # a plan's seed hashes its json text, where a numpy integer reads as the Python int
    python_ints = replace(
        config,
        knn_ks=(5,),
        nn_hidden=(2,),
        nn_epochs=10,
        bag_counts=(2,),
        rf_trees=(2,),
        rf_mtrys=(4,),
        aug_nn_hidden=(2,),
        master_seed=7,
    )
    expected = build_library(tiny_splits, python_ints, augment=True)
    for entry, other in zip(library.entries, expected.entries, strict=True):
        assert same_bits(entry.val_pred, other.val_pred)
    path = tmp_path / "library.npz"
    save_library(library, path)
    loaded = load_library(path)
    assert loaded.master_seed == 7 and len(loaded) == len(library)
    X_val = tiny_splits.validation.features
    for original, rebuilt in zip(library.entries, loaded.entries):
        assert rebuilt.hyperparams == original.hyperparams
        assert rebuilt.model.hyperparams == original.model.hyperparams
        assert np.array_equal(rebuilt.val_pred.view(np.int64), original.val_pred.view(np.int64))
        assert np.array_equal(predict(rebuilt.model, X_val), original.val_pred)


def test_qqc_networks_fit_at_a_weight_ratio_of_50_and_smooth_qqc_bundles_do_not_load(
    tmp_path, small_splits, augmented_library
):
    config = replace(SMALL_CONFIG, families=("ols",), aug_a_levels=(0.02,))
    library = build_library(small_splits, config, augment=True)
    assert library.failures == []
    assert sorted(e.family for e in library.entries) == ["nn", "nn", "ols", "quantile"]
    qqc_net = next(e for e in library.entries if e.hyperparams.get("loss") == "qqc")
    assert qqc_net.model.loss_mode == CostSpec("qqc", a=0.02, b=1.0)

    # the qqc_approx family is gone, so a bundle naming a network trained on it fails
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    index = next(e.index for e in augmented_library.entries if e.hyperparams.get("loss") == "qqc")

    def set_loss(manifest):
        manifest["entries"][index]["loss_mode"] = "family=qqc_approx\na=0.02\nb=1.0\n"

    rewrite_bundle(path, set_loss)
    with pytest.raises(ConfigurationError, match="unknown loss family 'qqc_approx'"):
        load_library(path)


def rewrite_bundle(path, edit, **extra_arrays):
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    arrays.update(extra_arrays)
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    edit(manifest)
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize("version", [1, 2, 4])
def test_bundles_of_other_versions_do_not_load(tmp_path, symmetric_library, version):
    path = tmp_path / "library.npz"
    save_library(symmetric_library, path)
    rewrite_bundle(path, lambda manifest: manifest.update(version=version))
    with pytest.raises(ConfigurationError, match=f"version {version} does not load.*refit"):
        load_library(path)


def write_npz_without_manifest(path):
    np.savez(path, val_actuals=np.zeros(3))


def write_text(path):
    path.write_text("index,family\n0,ols\n")


def write_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.arange(3))


@pytest.mark.parametrize(
    "write", [write_npz_without_manifest, write_text, write_npy, lambda path: path.touch()],
    ids=["npz-without-manifest", "text", "npy", "empty"],
)
def test_a_file_that_is_not_a_bundle_is_named_and_not_loaded(tmp_path, write):
    path = tmp_path / "library.npz"
    write(path)
    message = f"^{re.escape(str(path))} is not a library bundle"
    with pytest.raises(ConfigurationError, match=message):
        load_library(path)


def cut_short(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def write_manifest(text):
    def write(path):
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        arrays["manifest"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    return write


@pytest.mark.parametrize(
    "damage,message",
    [
        (cut_short, "it is not an .npz archive with a manifest"),
        (write_manifest("{not json"), "its manifest is not json with a version"),
        (write_manifest('{"entries": []}'), "its manifest is not json with a version"),
    ],
    ids=["cut-short", "manifest-not-json", "manifest-without-version"],
)
def test_a_damaged_bundle_is_named_and_not_loaded(tmp_path, symmetric_library, damage, message):
    path = tmp_path / "library.npz"
    save_library(symmetric_library, path)
    damage(path)
    expected = f"{path} is not a library bundle: {message}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(expected)}"):
        load_library(path)


def test_loaded_provenance_follows_each_loss_not_the_manifest(tmp_path, small_splits):
    config = LibraryConfig(families=("ols",), aug_a_levels=(0.5, 1.0), aug_nn_hidden=(2,))
    library = build_library(small_splits, config, augment=True)
    path = tmp_path / "library.npz"
    save_library(library, path)
    swap = {"symmetric": "asymmetric", "asymmetric": "symmetric"}

    # bundles written before the manifest dropped "provenance" carry one per entry
    def insert_swapped_provenance(manifest):
        for meta in manifest["entries"]:
            meta["provenance"] = swap[library.entry(meta["index"]).provenance]

    rewrite_bundle(path, insert_swapped_provenance)
    loaded = load_library(path)
    for entry in loaded.entries:
        assert entry.provenance == (
            "symmetric" if is_symmetric(entry.model.loss_mode) else "asymmetric"
        )

    def symmetric_side(lib):
        """The entries of the symmetric sub-library, formed as the benchmark forms it."""
        return [e.index for e in lib.entries if e.provenance == "symmetric"]

    # OLS and the three a = 1 learners; the a = 0.5 learners are asymmetric
    assert symmetric_side(loaded) == symmetric_side(library)
    assert len(symmetric_side(library)) == 4 and len(library) == 7


def test_each_manifest_record_has_the_seven_keys(tmp_path, augmented_library):
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    with np.load(path) as bundle:
        manifest = json.loads(bytes(bundle["manifest"]).decode("utf-8"))
    keys = {
        "index", "family", "hyperparams", "model_hyperparams", "n_features", "loss_mode", "state"
    }
    assert len(manifest["entries"]) == len(augmented_library)
    for meta, entry in zip(manifest["entries"], augmented_library.entries, strict=True):
        assert set(meta) == keys
        assert (meta["index"], meta["family"]) == (entry.index, entry.family)


def test_a_locator_that_names_no_state_is_named_by_its_entry(tmp_path, symmetric_library):
    path = tmp_path / "library.npz"
    save_library(symmetric_library, path)
    index = symmetric_library.entries[1].index

    def drop_locator(manifest):
        manifest["entries"][1]["state"] = {"hidden": 2}

    rewrite_bundle(path, drop_locator)
    with pytest.raises(ConfigurationError, match=f"bundle entry {index} locates no model state"):
        load_library(path)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def query_memos(library) -> set:
    """Ids of the memos of the tree groups and kNN indexes of a built or loaded library."""
    states = [e.model.state for e in library.entries]
    memos = {id(s.shared.memo) for s in states if getattr(s, "shared", None) is not None}
    return memos | {id(s.index.memo) for s in states if hasattr(s, "index")}


def test_bundle_stores_shared_trees_and_training_sets_once(tmp_path, tiny_splits):
    n_ats = tiny_splits.ats.target.shape[0]
    config = replace(
        TINY_CONFIG,
        families=("knn", "tree", "bagged_tree", "random_forest"),
        knn_ks=(3, 5, n_ats + 1),
        bag_counts=(2, 3),
        rf_trees=(2, 3),
    )
    library = build_library(tiny_splits, config, augment=False)
    assert [family for family, _, _ in library.failures] == ["knn"]
    path = tmp_path / "library.npz"
    save_library(library, path)
    with np.load(path) as bundle:
        files = set(bundle.files)
        stored_trees = bundle["tree_nodes"].shape[0]
    # one tree, then the 3 trees of the bagging group and of the forest group
    assert stored_trees == 1 + 3 + 3
    assert {"knn0_X", "knn0_y"} <= files and "knn1_X" not in files
    loaded = load_library(path)
    knn = [e.model.state for e in loaded.entries if e.family == "knn"]
    assert len({id(state.index) for state in knn}) == 1
    assert knn[0].index.ks == (3, 5)
    assert len(query_memos(loaded)) == 1
    X = tiny_splits.test.features
    for entry, before in zip(loaded.entries, library.entries, strict=True):
        assert entry.model.hyperparams == before.model.hyperparams
        assert same_bits(entry.val_pred, before.val_pred)
        assert same_bits(predict(entry.model, tiny_splits.validation.features), before.val_pred)
        assert same_bits(predict(entry.model, X), predict(before.model, X))
    assert loaded.failures == library.failures


def test_single_tree_entries_that_name_one_stored_tree_share_one_walk(
    tmp_path, small_splits, monkeypatch
):
    # two plans with the same settings grow equal trees; a bundle that
    # stores the tree once names it for both entries
    config = replace(SMALL_CONFIG, families=("ols", "tree"), tree_min_nodes=(10, 10))
    library = build_library(small_splits, config, augment=False)
    path = tmp_path / "library.npz"
    save_library(library, path)
    with np.load(path) as bundle:
        assert bundle["tree_nodes"].shape[0] == 2
        nodes = int(bundle["tree_nodes"][0])
        one_tree = {f"tree_{name}": bundle[f"tree_{name}"][:nodes] for name in NODE_ARRAYS}
        one_tree.update(tree_nodes=bundle["tree_nodes"][:1], tree_depths=bundle["tree_depths"][:1])

    def name_the_first_tree(manifest):
        manifest["entries"][2]["state"] = {"trees": [0, 1]}

    rewrite_bundle(path, name_the_first_tree, **one_tree)
    loaded = load_library(path)
    first, second = (loaded.entry(i).model.state for i in (1, 2))
    assert first.shared is second.shared is not None
    assert first.trees[0] is second.trees[0]
    walked = []
    tree_predict = kernels.tree_predict

    def counted(*args):
        walked.append(args[0])
        return tree_predict(*args)

    monkeypatch.setattr(kernels, "tree_predict", counted)
    X_val = small_splits.validation.features
    for entry in loaded.entries[1:]:
        assert same_bits(predict(entry.model, X_val), entry.val_pred)
    assert len(walked) == 1


def test_load_shares_one_index_per_training_set(tmp_path, small_splits, augmented_library):
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    knn = [e.index for e in augmented_library.entries if e.family == "knn"]
    loaded = load_library(path)
    assert len({id(loaded.entry(i).model.state.index) for i in knn}) == 1

    # an entry whose stored training rows differ keeps an index of its own
    odd = knn[0]
    with np.load(path) as bundle:
        X, y = bundle["knn0_X"][1:], bundle["knn0_y"][1:]

    def point_at_second_set(manifest):
        manifest["entries"][odd]["state"] = {"knn": 1}

    rewrite_bundle(path, point_at_second_set, knn1_X=X, knn1_y=y)
    loaded = load_library(path)
    alone, *rest = (loaded.entry(i).model.state for i in knn)
    assert alone.index.ks == (alone.k,)
    assert all(state.index is rest[0].index and state.index is not alone.index for state in rest)
    Xq = small_splits.test.features
    np.testing.assert_array_equal(
        predict(loaded.entry(odd).model, Xq), predict(fit_knn(X, y, alone.k), Xq)
    )


def test_loaded_knn_reproduces_validation_forecasts_under_distance_ties(tmp_path):
    ds = synth_generate(SynthConfig(n=600, seed=52))
    std, _ = standardize(split(ds, seed=6))
    # integer features give integer squared distances, so neighbours tie
    rounded = {
        name: replace(part, features=np.round(part.features))
        for name, part in (("ats", std.ats), ("validation", std.validation))
    }
    tied = replace(std, **rounded)
    X, y, X_val = tied.ats.features, tied.ats.target, tied.validation.features
    config = replace(SMALL_CONFIG, families=("knn",), knn_ks=(1, 5, 25))
    library = build_library(tied, config, augment=False)
    # ties at the boundary of some k decide which rows count
    d2 = np.sort(np.einsum("ij,ij->i", X, X) - 2.0 * (X_val @ X.T), axis=1)
    assert any((d2[:, k - 1] == d2[:, k]).any() for k in config.knn_ks)
    expected = knn_rank_means(X, y, config.knn_ks, X_val, _CHUNK_DISTANCES)
    for k, entry in zip(config.knn_ks, library.entries, strict=True):
        assert same_bits(entry.val_pred, expected[k])
    path = tmp_path / "library.npz"
    save_library(library, path)
    for entry in load_library(path).entries:
        np.testing.assert_array_equal(predict(entry.model, X_val), entry.val_pred)


# ------------------------------------------------ round-trip property

TINY_CONFIG = LibraryConfig(
    ridge_lambdas=(1.0,),
    knn_ks=(3,),
    tree_complexities=(1e-3,),
    tree_min_nodes=(10,),
    nn_hidden=(2,),
    nn_epochs=10,
    bag_counts=(2,),
    rf_trees=(2,),
    rf_mtrys=(4,),
    aug_a_levels=(0.5,),
    aug_nn_hidden=(2,),
)


@pytest.fixture(scope="module")
def tiny_splits():
    ds = synth_generate(SynthConfig(n=200, seed=51))
    std, _ = standardize(split(ds, seed=5))
    return std


@settings(max_examples=10, deadline=None)
@given(
    families=st.sets(st.sampled_from(SUPPORTED_FAMILIES), min_size=1, max_size=4),
    master_seed=st.integers(0, 2**32 - 1),
    augment=st.booleans(),
    k_too_large=st.booleans(),
)
@example(families=set(SUPPORTED_FAMILIES), master_seed=0, augment=True, k_too_large=True)
def test_library_survives_save_and_load(tiny_splits, families, master_seed, augment, k_too_large):
    n_ats = tiny_splits.ats.target.shape[0]
    # a kNN k above the ATS row count fails to fit and leaves a failure record
    config = replace(
        TINY_CONFIG,
        families=tuple(sorted(families | {"knn"})) if k_too_large else tuple(sorted(families)),
        master_seed=master_seed,
        knn_ks=(3, n_ats + 1) if k_too_large else (3,),
    )
    library = build_library(tiny_splits, config, augment)
    assert len(library.failures) == k_too_large
    buffer = io.BytesIO()
    save_library(library, buffer)
    buffer.seek(0)
    loaded = load_library(buffer)

    assert loaded.failures == library.failures
    assert (loaded.augmented, loaded.master_seed) == (augment, master_seed)
    np.testing.assert_array_equal(loaded.val_actuals, library.val_actuals)
    X = tiny_splits.test.features
    assert len(loaded) == len(library)
    for original, rebuilt in zip(library.entries, loaded.entries):
        assert (rebuilt.index, rebuilt.family, rebuilt.provenance) == (
            original.index, original.family, original.provenance
        )
        assert rebuilt.hyperparams == original.hyperparams
        assert rebuilt.model.hyperparams == original.model.hyperparams
        assert rebuilt.model.loss_mode == original.model.loss_mode
        np.testing.assert_array_equal(rebuilt.val_pred, original.val_pred)
        np.testing.assert_array_equal(predict(rebuilt.model, X), predict(original.model, X))
