import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcast.data import SynthConfig, split, standardize, synth_generate
from asymcast.errors import ConfigurationError, InvalidInputError
from asymcast.losses import CostSpec, loss_to_text
from asymcast.models import (
    LibraryConfig,
    LibraryEntry,
    ModelLibrary,
    build_library,
    fit_bagged_tree,
    fit_knn,
    fit_random_forest,
    load_library,
    predict,
    save_library,
    select_best,
)
from asymcast.models import library as library_module
from asymcast.models.library import SUPPORTED_FAMILIES
from asymcast.models.trees import NODE_ARRAYS

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


def test_augmented_build_adds_asymmetric_models(symmetric_library, augmented_library):
    assert len(augmented_library) > len(symmetric_library)
    quantiles = [e for e in augmented_library.entries if e.family == "quantile"]
    pinball_nets = [
        e for e in augmented_library.entries
        if e.family == "nn" and e.hyperparams.get("loss") == "pinball"
    ]
    smooth_nets = [
        e for e in augmented_library.entries
        if e.family == "nn" and e.hyperparams.get("loss") == "qqc_approx"
    ]
    assert len(quantiles) >= 1 and len(pinball_nets) >= 1 and len(smooth_nets) >= 1
    for group in (quantiles, pinball_nets, smooth_nets):
        assert all(e.provenance == "asymmetric" for e in group)


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


def test_build_accepts_no_job_count_but_one(small_splits):
    with pytest.raises(ConfigurationError, match="jobs must be 1, got 2"):
        build_library(small_splits, SMALL_CONFIG, augment=False, jobs=2)


def test_unsupported_family_is_named():
    with pytest.raises(ConfigurationError, match="svr"):
        LibraryConfig(families=("ols", "svr"))
    with pytest.raises(ConfigurationError, match="quintic"):
        LibraryConfig(families=("quintic",))


def test_a_failed_fit_is_logged_but_not_printed(small_splits, capfd, caplog):
    n_ats = small_splits.ats.target.shape[0]
    config = replace(SMALL_CONFIG, families=("ols", "knn"), knn_ks=(5, n_ats + 1))
    with caplog.at_level("WARNING", logger="asymcast"):
        library = build_library(small_splits, config, augment=False)
    assert len(library.failures) == 1
    assert [r.name for r in caplog.records] == ["asymcast.library"]
    assert "skipping knn" in caplog.records[0].getMessage()
    assert capfd.readouterr().err == ""


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
    # a tracer rebinds the fitters in the library module's namespace
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
        LibraryEntry(i, "stub", {"id": i}, "symmetric", None, np.asarray(p, dtype=float))
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
    assert select_best(full, CostSpec("squared_error"), families=("stub",)) == 3
    with pytest.raises(InvalidInputError, match="families"):
        select_best(full, CostSpec("squared_error"), families=("ols",))


def test_select_best_rejects_empty_library():
    library = ModelLibrary([], np.array([1.0]), False, 0)
    with pytest.raises(InvalidInputError):
        select_best(library, CostSpec("squared_error"))


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


def test_smooth_qqc_beyond_its_weight_ratio_is_skipped_in_builds_and_loads_from_bundles(
    tmp_path, small_splits, augmented_library
):
    # a=0.02, b=1 is a weight ratio of 50: the network is not trained
    config = replace(SMALL_CONFIG, families=("ols",), aug_a_levels=(0.02,))
    library = build_library(small_splits, config, augment=True)
    assert [params.get("loss") for family, params, _ in library.failures] == ["qqc_approx"]
    assert "not monotone" in library.failures[0][2]
    assert sorted(e.family for e in library.entries) == ["nn", "ols", "quantile"]

    # a bundle whose network was trained on such a spec still loads and predicts
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    index = next(
        e.index for e in augmented_library.entries if e.hyperparams.get("loss") == "qqc_approx"
    )
    beyond = loss_to_text(CostSpec("qqc_approx", a=0.02, b=1.0))

    def set_loss(manifest):
        manifest["entries"][index]["loss_mode"] = beyond

    rewrite_bundle(path, set_loss)
    loaded = load_library(path).entry(index).model
    assert loaded.loss_mode == CostSpec("qqc_approx", a=0.02, b=1.0)
    X = small_splits.test.features
    np.testing.assert_array_equal(
        predict(loaded, X), predict(augmented_library.entry(index).model, X)
    )


def rewrite_bundle(path, edit, drop=(), **extra_arrays):
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files if key not in drop}
    arrays.update(extra_arrays)
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    edit(manifest)
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def test_version_1_bundle_loads_and_unknown_versions_are_rejected(
    tmp_path, small_splits, symmetric_library
):
    path = tmp_path / "library.npz"
    save_library(symmetric_library, path)

    def as_version_1(manifest):
        # version 1 wrote no failure records or fitted hyperparameters,
        # and kNN entries named their algorithm
        manifest["version"] = 1
        del manifest["failures"]
        for meta in manifest["entries"]:
            del meta["model_hyperparams"]
            if meta["family"] == "knn":
                meta["hyperparams"]["algorithm"] = "brute"

    # older bundles also stored each network's hidden activation, 0 for logistic,
    # and a single tree's node arrays without counts
    (net,) = [e.index for e in symmetric_library.entries if e.family == "nn"]
    (tree,) = [e.index for e in symmetric_library.entries if e.family == "tree"]
    rewrite_bundle(
        path, as_version_1, drop=(f"e{tree}_counts",), **{f"e{net}_act": np.array([0])}
    )
    loaded = load_library(path)
    assert loaded.failures == []
    np.testing.assert_array_equal(loaded.validation_matrix(), symmetric_library.validation_matrix())
    assert loaded.entry(net).model.hyperparams == symmetric_library.entry(net).hyperparams
    X = np.eye(symmetric_library.entry(net).model.n_features)
    np.testing.assert_array_equal(
        predict(loaded.entry(net).model, X), predict(symmetric_library.entry(net).model, X)
    )
    knn = [loaded.entry(e.index).model.state for e in symmetric_library.entries if e.family == "knn"]
    assert len({id(state.index) for state in knn}) == 1
    assert knn[0].index.ks == SMALL_CONFIG.knn_ks
    X = small_splits.test.features
    assert len(loaded.entry(tree).model.state.trees) == 1
    np.testing.assert_array_equal(
        predict(loaded.entry(tree).model, X), predict(symmetric_library.entry(tree).model, X)
    )

    rewrite_bundle(path, lambda manifest: None, **{f"e{net}_act": np.array([1])})
    with pytest.raises(ConfigurationError, match="activation code 1"):
        load_library(path)

    rewrite_bundle(path, lambda manifest: manifest.update(version=3))
    with pytest.raises(ConfigurationError, match="version 3"):
        load_library(path)


def test_load_shares_one_index_per_training_set(tmp_path, small_splits, augmented_library):
    path = tmp_path / "library.npz"
    save_library(augmented_library, path)
    knn = [e.index for e in augmented_library.entries if e.family == "knn"]
    loaded = load_library(path)
    assert len({id(loaded.entry(i).model.state.index) for i in knn}) == 1

    # an entry whose stored training rows differ keeps an index of its own
    odd = knn[0]
    with np.load(path) as bundle:
        X, y = bundle[f"e{odd}_X"][1:], bundle[f"e{odd}_y"][1:]
    rewrite_bundle(path, lambda manifest: None, **{f"e{odd}_X": X, f"e{odd}_y": y})
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
    # ties decide which rows count: ranking at each k alone gives other means
    assert any(
        not np.array_equal(predict(fit_knn(X, y, k), X_val), entry.val_pred)
        for k, entry in zip(config.knn_ks, library.entries)
    )
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
