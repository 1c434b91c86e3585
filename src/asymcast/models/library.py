"""Base-model library: grid construction, best-model selection, persistence.

``build_library`` fits every (family, hyperparameter) combination of the
configured grids on the ATS rows and caches each model's validation
predictions. With ``augment=True`` the library additionally receives
models trained against asymmetric losses: linear quantile regressions
over a grid of quantile levels, quantile-loss networks, and networks
trained on the smooth quadratic-quadratic loss; these carry provenance
"asymmetric". Every network, symmetric or not, is trained by L-BFGS on
the same full-batch objective, at most ``nn_epochs`` iterations.

Bagged trees, and random forests of one configured ``mtry``, each form
a group whose sizes nest. A group grows one ensemble at its largest size
with the seed of its first plan, and every plan of the group keeps the
prefix of its own size, which is what the public fitter returns for that
size and seed (``trees.ensemble_prefix``). Each model's hyperparameters
record the group seed, so the fitter called with them reproduces it.
Against a seed per plan, only the forecasts of a group's later plans
change; on the default grid those are ``bags=25`` and the two 60-tree
forests, and the library grows 151 trees instead of 221.

kNN models fitted on the same rows share one neighbour index, which
ranks a query's neighbours once for all their k (``neighbors.share_index``).
``build_library`` groups them after fitting, before the first validation
forecast; ``load_library`` groups the kNN entries whose stored training
rows are equal, which are the same groups, so a loaded model reproduces
its stored validation forecasts bit for bit.

A fit that fails is skipped and recorded in ``ModelLibrary.failures``.
``save_library`` writes the entries and those failure records to one
versioned ``.npz`` bundle, so a loaded library still says which fits
failed and why. Each manifest entry keeps both the grid label of its
plan and the hyperparameters the model was fitted with.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from ..data import DataSplits
from ..errors import ConfigurationError, InvalidInputError
from ..losses import CostSpec, eval_mean, loss_from_text, loss_to_text, tau_from_weights
from .base import (
    FAMILY_BAGGED_TREE,
    FAMILY_KNN,
    FAMILY_NN,
    FAMILY_OLS,
    FAMILY_QUANTILE,
    FAMILY_RANDOM_FOREST,
    FAMILY_RIDGE,
    FAMILY_TREE,
    Model,
    predict,
)
from .linear import LinearState, fit_ols, fit_quantile, fit_ridge
from .neighbors import KnnState, NeighborIndex, fit_knn, share_index
from .neural import NNConfig, NNState, fit_nn
from .trees import (
    NODE_ARRAYS,
    ForestState,
    TreeState,
    ensemble_prefix,
    fit_bagged_tree,
    fit_random_forest,
    fit_tree,
)

log = logging.getLogger("asymcast.library")

SUPPORTED_FAMILIES = (
    FAMILY_OLS,
    FAMILY_RIDGE,
    FAMILY_KNN,
    FAMILY_TREE,
    FAMILY_NN,
    FAMILY_BAGGED_TREE,
    FAMILY_RANDOM_FOREST,
)

DEFAULT_A_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class LibraryConfig:
    families: tuple = SUPPORTED_FAMILIES
    ridge_lambdas: tuple = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
    knn_ks: tuple = (3, 5, 10, 25, 50, 100)
    tree_complexities: tuple = (1e-4, 1e-3, 1e-2)
    tree_min_nodes: tuple = (10, 40)
    nn_hidden: tuple = (2, 4, 8, 16)
    nn_epochs: int = 100  # L-BFGS iteration cap
    bag_counts: tuple = (10, 25)
    rf_trees: tuple = (30, 60)
    rf_mtrys: tuple = (4, 8)
    aug_a_levels: tuple = DEFAULT_A_LEVELS
    aug_nn_hidden: tuple = (6,)
    master_seed: int = 0

    def __post_init__(self):
        for family in self.families:
            if family not in SUPPORTED_FAMILIES:
                raise ConfigurationError(
                    f"unknown model family {family!r}; supported: {SUPPORTED_FAMILIES}"
                )


@dataclass(frozen=True)
class LibraryEntry:
    index: int
    family: str
    hyperparams: dict
    provenance: str
    model: Model | None
    val_pred: np.ndarray


@dataclass
class ModelLibrary:
    entries: list
    val_actuals: np.ndarray
    augmented: bool
    master_seed: int
    failures: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def validation_matrix(self) -> np.ndarray:
        """Per-model validation predictions, one row per entry."""
        return np.vstack([entry.val_pred for entry in self.entries])

    def entry(self, index: int) -> LibraryEntry:
        return self.entries[index]


def _model_seed(master_seed: int, plan_index: int) -> int:
    return int(np.random.SeedSequence(entropy=(master_seed, plan_index)).generate_state(1)[0])


def _nested_ensembles(fit, sizes):
    """Per-size fitters for one group of tree ensembles that share one growth.

    ``fit(X, y, size, seed)`` is a bagging or forest fitter. The first
    fitter called grows ``fit`` once at the largest of ``sizes``, and each
    returns the first trees of that ensemble, as many as its own size;
    by the prefix property (see ``trees``) that is what ``fit`` returns
    for the size. The growth is kept only as long as the fitters are, one
    ``build_library`` call. A size below 1 calls ``fit`` itself, so it
    fails alone, with the fitter's own error.
    """
    grown = {}

    def fitter(size):
        def fit_prefix(X, y, seed):
            if size < 1:
                return fit(X, y, size, seed)
            if seed not in grown:
                grown[seed] = fit(X, y, max(sizes), seed)
            return ensemble_prefix(grown[seed], size)

        return fit_prefix

    return fitter


def _build_plans(config: LibraryConfig, augment: bool, n_features: int):
    """Enumerate (family, hyperparams, fitter, seed_index) plans in a stable order.

    A plan's fit draws the seed of plan ``seed_index``: its own index, or
    for bagging and forests the first plan of its group. A group is every
    bagged-tree plan, or every forest plan of one configured ``mtry``; it
    grows one ensemble at its largest size, and each of its plans takes
    the prefix of its own size (``_nested_ensembles``).
    """
    plans = []

    def add(family, params, fitter, seed_index=None):
        plans.append((family, params, fitter, len(plans) if seed_index is None else seed_index))

    fams = config.families
    if FAMILY_OLS in fams:
        add(FAMILY_OLS, {}, lambda X, y, seed: fit_ols(X, y))
    if FAMILY_RIDGE in fams:
        for lam in config.ridge_lambdas:
            add(FAMILY_RIDGE, {"lambda": lam}, lambda X, y, seed, lam=lam: fit_ridge(X, y, lam))
    if FAMILY_KNN in fams:
        for k in config.knn_ks:
            add(FAMILY_KNN, {"k": k}, lambda X, y, seed, k=k: fit_knn(X, y, k))
    if FAMILY_TREE in fams:
        for cp in config.tree_complexities:
            for mn in config.tree_min_nodes:
                add(
                    FAMILY_TREE,
                    {"complexity": cp, "min_node": mn},
                    lambda X, y, seed, cp=cp, mn=mn: fit_tree(X, y, cp, mn),
                )
    if FAMILY_NN in fams:
        for k in config.nn_hidden:
            add(
                FAMILY_NN,
                {"hidden_nodes": k},
                lambda X, y, seed, k=k: fit_nn(X, y, _nn_config(config, k, seed)),
            )
    if FAMILY_BAGGED_TREE in fams:
        first, grow = len(plans), _nested_ensembles(
            lambda X, y, bags, seed: fit_bagged_tree(X, y, bags, seed), config.bag_counts
        )
        for bags in config.bag_counts:
            add(FAMILY_BAGGED_TREE, {"bags": bags}, grow(bags), first)
    if FAMILY_RANDOM_FOREST in fams:
        groups = {
            mtry: _nested_ensembles(
                lambda X, y, trees, seed, mtry=mtry: fit_random_forest(
                    X, y, trees, min(mtry, n_features), seed
                ),
                config.rf_trees,
            )
            for mtry in config.rf_mtrys
        }
        first = {}
        for trees in config.rf_trees:
            for mtry in config.rf_mtrys:
                first.setdefault(mtry, len(plans))
                add(
                    FAMILY_RANDOM_FOREST,
                    {"trees": trees, "mtry": mtry},
                    groups[mtry](trees),
                    first[mtry],
                )

    if augment:
        for a in config.aug_a_levels:
            tau = tau_from_weights(a, 1.0)
            add(
                FAMILY_QUANTILE,
                {"tau": tau, "a": a},
                lambda X, y, seed, tau=tau: fit_quantile(X, y, tau),
            )
        for a in config.aug_a_levels:
            tau = tau_from_weights(a, 1.0)
            for k in config.aug_nn_hidden:
                add(
                    FAMILY_NN,
                    {"hidden_nodes": k, "tau": tau, "a": a, "loss": "pinball"},
                    lambda X, y, seed, tau=tau, k=k: fit_nn(
                        X, y, _nn_config(config, k, seed), CostSpec("pinball", tau=tau)
                    ),
                )
        for a in config.aug_a_levels:
            for k in config.aug_nn_hidden:
                add(
                    FAMILY_NN,
                    {"hidden_nodes": k, "a": a, "b": 1.0, "loss": "qqc_approx"},
                    lambda X, y, seed, a=a, k=k: fit_nn(
                        X, y, _nn_config(config, k, seed), CostSpec("qqc_approx", a=a, b=1.0)
                    ),
                )
    return plans


def _nn_config(config: LibraryConfig, hidden: int, seed: int) -> NNConfig:
    return NNConfig(hidden_nodes=hidden, epochs=config.nn_epochs, seed=seed)


def build_library(
    splits: DataSplits, config: LibraryConfig, augment: bool, jobs: int = 1
) -> ModelLibrary:
    """Fit the configured grids on ATS rows in plan order, then cache validation forecasts.

    Individual fit or forecast failures are logged and skipped; only a
    fully failed build raises. ``jobs`` must be 1: fits run one after
    another.
    """
    if jobs != 1:
        raise ConfigurationError(f"build_library fits sequentially; jobs must be 1, got {jobs}")
    X = splits.ats.features
    y = splits.ats.target
    X_val = splits.validation.features
    plans = _build_plans(config, augment, X.shape[1])
    fitted, entries, failures = [], [], []
    for family, params, fitter, seed_index in plans:
        try:
            model = fitter(X, y, _model_seed(config.master_seed, seed_index))
        except Exception as exc:  # noqa: BLE001 - skip-and-log is the contract
            log.warning("skipping %s %s: %s", family, params, exc)
            failures.append((family, params, str(exc)))
            continue
        fitted.append((family, params, model))
    # before the first forecast, so every kNN model ranks at the largest k
    # of its group, as it will after load_library
    share_index([model.state for _, _, model in fitted])
    for family, params, model in fitted:
        try:
            val_pred = predict(model, X_val)
        except Exception as exc:  # noqa: BLE001
            log.warning("skipping %s %s: %s", family, params, exc)
            failures.append((family, params, str(exc)))
            continue
        entries.append(
            LibraryEntry(len(entries), family, params, model.provenance, model, val_pred)
        )
    if not entries:
        raise InvalidInputError("every model fit failed; library is empty")
    return ModelLibrary(entries, splits.validation.target.copy(), augment, config.master_seed, failures)


def select_best(library: ModelLibrary, criterion: CostSpec, families=None) -> int:
    """Index of the validation-best entry under the criterion; ties break low.

    ``families`` optionally restricts the candidate set (e.g. linear-only).
    """
    if len(library.entries) == 0:
        raise InvalidInputError("cannot select from an empty library")
    candidates = [e for e in library.entries if families is None or e.family in families]
    if not candidates:
        raise InvalidInputError(f"no library entry matches families {families}")
    scores = eval_mean(criterion, library.val_actuals, np.vstack([e.val_pred for e in candidates]))
    # argmin takes the first of equal scores; entry indices need not be contiguous
    return candidates[int(np.argmin(scores))].index


# ------------------------------------------------------------- persistence

_BUNDLE_VERSION = 2  # version 1 bundles carry no failure records


def _state_arrays(model: Model, prefix: str) -> dict:
    state = model.state
    if isinstance(state, LinearState):
        return {f"{prefix}beta": state.beta}
    if isinstance(state, KnnState):
        return {f"{prefix}X": state.index.X, f"{prefix}y": state.index.y}
    if isinstance(state, ForestState):
        arrays = {
            f"{prefix}{name}": np.concatenate([getattr(t, name) for t in state.trees])
            for name in NODE_ARRAYS
        }
        arrays[f"{prefix}counts"] = np.array(
            [t.feature.shape[0] for t in state.trees], dtype=np.int64
        )
        return arrays
    if isinstance(state, NNState):
        return {
            f"{prefix}W1": state.W1,
            f"{prefix}b1": state.b1,
            f"{prefix}v": state.v,
            f"{prefix}v0": state.v0,
        }
    raise ConfigurationError(f"cannot serialize model state {type(state).__name__}")


def _rebuild_state(family: str, hyperparams: dict, arrays: dict, prefix: str):
    if family in (FAMILY_OLS, FAMILY_RIDGE, FAMILY_QUANTILE):
        return LinearState(arrays[f"{prefix}beta"])
    if family == FAMILY_KNN:
        k = hyperparams["k"]
        return KnnState(NeighborIndex(arrays[f"{prefix}X"], arrays[f"{prefix}y"], (k,)), k)
    if family in (FAMILY_TREE, FAMILY_BAGGED_TREE, FAMILY_RANDOM_FOREST):
        nodes = [arrays[f"{prefix}{name}"] for name in NODE_ARRAYS]
        # older bundles store a single tree without counts
        counts = arrays.get(f"{prefix}counts", [nodes[0].shape[0]])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return ForestState(
            [
                TreeState(tuple(a[lo:hi] for a in nodes))
                for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
        )
    if family == FAMILY_NN:
        # older bundles name the hidden activation: 0 logistic, 1 tanh
        act = arrays.get(f"{prefix}act")
        if act is not None and int(act[0]) != 0:
            raise ConfigurationError(
                f"network {prefix[:-1]} uses activation code {int(act[0])}; only the "
                f"logistic hidden layer (code 0) is supported, so refit this library"
            )
        return NNState(
            arrays[f"{prefix}W1"],
            arrays[f"{prefix}b1"],
            arrays[f"{prefix}v"],
            arrays[f"{prefix}v0"],
        )
    raise ConfigurationError(f"cannot rebuild model family {family!r}")


def save_library(library: ModelLibrary, path) -> None:
    """Persist the library as a versioned npz bundle with a json manifest."""
    arrays = {"val_actuals": library.val_actuals}
    manifest = {
        "version": _BUNDLE_VERSION,
        "augmented": library.augmented,
        "master_seed": library.master_seed,
        "entries": [],
        "failures": library.failures,
    }
    for entry in library.entries:
        prefix = f"e{entry.index}_"
        arrays[f"{prefix}val_pred"] = entry.val_pred
        arrays.update(_state_arrays(entry.model, prefix))
        manifest["entries"].append(
            {
                "index": entry.index,
                "family": entry.family,
                "hyperparams": entry.hyperparams,
                "model_hyperparams": entry.model.hyperparams,
                "provenance": entry.provenance,
                "n_features": entry.model.n_features,
                "loss_mode": loss_to_text(entry.model.loss_mode),
            }
        )
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_library(path) -> ModelLibrary:
    with np.load(path, allow_pickle=False) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    if manifest["version"] not in (1, _BUNDLE_VERSION):
        raise ConfigurationError(
            f"library bundle version {manifest['version']} is not supported"
        )
    entries = []
    for meta in manifest["entries"]:
        prefix = f"e{meta['index']}_"
        # older bundles kept only the grid label
        hyperparams = meta.get("model_hyperparams", meta["hyperparams"])
        model = Model(
            meta["family"],
            hyperparams,
            _rebuild_state(meta["family"], hyperparams, arrays, prefix),
            meta["n_features"],
            loss_mode=loss_from_text(meta["loss_mode"]),
            provenance=meta["provenance"],
        )
        entries.append(
            LibraryEntry(
                meta["index"],
                meta["family"],
                meta["hyperparams"],
                meta["provenance"],
                model,
                arrays[f"{prefix}val_pred"],
            )
        )
    # the groups build_library formed: kNN entries on equal training rows
    share_index([entry.model.state for entry in entries])
    failures = [tuple(failure) for failure in manifest.get("failures", [])]
    return ModelLibrary(
        entries, arrays["val_actuals"], manifest["augmented"], manifest["master_seed"], failures
    )
