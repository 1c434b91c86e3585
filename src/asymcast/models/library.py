"""Base-model library: grid construction, best-model selection, persistence.

``build_library`` fits every (family, hyperparameter) combination of the
configured grids on the ATS rows and caches each model's validation
predictions. With ``augment=True`` the library additionally receives
models trained against asymmetric losses, for each level a of the grid:
a linear quantile regression and a network on llc(tau, 1 - tau), which
is llc(a, 1) / (1 + a) at tau = a / (1 + a), and a network on qqc(a, 1).
A model's provenance follows its loss (``losses.is_symmetric``), so these
carry provenance "asymmetric" except at a = 1: there the median
regression and the network both train llc(0.5, 0.5), and the other
network trains qqc(1, 1), which is squared error, so all three are
"symmetric". Every network, symmetric or not, is trained by L-BFGS on
the same full-batch objective.
A symmetric network runs at most ``nn_epochs`` iterations from its
seeded start.

The asymmetric networks of one loss family (llc or qqc) and one
``aug_nn_hidden`` width form a path over the a-grid, the warm start
along a parameter path of glmnet (Friedman, Hastie & Tibshirani, JSS
2010). The path is fitted from the largest a down, with the seed of that
first level's plan: the first level starts cold and runs at most
``nn_epochs`` iterations, as the plan would alone, and each later level
starts from the network of the last level that fitted and runs at most
``min(nn_epochs, PATH_EPOCHS)``. Each network's hyperparameters record
the seed and the loss and cap of the levels it started from, so
``fit_nn`` called along that record reproduces it. A level that fails
is recorded alone, and the next level starts from the last one that
fitted.

Bagged trees, and random forests of one configured ``mtry``, each form
a group whose sizes nest. A group grows one ensemble at its largest size
with the seed of its first plan, and every plan of the group keeps the
prefix of its own size, which is what the public fitter returns for that
size and seed (``trees.ensemble_prefix``). Each model's hyperparameters
record the group seed, so the fitter called with them reproduces it.
Against a seed per plan, only the forecasts of a group's later plans
change; on the default grid those are ``bags=25`` and the two 60-tree
forests, and the library grows 151 trees instead of 221.

Prediction work is shared where the library creates it, and no
content comparison decides it. The forests of a nested group hold one
``trees.TreeSums``, made when the group grows its ensemble, which walks
each tree once per query for every size. After fitting,
``build_library`` points every kNN state at one neighbour index over the
ATS rows, which ranks a query's neighbours once for all the ks. Both
keep their results in one ``QueryMemo`` per library, which holds one
copy of the latest query. ``load_library`` forms the groups from the
bundle's locators, so a loaded model reproduces its stored validation
forecasts bit for bit. A single tree is built in no group, so two plans
that grow equal trees each keep and store their own.

A fit that fails is skipped and recorded in ``ModelLibrary.failures``.
``save_library`` writes the entries and those failure records to one
``.npz`` bundle with a json manifest, so a loaded library still says
which fits failed and why. The bundle is version 3, the only version
``load_library`` reads. Each manifest entry keeps the grid label of its
plan, the hyperparameters the model was fitted with, and a locator of
its state in the bundle's shared arrays:

- ``betas``: every linear model's coefficients, concatenated; an entry
  names its ``[start, stop)``.
- ``nn_params``: every network's flat parameters (W1, b1, v, v0, as the
  trainer flattens them), concatenated; an entry names its
  ``[start, stop)`` and hidden width.
- ``tree_<array>`` for each node array: the nodes of every distinct
  tree, concatenated, with ``tree_nodes`` (node count) and
  ``tree_depths`` (walk depth) per tree. A group of forests stores its
  largest forest's trees once; an entry names its first tree and count,
  and the entries that name the same first tree form a group at load.
- ``knn<i>_X``, ``knn<i>_y``: one copy of each neighbour index's
  training set; an entry names its set.
- ``val_pred``: the validation forecasts, one row per entry in manifest
  order, and ``val_actuals``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

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
    QueryMemo,
    is_integer,
    predict,
    require_integer,
)
from .linear import LinearState, fit_ols, fit_quantile, fit_ridge
from .neighbors import KnnState, NeighborIndex, fit_knn
from .neural import NNConfig, NNState, fit_nn, flatten_params, unflatten_params
from .trees import (
    NODE_ARRAYS,
    ForestState,
    TreeState,
    TreeSums,
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

# L-BFGS iteration cap of every level of an asymmetric network path after
# its first, which has ``LibraryConfig.nn_epochs``; see ``_loss_path``
PATH_EPOCHS = 30


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
        """The entry whose ``LibraryEntry.index`` is ``index``, as ``select_best`` returns it."""
        for entry in self.entries:
            if entry.index == index:
                return entry
        raise InvalidInputError(f"the library has no entry with index {index}")


def _model_seed(master_seed: int, plan_index: int) -> int:
    return int(np.random.SeedSequence(entropy=(master_seed, plan_index)).generate_state(1)[0])


def _nested_ensembles(fit, name: str, sizes, memo: QueryMemo):
    """Per-size fitters for one group of tree ensembles that share one growth.

    ``fit(X, y, size, seed)`` is a bagging or forest fitter, and ``name``
    its size parameter. The first fitter called grows ``fit`` once at the
    largest valid size, an integer of at least 1, and gives the growth one
    ``TreeSums`` over ``memo``. Each fitter returns the first trees of that
    ensemble, as many as its own size, sharing that ``TreeSums``; by the
    prefix property (see ``trees``) that is what ``fit`` returns for the
    size. The growth is kept only as long as the fitters are, one
    ``build_library`` call. An invalid size fails alone: one that is not
    an integer names ``name``, and one below 1 calls ``fit`` itself.
    """
    grown = {}
    valid = [size for size in sizes if is_integer(size) and size >= 1]

    def fitter(size):
        def fit_prefix(X, y, seed):
            require_integer(name, size)
            if size < 1:
                return fit(X, y, size, seed)
            if seed not in grown:
                model = fit(X, y, max(valid), seed)
                grown[seed] = model, TreeSums(model.state.trees, valid, memo)
            model, sums = grown[seed]
            prefix = ensemble_prefix(model, size)
            return replace(prefix, state=ForestState(prefix.state.trees, sums))

        return fit_prefix

    return fitter


def _build_plans(config: LibraryConfig, augment: bool, n_features: int, memo: QueryMemo):
    """Enumerate (family, hyperparams, fitter, seed_index) plans in a stable order.

    A plan's fit draws the seed of plan ``seed_index``: its own index, or
    for bagging and forests the first plan of its group. A group is every
    bagged-tree plan, or every forest plan of one configured ``mtry``; it
    grows one ensemble at its largest size, and each of its plans takes
    the prefix of its own size (``_nested_ensembles``), whose tree sums
    live in ``memo``. The llc, or the qqc, networks of one hidden
    width are fitted as one path over the a-grid (``_loss_path``) with
    the seed of the plan at the largest a.
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
            fit_bagged_tree, "bags", config.bag_counts, memo
        )
        for bags in config.bag_counts:
            add(FAMILY_BAGGED_TREE, {"bags": bags}, grow(bags), first)
    if FAMILY_RANDOM_FOREST in fams:
        groups = {
            mtry: _nested_ensembles(
                lambda X, y, trees, seed, mtry=mtry: fit_random_forest(
                    X, y, trees, min(mtry, n_features), seed
                ),
                "trees",
                config.rf_trees,
                memo,
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
        levels, widths = config.aug_a_levels, config.aug_nn_hidden
        taus = [tau_from_weights(a, 1.0) for a in levels]
        # each path runs from the largest a down, with the seed of that level's plan
        order = sorted(range(len(levels)), key=levels.__getitem__, reverse=True)
        for label, losses in (
            ({"loss": "llc"}, [CostSpec("llc", a=tau, b=1.0 - tau) for tau in taus]),
            ({"b": 1.0, "loss": "qqc"}, [CostSpec("qqc", a=a, b=1.0) for a in levels]),
        ):
            paths = {k: _loss_path(config, k, [losses[i] for i in order]) for k in widths}
            cold = len(plans) + order[0] * len(widths)
            for level, a in enumerate(levels):
                for j, k in enumerate(widths):
                    params = {"hidden_nodes": k, "a": a, **label}
                    add(FAMILY_NN, params, paths[k](order.index(level)), cold + j)
    return plans


def _nn_config(config: LibraryConfig, hidden: int, seed: int) -> NNConfig:
    return NNConfig(hidden_nodes=hidden, epochs=config.nn_epochs, seed=seed)


def _loss_path(config: LibraryConfig, hidden: int, losses):
    """Per-level fitters for one asymmetric network family, fitted as one path.

    ``losses`` are the training losses of the path's levels in path order,
    and ``level(i)`` is the fitter of level ``i``. The first fitter called
    fits every level in that order, one ``fit_nn`` call each, with the
    seed it is given. A level starts from the network of the last level
    that fitted, with an iteration cap of ``min(config.nn_epochs,
    PATH_EPOCHS)``; while none has, it starts cold from the seed with
    ``config.nn_epochs``. Each model's ``hyperparams["path"]`` lists
    the loss text and cap of the levels it started from, in order, so
    ``fit_nn`` called along that list reproduces it. Each fitter returns
    its own level's model, or raises what its level raised. The path is
    kept only as long as the fitters are, one ``build_library`` call.
    """
    fitted = {}

    def fit_path(X, y, seed):
        results, path, start = [], [], None
        for loss in losses:
            epochs = config.nn_epochs if start is None else min(config.nn_epochs, PATH_EPOCHS)
            nn_config = NNConfig(hidden_nodes=hidden, epochs=epochs, seed=seed)
            try:
                model = fit_nn(X, y, nn_config, loss, start=start)
            except Exception as exc:  # noqa: BLE001 - raised again by this level's plan
                results.append(exc)
                continue
            results.append(replace(model, hyperparams={**model.hyperparams, "path": list(path)}))
            path.append({"loss": loss_to_text(loss), "epochs": epochs})
            start = model.state
        return results

    def level(i):
        def fit_level(X, y, seed):
            if seed not in fitted:
                fitted[seed] = fit_path(X, y, seed)
            result = fitted[seed][i]
            if isinstance(result, Exception):
                raise result
            return result

        return fit_level

    return level


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
    memo = QueryMemo()
    plans = _build_plans(config, augment, X.shape[1], memo)
    fitted, entries, failures = [], [], []
    for family, params, fitter, seed_index in plans:
        try:
            model = fitter(X, y, _model_seed(config.master_seed, seed_index))
        except Exception as exc:  # noqa: BLE001 - skip-and-log is the contract
            log.warning("skipping %s %s: %s", family, params, exc)
            failures.append((family, params, str(exc)))
            continue
        fitted.append((family, params, model))
    # before the first forecast, so the validation forecasts rank each query once
    knn = [model.state for _, _, model in fitted if isinstance(model.state, KnnState)]
    if knn:
        index = NeighborIndex(X, y, [state.k for state in knn])
        index.memo = memo
        for state in knn:
            state.index = index
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


def select_best(library: ModelLibrary, criterion: CostSpec) -> int:
    """Index of the validation-best entry under the criterion; ties break low.

    To choose among some entries only, pass a ``ModelLibrary`` of those
    entries: the index returned is still the entry's own.
    """
    if len(library.entries) == 0:
        raise InvalidInputError("cannot select from an empty library")
    scores = eval_mean(criterion, library.val_actuals, library.validation_matrix())
    # argmin takes the first of equal scores; entry indices need not be contiguous
    return library.entries[int(np.argmin(scores))].index


# ------------------------------------------------------------- persistence

_BUNDLE_VERSION = 3


def _flat(chunks, dtype=float) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


def _pack(library: ModelLibrary):
    """The version 3 arrays of ``library``'s models, and each entry's locator into them."""
    flat = {"betas": [], "nn_params": []}
    # the first stored tree of each tree group, and the set of each neighbour index
    trees, tree_at, knn_at = [], {}, {}

    def put(name, array) -> list:
        start = sum(chunk.shape[0] for chunk in flat[name])
        flat[name].append(array)
        return [start, start + array.shape[0]]

    locators = []
    for state in (entry.model.state for entry in library.entries):
        if isinstance(state, LinearState):
            locators.append({"beta": put("betas", state.beta)})
        elif isinstance(state, NNState):
            params = flatten_params(state.W1, state.b1, state.v, state.v0)
            locators.append({"params": put("nn_params", params), "hidden": state.v.shape[0]})
        elif isinstance(state, ForestState):
            # a group stores its largest forest's trees once; members name a prefix
            group = state if state.shared is None else state.shared
            if group not in tree_at:
                tree_at[group] = len(trees)
                trees.extend(group.trees)
            locators.append({"trees": [tree_at[group], len(state.trees)]})
        elif isinstance(state, KnnState):
            locators.append({"knn": knn_at.setdefault(state.index, len(knn_at))})
        else:
            raise ConfigurationError(f"cannot serialize model state {type(state).__name__}")
    arrays = {name: _flat(chunks) for name, chunks in flat.items()}
    for name in NODE_ARRAYS:
        arrays[f"tree_{name}"] = _flat(
            [getattr(tree, name) for tree in trees],
            np.int64 if name in ("feature", "left", "right") else float,
        )
    arrays["tree_nodes"] = np.array([tree.feature.shape[0] for tree in trees], dtype=np.int64)
    arrays["tree_depths"] = np.array([tree.depth for tree in trees], dtype=np.int64)
    for index, i in knn_at.items():
        arrays[f"knn{i}_X"] = index.X
        arrays[f"knn{i}_y"] = index.y
    return arrays, locators


def _unpack(family: str, hyperparams: dict, n_features: int, locator: dict, arrays, groups, knn):
    """A version 3 entry's state; ``groups`` and ``knn`` are the bundle's shared parts."""
    if family in (FAMILY_OLS, FAMILY_RIDGE, FAMILY_QUANTILE):
        lo, hi = locator["beta"]
        return LinearState(arrays["betas"][lo:hi])
    if family == FAMILY_NN:
        lo, hi = locator["params"]
        return NNState(*unflatten_params(arrays["nn_params"][lo:hi], n_features, locator["hidden"]))
    if family in (FAMILY_TREE, FAMILY_BAGGED_TREE, FAMILY_RANDOM_FOREST):
        first, count = locator["trees"]
        return ForestState(groups[first].trees[:count], groups[first])
    if family == FAMILY_KNN:
        return KnnState(knn[locator["knn"]], hyperparams["k"])
    raise ConfigurationError(f"cannot rebuild model family {family!r}")


def save_library(library: ModelLibrary, path) -> None:
    """Persist the library as a version 3 npz bundle with a json manifest."""
    arrays, locators = _pack(library)
    n_val = library.val_actuals.shape[0]
    arrays["val_actuals"] = library.val_actuals
    arrays["val_pred"] = (
        library.validation_matrix() if library.entries else np.zeros((0, n_val))
    )
    manifest = {
        "version": _BUNDLE_VERSION,
        "augmented": library.augmented,
        "master_seed": library.master_seed,
        "entries": [],
        "failures": library.failures,
    }
    for entry, locator in zip(library.entries, locators):
        manifest["entries"].append(
            {
                "index": entry.index,
                "family": entry.family,
                "hyperparams": entry.hyperparams,
                "model_hyperparams": entry.model.hyperparams,
                "provenance": entry.provenance,
                "n_features": entry.model.n_features,
                "loss_mode": loss_to_text(entry.model.loss_mode),
                "state": locator,
            }
        )
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True, default=_python_scalar).encode("utf-8"),
        dtype=np.uint8,
    )
    np.savez_compressed(path, **arrays)


def _python_scalar(value):
    """A numpy scalar in a grid or a hyperparameter, as the Python number json writes."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _shared_parts(manifest: dict, arrays: dict, memo: QueryMemo):
    """A version 3 bundle's tree groups and neighbour indexes, both over ``memo``.

    Entries that name the same first stored tree form one group, keyed on
    that tree; entries that name the same training set share its index.
    """
    offsets = np.concatenate([[0], np.cumsum(arrays["tree_nodes"])])
    nodes = [arrays[f"tree_{name}"] for name in NODE_ARRAYS]
    stored = [
        TreeState(*(a[lo:hi] for a in nodes), depth)
        for lo, hi, depth in zip(offsets[:-1], offsets[1:], arrays["tree_depths"])
    ]
    sizes, ks = {}, {}
    for meta in manifest["entries"]:
        state = meta["state"]
        if "trees" in state:
            first, count = state["trees"]
            sizes.setdefault(first, []).append(count)
        elif "knn" in state:
            ks.setdefault(state["knn"], []).append(meta["model_hyperparams"]["k"])
    groups = {
        first: TreeSums(stored[first : first + max(counts)], counts, memo)
        for first, counts in sizes.items()
    }
    knn = {i: NeighborIndex(arrays[f"knn{i}_X"], arrays[f"knn{i}_y"], k) for i, k in ks.items()}
    for index in knn.values():
        index.memo = memo
    return groups, knn


def load_library(path) -> ModelLibrary:
    """A library saved by ``save_library``, from a version 3 bundle."""
    with np.load(path, allow_pickle=False) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    version = manifest["version"]
    if version != _BUNDLE_VERSION:
        raise ConfigurationError(
            f"library bundle version {version} does not load; only version "
            f"{_BUNDLE_VERSION} does, so refit the library and save it again"
        )
    memo = QueryMemo()
    groups, knn = _shared_parts(manifest, arrays, memo)
    entries = []
    for meta, val_pred in zip(manifest["entries"], arrays["val_pred"], strict=True):
        family, hyperparams = meta["family"], meta["model_hyperparams"]
        state = _unpack(family, hyperparams, meta["n_features"], meta["state"], arrays, groups, knn)
        model = Model(
            family,
            hyperparams,
            state,
            meta["n_features"],
            loss_mode=loss_from_text(meta["loss_mode"]),
            provenance=meta["provenance"],
        )
        entries.append(
            LibraryEntry(meta["index"], family, meta["hyperparams"], meta["provenance"], model, val_pred)
        )
    failures = [tuple(failure) for failure in manifest["failures"]]
    return ModelLibrary(
        entries, arrays["val_actuals"], manifest["augmented"], manifest["master_seed"], failures
    )
