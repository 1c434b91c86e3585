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
seeded start. A plan that draws random numbers is seeded from what it is,
not from where it sits in the plan order (``_fit_plans``), so adding or
removing a plan moves no other plan's forecasts.

The asymmetric networks of one loss family (llc or qqc) and one
``aug_nn_hidden`` width form a path over the a-grid, the warm start
along a parameter path of glmnet (Friedman, Hastie & Tibshirani, JSS
2010). The path is fitted from the largest a down, with the path's
seed: the first level starts cold and runs at most
``nn_epochs`` iterations, as the plan would alone, and each later level
starts from the network of the last level that fitted and runs at most
``min(nn_epochs, PATH_EPOCHS)``. Each network's hyperparameters record
the seed and the loss and cap of the levels it started from, so
``fit_nn`` called along that record reproduces it. A level that fails
is recorded alone, and the next level starts from the last one that
fitted.

Bagged trees, and random forests of one configured ``mtry``, each form
a group whose sizes nest. A group grows one ensemble at its largest size
with the group's seed, and every plan of the group keeps the
prefix of its own size, which is what the public fitter returns for that
size and seed (``trees.ensemble_prefix``). Each model's hyperparameters
record the group seed, so the fitter called with them reproduces it.

Prediction work is shared where the library creates it, and no
content comparison decides it. The forests of a nested group hold one
``trees.TreeSums``, made when the group grows its ensemble, which walks
each tree once per query for every size. The kNN models share one
neighbour index over the ATS rows, made once their ks have fitted,
which ranks a query's neighbours once for all the ks. Both keep their
results in one ``QueryMemo`` per library, which holds one copy of the
latest query. ``load_library`` forms the groups from the
bundle's locators, so a loaded model reproduces its stored validation
forecasts bit for bit. A single tree is built in no group, so two plans
that grow equal trees each keep and store their own.

A fit or validation forecast that fails is skipped and recorded, in
plan order, in ``ModelLibrary.failures``. ``save_library`` writes the
entries and those failure records to one ``.npz`` bundle with a json
manifest, so a loaded library still says which fits failed and why.
The bundle is version 3, the only version ``load_library`` reads. Each
entry's manifest record is written in the pass that packs its arrays.
It has seven keys: ``index``, ``family``, ``hyperparams`` (its plan's
grid label), ``model_hyperparams``, ``n_features``, ``loss_mode`` and
``state``, a locator into the bundle's shared arrays. ``load_library``
rebuilds each state from its locator alone, by the locator's key:

- ``betas``: every linear model's coefficients, concatenated; a
  ``beta`` locator names its ``[start, stop)``.
- ``nn_params``: every network's flat parameters (W1, b1, v, v0, as the
  trainer flattens them), concatenated; a ``params`` locator names its
  ``[start, stop)`` and ``hidden`` width.
- ``tree_<array>`` for each node array: the nodes of every distinct
  tree, concatenated, with ``tree_nodes`` (node count) and
  ``tree_depths`` (walk depth) per tree. A group of forests stores its
  largest forest's trees once; a ``trees`` locator names its first tree
  and count, and the entries that name the same first tree form a group
  at load.
- ``knn<i>_X``, ``knn<i>_y``: one copy of each neighbour index's
  training set; a ``knn`` locator names its set.
- ``val_pred``: the validation forecasts, one row per entry in manifest
  order, and ``val_actuals``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from ..data import DataSplits
from ..errors import ConfigurationError, InvalidInputError, is_integer, require_seed
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
    predict,
)
from .linear import LinearState, fit_ols, fit_quantile, fit_ridge
from .neighbors import KnnState, NeighborIndex, fit_knn
from .neural import NNState, fit_nn, flatten_params, unflatten_params
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
        # both are read outside the per-plan failure records, so a bad value fails here
        require_seed("master_seed", self.master_seed)
        for a in self.aug_a_levels:
            if not (np.isfinite(a) and a > 0):
                raise ConfigurationError(f"aug_a_levels must be positive and finite, got {a!r}")


@dataclass(frozen=True)
class LibraryEntry:
    """A model, its grid label and validation forecasts; family and provenance are the model's."""

    index: int
    hyperparams: dict
    model: Model
    val_pred: np.ndarray

    @property
    def family(self) -> str:
        return self.model.family

    @property
    def provenance(self) -> str:
        return self.model.provenance


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


def _model_seed(master_seed: int, identity: dict) -> int:
    """The seed of what ``identity`` names, hashed from its json text as the manifest writes it."""
    text = json.dumps(identity, sort_keys=True, default=_python_scalar)
    key = int.from_bytes(text.encode("utf-8"), "little")
    return int(np.random.SeedSequence(entropy=(master_seed, key)).generate_state(1)[0])


def _attempt(fit):
    """``fit()``, or the exception it raises: a failed fit or forecast is recorded, not raised."""
    try:
        return fit()
    except Exception as exc:  # noqa: BLE001 - skip-and-log is the contract
        return exc


def _nested_ensembles(fit, sizes, memo: QueryMemo) -> list:
    """Each size's model, or the exception it fails with, from one growth of a tree ensemble.

    ``fit(size)`` is a bagging or forest fitter with the group's rows and
    seed bound. The group grows it once at the largest valid size, an
    integer of at least 1, with one ``TreeSums`` over ``memo``, and a valid
    size gets the first trees of that growth, sharing that ``TreeSums``:
    by the prefix property (see ``trees``), what ``fit`` returns for that
    size. If the growth fails, every valid size fails with its exception;
    a size that is not valid fails alone, with what ``fit`` raises for it.
    """
    valid = [size for size in sizes if is_integer(size) and size >= 1]
    grown = _attempt(lambda: fit(max(valid))) if valid else None
    if isinstance(grown, Model):
        sums = TreeSums(grown.state.trees, valid, memo)
    results = []
    for size in sizes:
        if not (is_integer(size) and size >= 1):
            results.append(_attempt(lambda: fit(size)))
        elif isinstance(grown, Exception):
            results.append(grown)
        else:
            model = ensemble_prefix(grown, size)
            results.append(replace(model, state=ForestState(model.state.trees, sums)))
    return results


def _loss_path(config: LibraryConfig, hidden: int, losses, seed: int, X, y) -> list:
    """Each level's network, or the exception it fails with, from one path of ``fit_nn`` calls.

    ``losses`` are the training losses in path order, and the path fits
    the levels in that order on ``X``, ``y``, one ``fit_nn`` call each,
    with ``seed``. A level starts from the network of the last level that
    fitted, with an iteration cap of ``min(config.nn_epochs,
    PATH_EPOCHS)``; while none has, it starts cold with
    ``config.nn_epochs``. Each model's ``hyperparams["path"]`` lists the
    loss text and cap of the levels it started from, in order, so
    ``fit_nn`` called along that list reproduces it.
    """
    results, path, start = [], [], None
    for loss in losses:
        epochs = config.nn_epochs if start is None else min(config.nn_epochs, PATH_EPOCHS)
        model = _attempt(lambda: fit_nn(X, y, hidden, epochs, seed, loss, start=start))
        if isinstance(model, Model):
            model = replace(model, hyperparams={**model.hyperparams, "path": list(path)})
            path.append({"loss": loss_to_text(loss), "epochs": epochs})
            start = model.state
        results.append(model)
    return results


def _fit_plans(config: LibraryConfig, augment: bool, X, y, memo: QueryMemo):
    """Fit every plan on the ATS rows ``X``, ``y``; yield (family, hyperparams, model or exception).

    Plans come in a stable order: OLS, ridge, kNN, single trees, symmetric
    networks, bagging, forests, then, when ``augment``, the quantile
    regressions and the network paths. Each seed is drawn from what it
    seeds (``_model_seed``): a symmetric network's family and width, the
    bagging family, a forest group's family and ``mtry``, or a network
    path's loss label and width. OLS, ridge, kNN, single trees and quantile
    regressions take none. Every bagged-tree plan, or every forest plan of
    one ``mtry``, is a group (``_nested_ensembles``) whose tree sums live
    in ``memo``; the llc, or the qqc, networks of one width are a path
    (``_loss_path``). The kNN plans that fit share one ``NeighborIndex``
    over ``memo``, so the validation forecasts rank each query once.
    Every fitter is looked up in this module when it is called.
    """

    def seed(family, **identity):
        return _model_seed(config.master_seed, {"family": family, **identity})

    fams = config.families
    if FAMILY_OLS in fams:
        yield FAMILY_OLS, {}, _attempt(lambda: fit_ols(X, y))
    if FAMILY_RIDGE in fams:
        for lam in config.ridge_lambdas:
            yield FAMILY_RIDGE, {"lambda": lam}, _attempt(lambda: fit_ridge(X, y, lam))
    if FAMILY_KNN in fams:
        fitted = [(k, _attempt(lambda: fit_knn(X, y, k))) for k in config.knn_ks]
        ks = [k for k, model in fitted if isinstance(model, Model)]
        index = NeighborIndex(X, y, ks, memo) if ks else None
        # rebinding frees the index each fit made for itself, which no forecast uses
        fitted = [
            (k, replace(model, state=KnnState(index, k)) if isinstance(model, Model) else model)
            for k, model in fitted
        ]
        for k, model in fitted:
            yield FAMILY_KNN, {"k": k}, model
    if FAMILY_TREE in fams:
        for cp in config.tree_complexities:
            for mn in config.tree_min_nodes:
                params = {"complexity": cp, "min_node": mn}
                yield FAMILY_TREE, params, _attempt(lambda: fit_tree(X, y, cp, mn))
    if FAMILY_NN in fams:
        for k in config.nn_hidden:
            s = seed(FAMILY_NN, hidden_nodes=k)
            model = _attempt(lambda: fit_nn(X, y, k, config.nn_epochs, s))
            yield FAMILY_NN, {"hidden_nodes": k}, model
    if FAMILY_BAGGED_TREE in fams:
        s = seed(FAMILY_BAGGED_TREE)
        bagged = _nested_ensembles(
            lambda bags: fit_bagged_tree(X, y, bags, s), config.bag_counts, memo
        )
        for bags, model in zip(config.bag_counts, bagged):
            yield FAMILY_BAGGED_TREE, {"bags": bags}, model
    if FAMILY_RANDOM_FOREST in fams:
        groups = {}
        for mtry in dict.fromkeys(config.rf_mtrys):
            s = seed(FAMILY_RANDOM_FOREST, mtry=mtry)
            groups[mtry] = _nested_ensembles(
                lambda trees: fit_random_forest(X, y, trees, min(mtry, X.shape[1]), s),
                config.rf_trees,
                memo,
            )
        for i, trees in enumerate(config.rf_trees):
            for mtry in config.rf_mtrys:
                yield FAMILY_RANDOM_FOREST, {"trees": trees, "mtry": mtry}, groups[mtry][i]

    if augment:
        for a in config.aug_a_levels:
            tau = tau_from_weights(a, 1.0)
            yield FAMILY_QUANTILE, {"tau": tau, "a": a}, _attempt(lambda: fit_quantile(X, y, tau))
        levels, widths = config.aug_a_levels, config.aug_nn_hidden
        taus = [tau_from_weights(a, 1.0) for a in levels]
        # each path runs from the largest a down
        order = sorted(range(len(levels)), key=levels.__getitem__, reverse=True)
        for label, losses in (
            ({"loss": "llc"}, [CostSpec("llc", a=tau, b=1.0 - tau) for tau in taus]),
            ({"b": 1.0, "loss": "qqc"}, [CostSpec("qqc", a=a, b=1.0) for a in levels]),
        ):
            paths = {}
            for k in dict.fromkeys(widths):
                s = seed(FAMILY_NN, hidden_nodes=k, **label)
                paths[k] = _loss_path(config, k, [losses[i] for i in order], s, X, y)
            for level, a in enumerate(levels):
                for k in widths:
                    params = {"hidden_nodes": k, "a": a, **label}
                    yield FAMILY_NN, params, paths[k][order.index(level)]


def build_library(
    splits: DataSplits, config: LibraryConfig, augment: bool, jobs: int = 1
) -> ModelLibrary:
    """Fit the configured grids on ATS rows in plan order, and forecast validation with each.

    No entry's forecasts depend on the other plans (``_fit_plans``). A fit
    or validation forecast that fails is logged and recorded in
    ``ModelLibrary.failures``, in plan order; only a fully failed build
    raises. ``jobs`` must be 1: fits still run one after another, but one
    bagging or forest fit grows its trees across the usable CPUs (see
    ``trees``).
    """
    if jobs != 1:
        raise ConfigurationError(f"build_library fits sequentially; jobs must be 1, got {jobs}")
    X_val = splits.validation.features
    entries, failures = [], []
    plans = _fit_plans(config, augment, splits.ats.features, splits.ats.target, QueryMemo())
    for family, params, model in plans:
        val_pred = _attempt(lambda: predict(model, X_val)) if isinstance(model, Model) else model
        if isinstance(val_pred, Exception):
            log.warning("skipping %s %s: %s", family, params, val_pred)
            failures.append((family, params, str(val_pred)))
            continue
        entries.append(LibraryEntry(len(entries), params, model, val_pred))
    if not entries:
        raise InvalidInputError("every model fit failed; library is empty")
    return ModelLibrary(entries, splits.validation.target.copy(), augment, config.master_seed, failures)


def select_best(library: ModelLibrary, criterion: CostSpec) -> int:
    """Index of the validation-best entry under the criterion; ties break low.

    To choose among some entries only, pass a ``ModelLibrary`` of those
    entries: the index returned is still the entry's own. The entries'
    forecasts go to one ``eval_mean`` call as they are, which scores them
    in blocks of rows, so no entries x rows matrix is built.
    """
    if len(library.entries) == 0:
        raise InvalidInputError("cannot select from an empty library")
    forecasts = [entry.val_pred for entry in library.entries]
    scores = eval_mean(criterion, library.val_actuals, forecasts)
    # argmin takes the first of equal scores; entry indices need not be contiguous
    return library.entries[int(np.argmin(scores))].index


# ------------------------------------------------------------- persistence

_BUNDLE_VERSION = 3


def _flat(chunks, dtype=float) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


def _pack(library: ModelLibrary):
    """The version 3 arrays of ``library``'s models, and each entry's manifest record."""
    flat = {"betas": [], "nn_params": []}
    # the first stored tree of each tree group, and the set of each neighbour index
    trees, tree_at, knn_at = [], {}, {}

    def put(name, array) -> list:
        start = sum(chunk.shape[0] for chunk in flat[name])
        flat[name].append(array)
        return [start, start + array.shape[0]]

    records = []
    for entry in library.entries:
        model, state = entry.model, entry.model.state
        if isinstance(state, LinearState):
            locator = {"beta": put("betas", state.beta)}
        elif isinstance(state, NNState):
            params = flatten_params(state.W1, state.b1, state.v, state.v0)
            locator = {"params": put("nn_params", params), "hidden": state.v.shape[0]}
        elif isinstance(state, ForestState):
            # a group stores its largest forest's trees once; members name a prefix
            group = state if state.shared is None else state.shared
            if group not in tree_at:
                tree_at[group] = len(trees)
                trees.extend(group.trees)
            locator = {"trees": [tree_at[group], len(state.trees)]}
        elif isinstance(state, KnnState):
            locator = {"knn": knn_at.setdefault(state.index, len(knn_at))}
        else:
            raise ConfigurationError(f"cannot serialize model state {type(state).__name__}")
        records.append(
            {
                "index": entry.index,
                "family": model.family,
                "hyperparams": entry.hyperparams,
                "model_hyperparams": model.hyperparams,
                "n_features": model.n_features,
                "loss_mode": loss_to_text(model.loss_mode),
                "state": locator,
            }
        )
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
    return arrays, records


def save_library(library: ModelLibrary, path) -> None:
    """Persist the library as a version 3 npz bundle with a json manifest."""
    arrays, records = _pack(library)
    n_val = library.val_actuals.shape[0]
    arrays["val_actuals"] = library.val_actuals
    arrays["val_pred"] = (
        library.validation_matrix() if library.entries else np.zeros((0, n_val))
    )
    manifest = {
        "version": _BUNDLE_VERSION,
        "augmented": library.augmented,
        "master_seed": library.master_seed,
        "entries": records,
        "failures": library.failures,
    }
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
    knn = {
        i: NeighborIndex(arrays[f"knn{i}_X"], arrays[f"knn{i}_y"], k, memo) for i, k in ks.items()
    }
    return groups, knn


def load_library(path) -> ModelLibrary:
    """A library saved by ``save_library``, from a version 3 bundle.

    Each entry's state is rebuilt from its locator's key; a locator with
    none of the four keys raises ConfigurationError naming the entry. A
    file that is not an ``.npz`` archive with a manifest raises
    ConfigurationError naming the path.
    """
    arrays = {}
    try:
        loaded = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):  # neither .npy nor .npz, or an empty file
        loaded = None
    if isinstance(loaded, np.lib.npyio.NpzFile):
        with loaded:
            arrays = {key: loaded[key] for key in loaded.files}
    if "manifest" not in arrays:
        raise ConfigurationError(
            f"{path} is not a library bundle: it is not an .npz archive with a manifest; "
            "save the library with save_library"
        )
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
        hyperparams, n_features = meta["model_hyperparams"], meta["n_features"]
        locator = meta["state"]
        if "beta" in locator:
            lo, hi = locator["beta"]
            state = LinearState(arrays["betas"][lo:hi])
        elif "params" in locator:
            lo, hi = locator["params"]
            params = unflatten_params(arrays["nn_params"][lo:hi], n_features, locator["hidden"])
            state = NNState(*params)
        elif "trees" in locator:
            first, count = locator["trees"]
            state = ForestState(groups[first].trees[:count], groups[first])
        elif "knn" in locator:
            state = KnnState(knn[locator["knn"]], hyperparams["k"])
        else:
            raise ConfigurationError(
                f"bundle entry {meta['index']} locates no model state: {locator}; refit and save it"
            )
        model = Model(
            meta["family"], hyperparams, state, n_features, loss_from_text(meta["loss_mode"])
        )
        entries.append(LibraryEntry(meta["index"], meta["hyperparams"], model, val_pred))
    failures = [tuple(failure) for failure in manifest["failures"]]
    return ModelLibrary(
        entries, arrays["val_actuals"], manifest["augmented"], manifest["master_seed"], failures
    )
