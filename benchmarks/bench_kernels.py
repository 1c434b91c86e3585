"""Microbenchmarks of asymcast's hot kernels on seeded synthetic data.

    python benchmarks/bench_kernels.py             # the pipeline benchmark's sizes
    python benchmarks/bench_kernels.py --tiny      # small sizes, about a second
    python benchmarks/bench_kernels.py --seed 20170710

Times eight kernels, each the best of several calls, and prints one JSON
line with the seconds per call, the sizes and the seed, plus the
``tracemalloc`` peaks of one ``csv_export`` and one ``select_best`` call
in bytes. It writes no file.

- ``tree_build``: one bagged tree (a bootstrap sample, every feature a
  candidate) on the training rows of an n = 3,000 dataset (1,200 rows).
- ``tree_predict``: that tree on 10,000 fresh rows.
- ``nn_objective_and_grad``: one evaluation of a 6-unit network under
  the tau-quantile loss llc(tau, 1 - tau), tau = 1/3, with its gradient,
  on the training rows of an n = 8,000 dataset (3,200 rows).
- ``nn_fit``: one ``fit_nn`` of that network and loss from its seeded
  start, with the library's L-BFGS iteration cap (``nn_epochs``).
- ``fit_quantile``: one quantile regression at tau = 1/3 on those rows.
- ``knn_rank``: a ``NeighborIndex`` over the 1,200 training rows ranking
  the 10,000 fresh rows for the library's k values.
- ``csv_export``: one ``export_csv`` of the raw n = 8,000 synthetic table
  to ``os.devnull``, so it times formatting and quoting, not the disk.
- ``select_best``: the validation-best entry under that llc loss, in a
  42-entry library (ridge fits over a grid of penalties, the size of the
  pipeline benchmark's OLS/ridge/network library) scored on the 2,400
  validation rows of the n = 8,000 dataset.

The package is imported from ``src/`` of this checkout, with one
BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from asymcast import kernels  # noqa: E402
from asymcast.data import (  # noqa: E402
    SYNTH_SCHEMA,
    SynthConfig,
    export_csv,
    split,
    standardize,
    synth_generate,
    synth_raw_columns,
)
from asymcast.losses import CostSpec, tau_from_weights  # noqa: E402
from asymcast.models import (  # noqa: E402
    LibraryConfig,
    ModelLibrary,
    build_library,
    fit_nn,
    fit_quantile,
    select_best,
)
from asymcast.models.base import QueryMemo  # noqa: E402
from asymcast.models.neighbors import NeighborIndex  # noqa: E402
from asymcast.models.neural import flatten_params, init_params, nn_objective_and_grad  # noqa: E402
from asymcast.models.trees import ENSEMBLE_COMPLEXITY, ENSEMBLE_MIN_NODE, MAX_DEPTH  # noqa: E402

FULL = {"tree_n": 3000, "linear_n": 8000, "query_rows": 10000, "repeats": 5}
TINY = {"tree_n": 200, "linear_n": 200, "query_rows": 300, "repeats": 3}
LIBRARY_ENTRIES = 42


def standardized_splits(n: int, seed: int):
    return standardize(split(synth_generate(SynthConfig(n=n, seed=seed)), seed))


def ridge_library(splits) -> ModelLibrary:
    """``LIBRARY_ENTRIES`` ridge fits on the ATS rows and their validation forecasts."""
    lambdas = tuple(float(lam) for lam in np.geomspace(1e-4, 1e3, LIBRARY_ENTRIES))
    config = LibraryConfig(families=("ridge",), ridge_lambdas=lambdas)
    return build_library(splits, config, augment=False)


def best_of(repeats: int, call) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def peak_bytes(call) -> int:
    """``tracemalloc``'s peak over one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(sizes: dict, seed: int) -> dict:
    repeats = sizes["repeats"]
    tree_splits, scaler = standardized_splits(sizes["tree_n"], seed)
    X_tree, y_tree = tree_splits.ats.features, tree_splits.ats.target
    lin_splits, _ = standardized_splits(sizes["linear_n"], seed)
    X_lin, y_lin = lin_splits.ats.features, lin_splits.ats.target
    fresh = synth_generate(SynthConfig(n=sizes["query_rows"], seed=seed + 1))
    Q = scaler.transform(fresh.features)

    rng = np.random.default_rng(seed)
    boot = rng.integers(0, X_tree.shape[0], size=X_tree.shape[0]).astype(np.int64)
    m = X_tree.shape[1]

    def build():
        return kernels.tree_build(
            X_tree, y_tree, boot, ENSEMBLE_MIN_NODE, ENSEMBLE_COMPLEXITY, m, seed, MAX_DEPTH
        )

    tree = build()
    tau = tau_from_weights(0.5, 1.0)
    hidden, epochs = 6, LibraryConfig().nn_epochs
    loss = CostSpec("llc", a=tau, b=1.0 - tau)
    theta = flatten_params(*init_params(X_lin.shape[1], y_lin, hidden, seed))
    ks = tuple(k for k in LibraryConfig().knn_ks if k <= X_tree.shape[0])
    table_config = SynthConfig(n=sizes["linear_n"], seed=seed)
    table, _ = synth_raw_columns(table_config)
    table["resale_ratio"] = synth_generate(table_config).target

    library = ridge_library(lin_splits)

    def export():
        export_csv(os.devnull, table, SYNTH_SCHEMA)

    def select():
        return select_best(library, loss)

    seconds = {
        "tree_build": best_of(repeats, build),
        "tree_predict": best_of(repeats, lambda: kernels.tree_predict(*tree, Q)),
        "nn_objective_and_grad": best_of(
            repeats, lambda: nn_objective_and_grad(theta, X_lin, y_lin, hidden, loss)
        ),
        "nn_fit": best_of(repeats, lambda: fit_nn(X_lin, y_lin, hidden, epochs, seed, loss)),
        "fit_quantile": best_of(repeats, lambda: fit_quantile(X_lin, y_lin, tau)),
        # a new index and memo per call: a memo answers a repeated query
        "knn_rank": best_of(
            repeats, lambda: NeighborIndex(X_tree, y_tree, ks, QueryMemo()).means(Q)
        ),
        "csv_export": best_of(repeats, export),
        "select_best": best_of(repeats, select),
    }
    return {
        "seed": seed,
        "repeats": repeats,
        "sizes": {
            "tree_rows": X_tree.shape[0],
            "tree_nodes": int(tree[0].shape[0]),
            "linear_rows": X_lin.shape[0],
            "table_rows": table_config.n,
            "features": m,
            "query_rows": Q.shape[0],
            "knn_ks": list(ks),
            "library_entries": len(library),
            "validation_rows": library.val_actuals.shape[0],
        },
        "seconds": seconds,
        "peak_bytes": {"csv_export": peak_bytes(export), "select_best": peak_bytes(select)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke test")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run(TINY if args.tiny else FULL, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
