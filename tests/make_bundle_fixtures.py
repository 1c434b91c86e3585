"""Write the version 1 and version 2 library bundles that the tests load.

    python tests/make_bundle_fixtures.py <checkout>

``<checkout>`` is a source tree whose ``save_library`` writes bundle
version 2, for example a ``git worktree`` of the last commit before
version 3. Its ``asymcast`` builds a tiny augmented library on seeded
synthetic data and saves it as ``tests/fixtures/library_v2.npz``. The
version 1 bundle is that bundle rewritten the way version 1 stored a
library: no failure records and no fitted hyperparameters, kNN entries
that name their algorithm, networks that name their activation, and a
single tree stored without counts. ``bundle_queries.npy`` holds the
validation rows whose forecasts both bundles store.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def as_version_1(path: Path, out: Path) -> None:
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    manifest["version"] = 1
    del manifest["failures"]
    for meta in manifest["entries"]:
        prefix = f"e{meta['index']}_"
        del meta["model_hyperparams"]
        if meta["family"] == "knn":
            meta["hyperparams"]["algorithm"] = "brute"
        if meta["family"] == "nn":
            arrays[f"{prefix}act"] = np.array([0])
        if meta["family"] == "tree":
            del arrays[f"{prefix}counts"]
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(out, **arrays)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    from asymcast.data import SynthConfig, split, standardize, synth_generate
    from asymcast.models import LibraryConfig, build_library, save_library

    splits, _ = standardize(split(synth_generate(SynthConfig(n=200, seed=60)), seed=7))
    n_ats = splits.ats.target.shape[0]
    config = replace(
        LibraryConfig(),
        ridge_lambdas=(1.0,),
        # the last k exceeds the ATS rows, so one fit fails and leaves a record
        knn_ks=(3, 5, n_ats + 1),
        tree_complexities=(1e-3,),
        tree_min_nodes=(10,),
        nn_hidden=(2,),
        nn_epochs=10,
        bag_counts=(2, 3),
        rf_trees=(2, 3),
        rf_mtrys=(4,),
        aug_a_levels=(0.5,),
        aug_nn_hidden=(2,),
        master_seed=11,
    )
    library = build_library(splits, config, augment=True)
    FIXTURES.mkdir(exist_ok=True)
    v2 = FIXTURES / "library_v2.npz"
    save_library(library, v2)
    with np.load(v2) as bundle:
        version = json.loads(bytes(bundle["manifest"]).decode("utf-8"))["version"]
    if version != 2:
        v2.unlink()
        print(f"{argv[1]} writes bundle version {version}, not 2", file=sys.stderr)
        return 1
    as_version_1(v2, FIXTURES / "library_v1.npz")
    np.save(FIXTURES / "bundle_queries.npy", splits.validation.features)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
