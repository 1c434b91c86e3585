"""Check that a library bundle saved by one checkout loads in another.

    python tests/bundle_compat.py save lib.npz --src ../other/src   # build and save there
    python tests/bundle_compat.py load lib.npz                      # load here and check

``save`` builds the default augmented library on seeded synthetic data
and saves it, and writes next to it the built library's forecasts of
seeded fresh rows (``<bundle>.fresh.npy``, one row per entry) and each
entry's training loss on a fixed residual grid (``<bundle>.loss.npy``).
``load`` loads a bundle and checks, bit for bit, that every entry
predicts its stored validation forecasts on the same seeded data and the
saved forecasts of the fresh rows, which the bundle does not store. It
checks the loss values with ``==``, so a zero loss may change sign. Both
import ``asymcast`` from ``--src`` (by default this checkout's
``src/``), so running one mode at each of two commits checks the bundle
format and the loaded models across them. ``--n`` and ``--seed`` must
match between the two runs. The script exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# seeded rows the bundle does not store, forecast before saving and after loading
FRESH_ROWS = 2000
# residuals at which each entry's training loss is evaluated before saving and after loading
LOSS_GRID = (-2.0, -0.5, -0.1, -0.03, -1e-3, 0.0, 1e-3, 0.03, 0.1, 0.5, 2.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("save", "load"))
    parser.add_argument("bundle", type=Path)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    import numpy as np

    import asymcast
    from asymcast.data import SynthConfig, split, standardize, synth_generate
    from asymcast.losses import eval_loss
    from asymcast.models import LibraryConfig, build_library, load_library, predict, save_library

    splits, scaler = standardize(
        split(synth_generate(SynthConfig(n=args.n, seed=args.seed)), args.seed)
    )
    fresh = scaler.transform(synth_generate(SynthConfig(n=FRESH_ROWS, seed=args.seed + 1)).features)
    fresh_path = args.bundle.with_name(args.bundle.name + ".fresh.npy")
    loss_path = args.bundle.with_name(args.bundle.name + ".loss.npy")

    def forecasts(library, X):
        return np.vstack([predict(entry.model, X) for entry in library.entries])

    def losses(library):
        grid = np.array(LOSS_GRID)
        return np.vstack([eval_loss(entry.model.loss_mode, grid) for entry in library.entries])

    if args.mode == "save":
        library = build_library(splits, LibraryConfig(), augment=True)
        save_library(library, args.bundle)
        np.save(fresh_path, forecasts(library, fresh))
        np.save(loss_path, losses(library))
        print(f"saved {len(library)} entries with {asymcast.__file__}")
        return 0
    library = load_library(args.bundle)
    if not np.array_equal(library.val_actuals, splits.validation.target):
        print("the bundle's validation targets are not this --n and --seed's data")
        return 1
    stored = np.load(fresh_path)
    wrong = []
    for name, expected, X in (
        ("validation", library.validation_matrix(), splits.validation.features),
        ("fresh", stored, fresh),
    ):
        got = forecasts(library, X)
        same = (got.view(np.int64) == expected.view(np.int64)).all(axis=1)
        wrong += [(name, entry.index) for entry, ok in zip(library.entries, same) if not ok]
    same = (losses(library) == np.load(loss_path)).all(axis=1)
    wrong += [("loss", entry.index) for entry, ok in zip(library.entries, same) if not ok]
    print(f"loaded {len(library)} entries with {asymcast.__file__}; differing: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
