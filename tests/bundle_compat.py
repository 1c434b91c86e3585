"""Check that a library bundle saved by one checkout loads in another.

    python tests/bundle_compat.py save lib.npz --src ../other/src   # build and save there
    python tests/bundle_compat.py load lib.npz                      # load here and check

``save`` builds the default augmented library on seeded synthetic data
and saves it. ``load`` loads a bundle and checks that every entry
predicts its stored validation forecasts bit for bit, on the same
seeded data. Both import ``asymcast`` from ``--src`` (by default this
checkout's ``src/``), so running one mode at each of two commits checks
the bundle format across them. ``--n`` and ``--seed`` must match
between the two runs. The script exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


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
    from asymcast.models import LibraryConfig, build_library, load_library, predict, save_library

    splits, _ = standardize(split(synth_generate(SynthConfig(n=args.n, seed=args.seed)), args.seed))
    if args.mode == "save":
        library = build_library(splits, LibraryConfig(), augment=True)
        save_library(library, args.bundle)
        print(f"saved {len(library)} entries with {asymcast.__file__}")
        return 0
    library = load_library(args.bundle)
    X_val = splits.validation.features
    if not np.array_equal(library.val_actuals, splits.validation.target):
        print("the bundle's validation targets are not this --n and --seed's data")
        return 1
    wrong = [
        entry.index
        for entry in library.entries
        if not np.array_equal(predict(entry.model, X_val).view(np.int64), entry.val_pred.view(np.int64))
    ]
    print(f"loaded {len(library)} entries with {asymcast.__file__}; differing: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
