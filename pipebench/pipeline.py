"""The three benchmark workloads and the checks on their outputs.

Every workload drives asymcast's public API the way the paper's batch
experiment does: export seeded synthetic data, load it, split and
standardize, fit a model library, pick the validation-best symmetric and
augmented model for each of 30 asymmetric cost criteria, fit an ex-post
markdown for each pick and score all four forecasts.

- ``fit-augmented``: that pipeline with the default augmented library
  (60 fits). Tree ensembles dominate it.
- ``fit-linear-nn``: the same on more rows with only OLS, ridge and
  networks (42 fits), so the quantile LP and the network trainer do the
  work and no tree or kNN code runs.
- ``score-bundle``: set-up builds and saves the ``fit-augmented``
  library; the timed phase loads it, predicts fresh rows with every
  entry and repeats selection, markdown and scoring. No fit runs.

Seeds come from the command line only: the data, split and library seeds
are the run's seed, and score-bundle's fresh rows use a seed derived
from it.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from asymcast.data import (
    SYNTH_SCHEMA,
    SynthConfig,
    dataset_hash,
    load_csv,
    schema_to_text,
    split,
    standardize,
    synth_export,
    synth_generate,
)
from asymcast.losses import CostSpec, eval_mean
from asymcast.markdown import apply_markdown, fit_markdown
from asymcast.models import (
    LibraryConfig,
    ModelLibrary,
    build_library,
    load_library,
    predict,
    save_library,
    select_best,
)

from tracing import FIT_LAYERS, Tracer, observe_library, patched

CRITERION_FAMILIES = ("llc", "qqc", "lec")
SCHEMA_TEXT = schema_to_text(SYNTH_SCHEMA)

# A seed reserved for re-checking a gain claim; never used while tuning.
HELD_OUT_SEED = 20170710

# dataset_hash of the held-out seed's data at each full size, so a change
# to the generator or to ingestion, which changes every workload's
# inputs, fails the benchmark instead of passing unnoticed.
GOLDEN_HASHES = {
    (3000, 20170710): "24fb40b5919aba21e75b42f31a84f77b0815e61444dd6f05fe4df1d90c32649e",
    (8000, 20170710): "b778afdb41cf8b4482a3118763de34cbbe706d7d32212612fe3f98763b064fa7",
    (10000, 1390657442): "08db917df78b7a77cfcf411f09c490f26e18458af28157878c28f710e66fa2de",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    config: LibraryConfig
    setup_repeats: int
    fresh_rows: int = 0  # > 0: score a saved library instead of fitting one

    @property
    def fits(self) -> bool:
        return self.fresh_rows == 0


# Grids shrunk so every workload runs in seconds; for selftest.py.
TINY_GRID = dict(
    ridge_lambdas=(1.0,),
    knn_ks=(3, 5),
    tree_complexities=(1e-2,),
    tree_min_nodes=(10,),
    nn_hidden=(2,),
    nn_epochs=20,
    bag_counts=(2,),
    rf_trees=(3,),
    rf_mtrys=(4,),
)


def workloads(size: str = "full") -> dict[str, Workload]:
    chosen = [
        Workload("fit-augmented", 3000, LibraryConfig(), setup_repeats=15),
        Workload("fit-linear-nn", 8000, LibraryConfig(families=("ols", "ridge", "nn")), setup_repeats=15),
        # one set-up per run: score-bundle's set-up is a whole library build
        Workload("score-bundle", 3000, LibraryConfig(), setup_repeats=1, fresh_rows=10000),
    ]
    if size == "tiny":
        chosen = [
            replace(w, n=200, config=replace(w.config, **TINY_GRID), fresh_rows=min(w.fresh_rows, 300))
            for w in chosen
        ]
    return {w.name: w for w in chosen}


def fresh_rows_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def criteria(config: LibraryConfig) -> list[CostSpec]:
    return [CostSpec(f, a=a, b=1.0) for f in CRITERION_FAMILIES for a in config.aug_a_levels]


def split_standardize(dataset, seed):
    return standardize(split(dataset, seed))


class Ledger:
    """Operations attempted and failed, and what each failed check found."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.problems: list[str] = []

    def add(self, kind: str, count: int = 1):
        self.attempted[kind] += count

    def check(self, ok, kind: str, message: str):
        if not ok:
            self.failed[kind] += 1
            if len(self.problems) < 50:
                self.problems.append(message)

    def check_reference(self, n: int, seed: int) -> str:
        """Hash of the in-memory generator's data, which the CSV path must reproduce.

        Checked against GOLDEN_HASHES where (n, seed) is pinned there.
        """
        digest = dataset_hash(synth_generate(SynthConfig(n=n, seed=seed)))
        self.add("load")
        self.check(GOLDEN_HASHES.get((n, seed), digest) == digest, "load",
                   f"synthetic data for n={n}, seed={seed} no longer matches its golden hash")
        return digest

    def check_hash(self, dataset, expected: str, what: str):
        self.add("load")
        self.check(dataset_hash(dataset) == expected, "load", f"{what}: dataset_hash mismatch")

    def check_build(self, library):
        """Every planned fit succeeded and every validation forecast is finite."""
        self.add("fit", len(library.entries) + len(library.failures))
        for family, params, reason in library.failures:
            self.check(False, "fit", f"{family} {params} failed to fit: {reason}")
        self.add("predict", len(library.entries))
        for entry in library.entries:
            self.check(np.all(np.isfinite(entry.val_pred)), "predict",
                       f"entry {entry.index} has non-finite validation forecasts")

    def check_evaluation(self, library, specs, rows, preds):
        """Selections in range, symmetric picks symmetric, markdowns no worse than none."""
        n = len(library)
        self.add("select", 2 * len(rows))
        self.add("markdown", 2 * len(rows))
        for spec, row in zip(specs, rows):
            for key in ("sym", "aug"):
                index, md = row[key], row[f"{key}_md"]
                in_range = 0 <= index < n
                self.check(in_range, "select", f"{row['criterion']}: {key} pick {index} out of range")
                if not in_range:
                    continue
                entry = library.entry(index)
                if key == "sym":
                    self.check(entry.provenance == "symmetric", "select",
                               f"{row['criterion']}: symmetric pick {index} is {entry.provenance}")
                y, f = library.val_actuals, entry.val_pred
                self.check(
                    eval_mean(spec, y, apply_markdown(f, md)) <= eval_mean(spec, y, f), "markdown",
                    f"{row['criterion']}: markdown {md} on entry {index} scores worse than md=0",
                )
        self.add("predict", len(preds))
        for index, forecast in preds.items():
            self.check(np.all(np.isfinite(forecast)), "predict",
                       f"entry {index} has non-finite forecasts on the scored rows")


# ------------------------------------------------------------ the pipeline

def evaluate(tracer: Tracer, library, specs, X_eval, y_eval, preds: dict) -> list[dict]:
    """Symmetric and augmented best per criterion, their markdowns and scores.

    ``preds`` caches forecasts of the scored rows by entry index; missing
    ones are predicted here.
    """
    symmetric = ModelLibrary(
        [e for e in library.entries if e.provenance == "symmetric"],
        library.val_actuals,
        False,
        library.master_seed,
    )
    rows = []
    for spec in specs:
        row = {"criterion": spec.describe()}
        for key, candidates in (("sym", symmetric), ("aug", library)):
            index = tracer.call("library.select_best", select_best, candidates, spec)
            entry = library.entry(index)
            md = tracer.call(
                "markdown.fit_markdown", fit_markdown, entry.val_pred, library.val_actuals, spec,
                observe=lambda md: {"guard_hit": int(md == 0.0)},
            )
            if index not in preds:
                preds[index] = tracer.predict(entry.model, X_eval)
            forecast = preds[index]
            row[key] = index
            row[f"{key}_md"] = md
            row[f"{key}_cost"] = tracer.call("losses.eval_mean", eval_mean, spec, y_eval, forecast)
            row[f"{key}_md_cost"] = tracer.call(
                "losses.eval_mean", eval_mean, spec, y_eval, apply_markdown(forecast, md)
            )
        rows.append(row)
    return rows


def predict_all(tracer: Tracer, library, X) -> dict:
    return {entry.index: tracer.predict(entry.model, X) for entry in library.entries}


def _export(tracer: Tracer, directory: Path, n: int, seed: int) -> Path:
    directory.mkdir(parents=True)
    csv_path = directory / "data.csv"
    tracer.call("data.synth_export", synth_export, csv_path, directory / "data.schema",
                SynthConfig(n=n, seed=seed))
    return csv_path


def _setup(workload: Workload, seed: int, directory: Path, tracer: Tracer) -> dict:
    state = {"csv": _export(tracer, directory, workload.n, seed)}
    if workload.fits:
        return state
    dataset = tracer.call("data.load_csv", load_csv, state["csv"], SCHEMA_TEXT)
    splits, scaler = tracer.call("data.split_standardize", split_standardize, dataset, seed)
    library = tracer.call("library.build_library", build_library, splits, workload.config, True, 1,
                          observe=observe_library)
    bundle = directory / "library.npz"
    tracer.call("library.save_library", save_library, library, bundle,
                observe=lambda _: {"bytes": os.path.getsize(bundle)})
    state.update(
        dataset=dataset,
        library=library,
        bundle=bundle,
        scaler=scaler,
        X_val=splits.validation.features,
        fresh_csv=_export(tracer, directory / "fresh", workload.fresh_rows, fresh_rows_seed(seed)),
    )
    return state


def _iteration(workload: Workload, seed: int, state: dict, tracer: Tracer, specs) -> dict:
    if workload.fits:
        dataset = tracer.stage("data.load_csv", load_csv, state["csv"], SCHEMA_TEXT)
        splits, _ = tracer.stage("data.split_standardize", split_standardize, dataset, seed)
        library = tracer.stage("library.build_library", build_library, splits, workload.config,
                               True, 1, observe=observe_library)
        X_eval, y_eval, preds = splits.test.features, splits.test.target, {}
    else:
        library = tracer.stage("library.load_library", load_library, state["bundle"],
                               observe=observe_library)
        dataset = tracer.stage("data.load_csv", load_csv, state["fresh_csv"], SCHEMA_TEXT)
        X_eval = tracer.stage("data.transform", state["scaler"].transform, dataset.features)
        y_eval = dataset.target
        preds = tracer.stage("bench.predict_all", predict_all, tracer, library, X_eval)
    rows = tracer.stage("bench.evaluate", evaluate, tracer, library, specs, X_eval, y_eval, preds)
    return {"dataset": dataset, "library": library, "preds": preds, "rows": rows}


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    totals: dict = field(default_factory=lambda: {False: [], True: []})
    stages: list = field(default_factory=list)  # stage times of the untraced iterations
    rows: list = field(default_factory=list)  # evaluation of the first iteration
    facts: dict = field(default_factory=dict)


def run(workload: Workload, seed: int, seconds: float, traced: bool, workdir: Path,
        tracer: Tracer, ledger: Ledger) -> RunResult:
    """Set up, run timed iterations for about ``seconds``, check every output.

    A traced run alternates untraced and traced iterations, so the
    tracing overhead is measured on the same inputs in the same process.
    """
    result = RunResult()
    specs = criteria(workload.config)
    facts = result.facts
    facts["dataset_hash"] = ledger.check_reference(workload.n, seed)

    tracer.phase, tracer.enabled = "setup", traced
    with patched(tracer) if traced else nullcontext():
        for repeat in range(workload.setup_repeats):
            start = time.perf_counter()
            state = _setup(workload, seed, workdir / f"setup{repeat}", tracer)
            result.setup_s.append(time.perf_counter() - start)
    tracer.enabled = False

    if not workload.fits:
        ledger.check_hash(state.pop("dataset"), facts["dataset_hash"], "bundle training data")
        library = state.pop("library")
        ledger.check_build(library)
        facts.update(
            fresh_rows_seed=fresh_rows_seed(seed),
            fresh_rows_hash=ledger.check_reference(workload.fresh_rows, fresh_rows_seed(seed)),
            bundle_bytes=os.path.getsize(state["bundle"]),
            entries_saved=len(library),
        )
        del library

    tracer.phase = "timed"
    rounds, start = 0, time.perf_counter()
    while True:
        order = (False, True) if traced else (False,)
        for flag in order if rounds % 2 == 0 else order[::-1]:
            tracer.enabled, tracer.iteration, tracer.stages = flag, tracer.iteration + 1, {}
            with patched(tracer) if flag else nullcontext():
                began = time.perf_counter()
                out = _iteration(workload, seed, state, tracer, specs)
                result.totals[flag].append(time.perf_counter() - began)
            tracer.enabled = False
            if not flag:
                result.stages.append(dict(tracer.stages))
            _check_iteration(workload, facts, out, specs, ledger)
            if not result.rows:
                result.rows = out["rows"]
            facts["entries"] = len(out["library"])
            if workload.fits:
                facts["fits_attempted"] = len(out["library"]) + len(out["library"].failures)
            del out
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break

    if not workload.fits:
        # each loaded model must reproduce the validation forecasts it was saved with
        library = load_library(state["bundle"])
        ledger.add("predict", len(library))
        for entry in library.entries:
            ledger.check(np.array_equal(predict(entry.model, state["X_val"]), entry.val_pred),
                         "predict", f"loaded entry {entry.index} does not reproduce its val_pred")
        if traced:
            fit_spans = {f"{layer}.{fit}" for fit, layer in FIT_LAYERS.items()} | {"library.build_library"}
            fits = sorted({s.name for s in tracer.spans if s.phase == "timed" and s.name in fit_spans})
            ledger.check(not fits, "fit", f"score-bundle's timed phase ran fits: {fits}")
    return result


def _check_iteration(workload: Workload, facts: dict, out: dict, specs, ledger: Ledger):
    library = out["library"]
    if workload.fits:
        ledger.check_hash(out["dataset"], facts["dataset_hash"], "training data")
        ledger.check_build(library)
    else:
        ledger.add("load")
        ledger.check(len(library) == facts["entries_saved"], "load",
                     f"loaded {len(library)} entries, saved {facts['entries_saved']}")
        ledger.check_hash(out["dataset"], facts["fresh_rows_hash"], "fresh rows")
    ledger.check_evaluation(library, specs, out["rows"], out["preds"])
