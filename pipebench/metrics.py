"""End-to-end metrics of an untraced run and per-layer metrics of a traced one."""

from __future__ import annotations

import math
import resource
import statistics
from collections import defaultdict

from pipeline import Ledger, RunResult, Workload
from tracing import Tracer

TREE_FITS = ("trees.fit_tree", "trees.fit_bagged_tree", "trees.fit_random_forest")


def _geomean_ratio(rows, numerator: str, denominator: str) -> float:
    return math.exp(statistics.fmean(math.log(r[numerator] / r[denominator]) for r in rows))


def _median_stage(result: RunResult, name: str) -> float:
    return statistics.median(stages[name] for stages in result.stages)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def shared(workload: Workload, result: RunResult, ledger: Ledger) -> dict:
    """Throughput and failure figures, defined for both kinds of run.

    ``fits_per_s`` is 0 on score-bundle, which fits nothing in its timed
    phase, and ``scored_rows_per_s`` is 0 on the fit workloads.
    """
    facts = result.facts
    attempted = sum(ledger.attempted.values())
    fits_per_s = scored_rows_per_s = 0.0
    if workload.fits:
        fits_per_s = facts["fits_attempted"] / _median_stage(result, "library.build_library")
    else:
        scored = workload.fresh_rows * facts["entries"]
        scored_rows_per_s = scored / _median_stage(result, "bench.predict_all")
    return {
        "fits_per_s": fits_per_s,
        "scored_rows_per_s": scored_rows_per_s,
        "failed_ratio": sum(ledger.failed.values()) / max(1, attempted),
        "ops_attempted": attempted,
    }


def end_to_end(result: RunResult) -> dict:
    return {
        "total_s": statistics.median(result.totals[False]),
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": _peak_rss_mb(),
        "cost_ratio_aug": _geomean_ratio(result.rows, "aug_cost", "sym_cost"),
        "cost_ratio_aug_md": _geomean_ratio(result.rows, "aug_md_cost", "sym_cost"),
    }


class SpanTable:
    """Sums over the spans of one phase, per iteration of that phase."""

    def __init__(self, spans, per: int):
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
        self.per = max(1, per)

    def seconds(self, *names) -> float:
        return sum(s.seconds for n in names for s in self.by_name[n]) / self.per

    def self_seconds(self, *names) -> float:
        return sum(s.seconds - s.child_s for n in names for s in self.by_name[n]) / self.per

    def calls(self, *names) -> float:
        return sum(len(self.by_name[n]) for n in names) / self.per

    def info(self, key: str, *names) -> float:
        return sum((s.info or {}).get(key, 0) for n in names for s in self.by_name[n]) / self.per

    def warnings(self, layer: str) -> float:
        return sum(
            s.warnings for n, spans in self.by_name.items() if n.startswith(layer + ".") for s in spans
        ) / self.per


def per_layer(workload: Workload, result: RunResult, tracer: Tracer) -> dict:
    timed = SpanTable((s for s in tracer.spans if s.phase == "timed"), len(result.totals[True]))
    setup = SpanTable((s for s in tracer.spans if s.phase == "setup"), workload.setup_repeats)
    markdown_spans = {s.id for s in timed.by_name["markdown.fit_markdown"]}
    objective_evals = sum(s.parent in markdown_spans for s in timed.by_name["losses.eval_mean"])
    return {
        "trees.fit_s": timed.seconds(*TREE_FITS),
        "trees.forest_fit_s": timed.seconds("trees.fit_bagged_tree", "trees.fit_random_forest"),
        "trees.predict_s": timed.seconds("trees.predict"),
        "trees.nodes": timed.info("nodes", *TREE_FITS, "library.load_library"),
        "trees.row_visits": timed.info("row_visits", "trees.predict"),
        "linear.quantile_fit_s": timed.seconds("linear.fit_quantile"),
        "linear.quantile_fits": timed.calls("linear.fit_quantile"),
        "linear.ls_fit_s": timed.seconds("linear.fit_ols", "linear.fit_ridge"),
        "neural.fit_s": timed.seconds("neural.fit_nn"),
        "neural.fits": timed.calls("neural.fit_nn"),
        "neural.epochs_run": timed.info("epochs", "neural.fit_nn"),
        "neural.predict_s": timed.seconds("neural.predict"),
        "neural.runtime_warnings": timed.warnings("neural"),
        "neighbors.predict_s": timed.seconds("neighbors.predict"),
        "neighbors.query_rows": timed.info("rows", "neighbors.predict"),
        "library.build_s": timed.seconds("library.build_library"),
        "library.build_self_s": timed.self_seconds("library.build_library"),
        "library.fits_attempted": timed.info("fits_attempted", "library.build_library"),
        "library.fits_failed": timed.info("fits_failed", "library.build_library"),
        "library.select_s": timed.seconds("library.select_best"),
        "library.select_calls": timed.calls("library.select_best"),
        "library.save_s": setup.seconds("library.save_library"),
        "library.load_s": timed.seconds("library.load_library"),
        "library.bundle_bytes": setup.info("bytes", "library.save_library"),
        "data.load_csv_s": timed.seconds("data.load_csv"),
        "data.split_standardize_s": timed.seconds("data.split_standardize", "data.transform"),
        "losses.eval_mean_calls": timed.calls("losses.eval_mean"),
        "losses.eval_mean_s": timed.seconds("losses.eval_mean"),
        "markdown.fit_s": timed.seconds("markdown.fit_markdown"),
        "markdown.fits": timed.calls("markdown.fit_markdown"),
        "markdown.objective_evals": objective_evals / timed.per,
        "markdown.guard_hits": timed.info("guard_hit", "markdown.fit_markdown"),
        "trace.overhead_s": statistics.median(result.totals[True])
        - statistics.median(result.totals[False]),
    }


def span_summary(tracer: Tracer, phase: str) -> dict:
    """Calls, total and self seconds and RuntimeWarnings per span name."""
    summary = {}
    for span in tracer.spans:
        if span.phase != phase:
            continue
        row = summary.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "runtime_warnings": 0})
        row["calls"] += 1
        row["s"] += span.seconds
        row["self_s"] += span.seconds - span.child_s
        row["runtime_warnings"] += span.warnings
    return dict(sorted(summary.items()))
