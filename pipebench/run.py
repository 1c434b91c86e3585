"""Pipeline benchmark of asymcast: one workload, one seed, one run.

Run from the repository root:

    python3 pipebench/run.py --workload fit-augmented --seed 1 --seconds 20 --trace 0

Workloads are ``fit-augmented``, ``fit-linear-nn`` and ``score-bundle``
(see pipeline.py and README.md). ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics and the tracing overhead.

The run prints every metric by name with its unit, then, as its last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. It exits 1 when a correctness check fails
and 2 when the package source is missing. A full report (environment,
seeds, dataset hashes, per-criterion costs, span summary, and for a
traced run every span) goes to
``.pipebench_runs/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".pipebench_runs"
WORKLOAD_NAMES = ("fit-augmented", "fit-linear-nn", "score-bundle")

# One BLAS/OpenMP thread: 1 <= nproc everywhere, and the interpreted
# kernels gain nothing from threaded small matmuls.
THREADS = 1
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: n=200 and shrunk grids, for selftest.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    from asymcast import kernels

    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "use_numba": kernels.USE_NUMBA,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "asymcast" / "__init__.py").is_file():
        print(f"error: no asymcast source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import metrics
    import pipeline
    from tracing import Tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = pipeline.workloads(args.size)[args.workload]
    traced = bool(args.trace)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    ledger = pipeline.Ledger()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # count every warning; print none
            tracer = Tracer(caught)
            result = pipeline.run(workload, args.seed, args.seconds, traced, workdir, tracer, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shared = metrics.shared(workload, result, ledger)
    if traced:
        values = {**metrics.per_layer(workload, result, tracer), **shared}
        reported = [m["name"] for m in bench["per_layer"]]
    else:
        values = {**metrics.end_to_end(result), **shared}
        reported = [m["name"] for m in bench["end_to_end"]]

    report = {
        "workload": workload.name,
        "size": args.size,
        "n": workload.n,
        "fresh_rows": workload.fresh_rows,
        "seeds": {"data": args.seed, "split": args.seed, "library": args.seed,
                  "fresh_rows": result.facts.get("fresh_rows_seed")},
        "held_out_seed": pipeline.HELD_OUT_SEED,
        "environment": environment(),
        "facts": result.facts,
        "setup_s": result.setup_s,
        "iteration_s": {"untraced": result.totals[False], "traced": result.totals[True]},
        "stages_s": result.stages,
        "metrics": values,
        "ops_attempted": dict(ledger.attempted),
        "ops_failed": dict(ledger.failed),
        "problems": ledger.problems,
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        "warning_count": len(caught),
        "criteria": result.rows,
    }
    if traced:
        report["spans_timed"] = metrics.span_summary(tracer, "timed")
        report["spans_setup"] = metrics.span_summary(tracer, "setup")
        report["spans"] = [span.as_dict() for span in tracer.spans]
    report_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    for name in reported + [n for n in shared if n not in reported]:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"report: {report_path.relative_to(ROOT)}")
    correct = not ledger.failed
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(ledger.attempted.values())),
        "failed": sum(ledger.failed.values()),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
