"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 pipebench/selftest.py

Runs every workload untraced and traced with ``--size tiny`` (n=200,
shrunk grids, 20 network epochs) and checks that

- each run exits 0 and its last line is the result object, carrying
  exactly the metrics BENCHMARK.json lists for that mode;
- fit-linear-nn's traced run spends no time in trees or kNN, and
  score-bundle's timed phase fits nothing;
- a run whose markdown check fails exits non-zero and counts the failure;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "pipebench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def main() -> int:
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            code, lines, stderr = run_cli(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0, f"{label}: exit {code}\n{stderr[-2000:]}")
            if code != 0:
                continue
            result = json.loads(lines[-1])
            expected = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct={result['correct']} failed={result['failed']}")
            expect(list(result["metrics"]) == expected,
                   f"{label}: metrics {sorted(set(expected) ^ set(result['metrics']))} differ")
            for name in expected:
                printed = any(line.startswith(f"{name} = ") for line in lines)
                expect(printed, f"{label}: {name} not printed by name")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and workload == "fit-linear-nn":
                idle = [k for k in values if k.split(".")[0] in ("trees", "neighbors") and k.endswith("_s")]
                expect(idle and all(values[k] == 0 for k in idle), f"{label}: tree/kNN time {idle}")
            if trace and workload == "score-bundle":
                expect(values["library.fits_attempted"] == 0 and values["trees.fit_s"] == 0,
                       f"{label}: fits in the timed phase")

    # a failed correctness check must fail the run
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pipeline
    import run

    real_fit_markdown = pipeline.fit_markdown
    pipeline.fit_markdown = lambda forecasts, actuals, criterion: 0.5
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "fit-linear-nn", "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--size", "tiny"])
    finally:
        pipeline.fit_markdown = real_fit_markdown
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code != 0 and not result["correct"] and result["failed"] > 0,
           f"forced markdown failure: exit {code}, result {result['correct']}/{result['failed']}")

    # without the package source the run must refuse to produce a result
    (ROOT / ".pipebench_runs").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".pipebench_runs"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run_cli("fit-augmented", 0, cwd=bare)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               f"bare directory: exit {code}, output {lines}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
