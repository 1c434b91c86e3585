"""The kernel microbenchmark script runs at its tiny sizes and reports every kernel."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"
KERNELS = {
    "tree_build", "tree_predict", "forest_fit", "nn_objective_and_grad", "nn_fit", "fit_quantile",
    "knn_rank", "csv_export", "select_best",
}


def test_bench_kernels_tiny_prints_one_json_line(tmp_path):
    before = sorted((p, p.stat().st_mtime_ns) for p in (ROOT / "pipebench").rglob("*"))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", str(SCRIPT), "--tiny"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report["seconds"]) == KERNELS
    assert all(math.isfinite(s) and s > 0 for s in report["seconds"].values())
    assert set(report["peak_bytes"]) == {"csv_export", "select_best"}
    for peak in report["peak_bytes"].values():
        assert isinstance(peak, int) and peak > 0
    assert report["seed"] == 1 and report["sizes"]["query_rows"] == 300
    # -X importtime lists every imported module on stderr
    assert "pipebench" not in run.stderr
    assert list(tmp_path.iterdir()) == []
    assert sorted((p, p.stat().st_mtime_ns) for p in (ROOT / "pipebench").rglob("*")) == before
