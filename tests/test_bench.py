"""Smoke test of the benchmark: one short traced tree-85 run must exit 0 with
every chunk correct, which checks that the chunks agree, the workload's
shape and the traced mode's layer and episode counts, and, on the numpy and
BLAS build they were recorded with, the seed-0 output digests.  On any other
build the run uses seed 3, whose digests are not recorded."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _digest_build() -> bool:
    """True on the numpy and BLAS build the seed-0 digests were recorded with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (np.__version__ == "2.4.6" and blas.get("name") == "scipy-openblas"
            and str(blas.get("version", "")).startswith("0.3.31"))


def test_traced_tree85_run_is_correct(tmp_path):
    # run from a copy, so the run's .bench_out/ stays out of the checkout
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py"):
        shutil.copy(ROOT / "bench" / name, tmp_path / "bench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-85", "--trace", "1",
         "--seconds", "0", "--seed", "0" if _digest_build() else "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
