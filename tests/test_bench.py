"""Smoke tests of the benchmark: one short traced run of each workload must
exit 0 with every chunk correct, which checks that the chunks agree, the
workload's shape and the traced mode's layer and episode counts, and, on the
numpy and BLAS build they were recorded with, the seed-0 output digests.  On
any other build the runs use seed 3, whose digests are not recorded."""

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


def _traced_run_is_correct(tmp_path, workload):
    # run from a copy, so the run's .bench_out/ stays out of the checkout
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py"):
        shutil.copy(ROOT / "bench" / name, tmp_path / "bench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0", "--seed", "0" if _digest_build() else "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_traced_tree85_run_is_correct(tmp_path):
    # per training step, one P application for the second hop and one
    # write-back for every episode's class rows; per eval block of 40
    # episodes, one of each
    metrics = _traced_run_is_correct(tmp_path, "tree-85")
    assert metrics["train.graph.Propagation.apply.calls"]["value"] == 1 + 1
    assert metrics["eval.graph.Propagation.apply.calls"]["value"] == 2 / 40


def test_traced_tree585_run_is_correct(tmp_path):
    # the workload whose training propagates the smallest share of its rows;
    # per training step, one P application for the second hop and one
    # write-back for every episode's class rows; per eval block of 20
    # episodes, emitted as a training step is, one second-hop application
    # on the union of the block's N(i) and one write-back
    metrics = _traced_run_is_correct(tmp_path, "tree-585")
    assert metrics["train.graph.Propagation.apply.calls"]["value"] == 1 + 1
    assert metrics["eval.graph.Propagation.apply.calls"]["value"] == 2 / 20
