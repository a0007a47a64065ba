"""Smoke test of the benchmark harness: every workload, both modes, tiny inputs.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
It asserts that the harness runs and its output checks pass; it asserts
nothing about timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT, declared
from tracing import EXACT_COUNTS
from workloads import WORKLOADS


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    out = result(bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    saved = json.loads((ROOT / ".bench_run" / f"{workload}-trace0" / "result.json").read_text())
    for key in ("cpu", "nproc", "python", "numpy", "blas", "blas_threads", "seed", "git_commit",
                "run_seconds", "samples"):
        assert key in saved["context"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_counts_repeat(workload):
    runs = [result(bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
                         "--smoke")) for seed in (2, 2)]
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
    first, second = ({c: r["metrics"][c]["value"] for c in EXACT_COUNTS} for r in runs)
    assert first == second
    spans = ROOT / ".bench_run" / f"{workload}-trace1" / "trace.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "command"}


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
