"""Smoke test for the benchmark at the smallest scale ``train dnn`` accepts.

    python -m pytest -q bench/test_smoke.py

Ten sessions per class give the 21 training rows a network needs. Every
workload runs untraced and traced; no command may fail, the outputs must
pass their checks, and the metric names and units must be exactly those
``BENCHMARK.json`` declares. The benchmark must also refuse to run where
there is no source to benchmark.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALLEST_SCALE = 10

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--sessions-per-class", str(SMALLEST_SCALE),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_source():
    # The copy lives in the checkout's ignored work area, as the benchmark's
    # own files do.
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    copy = tempfile.mkdtemp(prefix="nosrc-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(copy, path), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(copy, "--workload", "sessions", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(copy)
        with contextlib.suppress(OSError):
            os.rmdir(work)
    assert proc.returncode != 0
    assert proc.stdout == ""
