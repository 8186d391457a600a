"""The benchmark runs every workload end to end: a short run of
``perfbench/run.py`` exits 0 with every job correct."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    WORKLOADS = [workload["name"] for workload in json.load(handle)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stdout
    assert summary["attempted"] > 0
