"""The benchmark's own smoke test, run against this checkout.

A program change that breaks a name, signature or output the benchmark
relies on fails here rather than only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]


@pytest.mark.parametrize("workload", ["2d-disk-28", "3d-smooth-16"])
def test_traced_bench_run_matches_the_recorded_references(workload):
    # a traced run checks the exact raw bar counts of every sample, per
    # compute_persistence call, against perfbench/reference/; the smoke
    # workloads above have no recorded references. A seed without one still
    # reads correct, so the run must also say that it checked one.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-4000:]
    assert any(line.endswith("reference checked: True") for line in proc.stdout.splitlines()), \
        proc.stdout[-4000:]
