"""Smoke test of the benchmark itself, on tiny inputs (a few seconds).

Usage (from the repository root): python3 perfbench/smoke.py

Runs every tiny workload untraced and traced, and checks that each result is
correct and every end-to-end metric is non-zero; then checks that the
command fails, printing no result, where the program is absent.
"""

import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads
import workloads


def check_results() -> None:
    for spec in workloads.TINY.values():
        for trace in (False, True):
            record = run.run(spec, seed=3, seconds=0.2, trace=trace)
            where = f"{spec.name} trace={int(trace)}"
            assert record["correct"] and record["failed"] == 0, (where, record["failures"])
            assert record["attempted"] >= 1, where
            if not trace:
                assert all(m["value"] > 0 for m in record["metrics"].values()), (where, record["metrics"])


def check_without_program(manifest) -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in manifest["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    name = next(iter(workloads.WORKLOADS))
    args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(manifest["command"] + args, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"


def main() -> int:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    check_results()
    check_without_program(manifest)
    print("perfbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
