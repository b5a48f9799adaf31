"""Smoke run of the benchmark: every workload for one round, with its checks.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced at the shortest length (one round).
The tests check the result line against BENCHMARK.json and that the
program's outputs passed the workload's checks. They carry no wall-time
bounds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 900


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = BENCH / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("out", "tmp", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "gradcheck", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
