"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
size, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, report exactly the metrics ``BENCHMARK.json`` names
for its mode with their units, and fail no op and no output check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=BENCH_DIR.parent,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0, completed.stdout
    assert result["correct"]
