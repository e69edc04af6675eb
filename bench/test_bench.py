"""Self-test of the benchmark: names, correctness, exact counts, refusal.

    python3 -m pytest -q bench/test_bench.py

Runs every workload three times, about two minutes in all: two traced
runs whose work counts must repeat exactly, and one short untraced run
for the end-to-end metrics.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts that depend only on the workload and the program, never on timing
EXACT_COUNTS = (
    "metrology.cat_crb_calls",
    "coherent.state_calls",
    "closedform.formula_calls",
    "scan.find_hl_evals",
)


def _run(cwd: Path, workload: str, trace: int, seed: int = 7, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported_and_positive(workload):
    metrics = _result(_run(ROOT, workload, trace=0))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in metrics.items()
    }
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(ROOT, workload, trace=1, seed=7))["metrics"]
    second = _result(_run(ROOT, workload, trace=1, seed=7))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: v["unit"] for name, v in first.items()
    }
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    # the layers' self times cover the traced pass, bar the benchmark's own loop
    assert first["trace.layer_share"]["value"] >= 0.95
    if workload == "scan-half":
        assert first["metrology.cat_crb_calls"]["value"] == 201 * 201
    if workload == "verify-all":
        assert first["closedform.formula_calls"]["value"] == 22 * 2500


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], trace=0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
