"""Smoke test of the benchmark command on tiny inputs, for every workload.

Runs ``bench/run.py --smoke`` as a subprocess, untraced once and traced twice
per workload. Every metric BENCHMARK.json names must be reported with its
unit, no op may fail, and the traced counts and output digest must repeat
exactly for the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B"}


def _run(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def _units(specs):
    return {m["name"]: m["unit"] for m in specs}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_repeats_counts(workload):
    result, record = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_ratio"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["machine"]) == {"nproc", "cpu", "python", "numpy", "GRAPH_SHIFT_THREADS"}
    assert (record["score_mean"] is not None) == (workload in ("sweep", "compose"))

    first, first_record = _run(workload, 1)
    second, second_record = _run(workload, 1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units(SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert [first["metrics"][n]["value"] for n in counts] == [second["metrics"][n]["value"] for n in counts]
    assert first_record["counts"] == second_record["counts"]
    assert first_record["digest"] == second_record["digest"] == record["digest"]
