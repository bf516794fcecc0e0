#!/usr/bin/env python3
"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --workload census --runs 10 --first-seed 1

Runs ``bench/run.py`` once per seed, one run at a time, with the run length
from BENCHMARK.json. For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound. ``--out`` also writes every
run's result and record line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, record = run_once(args.workload, seed, spec["run_seconds"])
        runs.append({"seed": seed, "result": result, "record": record})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed} correct={result['correct']} ops={record['ops']} {values}", flush=True)

    print(f"{args.workload}: {len(runs)} runs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        print(f"  {name:<12} median {median:12.6g} {metric['unit']:<5} q1 {q1:12.6g} q3 {q3:12.6g}"
              f"  spread {share:6.3f}  bound {metric['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
