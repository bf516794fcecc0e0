#!/usr/bin/env python3
"""graph-shift benchmark: one workload per run, one client in a closed loop.

    python3 bench/run.py --workload compose --seed 1 --seconds 20 --trace 0

Runs from a source checkout: it imports ``src/graph_shift`` next to this
directory, in one process on one thread (``GRAPH_SHIFT_THREADS=1``). Ops run
back to back, in whole cycles of the workload, until they have been busy for
``--seconds``; every output is checked and a failed check or an exception
counts as a failed op.

``--trace 0`` reports the end-to-end metrics, with times rescaled to a
reference machine speed (probe.py). ``--trace 1`` runs one cycle untraced,
the same cycle with the per-layer tracer installed and again untraced, and
reports the per-layer metrics and the tracing overhead. ``--smoke`` shrinks
every input so a run takes seconds.

Stdout ends with a human-readable table, one ``record`` line (machine facts,
output digest, error ratio, score mean, counts) and, last, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("GRAPH_SHIFT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: A timed run sets up at least this many times, and for at least this many
#: seconds; `setup_s` is the median. ``--smoke`` sets up once.
SETUP_REPEATS = 5
SETUP_MIN_S = 4.0


def fresh_import():
    """Import graph_shift from the checkout anew, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "graph_shift" or m.startswith("graph_shift.")]:
        del sys.modules[name]
    pkg = importlib.import_module("graph_shift")
    importlib.import_module("graph_shift.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"graph_shift imported from {pkg.__file__}, not from {SRC}")
    return pkg


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "GRAPH_SHIFT_THREADS": os.environ["GRAPH_SHIFT_THREADS"],
    }


class Outcome:
    """Checks, digest and scores of the ops of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # input key -> sha256 of its first output
        self.first_cycle = hashlib.sha256()
        self.scores = []

    def record(self, i, out, error):
        self.attempted += 1
        if error is not None:
            problems, raw, score = [f"op {i} raised {error!r}"], b"", None
        else:
            problems, raw, score = self.wl.check(i, out)
        key = self.wl.key(i)
        digest = hashlib.sha256(raw).hexdigest()
        if key in self.digests:
            if not problems and self.digests[key] != digest:
                problems.append(f"op {i}: output differs from the earlier run of the same input")
        elif not problems:  # only a correct output becomes the reference
            self.digests[key] = digest
            if i < self.wl.cycle_len:
                self.first_cycle.update(raw)
                if score is not None:
                    self.scores.append(score)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)


def run_op(wl, i, probe=None):
    """Run op i: (output, exception or None, rescaled s, raw s)."""
    def op():
        try:
            return wl.run(i), None
        except Exception as exc:  # a failing op is counted, and the run goes on
            traceback.print_exc()
            return None, exc

    # Collect the garbage of earlier ops first, so one op's leftovers (K7
    # leaves 63,840 mappings) do not slow the collections of the next.
    gc.collect()
    if probe:
        (out, error), dt, dt_raw = probe.time(op)
        return out, error, dt, dt_raw
    t0 = perf_counter()
    out, error = op()
    dt = perf_counter() - t0
    return out, error, dt, dt


def run_cycle(wl, outcome, first=0):
    """Run and check one cycle of ops, from op `first`: busy time in raw s."""
    busy = 0.0
    for i in range(first, first + wl.cycle_len):
        out, error, dt, _ = run_op(wl, i)
        busy += dt
        outcome.record(i, out, error)
        del out
    return busy


def timed_run(wl_cls, args, workdir):
    repeats, min_s = (1, 0.0) if args.smoke else (SETUP_REPEATS, SETUP_MIN_S)
    setup, setup_raw, times, raw = [], [], [], []
    probe = SpeedProbe()
    start = perf_counter()
    while len(setup) < repeats or perf_counter() - start < min_s:
        wl = None  # free the previous set-up before timing the next
        gc.collect()
        wl, dt, dt_raw = probe.time(lambda: wl_cls(fresh_import(), args.seed, args.smoke, workdir))
        setup.append(dt)
        setup_raw.append(dt_raw)

    outcome = Outcome(wl)
    with probe:
        i = 0
        while True:
            for _ in range(wl.cycle_len):
                out, error, dt, dt_raw = run_op(wl, i, probe)
                times.append(dt)
                raw.append(dt_raw)
                outcome.record(i, out, error)
                del out
                i += 1
            if sum(raw) >= args.seconds:
                break

    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "ops": len(times),
        "cycles": len(times) // wl.cycle_len,
        "busy_s": sum(times),
        "raw_busy_s": sum(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "probe_mean_s": statistics.fmean(probe.samples),
        "probes": len(probe.samples),
        "setups": len(setup),
        "raw_setup_s": statistics.median(setup_raw),
    }
    return outcome, metrics, extra


def traced_run(wl_cls, args, workdir):
    """Set up traced, then run one cycle untraced, traced and untraced again.

    The first untraced cycle pays the one-time costs (filled caches), so the
    overhead compares the traced cycle with the mean of the untraced cycles
    on either side of it and measures only the tracer.
    """
    gs = fresh_import()
    tracer = tracing.Tracer(gs)
    with tracer.installed():
        wl = wl_cls(gs, args.seed, args.smoke, workdir)
    outcome = Outcome(wl)
    n = wl.cycle_len
    before_s = run_cycle(wl, outcome)

    traced = 0.0
    per_op = []
    with tracer.installed():
        for i in range(n, 2 * n):
            before = (tracer.calls["search.minimize_s"], tracer.counts["search.rows_scored"])
            out, error, dt, _ = run_op(wl, i)
            traced += dt
            per_op.append({
                "minimize_s_calls": tracer.calls["search.minimize_s"] - before[0],
                "rows_scored": tracer.counts["search.rows_scored"] - before[1],
            })
            with tracer.paused():
                outcome.record(i, out, error)
            del out

    after_s = run_cycle(wl, outcome, 2 * n)
    untraced = (before_s + after_s) / 2
    metrics = tracing.layer_metrics(tracer, traced / untraced - 1)
    for key, calls, total, self_s in tracer.table():
        print(f"  span {key:<45} calls {calls:>9} total {total:10.4f} s  self {self_s:10.4f} s",
              file=sys.stderr)
    extra = {
        "ops": outcome.attempted,
        "traced_s": traced,
        "untraced_s": untraced,
        "counts": {k: tracer.counts[k] for k in sorted(tracer.counts)},
        "first_op": per_op[0],
    }
    return outcome, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    if not (SRC / "graph_shift" / "__init__.py").is_file():
        print(f"error: no graph_shift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        outcome, metrics, extra = run(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    error_ratio = outcome.failed / outcome.attempted
    score_mean = statistics.fmean(outcome.scores) if outcome.scores else None
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={extra['ops']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {'error_ratio':<32} {error_ratio:>16.6g} ratio")
    if score_mean is not None:
        print(f"  {'score_mean':<32} {score_mean:>16.6g} score")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(),
        "digest": outcome.first_cycle.hexdigest(),
        "error_ratio": error_ratio,
        "score_mean": score_mean,
        **extra,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
