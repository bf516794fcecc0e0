"""Byte-identity of search outputs against values pinned from an earlier build.

The pinned file holds the sha256 of a `graph-shift sweep` CSV on a small
geometric graph and the JSON traces of `best_composition` on the acceptance
instance (n=100, r=0.15, seed 3, 82 -> 8) at K = 1, 2, 3 and 4, and the
sha256 of the benchmark's sweep CSV (n=24), which
`test_cli_outputs_are_byte_identical_across_runs` checks, with that
sweep's `SearchStats` per block size. A change to the search kernel that
alters any score bit, tie-break or chosen row shows up here, and so does
one that changes the rows it considers, computes or reads from the
round cache.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from graph_shift import cli
from graph_shift.graph import make_random_geometric
from graph_shift.relax import ScoreParams
from graph_shift.search import (
    DEFAULT_BLOCKS,
    DEFAULT_WEIGHTS,
    SearchStats,
    best_composition,
    expand_support,
    parameter_sweep,
)

GOLDEN = json.loads(Path(__file__).with_name("golden_search.json").read_text())


def test_sweep_csv_bytes_are_pinned(tmp_path):
    gp, out = tmp_path / "g.json", tmp_path / "sweep.csv"
    assert cli.main(["gen", "geometric", "--n", "10", "--r", "0.45", "--seed", "5",
                     "--out", str(gp)]) == 0
    assert cli.main(["sweep", str(gp), "--src", "1", "--tgt", "5", "--seed", "7",
                     "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["sweep_csv_sha256"]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_acceptance_composition_trace_is_pinned(k):
    g = make_random_geometric(100, 0.15, 3)
    V1 = expand_support(g, {82}, 1)
    trace = best_composition(g, V1, 82, 8, ScoreParams(1.0, 0.1, 0.5, k))
    # Round-trip through JSON so float reprs are compared as written.
    got = json.loads(json.dumps(trace.to_json_dict()))
    assert got == GOLDEN["compose"][str(k)]


@pytest.mark.parametrize("k", DEFAULT_BLOCKS)
def test_bench_sweep_search_counts_are_pinned(k):
    # The bench sweep instance (n=24, r=0.35, seed 11, 1 -> 20), its 27 cells of block size k.
    g = make_random_geometric(24, 0.35, 11)
    grid = [(*w, k) for w in itertools.product(DEFAULT_WEIGHTS, repeat=3)]
    stats = SearchStats()
    parameter_sweep(g, expand_support(g, {1}, 1), 1, 20, grid=grid, stats=stats)
    assert dataclasses.asdict(stats) == GOLDEN["bench_sweep_search_stats"][str(k)]
