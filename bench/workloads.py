"""The benchmark's workloads: inputs from a seed, one timed op, output checks.

A workload builds its inputs in ``__init__``, which run.py times as
set-up. ``run(i)`` is the i-th op and is the only timed call; ``check(i, out)``
verifies its output afterwards and returns the problems found, the bytes
that go into the output digest, and the op's quality score, if it has one.
Ops repeat with period ``cycle_len``; ``key(i)`` names the input of op i, so
run.py can require a repeated input to give byte-identical output.

Every workload calls the library through module attributes
(``gs.search.best_composition``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

WEIGHTS = (1.0, 0.1, 0.5)


class Workload:
    cycle_len = 1

    def __init__(self, gs):
        self.gs = gs

    def key(self, i):
        return i % self.cycle_len

    def run(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def _cli(self, *argv):
        code = self.gs.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"graph-shift {argv[0]} exited with {code}")


def _pareto_flags(points):
    """Reference Pareto test: a point is kept unless another strictly dominates it."""
    return [
        not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in points) for p in points
    ]


class Sweep(Workload):
    """`graph-shift sweep` (81 parameter cells) on a random geometric graph.

    Every seed sweeps the same instance, the CLI-determinism test's graph
    (n=24, r=0.35, graph seed 11, 1 -> 20). One sweep takes 25-32 s, so a
    run holds one, and relabelling the graph moved the rows its k=3 cell
    scores from 1.03M to between 0.92M and 1.44M (bench/NOTES.md), more than
    any bound the benchmark can set. The seed is recorded but moves no input.
    """

    HEADER = "alpha,beta,gamma,K,loss_ratio,snp_ratio,score,steps,pareto"

    def __init__(self, gs, seed, smoke, workdir):
        super().__init__(gs)
        n, r, graph_seed, src, tgt = (10, 0.45, 5, 1, 5) if smoke else (24, 0.35, 11, 1, 20)
        graph_path = workdir / "sweep.graph.json"
        self.csv_path = workdir / "sweep.csv"
        self._cli("gen", "geometric", "--n", n, "--r", r, "--seed", graph_seed, "--out", graph_path)
        gs.graph.Graph.load(graph_path).distance_matrix()
        self.argv = [
            "sweep", str(graph_path), "--src", str(src), "--tgt", str(tgt),
            "--seed", "7", "--format", "csv", "--out", str(self.csv_path),
        ]

    def run(self, i):
        return self.gs.cli.main(self.argv)

    def check(self, i, code):
        if code != 0:
            return [f"sweep exited with {code}"], b"", None
        raw = self.csv_path.read_bytes()
        lines = raw.decode().splitlines()
        problems = []
        if lines[:1] != [self.HEADER] or len(lines) != 82:
            return [f"sweep CSV has {len(lines)} lines and header {lines[:1]}"], raw, None
        found, flags, scores = [], [], []
        for line in lines[1:]:
            cells = line.split(",")
            if cells[4] == "":
                continue
            found.append((float(cells[4]), float(cells[5])))
            flags.append(cells[8] == "1")
            scores.append(float(cells[6]))
            if not (math.isfinite(scores[-1]) and scores[-1] >= 0):
                problems.append(f"cell score {cells[6]} is not a finite non-negative number")
        if not found:
            return problems + ["no cell found a composition"], raw, None
        if flags != _pareto_flags(found):
            problems.append("pareto column disagrees with the reference front")
        return problems, raw, sum(scores) / len(scores)


class Compose(Workload):
    """Library `best_composition` at k=1, weights (1.0, 0.1, 0.5), n=100 r=0.15.

    Queries follow the acceptance-test protocol on
    ``make_random_geometric(100, 0.15, s)``: a uniform source, and a uniform
    target among the reachable vertices outside its 1-hop support. Query 0 is
    the acceptance instance (s=3, 82 -> 8, |V1|=7); the others use s=100,
    101, ..., skipping graphs where the source reaches nothing. The pool is
    the same for every seed and the seed shuffles the order after query 0:
    one query costs 0.03-1.3 s, so a pool drawn per seed would move the
    run's throughput by more than any bound the benchmark can set.
    """

    def __init__(self, gs, seed, smoke, workdir):
        super().__init__(gs)
        count = 3 if smoke else 16
        self.params = gs.relax.ScoreParams(*WEIGHTS, 1)
        self.queries = []
        graph_seed = 3
        while len(self.queries) < count:
            query = self._protocol(graph_seed)
            if query is not None:
                self.queries.append(query)
            graph_seed = 100 if graph_seed == 3 else graph_seed + 1
        rest = list(range(1, count))
        random.Random(seed).shuffle(rest)
        self.order = [0] + rest
        self.cycle_len = count

    def _protocol(self, graph_seed):
        g = self.gs.graph.make_random_geometric(100, 0.15, graph_seed)
        rng = np.random.default_rng(graph_seed)
        src = int(rng.integers(1, 101))
        V1 = self.gs.search.expand_support(g, {src}, 1)
        reachable = {v for v in g.vertices if g.geodesic(src, v) != math.inf}
        candidates = sorted(reachable - V1)
        if not candidates:
            return None
        tgt = int(candidates[rng.integers(0, len(candidates))])
        return g, V1, src, tgt

    def key(self, i):
        return self.order[i % self.cycle_len]

    def run(self, i):
        g, V1, src, tgt = self.queries[self.key(i)]
        return self.gs.search.best_composition(g, V1, src, tgt, self.params)

    def check(self, i, trace):
        g, _, src, tgt = self.queries[self.key(i)]
        if not trace.found:
            return [f"no composition {src} -> {tgt}"], b"", None
        problems = []
        totals = [b.total for _, b in trace.steps]
        for (m, b) in trace.steps:
            if self.gs.relax.score(g, m, self.params).total != b.total:
                problems.append(f"step {sorted(m.domain)} re-scores differently from {b.total}")
        if abs(trace.cumulative_score - math.fsum(totals)) > 1e-9:
            problems.append(f"cumulative {trace.cumulative_score} != step sum {math.fsum(totals)}")
        if trace.composed()(src) != tgt:
            problems.append(f"composed trace does not carry {src} to {tgt}")
        raw = json.dumps(trace.to_json_dict(), sort_keys=True).encode()
        return problems, raw, trace.cumulative_score


#: (name, build function, lossless only, pinned counts): (translations, minimal,
#: pseudo-minimal) where the scans run, else translations alone. The counts
#: do not depend on the vertex labels.
CENSUS = [
    ("grid3x3", lambda gr: gr.make_grid([3, 3]), False, (1907, 2, 18)),
    ("grid2x4", lambda gr: gr.make_grid([2, 4]), False, (1227, 1, 3)),
    ("ring8", lambda gr: gr.make_ring(8), False, (739, 2, 3)),
    ("complete7", lambda gr: gr.make_complete(7), False, (63840,)),
    ("torus5x5", lambda gr: gr.make_torus([5, 5]), True, (4,)),
]
#: Smoke sizes; counts cross-checked against `naive_oracle` where it is feasible.
CENSUS_SMOKE = [
    ("grid2x3", lambda gr: gr.make_grid([2, 3]), False, (212, 1, 5)),
    ("ring6", lambda gr: gr.make_ring(6), False, (154, 2, 3)),
    ("complete5", lambda gr: gr.make_complete(5), False, (780,)),
    ("torus3x3", lambda gr: gr.make_torus([3, 3]), True, (4,)),
]


class Census(Workload):
    """Exact enumeration, and the minimality scans where they are feasible.

    One op is the census of the whole mix: the grids and the ring run
    enumerate + minimal + pseudo-minimal, K7 a full enumeration and the 5x5
    torus a lossless one. A single graph's census takes from 1 ms to 9 s, so
    the median of per-graph times would be one short op, as noisy as the
    machine (bench/NOTES.md). The graphs keep their generator labels for
    every seed: the precedence test stops at the first shared assignment,
    whose place depends on the labels, so relabelling moves the cost too.
    """

    def __init__(self, gs, seed, smoke, workdir):
        super().__init__(gs)
        self.mix = [(name, build(gs.graph), lossless, counts)
                    for name, build, lossless, counts in (CENSUS_SMOKE if smoke else CENSUS)]

    def run(self, i):
        en = self.gs.enumeration
        out = []
        for _, g, lossless, counts in self.mix:
            found = en.enumerate_translations(g, en.EnumerationFilter(lossless_only=lossless))
            if len(counts) == 1:
                out.append((found,))
            else:
                out.append((found, en.minimal_translations(g, found),
                            en.pseudo_minimal_translations(g, found)))
        return out

    def check(self, i, out):
        problems = []
        for (name, _, _, counts), result in zip(self.mix, out):
            got = tuple(len(ms) for ms in result)
            if got != counts:
                problems.append(f"{name}: counts {got}, expected {counts}")
        raw = json.dumps([[[m.image_tuple() for m in ms] for ms in result] for result in out])
        return problems, raw.encode(), None


WORKLOADS = {
    "sweep": Sweep,
    "compose": Compose,
    "census": Census,
}
