#!/usr/bin/env python3
"""Move a localized signal across a random geometric graph.

Builds the N=100 geometric graph, puts a signal on a vertex and its
neighbors, then chains greedy approximate translations toward a far-away
target and reports the per-step scores and the final (loss ratio, snp
ratio) pair: the lost share of the support and the normalized count of
strong-preservation violations.
"""

import numpy as np

from graph_shift import (
    INF,
    ScoreParams,
    best_composition,
    expand_support,
    make_random_geometric,
    parameter_sweep,
)


def main():
    seed = 7
    g = make_random_geometric(100, 0.15, seed)
    rng = np.random.default_rng(seed)

    src = int(rng.integers(1, g.n + 1))
    support = expand_support(g, {src}, 1)
    reachable = sorted(
        v for v in g.vertices if v not in support and g.geodesic(src, v) != INF
    )
    tgt = int(reachable[rng.integers(0, len(reachable))])
    print(f"signal on {len(support)} vertices around {src}, walking to {tgt} "
          f"({g.geodesic(src, tgt)} hops away)")

    trace = best_composition(g, support, src, tgt, ScoreParams(1.0, 0.1, 0.5, 1))
    print(f"{len(trace.steps)} steps, total score {trace.cumulative_score:.3f}")
    for i, (m, b) in enumerate(trace.steps, 1):
        print(f"  step {i}: |support|={len(m.mapped)} score={b.total:.3f}")
    lr, sr = trace.final_pair
    print(f"net effect: loss ratio {lr:.2f}, snp ratio {sr:.2f}")
    print()

    print("small parameter sweep (8 cells):")
    grid = [(a, 0.1, c, k) for a in (0.5, 1.0) for c in (0.1, 0.5) for k in (1, 2)]
    for trace, on_front in parameter_sweep(g, support, src, tgt, grid=grid):
        p, (lr, sr) = trace.params, trace.final_pair
        star = " *" if on_front else ""
        print(f"  a={p.alpha} g={p.gamma} K={p.k_block}: "
              f"pair=({lr:.2f}, {sr:.2f}) steps={len(trace.steps)}{star}")
    print("(* = Pareto-optimal loss/snp trade-off)")


if __name__ == "__main__":
    main()
