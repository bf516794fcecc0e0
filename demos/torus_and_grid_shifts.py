#!/usr/bin/env python3
"""Coordinate shifts on tori and grids.

On a big-enough torus the only lossless translations are the single-step
axis shifts. The demo enumerates them by brute force, extends each seed
pair at vertex 1 to a shift by contamination, and checks that the seeded
shifts are exactly the enumerated set. The `unique` flag printed per seed
is the paper's condition that every dimension is at least 5, under which a
seed pair determines its lossless translation; it counts nothing. The
relaxed layer gets the same question: one greedy step per anchor v, pinned
v -> v + delta, with support N[v]. The table counts the anchors whose step
scores above 0 at each block size k. Below the exhaustive round
k = |N[v]| - 1 = 4, every anchor counted sits next to the wrap-around: its
support or its shifted support crosses it. At k = 4 no anchor is counted.
On grids, shifts lose a slice of vertices.
"""

from graph_shift import (
    EnumerationFilter,
    ScoreParams,
    contaminate_torus,
    dirac,
    dirac_shift_loss,
    enumerate_translations,
    euclidean_on_grid,
    euclidean_on_torus,
    expand_support,
    make_torus,
    minimize_s,
    satisfies_large_grid_assumption,
)


def positive_steps(dims, delta, k):
    """Anchors whose greedy step, pinned v -> v + delta with support N[v] and
    the shifted support's 1-hop ball as targets, totals above 0."""
    g, shift = make_torus(dims), euclidean_on_torus(dims, delta)
    count = 0
    for v in g.vertices:
        V1 = expand_support(g, {v}, 1)
        V2 = expand_support(g, {shift(u) for u in V1}, 1)
        count += minimize_s(v, shift(v), g, V1, V2, ScoreParams(k_block=k))[1].total > 0
    return count


def main():
    dims = [5, 5]
    g = make_torus(dims)

    lossless = enumerate_translations(g, EnumerationFilter(lossless_only=True))
    print(f"[5,5] torus: {len(lossless)} lossless translations (the four axis shifts)")

    v1 = 1
    seeded = set()
    for w in sorted(g.neighbors(v1)):
        m, unique = contaminate_torus(dims, v1, w)
        seeded.add(m)
        print(f"  seed {v1}->{w}: lossless={m.is_lossless()}, unique={unique}")
    print(f"  seeded shifts equal the enumerated lossless set: {seeded == set(lossless)}")

    small = make_torus([4, 4])
    l4 = enumerate_translations(small, EnumerationFilter(lossless_only=True))
    diracs = {
        euclidean_on_torus([4, 4], dirac(2, i, s)) for i in (1, 2) for s in (1, -1)
    }
    print(f"[4,4] torus: {len(l4)} lossless, {len(set(l4) - diracs)} beyond axis shifts")
    print()

    print("relaxed step, anchors with total > 0 at k = 1, 2, 3, 4")
    for dims in ([5, 5], [6, 6]):
        for name, i, s in (("+e1", 1, 1), ("-e1", 1, -1), ("+e2", 2, 1)):
            counts = [positive_steps(dims, dirac(2, i, s), k) for k in (1, 2, 3, 4)]
            print(f"  {dims[0]}x{dims[1]} torus, {name}: {counts} of {dims[0] * dims[1]}")
    print()

    for dims in ([6, 5], [8, 3]):
        m = euclidean_on_grid(dims, dirac(2, 1))
        print(
            f"{dims[0]}x{dims[1]} grid: e1 shift loses {m.loss()} vertices "
            f"(= {dirac_shift_loss(dims, 1)}), "
            f"large-grid assumption: {satisfies_large_grid_assumption(dims)}"
        )


if __name__ == "__main__":
    main()
