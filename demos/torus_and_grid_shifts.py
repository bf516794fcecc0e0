#!/usr/bin/env python3
"""Coordinate shifts on tori and grids.

On a big-enough torus the only lossless translations are the single-step
axis shifts. The demo enumerates them by brute force, extends each seed
pair at vertex 1 to a shift by contamination, and checks that the seeded
shifts are exactly the enumerated set. The `unique` flag printed per seed
is the paper's condition that every dimension is at least 5, under which a
seed pair determines its lossless translation; it counts nothing. On grids,
shifts lose a slice of vertices.
"""

from graph_shift import (
    EnumerationFilter,
    contaminate_torus,
    dirac,
    dirac_shift_loss,
    enumerate_translations,
    euclidean_on_grid,
    euclidean_on_torus,
    make_torus,
    satisfies_large_grid_assumption,
)


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

    for dims in ([6, 5], [8, 3]):
        m = euclidean_on_grid(dims, dirac(2, 1))
        print(
            f"{dims[0]}x{dims[1]} grid: e1 shift loses {m.loss()} vertices "
            f"(= {dirac_shift_loss(dims, 1)}), "
            f"large-grid assumption: {satisfies_large_grid_assumption(dims)}"
        )


if __name__ == "__main__":
    main()
