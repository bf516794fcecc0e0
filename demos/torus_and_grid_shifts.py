#!/usr/bin/env python3
"""Coordinate shifts on tori and grids.

On a big-enough torus the only lossless translations are the single-step
axis shifts — the demo recovers them by brute force and by contamination
from a single seed pair. On grids, shifts lose a slice of vertices.
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
    for w in sorted(g.neighbors(v1)):
        m, unique = contaminate_torus(dims, v1, w)
        print(f"  seed {v1}->{w}: full shift recovered, unique={unique}")

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
