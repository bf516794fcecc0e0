"""Coordinate-shift mappings on grid and torus graphs.

On a torus every coordinate shift is lossless; on a grid, vertices pushed
out of range map to bottom. The contamination construction shows that on
large-enough tori (every dimension at least 5) single-step axis shifts are
the only lossless translations.
"""

from __future__ import annotations

import math

from .graph import Graph, coord_to_index, index_to_coord, make_grid, make_torus
from .mapping import BOTTOM, Mapping, full_mapping


def _check_index(i, high, name):
    """IndexError naming `name` if i is a bool or lies outside 1..high."""
    if isinstance(i, bool) or not 1 <= i <= high:
        raise IndexError(f"{name} {i!r} out of range 1..{high}")


def dirac(d, i, sign=1):
    """Signed unit vector ±e_i of length d."""
    _check_index(i, d, "axis")
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, not {sign!r}")
    vec = [0] * d
    vec[i - 1] = sign
    return tuple(vec)


def _shift(dims, delta, wrap):
    """Coordinate shift by delta on the torus (wrap) or the grid (bottom outside)."""
    if len(delta) != len(dims):
        raise ValueError("delta length must match dims")
    g = make_torus(dims) if wrap else make_grid(dims)
    image = {}
    for v in g.vertices:
        shifted = [c + s for c, s in zip(index_to_coord(v, dims), delta)]
        if wrap:
            shifted = [(c - 1) % d + 1 for c, d in zip(shifted, dims)]
        inside = all(1 <= c <= d for c, d in zip(shifted, dims))
        image[v] = coord_to_index(shifted, dims) if inside else BOTTOM
    return full_mapping(g, image)


def euclidean_on_torus(dims, delta):
    return _shift(dims, delta, wrap=True)


def euclidean_on_grid(dims, delta):
    return _shift(dims, delta, wrap=False)


def contaminate_torus(g: Graph, dims, v1, image_of_v1):
    """Extend a single adjacent seed pair to the full axis shift.

    Returns (mapping, unique) where unique is True exactly when every
    dimension is at least 5, the regime in which the seed determines the
    lossless translation. The mapping itself is built directly as the
    shift by delta = image - v1; the step-by-step propagation only matters
    for the uniqueness argument.
    """
    if not g.has_edge(v1, image_of_v1):
        raise ValueError("seed pair must be adjacent")
    c1 = index_to_coord(v1, dims)
    c2 = index_to_coord(image_of_v1, dims)
    delta = tuple((c2[i] - c1[i]) % dims[i] for i in range(len(dims)))
    # Adjacency on the torus means delta is ±e_j mod dims.
    m = euclidean_on_torus(dims, delta)
    unique = all(d >= 5 for d in dims)
    return m, unique


def satisfies_large_grid_assumption(dims):
    """Every leading dimension dominates the tail product; last is >= 3."""
    d = len(dims)
    if dims[d - 1] < 3:
        return False
    for i in range(d - 1):
        tail = math.prod(dims[i + 1 :])
        if dims[i] < 2 + 2 * tail:
            return False
    return True


def grid_slice(dims, i, j):
    """Vertices whose i-th coordinate equals j, as a sorted list."""
    _check_index(i, len(dims), "axis")
    _check_index(j, dims[i - 1], f"slice index on axis {i}")
    n = math.prod(dims)
    out = [v for v in range(1, n + 1) if index_to_coord(v, dims)[i - 1] == j]
    return out


def dirac_shift_loss(dims, i):
    """Loss of a grid shift by ±e_i: the number of vertices in one slice."""
    _check_index(i, len(dims), "axis")
    return math.prod(d for k, d in enumerate(dims, start=1) if k != i)
