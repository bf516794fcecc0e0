"""Coordinate-shift mappings on grid and torus graphs.

On a torus every coordinate shift is lossless; on a grid, vertices pushed
out of range map to bottom. The contamination construction shows that on
large-enough tori (every dimension at least 5) single-step axis shifts are
the only lossless translations. Every axis, slice index, sign, dimension
and delta entry passes `graph._check_int`; dimensions are checked as by
the lattice builders, with their order cap only where a shift is built.
"""

from __future__ import annotations

import math
from itertools import product

from .graph import _check_dims, _check_int, _lattice_dims, _row_major, _shifted, make_torus
from .mapping import BOTTOM, Mapping


def dirac(d, i, sign=1):
    """Signed unit vector ±e_i of length d."""
    d = _check_int(d, "d", 1)
    i = _check_int(i, "axis", 1, d)
    sign = _check_int(sign, "sign", -1, 1)
    if sign == 0:
        raise ValueError("sign 0 is not +1 or -1")
    vec = [0] * d
    vec[i - 1] = sign
    return tuple(vec)


def _shift(dims, delta, wrap):
    """Coordinate shift by delta on the torus (wrap) or the grid (bottom outside); builds no graph."""
    dims, n = _lattice_dims(dims, wrap)
    delta = [_check_int(s, "delta entry") for s in delta]
    if len(delta) != len(dims):
        raise ValueError("delta length must match dims")
    # `_shifted` gives each vertex its image in vertex order, or 0 for bottom.
    V = range(1, n + 1)
    return Mapping(V, V, zip(V, (w or BOTTOM for w in _shifted(dims, delta, wrap).tolist())))


def euclidean_on_torus(dims, delta):
    return _shift(dims, delta, wrap=True)


def euclidean_on_grid(dims, delta):
    return _shift(dims, delta, wrap=False)


def contaminate_torus(dims, v1, image_of_v1):
    """Extend a single seed pair, adjacent on the torus of dims, to the full axis shift.

    Returns (mapping, unique) where unique is True exactly when every
    dimension is at least 5: the paper's sufficient condition for the seed to
    determine the lossless translation, not a necessary one (on 3 x 5 it does
    too, on 4 x 4 it does not). The mapping is built directly as the shift by
    delta = image - v1; the step-by-step propagation only matters for the
    uniqueness argument.
    """
    g = make_torus(dims)
    if not g.has_edge(v1, image_of_v1):
        raise ValueError("seed pair must be adjacent")
    # Adjacency on the torus means delta is ±e_j mod dims, and the torus shift reduces it.
    delta = [b - a for a, b in zip(g.coords[v1 - 1], g.coords[image_of_v1 - 1])]
    return euclidean_on_torus(dims, delta), all(d >= 5 for d in dims)


def satisfies_large_grid_assumption(dims):
    """Every leading dimension dominates the tail product; last is >= 3."""
    dims = _check_dims(dims)
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
    dims = _check_dims(dims)
    i = _check_int(i, "axis", 1, len(dims))
    j = _check_int(j, "slice index", 1, dims[i - 1])
    axes = [(j,) if k == i else range(1, d + 1) for k, d in enumerate(dims, start=1)]
    return [_row_major(c, dims) for c in product(*axes)]  # row-major, so ascending


def dirac_shift_loss(dims, i):
    """Loss of a grid shift by ±e_i: the number of vertices in one slice."""
    dims = _check_dims(dims)
    i = _check_int(i, "axis", 1, len(dims))
    return math.prod(d for k, d in enumerate(dims, start=1) if k != i)
