"""Simple undirected graphs, generators and geodesic distances.

Vertices are integers 1..n. Graphs are immutable after construction; the
all-pairs distance table is computed lazily by BFS and cached.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations

import numpy as np

#: Sentinel for an infinite geodesic distance (different connected components).
INF = math.inf


class Graph:
    """Immutable simple undirected graph on vertices 1..n."""

    def __init__(self, n, edges, coords=None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            norm.add((min(u, v), max(u, v)))
        if coords is not None:
            coords = [tuple(c) for c in coords]
            if len(coords) != n:
                raise ValueError("coords length must equal vertex count")
        self.n = n
        #: The vertices as one frozenset, shared by every full-domain mapping.
        self.vertex_set = frozenset(range(1, n + 1))
        self.edges = frozenset(norm)
        self.coords = coords
        self._adj = [set() for _ in range(n + 1)]
        for u, v in norm:
            self._adj[u].add(v)
            self._adj[v].add(u)
        self._dist = None

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def has_edge(self, u, v):
        return v in self._adj[u]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def _check_vertex(self, v):
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def _distance_table(self):
        # Single-writer discipline: first access computes, later accesses read.
        if self._dist is None:
            n = self.n
            dist = np.full((n + 1, n + 1), -1, dtype=np.int64)
            for src in range(1, n + 1):
                dist[src, src] = 0
                queue = deque([src])
                row = dist[src]
                while queue:
                    u = queue.popleft()
                    du = row[u]
                    for w in self._adj[u]:
                        if row[w] < 0:
                            row[w] = du + 1
                            queue.append(w)
            self._dist = dist
        return self._dist

    def distance_matrix(self):
        """All-pairs hop counts as an (n+1, n+1) int array; -1 means unreachable."""
        return self._distance_table()

    def geodesic(self, u, v):
        """Hop distance between u and v; INF across components."""
        self._check_vertex(u)
        self._check_vertex(v)
        d = self._distance_table()[u, v]
        return INF if d < 0 else int(d)

    def neighborhood(self, v, h):
        """Vertices at geodesic distance exactly h from v."""
        self._check_vertex(v)
        if h < 0:
            raise ValueError("hop count must be non-negative")
        if h == 0:
            return {v}
        if h == 1:
            return set(self._adj[v])
        row = self._distance_table()[v]
        return {w for w in range(1, self.n + 1) if row[w] == h}

    def to_json_dict(self):
        return {
            "n": self.n,
            "edges": [[u, v] for u, v in sorted(self.edges)],
            "coords": [list(c) for c in self.coords] if self.coords else None,
        }

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("graph JSON must be an object")
        n, edges = data["n"], data["edges"]
        if not _is_int(n):
            raise ValueError(f"graph order must be an integer, got {n!r}")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError("graph edges must be a list of [u, v] integer pairs")
        coords = data.get("coords")
        if coords is not None and not (
            isinstance(coords, list) and all(isinstance(c, list) for c in coords)
        ):
            raise ValueError("graph coords must be null or a list of coordinate lists")
        return cls(n, [tuple(e) for e in edges], coords)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dims(dims):
    dims = list(dims)
    if not dims:
        raise ValueError("dimensions vector must be non-empty")
    if any(d < 1 for d in dims):
        raise ValueError("all dimensions must be >= 1")
    return dims


def coord_to_index(coord, dims):
    """Row-major vertex index of a 1-based lattice point."""
    idx = 0
    for c, d in zip(coord, dims):
        if not (1 <= c <= d):
            raise ValueError(f"coordinate {coord} out of grid {dims}")
        idx = idx * d + (c - 1)
    return idx + 1


def index_to_coord(index, dims):
    """1-based lattice point of a row-major vertex index."""
    rem = index - 1
    coord = []
    for d in reversed(dims):
        coord.append(rem % d + 1)
        rem //= d
    return tuple(reversed(coord))


def make_complete(n):
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, combinations(range(1, n + 1), 2))


def make_grid(dims):
    """Lattice graph on 1..d[1] x ... x 1..d[D], unit steps along one axis."""
    dims = _check_dims(dims)
    n = math.prod(dims)
    coords = [index_to_coord(v, dims) for v in range(1, n + 1)]
    edges = []
    for v, c in enumerate(coords, start=1):
        for i, d in enumerate(dims):
            if c[i] < d:
                succ = list(c)
                succ[i] += 1
                edges.append((v, coord_to_index(succ, dims)))
    return Graph(n, edges, coords)


def make_torus(dims):
    """Grid graph with per-dimension wrap-around; every dimension must be >= 3."""
    dims = _check_dims(dims)
    if any(d < 3 for d in dims):
        raise ValueError("torus dimensions must all be >= 3 to stay a simple graph")
    n = math.prod(dims)
    coords = [index_to_coord(v, dims) for v in range(1, n + 1)]
    edges = []
    for v, c in enumerate(coords, start=1):
        for i, d in enumerate(dims):
            succ = list(c)
            succ[i] = c[i] % d + 1
            edges.append((v, coord_to_index(succ, dims)))
    return Graph(n, edges, coords)


def make_ring(n):
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def make_random_geometric(n, radius, seed):
    """n points uniform in the unit square; edge iff Euclidean distance < radius."""
    if n < 1:
        raise ValueError("need n >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if np.hypot(*(pts[u] - pts[v])) < radius:
                edges.append((u + 1, v + 1))
    return Graph(n, edges, pts.tolist())
