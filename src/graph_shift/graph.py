"""Simple undirected graphs, generators and geodesic distances.

Vertices are integers 1..n. Graphs are immutable after construction; the
all-pairs distance table is computed lazily by BFS and cached.
"""

from __future__ import annotations

import json
import math
from itertools import chain, combinations

import numpy as np

#: Sentinel for an infinite geodesic distance (different connected components).
INF = math.inf

#: Bits, (arcs or vertices) x sources, that one level of the all-pairs BFS
#: works on at once. It sets how many sources share a block, at least one
#: 64-bit word of them, so a level's temporaries stay near _BFS_CELLS bytes;
#: a graph too dense for a 64-source block takes 8 bytes an arc instead.
_BFS_CELLS = 1 << 24


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
        self._adj = {v: set() for v in range(1, n + 1)}
        for u, v in norm:
            self._adj[u].add(v)
            self._adj[v].add(u)
        self._dist = None

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def has_edge(self, u, v):
        self._check_vertex(v)
        return v in self.neighbors(u)

    def neighbors(self, v):
        """Neighbour set of v; raises ValueError unless v is an integer in 1..n.

        Internal loops over vertices they already hold validated read
        `_adj` directly.
        """
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def _check_vertex(self, v):
        if not _is_int(v):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def _distance_table(self):
        if self._dist is None:
            n = self.n
            dist = np.full((n + 1, n + 1), 2 * n, dtype=np.min_scalar_type(-2 * n - 1))
            np.fill_diagonal(dist[1:, 1:], 0)
            # One BFS level for a block of w sources at a time: reached[v] is
            # a bitset, in 64-bit words, of the sources that have reached v,
            # and a level ORs the bitsets of v's neighbours (CSR segments)
            # into it. An isolated vertex gets the unused row 0, whose bitset
            # stays empty, as its one neighbour, because reduceat would give
            # an empty segment its first element, not 0.
            adj = [self._adj[v] or (0,) for v in self.vertices]
            deg = np.array([len(a) for a in adj], dtype=np.intp)
            nbrs = np.fromiter(chain.from_iterable(adj), np.intp, deg.sum())
            starts = np.cumsum(deg) - deg
            block = max(64, _BFS_CELLS // max(len(nbrs), n + 1))
            for lo in range(1, n + 1, block):
                w = min(block, n + 1 - lo)
                reached = np.zeros((n + 1, (w + 63) // 64), dtype=np.uint64)
                reached.view(np.uint8)[lo : lo + w, : (w + 7) // 8] = np.packbits(
                    np.eye(w, dtype=bool), axis=1
                )
                for d in range(1, n):
                    new = np.bitwise_or.reduceat(reached[nbrs], starts) & ~reached[1:]
                    if not new.any():
                        break
                    reached[1:] |= new
                    # The table is symmetric, so the block's hop counts fill its columns.
                    bits = np.unpackbits(new.view(np.uint8), axis=1, count=w).view(bool)
                    np.copyto(dist[1:, lo : lo + w], d, where=bits)
            dist.flags.writeable = False
            self._dist = dist
        return self._dist

    def distance_matrix(self):
        """All-pairs hop counts as a read-only (n+1, n+1) signed int array.

        Row and column 0 are unused; 2n means unreachable. The dtype is the
        smallest signed one that holds -(2n + 1), so the difference of two
        entries never wraps: int8 up to n = 63, int16 up to n = 16,383.
        Every caller shares the one cached table, so writing into it raises
        ValueError.
        """
        return self._distance_table()

    def geodesic(self, u, v):
        """Hop distance between u and v; INF across components."""
        self._check_vertex(u)
        self._check_vertex(v)
        d = int(self._distance_table()[u, v])
        return INF if d == 2 * self.n else d

    def neighborhood(self, v, h):
        """Vertices at geodesic distance exactly h from v."""
        self._check_vertex(v)
        if h < 0:
            raise ValueError("hop count must be non-negative")
        if h == 0:
            return {v}
        if h >= self.n:  # finite distances are at most n - 1
            return set()
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
        return cls.from_json_dict(_load_json(path))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _load_json(path):
    """The value of a JSON file; ValueError for one nested too deeply to parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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


def _lattice(dims, wrap):
    """Unit steps along one axis; the successor of the last point wraps iff wrap."""
    n = math.prod(dims)
    coords = [index_to_coord(v, dims) for v in range(1, n + 1)]
    edges = []
    for v, c in enumerate(coords, start=1):
        for i, d in enumerate(dims):
            if wrap or c[i] < d:
                succ = list(c)
                succ[i] = c[i] % d + 1
                edges.append((v, coord_to_index(succ, dims)))
    return Graph(n, edges, coords)


def make_grid(dims):
    """Lattice graph on 1..d[1] x ... x 1..d[D], unit steps along one axis."""
    return _lattice(_check_dims(dims), wrap=False)


def make_torus(dims):
    """Grid graph with per-dimension wrap-around; every dimension must be >= 3."""
    dims = _check_dims(dims)
    if any(d < 3 for d in dims):
        raise ValueError("torus dimensions must all be >= 3 to stay a simple graph")
    return _lattice(dims, wrap=True)


def make_ring(n):
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


#: Vertex pairs one row block of `make_random_geometric` compares at once.
_GEOMETRIC_CELLS = 1 << 18


def make_random_geometric(n, radius, seed):
    """n points uniform in the unit square; edge iff Euclidean distance < radius."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not radius > 0:  # NaN too
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    # Rows of at most _GEOMETRIC_CELLS pairs at a time, each pair u < v in
    # row-major order, with the float expression of a pair-by-pair loop.
    edges = []
    step = max(1, _GEOMETRIC_CELLS // n)
    for lo in range(0, n, step):
        u = np.arange(lo, min(lo + step, n))
        dx, dy = (pts[u, None, axis] - pts[None, :, axis] for axis in (0, 1))
        close = (np.hypot(dx, dy) < radius) & (u[:, None] < np.arange(n))
        us, vs = np.nonzero(close)
        edges.extend(zip((us + lo + 1).tolist(), (vs + 1).tolist()))
    return Graph(n, edges, pts.tolist())
