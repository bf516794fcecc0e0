"""Simple undirected graphs, generators and geodesic distances.

Vertices are integers 1..n. Graphs are immutable after construction; the
all-pairs distance table is computed lazily by BFS and cached. Every vertex
and count that enters the library passes `_check_int`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from itertools import chain, combinations, product

import numpy as np

#: Sentinel for an infinite geodesic distance (different connected components).
INF = math.inf

#: Bits, (arcs or vertices) x sources, that one level of the all-pairs BFS
#: works on at once. It sets how many sources share a block, at least one
#: 64-bit word of them, so a level's temporaries stay near _BFS_CELLS bytes;
#: a graph too dense for a 64-source block takes 8 bytes an arc instead.
_BFS_CELLS = 1 << 24

#: Largest graph order whose distance table (`Graph.distance_matrix`) stays int16.
_MAX_ORDER = 16_383


class Graph:
    """Immutable simple undirected graph on vertices 1..n, n in 0.._MAX_ORDER (16,383).

    n and the edge endpoints are checked before any per-vertex state is built
    and stored as Python ints; bools and floats are rejected."""

    def __init__(self, n, edges, coords=None):
        n = _check_int(n, "n", 0, _MAX_ORDER)
        norm = set()
        for u, v in edges:
            # Python ints in range skip the call; the checker converts or rejects the rest.
            if not (type(u) is int and type(v) is int and 0 < u <= n and 0 < v <= n):
                u, v = _check_int(u, "edge vertex", 1, n), _check_int(v, "edge vertex", 1, n)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        if coords is not None:
            # numpy scalars become the Python numbers JSON encodes and each coordinate
            # a tuple; other values stay as given.
            coords = [tuple(x.item() if isinstance(x, np.generic) else x for x in c) for c in coords]
            if len(coords) != n:
                raise ValueError("coords length must equal vertex count")
        self.n = n
        #: The vertices as one frozenset, shared by every enumerated translation.
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
        return self._check_vertex(v) in self.neighbors(u)

    def neighbors(self, v):
        """Neighbour set of v; raises ValueError unless v is an integer in 1..n.

        Internal loops over vertices they already hold validated read
        `_adj` directly.
        """
        return self._adj[self._check_vertex(v)]

    def degree(self, v):
        return len(self.neighbors(v))

    def _check_vertex(self, v):
        """v as a Python int; ValueError unless it is an integer in 1..n."""
        return _check_int(v, "vertex", 1, self.n)

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
        d = int(self._distance_table()[self._check_vertex(u), self._check_vertex(v)])
        return INF if d == 2 * self.n else d

    def neighborhood(self, v, h):
        """Vertices at geodesic distance exactly h from v, by a BFS that builds no distance table."""
        return _walk(self, {self._check_vertex(v)}, _check_int(h, "h", 0))[1]

    def to_json_dict(self):
        return {
            "n": self.n,
            "edges": [[u, v] for u, v in sorted(self.edges)],
            "coords": [list(c) for c in self.coords] if self.coords else None,
        }

    @classmethod
    def from_json_dict(cls, data):
        """The graph of a JSON object; the constructor checks its integers."""
        if not isinstance(data, dict):
            raise ValueError("graph JSON must be an object")
        edges, coords = data["edges"], data.get("coords")
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("graph edges must be a list of [u, v] pairs")
        if coords is not None and not (
            isinstance(coords, list) and all(isinstance(c, list) for c in coords)
        ):
            raise ValueError("graph coords must be null or a list of coordinate lists")
        return cls(data["n"], edges, coords)

    def save(self, path):
        _atomic_write(path, _dumps(self.to_json_dict()))

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


def _walk(g, start, hops, within=None):
    """BFS from the vertex set `start` for at most `hops` levels, stepping only into `within`
    if given. Returns (ball, frontier): every vertex reached, and the ones exactly `hops`
    levels out (empty once the walk runs out). Local hop questions walk; all-pairs ones read the table."""
    ball, frontier = set(start), set(start)
    while frontier and hops > 0:  # an empty frontier stays empty
        frontier = {w for v in frontier for w in g._adj[v]} - ball
        if within is not None:
            frontier &= within
        ball |= frontier
        hops -= 1
    return ball, frontier


def _load_json(path):
    """The value of a JSON file; ValueError for one nested too deeply to parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _dumps(obj):
    """Compact JSON with sorted keys and a trailing newline: the one file format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _atomic_write(path, text):
    """Write text to path through a temp file in its directory and a rename; on
    any failure path is left as it was. The mode is 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # name the caller's path, not the temp file; errno keeps the subclass
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _check_int(x, name, low=None, high=None):
    """x as a Python int; ValueError naming `name` unless x is an integer in
    low..high, where a bound of None leaves that end open. Bools are not
    integers, and the type is checked before the range."""
    if type(x) is not int:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise ValueError(f"{name} {x!r} is not an integer")
        x = int(x)
    if low is not None and x < low or high is not None and x > high:
        raise ValueError(f"{name} {x} out of range {'' if low is None else low}..{'' if high is None else high}")
    return x


def coord_to_index(coord, dims):
    """Row-major vertex index of a 1-based lattice point, one coordinate per dimension."""
    dims = _check_dims(dims)
    if len(coord) != len(dims):
        raise ValueError(f"coord {tuple(coord)!r} has {len(coord)} entries for {len(dims)} dimensions")
    return _row_major([_check_int(c, "coordinate", 1, d) for c, d in zip(coord, dims)], dims)


def _row_major(coord, dims):
    """coord_to_index without its checks: coord a point of the lattice dims, in Python ints."""
    idx = 0
    for c, d in zip(coord, dims):
        idx = idx * d + c - 1
    return idx + 1


def index_to_coord(index, dims):
    """1-based lattice point of a row-major vertex index in 1..prod(dims)."""
    dims = _check_dims(dims)
    rem = _check_int(index, "index", 1, math.prod(dims)) - 1
    return tuple(rem // math.prod(dims[i + 1 :]) % d + 1 for i, d in enumerate(dims))


def make_complete(n):
    n = _check_int(n, "n", 1, _MAX_ORDER)
    return Graph(n, combinations(range(1, n + 1), 2))


def _check_dims(dims, low=1):
    """dims as a non-empty list of Python ints, each at least low; no order cap."""
    dims = [_check_int(d, "dimension", low) for d in dims]
    if not dims:
        raise ValueError("dimensions vector must be non-empty")
    return dims


def _lattice_dims(dims, wrap):
    """The checked dims of a lattice, each at least 3 if it wraps, and its order, at most _MAX_ORDER."""
    dims = _check_dims(dims, 3 if wrap else 1)
    return dims, _check_int(math.prod(dims), "grid order", 1, _MAX_ORDER)


def _shifted(dims, delta, wrap):
    """Row-major vertex of every point of the lattice dims moved by delta, in vertex
    order: wrapped round each axis if wrap, else 0 off the grid. Each delta entry is
    reduced mod d, or clamped to ±d, while it is still a Python int."""
    points, image, inside, stride = np.arange(math.prod(dims)), 1, True, 1
    for d, s in zip(dims[::-1], delta[::-1]):  # the last axis has stride 1
        moved = points // stride % d + (s % d if wrap else max(-d, min(s, d)))
        inside = inside & (moved >= 0) & (moved < d)
        image, stride = image + moved % d * stride, stride * d
    return np.where(inside | wrap, image, 0)


def _lattice(dims, wrap):
    """Each point joined to its image under every unit shift +e_i, which wraps iff
    wrap, so a wrapped dimension must be at least 3 to keep the graph simple."""
    dims, n = _lattice_dims(dims, wrap)
    coords = list(product(*(range(1, d + 1) for d in dims)))  # row-major, as index_to_coord
    # An axis of length 1 has no edge: its unit shift leaves the grid.
    units = ([int(k == i) for k in range(len(dims))] for i, d in enumerate(dims) if d > 1)
    succ = zip(*(_shifted(dims, e, wrap).tolist() for e in units))
    return Graph(n, [(v, w) for v, ws in enumerate(succ, start=1) for w in ws if w], coords)


def make_grid(dims):
    """Lattice graph on 1..d[1] x ... x 1..d[D], unit steps along one axis."""
    return _lattice(dims, wrap=False)


def make_torus(dims):
    """Grid graph with per-dimension wrap-around; every dimension must be >= 3."""
    return _lattice(dims, wrap=True)


def make_ring(n):
    n = _check_int(n, "n", 3, _MAX_ORDER)
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


#: Vertex pairs one row block of `make_random_geometric` compares at once.
_GEOMETRIC_CELLS = 1 << 18


def make_random_geometric(n, radius, seed):
    """n points uniform in the unit square; edge iff Euclidean distance < radius."""
    n = _check_int(n, "n", 1, _MAX_ORDER)
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real) or not radius > 0:  # NaN too
        raise ValueError(f"radius must be a positive real number, not {radius!r}")
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
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
