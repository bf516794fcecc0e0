"""Brute-force reference implementations shared by the test modules."""

from collections import deque
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from graph_shift.enumeration import EnumerationFilter
from graph_shift.graph import Graph
from graph_shift.mapping import BOTTOM, Mapping, full_mapping
from graph_shift.relax import score


class MappingReference:
    """`Mapping`'s accessors over a plain {vertex: image} dict, read one lookup at a time.

    Built from a mapping's (vertex, image) pairs; each accessor sorts the
    domain or scans the dict itself, so none of them reads the tuple
    storage or its position index.
    """

    def __init__(self, m):
        self.domain, self.codomain, self.image = m.domain, m.codomain, dict(m.items())

    def __call__(self, v):
        if v is BOTTOM or v not in self.image:
            return BOTTOM
        return self.image[v]

    @property
    def mapped(self):
        return {v for v, w in self.image.items() if w is not BOTTOM}

    @property
    def image_set(self):
        return {w for w in self.image.values() if w is not BOTTOM}

    def loss(self):
        return sum(1 for w in self.image.values() if w is BOTTOM)

    def image_tuple(self):
        return tuple(self.image[v] for v in sorted(self.domain))

    def to_json_dict(self):
        return {
            "domain": sorted(self.domain),
            "codomain": sorted(self.codomain),
            "image": [[v, self.image[v]] for v in sorted(self.domain)],
        }

    def __repr__(self):
        pairs = ", ".join(f"{v}->{'⊥' if w is BOTTOM else w}" for v, w in sorted(self.image.items()))
        return f"Mapping({pairs})"


def draw_graph_and_filter(data, st):
    """A random graph on 1-6 vertices and a random filter over its vertices,
    the empty required image set drawn on purpose."""
    n = data.draw(st.integers(1, 6), label="n")
    pairs = combinations(range(1, n + 1), 2)
    g = Graph(n, [e for e in pairs if data.draw(st.booleans(), label=f"edge {e}")])
    subset = st.frozensets(st.sampled_from(list(g.vertices)))
    f = EnumerationFilter(
        max_loss=data.draw(st.none() | st.integers(0, n), label="max_loss"),
        restrict_domain=data.draw(st.none() | subset, label="domain"),
        require_image_set=data.draw(st.none() | st.just(frozenset()) | subset, label="image set"),
    )
    return g, f


def naive_oracle(g, f=None):
    """Reference enumerator: every image tuple, filtered. Exponential."""
    f = f or EnumerationFilter()
    max_loss = 0 if f.lossless_only else f.max_loss
    image_set, domain = f.require_image_set, f.restrict_domain
    verts = list(g.vertices)
    found = []
    for tup in product([BOTTOM] + verts, repeat=g.n):
        nz = [w for w in tup if w is not BOTTOM]
        if len(nz) != len(set(nz)):
            continue
        m = {v: tup[v - 1] for v in verts}
        if any(w is not BOTTOM and not g.has_edge(v, w) for v, w in m.items()):
            continue
        ok = True
        for u, v in combinations([v for v in verts if m[v] is not BOTTOM], 2):
            if g.has_edge(u, v) != g.has_edge(m[u], m[v]):
                ok = False
                break
        if not ok:
            continue
        loss = g.n - len(nz)
        if max_loss is not None and loss > max_loss:
            continue
        if domain is not None and any(m[v] is not BOTTOM for v in verts if v not in domain):
            continue
        if image_set is not None and set(nz) != set(image_set):
            continue
        found.append(full_mapping(g, m))
    big = g.n + 1
    return sorted(found, key=lambda m: tuple(big if w is BOTTOM else w for w in m.image_tuple()))


def formula_term(n, k):
    """The translations of K_n whose mapped set is one fixed k-set, in closed form.

    On K_n every two vertices are adjacent, so a translation with mapped set
    S is an injection of S into the vertices that moves each vertex of S: its
    images are distinct, hence adjacent iff their sources are. By
    inclusion-exclusion over the j vertices of S held fixed, there are
    sum_j (-1)^j C(k, j) (n - j)! / (n - k)! of them. Weighting term k by the
    C(n, k) choices of S gives the exact count of K_n's translations, and
    term n is the derangement number D(n), the count of its lossless ones.
    """
    inner = sum((-1) ** j * comb(k, j) * factorial(n - j) for j in range(k + 1))
    return inner // factorial(n - k)


def greedy_reference(g, v1, v2, V1, V2, p):
    """minimize_s by scalar scoring: (mapping, breakdown, rows tried).

    Pins v1 -> v2, then takes the other support vertices in ascending order,
    p.k_block at a time. A block tries every arrangement of the unused
    targets (V2 and v2) and ⊥, in product order over the sorted targets then
    ⊥, each target at most once, and keeps the first strict minimizer of
    `relax.score` of the assigned-so-far mapping.
    """
    targets = set(V2) | {v2}
    image = {v1: v2}
    rest = sorted(set(V1) - {v1})
    rows = 0
    for start in range(0, len(rest), p.k_block):
        block = rest[start : start + p.k_block]
        options = sorted(targets - set(image.values())) + [BOTTOM]
        best = None
        for row in product(options, repeat=len(block)):
            mapped = [w for w in row if w is not BOTTOM]
            if len(mapped) != len(set(mapped)):
                continue
            image.update(zip(block, row))
            total = score(g, Mapping(image, targets, image), p).total
            rows += 1
            if best is None or total < best[0]:
                best = (total, row)
        image.update(zip(block, best[1]))
    m = Mapping(V1, targets, image)
    return m, score(g, m, p), rows


def geometric_edges_reference(n, radius, seed):
    """(edges, coords) of make_random_geometric by the pair-by-pair loop."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if np.hypot(*(pts[u] - pts[v])) < radius:
                edges.append((u + 1, v + 1))
    return edges, pts.tolist()


def distance_table_reference(g):
    """All-pairs hop counts, 2n for unreachable, by one deque BFS per source."""
    n = g.n
    unreachable = 2 * n
    dist = np.full((n + 1, n + 1), unreachable, dtype=np.int64)
    for src in range(1, n + 1):
        dist[src, src] = 0
        queue = deque([src])
        row = dist[src]
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if row[w] == unreachable:
                    row[w] = row[u] + 1
                    queue.append(w)
    return dist


def lattice_reference(dims, wrap):
    """Row-major points of the grid (or torus, if wrap) of dims and its edges,
    found by comparing every pair of points: one axis differs, by one step or,
    on the torus, from one end to the other."""
    points = [()]
    for d in dims:
        points = [p + (c,) for p in points for c in range(1, d + 1)]
    edges = set()
    for (u, a), (v, b) in combinations(enumerate(points, start=1), 2):
        axes = [i for i in range(len(dims)) if a[i] != b[i]]
        if len(axes) == 1:
            step = abs(a[axes[0]] - b[axes[0]])
            if step == 1 or wrap and step == dims[axes[0]] - 1:
                edges.add((u, v))
    return points, edges


def distinct_rows_reference(raw_loss, raw_ec, raw_def, bad):
    """`search._distinct_rows` by a stable sort of every candidate's packed key.

    Compresses the candidates (the rows not in `bad`), packs each raw-sum
    triple into one key, and keeps the first candidate of each key by
    `np.unique`, in first-row order: raw_loss, raw_ec, raw_def and row index
    of each distinct triple, shape (4, m), as int32 where the values fit.
    """
    rows = np.flatnonzero(~bad)
    raw_loss, raw_ec, raw_def = raw_loss[rows], raw_ec[rows], raw_def[rows]
    loss_base = int(raw_loss.max()) + 1
    ec_base = int(raw_ec.max()) + 1
    key = (raw_def * ec_base + raw_ec) * loss_base + raw_loss
    _, first = np.unique(key.astype(np.min_scalar_type(key.max())), return_index=True)
    first.sort()
    out = np.stack((raw_loss[first], raw_ec[first], raw_def[first], rows[first]))
    return out.astype(np.int32) if out.max() <= np.iinfo(np.int32).max else out
