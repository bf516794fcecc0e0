"""Partial injective vertex maps and the translation property predicates.

A mapping sends each vertex of its domain either to a vertex of its codomain
or to bottom (no image, encoded as None). Bottom absorbs under composition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import _atomic_write, _check_int, _dumps, _load_json

#: Explicit "no image" element.
BOTTOM = None


class Mapping:
    """Injective partial map between two vertex subsets, with explicit bottom.

    Every vertex must be an integer and is stored as a Python int; whether
    it lies in 1..n is checked against a graph (`property_report`). The
    images are one tuple, `_img`, over the domain in ascending order;
    `_at` maps each domain vertex to its place there, and mappings over one
    domain may share it: every leaf of one enumeration holds the same one.
    """

    # No per-instance __dict__: an enumeration can hold tens of thousands.
    __slots__ = ("domain", "codomain", "_at", "_img")

    def __init__(self, domain, codomain, image):
        domain = frozenset(_check_int(v, "domain vertex") for v in domain)
        codomain = frozenset(_check_int(w, "codomain vertex") for w in codomain)
        image = {
            _check_int(v, "domain vertex"): w if w is BOTTOM else _check_int(w, "image vertex")
            for v, w in dict(image).items()
        }
        if image.keys() != domain:
            raise ValueError("image must be defined on exactly the domain")
        seen = set()
        for v, w in image.items():
            if w is BOTTOM:
                continue
            if w not in codomain:
                raise ValueError(f"image {w} of {v} outside codomain")
            if w in seen:
                raise ValueError(f"duplicate image {w}: mapping not injective")
            seen.add(w)
        self.domain = domain
        self.codomain = codomain
        self._at = {v: i for i, v in enumerate(sorted(domain))}
        self._img = tuple(image[v] for v in self._at)

    @classmethod
    def _trusted(cls, domain, codomain, at, img):
        """A mapping from parts already known to be valid, without the checks.

        The caller guarantees that domain and codomain are frozensets, that
        `at` is the ascending position index of domain, {vertex: place},
        and that img is a tuple of the images aligned with it, its
        non-bottom entries distinct vertices of the codomain. `at` is kept,
        not copied, so many mappings can share it.
        """
        m = cls.__new__(cls)
        m.domain, m.codomain, m._at, m._img = domain, codomain, at, img
        return m

    def __call__(self, v):
        """Image of v; vertices outside the domain and bottom map to bottom."""
        i = self._at.get(v)  # bottom is never a domain vertex
        return BOTTOM if i is None else self._img[i]

    @property
    def mapped(self):
        """Domain vertices with a non-bottom image."""
        return {v for v, w in self.items() if w is not BOTTOM}

    @property
    def image_set(self):
        """Set of non-bottom images."""
        return {w for w in self._img if w is not BOTTOM}

    def items(self):
        """Iterator of (vertex, image) pairs in ascending vertex order."""
        return zip(self._at, self._img)

    def loss(self):
        """Number of domain vertices sent to bottom."""
        return self._img.count(BOTTOM)

    def is_lossless(self):
        return self.loss() == 0

    def image_tuple(self):
        """Images ordered by domain vertex; canonical identity of the mapping."""
        return self._img

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.domain == other.domain and self.codomain == other.codomain and self._img == other._img

    def __hash__(self):
        return hash((self.domain, self.codomain, self._img))

    def __repr__(self):
        pairs = ", ".join(f"{v}->{'⊥' if w is BOTTOM else w}" for v, w in self.items())
        return f"Mapping({pairs})"

    def to_json_dict(self):
        return {
            "domain": sorted(self.domain),
            "codomain": sorted(self.codomain),
            "image": [[v, w] for v, w in self.items()],
        }

    @classmethod
    def from_json_dict(cls, data):
        """The mapping of a JSON object; the constructor checks its vertices."""
        if not isinstance(data, dict):
            raise ValueError("mapping JSON must be an object")
        domain, codomain, image = data["domain"], data["codomain"], data["image"]
        if not (isinstance(domain, list) and isinstance(codomain, list)):
            raise ValueError("mapping domain and codomain must be lists of vertices")
        # dict() below hashes each source, so none may be a list or an object.
        if not isinstance(image, list) or not all(
            isinstance(p, list) and len(p) == 2 and not isinstance(p[0], (list, dict)) for p in image
        ):
            raise ValueError("mapping image must be a list of [v, w] pairs")
        pairs = dict(image)
        if len(pairs) != len(image):
            raise ValueError("mapping image gives a source vertex more than one image")
        return cls(domain, codomain, pairs)

    def save(self, path):
        _atomic_write(path, _dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(_load_json(path))


def full_mapping(g, image):
    """Mapping on the full vertex set of g from a {vertex: image} dict."""
    return Mapping(g.vertex_set, g.vertex_set, image)


def bottom_map(g):
    """The all-bottom mapping; a translation of loss n on any graph."""
    return full_mapping(g, {v: BOTTOM for v in g.vertices})


def identity_map(g):
    return full_mapping(g, {v: v for v in g.vertices})


def _gaps(d1, d2, n):
    """Capped geodesic gaps between hop counts where 2n means unreachable.

    min(|d1 - d2|, n) is 0 for two unreachable distances and the cap n for
    one: finite distances are at most n - 1.
    """
    return np.minimum(np.abs(d1 - d2), n)


@dataclass(frozen=True)
class PropertyReport:
    """Predicates of a mapping over its mapped vertices and their pairs.

    is_ec: every image is a neighbour; is_wnp: edges map to edges; is_snp:
    edge iff image edge (`snp_violations` counts the flips); is_isometry:
    every geodesic distance kept. A translation is ec and snp. `deformation`
    sums the distance gaps; one infinite distance makes a gap of n, two none.
    """

    loss: int
    is_ec: bool
    is_wnp: bool
    is_snp: bool
    is_translation: bool
    is_isometry: bool
    ec_violations: int
    snp_violations: int
    deformation: int

    def to_json_dict(self):
        return asdict(self)


def property_report(g, m):
    """Every predicate of m on g, from one gather of the mapped pairs.

    The gather takes two (k, k) blocks of the distance table: over the k
    mapped sources in ascending order and over their images in the same
    order. Raises ValueError for any domain or codomain vertex outside
    1..n, mapped or not. Fields are Python ints and bools, so reports
    serialize as plain JSON.
    """
    for v in m.domain | m.codomain:
        g._check_vertex(v)
    src = sorted(m.mapped)
    img = [m(v) for v in src]
    dist = g.distance_matrix()
    s, t = np.asarray(src, dtype=np.intp), np.asarray(img, dtype=np.intp)
    d_src, d_img = dist[np.ix_(s, s)], dist[np.ix_(t, t)]
    ec_bad = int(np.count_nonzero(dist[s, t] != 1))
    edge_src, edge_img = d_src == 1, d_img == 1
    # Both blocks are symmetric with a zero diagonal, so a count over the
    # full block sees every unordered pair twice and no vertex with itself.
    snp_bad = int(np.count_nonzero(edge_src != edge_img)) // 2
    return PropertyReport(
        loss=m.loss(),
        is_ec=ec_bad == 0,
        is_wnp=not bool((edge_src & ~edge_img).any()),
        is_snp=snp_bad == 0,
        is_translation=ec_bad == 0 and snp_bad == 0,
        is_isometry=bool((d_src == d_img).all()),
        ec_violations=ec_bad,
        snp_violations=snp_bad,
        deformation=int(_gaps(d_src, d_img, g.n).sum()) // 2,
    )


def decompose(m):
    """Partition the domain into directed cycles and bottom-terminated paths.

    Each unwalked vertex, taken in (has a preimage, vertex) order, starts a
    walk along m that stops at bottom, outside the domain or at a walked
    vertex: a path if the start has no preimage, else a cycle."""
    has_pred = m.image_set
    walked = set()
    cycles, paths = [], []
    for start in sorted(m.domain, key=lambda v: (v in has_pred, v)):
        walk, v = [], start
        while v in m.domain and v not in walked:
            walk.append(v)
            walked.add(v)
            v = m(v)
        if walk:
            (cycles if start in has_pred else paths).append(walk)
    return cycles, paths


def inverse(m):
    """Arc-reversed mapping; domain and codomain swap."""
    image = {w: BOTTOM for w in m.codomain}
    for v in m.mapped:
        image[m(v)] = v
    return Mapping(m.codomain, m.domain, image)


def compose(m2, m1):
    """(m2 after m1); any hand-off outside m2's reach becomes bottom."""
    image = {}
    for v in m1.domain:
        w = m1(v)
        image[v] = m2(w) if w is not BOTTOM else BOTTOM
    return Mapping(m1.domain, m2.codomain, image)


def apply_to_signal(m, x):
    """Move signal entries along the mapping; lost and untouched entries are 0.
    ValueError unless every mapped vertex and its image lies in 1..len(x)."""
    n = len(x)
    y = [0.0] * n
    for v in m.mapped:
        y[_check_int(m(v), "signal vertex", 1, n) - 1] = x[_check_int(v, "signal vertex", 1, n) - 1]
    return y


def precedes(m1, m2):
    """The well-founded comparison: strictly larger loss and a shared assignment."""
    if m1.loss() <= m2.loss():
        return False
    return any(m1(v) == m2(v) for v in m1.domain & m2.domain)
