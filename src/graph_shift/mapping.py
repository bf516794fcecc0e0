"""Partial injective vertex maps and the translation property predicates.

A mapping sends each vertex of its domain either to a vertex of its codomain
or to bottom (no image, encoded as None). Bottom absorbs under composition.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .graph import _is_int

#: Explicit "no image" element.
BOTTOM = None


class Mapping:
    """Injective partial map between two vertex subsets, with explicit bottom."""

    def __init__(self, domain, codomain, image):
        domain = frozenset(domain)
        codomain = frozenset(codomain)
        image = dict(image)
        if set(image) != set(domain):
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
        self._image = image

    def __call__(self, v):
        """Image of v; vertices outside the domain and bottom map to bottom."""
        if v is BOTTOM or v not in self._image:
            return BOTTOM
        return self._image[v]

    @property
    def mapped(self):
        """Domain vertices with a non-bottom image."""
        return {v for v, w in self._image.items() if w is not BOTTOM}

    @property
    def image_set(self):
        """Set of non-bottom images."""
        return {w for w in self._image.values() if w is not BOTTOM}

    def items(self):
        return self._image.items()

    def loss(self):
        """Number of domain vertices sent to bottom."""
        return sum(1 for w in self._image.values() if w is BOTTOM)

    def is_lossless(self):
        return self.loss() == 0

    def image_tuple(self):
        """Images ordered by domain vertex; canonical identity of the mapping."""
        return tuple(self._image[v] for v in sorted(self.domain))

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self._image == other._image
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(sorted(self._image.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        pairs = ", ".join(
            f"{v}->{'⊥' if w is BOTTOM else w}" for v, w in sorted(self._image.items())
        )
        return f"Mapping({pairs})"

    def to_json_dict(self):
        return {
            "domain": sorted(self.domain),
            "codomain": sorted(self.codomain),
            "image": [[v, self._image[v]] for v in sorted(self.domain)],
        }

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("mapping JSON must be an object")
        domain, codomain, image = data["domain"], data["codomain"], data["image"]
        for name, vs in (("domain", domain), ("codomain", codomain)):
            if not isinstance(vs, list) or not all(map(_is_int, vs)):
                raise ValueError(f"mapping {name} must be a list of integer vertices")
        if not isinstance(image, list) or not all(
            isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and (p[1] is BOTTOM or _is_int(p[1]))
            for p in image
        ):
            raise ValueError("mapping image must be a list of [v, w] pairs, w an integer or null")
        return cls(domain, codomain, {v: w for v, w in image})

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def full_mapping(g, image):
    """Mapping on the full vertex set of g from a {vertex: image} dict."""
    return Mapping(g.vertex_set, g.vertex_set, image)


def bottom_map(g):
    """The all-bottom mapping; a translation of loss n on any graph."""
    return full_mapping(g, {v: BOTTOM for v in g.vertices})


def identity_map(g):
    return full_mapping(g, {v: v for v in g.vertices})


def _gaps(d1, d2, n):
    """Capped geodesic gaps between hop counts where -1 means unreachable.

    Unreachable becomes 2n, so min(|d1 - d2|, n) is 0 for two unreachable
    distances and the cap n for one: finite distances are at most n - 1.
    """
    d1 = np.where(d1 < 0, 2 * n, d1)
    d2 = np.where(d2 < 0, 2 * n, d2)
    return np.minimum(np.abs(d1 - d2), n)


def _pairs(g, m):
    """Hop counts among the mapped sources and among their images.

    Returns (d_src, d_img, ec_violations): two (k, k) blocks of the distance
    table over the k mapped sources in ascending order and over their images
    in the same order, and the number of sources whose image is not one hop
    away. Raises ValueError for a mapped source or image outside 1..n.
    """
    src = sorted(m.mapped)
    img = [m(v) for v in src]
    for v in src + img:
        g._check_vertex(v)
    dist = g.distance_matrix()
    s, t = np.asarray(src, dtype=np.intp), np.asarray(img, dtype=np.intp)
    return dist[np.ix_(s, s)], dist[np.ix_(t, t)], int(np.count_nonzero(dist[s, t] != 1))


def check_ec(g, m):
    """Edge-constrained check: every non-bottom image is a neighbor of its source.

    Returns (is_ec, violation_count).
    """
    rep = property_report(g, m)
    return rep.is_ec, rep.ec_violations


def check_wnp(g, m):
    """Weak preservation: edges between mapped vertices map to edges."""
    return property_report(g, m).is_wnp


def check_snp(g, m):
    """Strong preservation: edge iff image-edge, over pairs of mapped vertices."""
    return property_report(g, m).is_snp


def check_isometry(g, m):
    """Exact geodesic-distance preservation over pairs of mapped vertices."""
    return property_report(g, m).is_isometry


def is_translation(g, m):
    return property_report(g, m).is_translation


def snp_violations(g, m):
    """Count of mapped vertex pairs whose edge/non-edge status flips."""
    return property_report(g, m).snp_violations


def deformation(g, m):
    """Summed absolute change of pairwise geodesic distances over mapped pairs.

    Two infinite distances count as 0; finite vs infinite is capped at n.
    """
    return property_report(g, m).deformation


@dataclass(frozen=True)
class PropertyReport:
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

    Fields are Python ints and bools, so reports serialize as plain JSON.
    """
    d_src, d_img, ec_bad = _pairs(g, m)
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


def to_digraph(m):
    """Arcs (v, image(v)) for the non-bottom part, ordered by source."""
    return [(v, m(v)) for v in sorted(m.mapped)]


def decompose(m):
    """Partition the domain into directed cycles and bottom-terminated paths."""
    succ = {v: m(v) for v in m.domain}
    has_pred = set(m.image_set)
    remaining = set(m.domain)
    cycles, paths = [], []

    # Paths start at vertices with no inverse image inside the domain.
    for start in sorted(m.domain):
        if start in has_pred or start not in remaining:
            continue
        path = [start]
        remaining.discard(start)
        v = succ.get(start, BOTTOM)
        while v is not BOTTOM and v in remaining:
            path.append(v)
            remaining.discard(v)
            v = succ.get(v, BOTTOM)
        paths.append(path)

    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        v = succ[start]
        while v != start and v in remaining:
            cycle.append(v)
            remaining.discard(v)
            v = succ.get(v, BOTTOM)
        cycles.append(cycle)
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
    """Move signal entries along the mapping; lost and untouched entries are 0."""
    y = [0.0] * len(x)
    for v in m.mapped:
        y[m(v) - 1] = x[v - 1]
    return y


def precedes(m1, m2):
    """The well-founded comparison: strictly larger loss and a shared assignment."""
    if m1.loss() <= m2.loss():
        return False
    return any(m1(v) == m2(v) for v in m1.domain & m2.domain)
