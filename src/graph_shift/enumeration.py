"""Exhaustive search for translations: enumeration, witnesses, minimality.

The core is a backtracking solver over full-domain assignments with the
edge constraint built into the candidate sets and strong-neighborhood
consistency checked against every previously assigned vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Optional

import numpy as np

from .mapping import BOTTOM, full_mapping


@dataclass
class EnumerationFilter:
    lossless_only: bool = False
    max_loss: Optional[int] = None
    require_image_set: Optional[frozenset] = None
    restrict_domain: Optional[frozenset] = None

    def normalized(self, g):
        max_loss = 0 if self.lossless_only else self.max_loss
        if max_loss is not None and not 0 <= max_loss <= g.n:
            raise ValueError("max_loss must lie between 0 and the graph order")
        image_set = frozenset(self.require_image_set) if self.require_image_set is not None else None
        domain = frozenset(self.restrict_domain) if self.restrict_domain is not None else None
        for vs in (image_set, domain):
            for v in vs or ():
                g._check_vertex(v)
        return max_loss, image_set, domain


def _search(g, f, first_only=False):
    """Backtracking over image assignments; yields full-domain translations.

    Vertices are assigned in ascending-degree order (most constrained first
    under the edge constraint); bottom is tried last so lossless solutions
    surface first. Consistency against assigned vertices enforces both the
    edge constraint and the edge-iff-image-edge property.
    """
    max_loss, image_set, domain = f.normalized(g)
    order = sorted(g.vertices, key=lambda v: (g.degree(v), v))
    n = len(order)
    image = {}
    used = set()
    results = []

    def candidates(v):
        cands = sorted(g.neighbors(v))
        if domain is not None and v not in domain:
            cands = []
        if image_set is not None:
            cands = [w for w in cands if w in image_set]
        return cands

    def consistent(v, w):
        for u, x in image.items():
            if x is BOTTOM:
                continue
            if g.has_edge(u, v) != g.has_edge(x, w):
                return False
        return True

    def feasible(depth, bottoms):
        if max_loss is not None and bottoms > max_loss:
            return False
        if image_set is not None:
            # Every required image must still be reachable by an unassigned vertex.
            missing = len(image_set - used)
            if missing > n - depth:
                return False
        return True

    def recurse(depth, bottoms):
        if depth == n:
            if image_set is not None and used != image_set:
                return False
            results.append(full_mapping(g, dict(image)))
            return first_only
        v = order[depth]
        for w in candidates(v):
            if w in used or not consistent(v, w):
                continue
            image[v] = w
            used.add(w)
            if feasible(depth + 1, bottoms) and recurse(depth + 1, bottoms):
                return True
            del image[v]
            used.discard(w)
        image[v] = BOTTOM
        done = feasible(depth + 1, bottoms + 1) and recurse(depth + 1, bottoms + 1)
        del image[v]
        return done

    recurse(0, 0)
    return results


def _sort_key(g):
    big = g.n + 1

    def key(m):
        return tuple(big if w is BOTTOM else w for w in m.image_tuple())

    return key


def enumerate_translations(g, f=None):
    """All full-domain translations of g satisfying the filter, in a fixed order."""
    f = f or EnumerationFilter()
    return sorted(_search(g, f), key=_sort_key(g))


def exists_translation_between(g, v1_set, v2_set):
    """A witness translation with sources in v1_set and image exactly v2_set."""
    f = EnumerationFilter(
        require_image_set=frozenset(v2_set), restrict_domain=frozenset(v1_set)
    )
    found = _search(g, f, first_only=True)
    return found[0] if found else None


#: Cells of one block of the shared-assignment relation (4 MB in float32).
_BLOCK_CELLS = 1 << 20


def _unpreceded(translations, inductive):
    """Mask of the translations that no lower-loss translation precedes.

    With `inductive`, only lower-loss translations that are themselves kept
    count. Each translation is a one-hot row over its (vertex, image)
    assignments, bottom included, so a row product counts shared assignments
    over the common domain, exactly as `precedes` tests them. Loss levels go
    in ascending order, a block of rows at a time, so no T x T relation is
    ever held in memory.
    """
    symbols = {}
    rows = [[symbols.setdefault(a, len(symbols)) for a in m.items()] for m in translations]
    onehot = np.zeros((len(rows), len(symbols)), dtype=np.float32)
    for i, cols in enumerate(rows):
        onehot[i, cols] = 1.0
    loss = np.array([m.loss() for m in translations], dtype=np.int64)
    keep = np.ones(len(rows), dtype=bool)
    below = np.empty(0, dtype=np.int64)
    for level in np.unique(loss):
        idx = np.flatnonzero(loss == level)
        if below.size:
            ref = onehot[below].T
            step = max(1, _BLOCK_CELLS // below.size)
            for start in range(0, idx.size, step):
                blk = idx[start : start + step]
                keep[blk] = ~((onehot[blk] @ ref) > 0).any(axis=1)
        below = np.concatenate([below, idx[keep[idx]] if inductive else idx])
    return keep


def minimal_translations(g, translations=None):
    """Translations with no strictly-less-lossy comparable successor."""
    if translations is None:
        translations = enumerate_translations(g)
    keep = _unpreceded(translations, inductive=False)
    return [m for m, k in zip(translations, keep) if k]


def pseudo_minimal_translations(g, translations=None):
    """Inductive closure of minimality over the full translation set.

    A translation qualifies when it is minimal, or when every comparable
    less-lossy translation fails to qualify. Dependencies always point at
    strictly smaller loss, so one pass in ascending-loss order suffices.
    """
    if translations is None:
        translations = enumerate_translations(g)
    keep = _unpreceded(translations, inductive=True)
    return [m for m, k in zip(translations, keep) if k]


def count_upper_bound(n):
    """Closed-form cap on the number of translations of an order-n graph.

    Evaluated verbatim with exact integer arithmetic. Note this sum is known
    to undercount what brute force finds for partial (lossy) translations on
    complete graphs; the k = n term (derangements) is exact.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = 0
    for k in range(n + 1):
        inner = sum((-1) ** j * comb(k, j) * factorial(n - j) for j in range(k + 1))
        total += inner // factorial(n - k)
    return total


def count_minimal_upper_bound(n):
    """Derangement count: cap on the number of minimal translations."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sum((-1) ** j * factorial(n) // factorial(j) for j in range(n + 1))


def has_perfect_matching(g):
    """Exact backtracking decision; intended for small graphs."""
    return perfect_matching_translation(g) is not None


def has_hamiltonian_cycle(g):
    """Exact backtracking decision; intended for small graphs."""
    return hamiltonian_cycle_translation(g) is not None


def perfect_matching_translation(g):
    """Self-inverse lossless translation from a perfect matching, if one exists."""
    if g.n % 2 == 1:
        return None

    def match(unmatched, pairs):
        if not unmatched:
            return pairs
        v = min(unmatched)
        rest = unmatched - {v}
        for w in sorted(g.neighbors(v)):
            if w in rest:
                got = match(rest - {w}, pairs + [(v, w)])
                if got is not None:
                    return got
        return None

    pairs = match(set(g.vertices), [])
    if pairs is None:
        return None
    image = {}
    for v, w in pairs:
        image[v] = w
        image[w] = v
    return full_mapping(g, image)


def hamiltonian_cycle_translation(g):
    """Lossless translation advancing every vertex along a Hamiltonian cycle."""
    if g.n < 3 or any(g.degree(v) < 2 for v in g.vertices):
        return None
    start = 1
    path = [start]
    visited = {start}

    def extend(v):
        if len(path) == g.n:
            return g.has_edge(v, start)
        for w in sorted(g.neighbors(v)):
            if w not in visited:
                visited.add(w)
                path.append(w)
                if extend(w):
                    return True
                path.pop()
                visited.discard(w)
        return False

    if not extend(start):
        return None
    image = {path[i]: path[(i + 1) % g.n] for i in range(g.n)}
    return full_mapping(g, image)


def naive_oracle(g, f=None):
    """Reference enumerator: every image tuple, filtered. Exponential; tests only."""
    from itertools import product

    f = f or EnumerationFilter()
    max_loss, image_set, domain = f.normalized(g)
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
    return sorted(found, key=_sort_key(g))


def min_loss(g, upper=None):
    """Smallest loss over all translations, by iterative-deepening search."""
    upper = g.n if upper is None else upper
    for budget in range(upper + 1):
        f = EnumerationFilter(max_loss=budget)
        if _search(g, f, first_only=True):
            return budget
    return g.n
