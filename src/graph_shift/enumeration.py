"""Exhaustive search for translations: enumeration, witnesses, minimality.

The core, `_search`, is one depth-first backtracking loop on an explicit
stack over full-domain assignments. The edge constraint and the filter are
built into per-vertex option lists and a bottom cap, and strong-neighborhood
consistency is checked against every vertex mapped so far. The last vertex is
the leaf level: each of its options that passes is yielded in place, as a
translation built by `Mapping._trusted`, skipping the checks of `Mapping(...)`
that the search has already proved. A leaf is a tuple of images over one
position index that every leaf of the search shares, so no leaf copies a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .graph import _check_int
from .mapping import BOTTOM, Mapping


@dataclass
class EnumerationFilter:
    lossless_only: bool = False
    max_loss: Optional[int] = None
    require_image_set: Optional[frozenset] = None
    restrict_domain: Optional[frozenset] = None

    def _options(self, g):
        """The filter compiled for `_search` on g, validated: (options, cap).

        options[v] is v's allowed images, ascending, then bottom; cap bounds the bottoms."""
        if self.lossless_only and self.max_loss not in (None, 0):
            raise ValueError("lossless_only conflicts with a max_loss other than 0")
        max_loss = 0 if self.lossless_only and self.max_loss is None else self.max_loss
        if max_loss is not None:
            max_loss = _check_int(max_loss, "max_loss", 0, g.n)
        image_set, domain = (
            None if vs is None else frozenset(map(g._check_vertex, vs))
            for vs in (self.require_image_set, self.restrict_domain)
        )
        # Before `_search` assigns vertex v, v - 1 - len(pairs) vertices hold bottom
        # and each mapped one holds a distinct required image, so the rest of
        # image_set still fits in the unassigned vertices iff the bottoms stay
        # within n - |image_set|. Only a bottom can break that, or max_loss.
        cap = min(g.n if max_loss is None else max_loss, g.n - len(image_set or ()))
        options = [()] * (g.n + 1)
        for v in g.vertices:
            free = domain is None or v in domain
            options[v] = [w for w in sorted(g._adj[v]) if free and (image_set is None or w in image_set)] + [BOTTOM]
        return options, cap


def _search(g, options, cap):
    """Backtracking over image assignments: a generator of full-domain translations.

    One depth-first loop over an explicit stack of option iterators, one per
    assigned vertex. Vertices are assigned in index order, each trying its
    options in order, so with `EnumerationFilter._options` translations come
    sorted by image tuple with bottom after every vertex. Consistency against
    the mapped vertices enforces both the edge constraint and the
    edge-iff-image-edge property. A vertex may take bottom only while the
    bottoms stay within cap. Vertex n is the leaf level: each of its options
    that passes is written into the image and yielded in place, as a tuple,
    so no level is pushed below it. Each leaf is built by
    `Mapping._trusted`, sharing g.vertex_set as domain and codomain and one
    position index, since the search has proved it a translation.
    """
    n, adj, V = g.n, g._adj, g.vertex_set
    at = {v: v - 1 for v in g.vertices}
    if not n:  # the empty graph's one translation
        yield Mapping._trusted(V, V, at, ())
        return
    image = [BOTTOM] * n  # image[v - 1] is v's
    pairs, used = [], set()  # the mapped (vertex, image) pairs, and their images
    stack = [iter(options[1])]
    while stack:
        v = len(stack)
        if pairs and pairs[-1][0] == v:
            used.remove(pairs.pop()[1])
        nv = adj[v]
        for w in stack[-1]:
            if w is BOTTOM:
                if v - 1 - len(pairs) >= cap:
                    continue
                checks = ()  # a bottom has no pair to agree with
            elif w in used:
                continue
            else:
                nw, checks = adj[w], pairs
            for u, x in checks:
                if (u in nv) != (x in nw):
                    break
            else:
                image[v - 1] = w
                if v < n:
                    break
                yield Mapping._trusted(V, V, at, tuple(image))  # vertex n: each option in place
        else:
            stack.pop()
            continue
        if w is not BOTTOM:
            pairs.append((v, w))
            used.add(w)
        stack.append(iter(options[v + 1]))


def enumerate_translations(g, f=None):
    """All full-domain translations of g passing the filter, by image tuple, bottom last."""
    return list(_search(g, *(f or EnumerationFilter())._options(g)))


def exists_translation_between(g, v1_set, v2_set):
    """The first translation, in enumeration order, with sources in v1_set and
    image exactly v2_set; None when there is none."""
    f = EnumerationFilter(
        require_image_set=frozenset(v2_set), restrict_domain=frozenset(v1_set)
    )
    return next(_search(g, *f._options(g)), None)


def _unpreceded(g, translations, inductive):
    """The translations, enumerated from g if None, that no lower-loss one precedes.

    `precedes` asks only for strictly lower loss and one shared (vertex,
    image) assignment over the common domain, bottom included. So a
    translation is preceded iff one of its assignments was already seen at a
    lower loss level. Levels go in ascending order; each is decided against
    the set of assignments seen so far, which then takes the items of all the
    level's translations or, with `inductive`, of its kept ones only. The
    kept translations stay in their given order.
    """
    if translations is None:
        translations = enumerate_translations(g)
    loss = [m.loss() for m in translations]
    keep = [False] * len(translations)
    seen = set()
    order = sorted(range(len(loss)), key=loss.__getitem__)
    for _, level in groupby(order, key=loss.__getitem__):
        level = list(level)
        for i in level:
            keep[i] = seen.isdisjoint(translations[i].items())
        for i in level:
            if keep[i] or not inductive:
                seen.update(translations[i].items())
    return [m for m, k in zip(translations, keep) if k]


def minimal_translations(g, translations=None):
    """Those of `translations` (all of g's if None) with no strictly-less-lossy comparable successor."""
    return _unpreceded(g, translations, inductive=False)


def pseudo_minimal_translations(g, translations=None):
    """Inductive closure of minimality over `translations`, or all of g's if None.

    A translation qualifies when it is minimal, or when every comparable
    less-lossy translation fails to qualify. Dependencies always point at
    strictly smaller loss, so one pass in ascending-loss order suffices.
    """
    return _unpreceded(g, translations, inductive=True)


def min_loss(g, upper=None):
    """Smallest loss over all translations, by iterative-deepening search.

    None when no translation has loss at most `upper`, an integer in 0..n
    (default n, which the bottom map reaches)."""
    upper = g.n if upper is None else _check_int(upper, "upper", 0, g.n)
    options, _ = EnumerationFilter()._options(g)
    for budget in range(upper + 1):
        if next(_search(g, options, budget), None) is not None:
            return budget
    return None
