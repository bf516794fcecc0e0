"""Brute-force reference implementations shared by the test modules."""

from itertools import combinations, product

from graph_shift.enumeration import EnumerationFilter
from graph_shift.mapping import BOTTOM, full_mapping


def naive_oracle(g, f=None):
    """Reference enumerator: every image tuple, filtered. Exponential."""
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
    big = g.n + 1
    return sorted(found, key=lambda m: tuple(big if w is BOTTOM else w for w in m.image_tuple()))
