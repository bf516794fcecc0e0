import dataclasses
import gc
import itertools
import random

import pytest

from graph_shift.enumeration import (
    EnumerationFilter,
    _search,
    enumerate_translations,
    exists_translation_between,
    min_loss,
    minimal_translations,
    pseudo_minimal_translations,
)
from graph_shift.graph import (
    Graph,
    make_complete,
    make_grid,
    make_random_geometric,
    make_ring,
    make_torus,
)
from graph_shift.mapping import BOTTOM, Mapping, bottom_map, precedes, property_report
from oracles import draw_graph_and_filter, formula_term, naive_oracle, search_reference


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_oracle_equivalence_exhaustive_n3():
    for g in all_graphs(3):
        assert enumerate_translations(g) == naive_oracle(g)


def test_oracle_equivalence_random_n5():
    rng = random.Random(42)
    for _ in range(25):
        edges = [e for e in itertools.combinations(range(1, 6), 2) if rng.random() < 0.5]
        g = Graph(5, edges)
        assert enumerate_translations(g) == naive_oracle(g)


def test_k3_census():
    # 18 translations in total: 2 lossless rotations, 9 of loss 1,
    # 6 of loss 2 and the bottom map.
    ts = enumerate_translations(make_complete(3))
    assert len(ts) == 18
    by_loss = {k: sum(1 for m in ts if m.loss() == k) for k in range(4)}
    assert by_loss == {0: 2, 1: 9, 2: 6, 3: 1}


def test_results_are_translations_and_sorted():
    g = make_grid([2, 3])
    ts = enumerate_translations(g)
    assert all(property_report(g, m).is_translation for m in ts)
    keys = [tuple(g.n + 1 if w is BOTTOM else w for w in m.image_tuple()) for m in ts]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 9), (5, 44)])
def test_lossless_count_is_derangements(n, expected):
    ts = enumerate_translations(make_complete(n), EnumerationFilter(lossless_only=True))
    assert len(ts) == expected
    assert len(ts) == formula_term(n, n)


def test_minimal_count_formula_holds_only_on_complete_graphs():
    # D(n) counts the minimal translations of K_n for n >= 2, but caps
    # neither the path 1-2-3 (4 against D(3) = 2) nor K1 (1 against D(1) = 0).
    assert len(minimal_translations(Graph(3, [(1, 2), (2, 3)]))) == 4
    assert formula_term(3, 3) == 2
    assert minimal_translations(Graph(1, [])) == [bottom_map(Graph(1, []))]
    assert formula_term(1, 1) == 0


def test_max_loss_filter():
    g = make_complete(4)
    ts = enumerate_translations(g, EnumerationFilter(max_loss=1))
    assert ts and all(m.loss() <= 1 for m in ts)
    with pytest.raises(ValueError):
        enumerate_translations(g, EnumerationFilter(max_loss=5))


def test_lossless_filter_equals_max_loss_zero():
    g = make_ring(5)
    a = enumerate_translations(g, EnumerationFilter(lossless_only=True))
    b = enumerate_translations(g, EnumerationFilter(max_loss=0))
    assert a == b
    assert len(a) == 2  # the two rotations
    assert enumerate_translations(g, EnumerationFilter(lossless_only=True, max_loss=0)) == a


@pytest.mark.parametrize("max_loss", [1, 2, 5, -1])
def test_lossless_filter_rejects_a_conflicting_max_loss(max_loss):
    with pytest.raises(ValueError, match="lossless_only"):
        enumerate_translations(make_ring(5), EnumerationFilter(lossless_only=True, max_loss=max_loss))


def test_empty_graph_only_bottom():
    g = Graph(3, [])
    assert enumerate_translations(g) == [bottom_map(g)]


def test_order_zero_graph_has_only_the_empty_translation():
    g = Graph(0, [])
    assert enumerate_translations(g) == minimal_translations(g) == [Mapping([], [], {})]
    assert min_loss(g) == 0


def test_image_and_domain_filters():
    g = make_ring(4)
    f = EnumerationFilter(require_image_set=frozenset({2, 4}), restrict_domain=frozenset({1, 3}))
    ts = enumerate_translations(g, f)
    assert ts
    for m in ts:
        assert m.image_set == {2, 4}
        assert all(m(v) is BOTTOM for v in (2, 4))


def test_exists_translation_between_witness():
    g = make_ring(5)
    w = exists_translation_between(g, {1, 2}, {2, 3})
    assert w is not None
    assert w.image_set == {2, 3} and w.mapped <= {1, 2}


def test_exists_translation_between_star_negative():
    # star: center 1, leaves 2..4 — two leaves cannot land on center+leaf
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert exists_translation_between(g, {2, 3}, {1, 4}) is None


@pytest.mark.parametrize(
    "g, sizes",
    [
        (make_grid([3, 3]), (3, 2)),
        (make_random_geometric(7, 0.5, 1), (3, 2)),
        (make_random_geometric(7, 0.6, 4), (2, 2)),
        (Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5)]), (3, 3)),
    ],
    ids=["grid3x3", "geometric7-1", "geometric7-4", "triangle-and-edge"],
)
def test_exists_translation_between_is_first_enumerated(g, sizes):
    for v1 in itertools.combinations(g.vertices, sizes[0]):
        for v2 in itertools.combinations(g.vertices, sizes[1]):
            f = EnumerationFilter(require_image_set=frozenset(v2), restrict_domain=frozenset(v1))
            found = enumerate_translations(g, f)
            assert exists_translation_between(g, v1, v2) == (found[0] if found else None)


@pytest.mark.parametrize("v1_set, v2_set", [({1, 2}, {2, 99}), ({0, 1}, {2, 3})])
def test_exists_translation_between_rejects_out_of_range_vertex(v1_set, v2_set):
    with pytest.raises(ValueError, match="out of range"):
        exists_translation_between(make_ring(5), v1_set, v2_set)


@pytest.mark.parametrize("n", range(2, 8))
def test_minimal_on_complete_graph_is_derangement_set(n):
    # K7 (63,840 translations, 1,854 minimal) is the scale of the census.
    g = make_complete(n)
    ts = enumerate_translations(g)
    mins = minimal_translations(g, ts)
    assert len(mins) == formula_term(n, n)
    assert all(m.is_lossless() for m in mins)
    assert pseudo_minimal_translations(g, ts) == mins + [bottom_map(g)]


@pytest.mark.parametrize("dims, lossless", [([3, 3], 4), ([4, 3], 6)], ids=["3x3", "4x3"])
def test_torus_minimal_translations_are_its_lossless_ones(dims, lossless):
    # Never enumerate the 5x5 torus: its lossy translations exhaust memory.
    g = make_torus(dims)
    ts = enumerate_translations(g)
    mins = [m for m in ts if m.is_lossless()]
    assert len(mins) == lossless
    assert minimal_translations(g, ts) == mins
    assert pseudo_minimal_translations(g, ts) == mins + [bottom_map(g)]
    # Why: the lossless translations use every edge assignment (v, w), so
    # each lossy translation that maps a vertex shares an assignment with them
    # and is preceded. The all-bottom map is preceded only by lossy ones,
    # which the inductive closure does not keep.
    assert set().union(*(m.items() for m in mins)) == {(v, w) for v in g.vertices for w in g.neighbors(v)}


def test_minimal_on_edgeless_is_bottom():
    g = Graph(2, [])
    assert minimal_translations(g) == [bottom_map(g)]


def test_minimal_nonempty_and_inverse_closed_small():
    from graph_shift.mapping import inverse

    rng = random.Random(3)
    for _ in range(10):
        edges = [e for e in itertools.combinations(range(1, 5), 2) if rng.random() < 0.6]
        g = Graph(4, edges)
        mins = minimal_translations(g)
        assert mins
        images = {m.image_tuple() for m in mins}
        assert all(inverse(m).image_tuple() in images for m in mins)


def test_pseudo_minimal_contains_minimal():
    g = make_grid([2, 2])
    ts = enumerate_translations(g)
    mins = {m.image_tuple() for m in minimal_translations(g, ts)}
    pseudo = {m.image_tuple() for m in pseudo_minimal_translations(g, ts)}
    assert mins <= pseudo


def test_pseudo_minimal_enumerates_when_given_no_list():
    g = make_grid([3, 3])
    assert pseudo_minimal_translations(g) == pseudo_minimal_translations(g, enumerate_translations(g))


def test_pseudo_minimal_k3():
    # Lossless rotations are minimal. The bottom map only compares against
    # lossy translations (sharing a dropped vertex), all of which have a
    # lossless successor, so it is pseudo-minimal without being minimal.
    g = make_complete(3)
    ts = enumerate_translations(g)
    mins = minimal_translations(g, ts)
    pseudo = pseudo_minimal_translations(g, ts)
    assert sorted(m.loss() for m in mins) == [0, 0]
    assert sorted(m.loss() for m in pseudo) == [0, 0, 3]


def test_grid33_minimal_loss_one():
    g = make_grid([3, 3])
    mins = minimal_translations(g)
    assert sorted(m.loss() for m in mins) == [1, 1]
    center = 5  # only vertex of degree 4
    assert all(m(center) is BOTTOM for m in mins)


@pytest.mark.parametrize(
    "g,f,counts",
    [
        (make_grid([2, 4]), None, (1227, 1, 3)),
        (make_ring(8), None, (739, 2, 3)),
        (make_complete(8), EnumerationFilter(max_loss=1), (148329, 14833, 14833)),
    ],
    ids=["grid2x4", "ring8", "complete8-max-loss-1"],
)
def test_census_counts(g, f, counts):
    ts = enumerate_translations(g, f)
    got = (len(ts), len(minimal_translations(g, ts)), len(pseudo_minimal_translations(g, ts)))
    assert got == counts


def _reference_scan(ts, inductive):
    """Minimal (or pseudo-minimal) translations by pairwise scalar `precedes`."""
    keep = {}
    for i in sorted(range(len(ts)), key=lambda i: ts[i].loss()):
        keep[i] = not any(
            precedes(ts[i], o) and (not inductive or keep[j])
            for j, o in enumerate(ts)
            if o.loss() < ts[i].loss()
        )
    return [m for i, m in enumerate(ts) if keep[i]]


def _assert_scans_match_reference(g, ts):
    assert minimal_translations(g, ts) == _reference_scan(ts, inductive=False)
    assert pseudo_minimal_translations(g, ts) == _reference_scan(ts, inductive=True)


def test_minimality_scans_match_precedes_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.data())
    def check(data):
        g, f = draw_graph_and_filter(data, st)
        ts = enumerate_translations(g, f)
        hyp.assume(len(ts) <= 600)
        _assert_scans_match_reference(g, ts)

    check()


def test_minimality_scans_mixed_domains():
    # Hand-built list: precedence only compares assignments on the common
    # domain, where a shared bottom counts (c shares 2->⊥ with a, so c is not
    # minimal but is pseudo-minimal, because d precedes a). c and e have the
    # same image tuple on different domains and must be told apart.
    g = make_ring(4)
    a = Mapping({1, 2, 3}, g.vertices, {1: 2, 2: BOTTOM, 3: 4})
    b = Mapping({1, 2, 4}, g.vertices, {1: 4, 2: 3, 4: 1})
    c = Mapping({2, 3}, g.vertices, {2: BOTTOM, 3: BOTTOM})
    d = Mapping({3, 4}, g.vertices, {3: 4, 4: 1})
    e = Mapping({1, 4}, g.vertices, {1: BOTTOM, 4: BOTTOM})
    ts = [c, a, e, b, d]
    _assert_scans_match_reference(g, ts)
    assert minimal_translations(g, ts) == [e, b, d]
    assert pseudo_minimal_translations(g, ts) == [c, e, b, d]


def test_min_loss_iterative_deepening():
    assert min_loss(make_grid([3, 3])) == 1
    assert min_loss(make_complete(4)) == 0
    assert min_loss(Graph(2, [])) == 2


def test_min_loss_is_none_above_the_cap():
    g = make_grid([3, 3])  # every translation loses a vertex
    assert min_loss(g, upper=0) is None
    assert min_loss(g, upper=1) == 1
    assert min_loss(Graph(2, []), upper=1) is None


def _vf2_lossless_translations(g):
    """Image tuples of the automorphisms that move every vertex to a neighbour, sorted."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    autos = nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()
    vs = list(g.vertices)
    return sorted(tuple(a[v] for v in vs) for a in autos if all(g.has_edge(v, a[v]) for v in vs))


def _random_graphs(count, seed):
    """Graphs on 6-8 vertices: relabelled circulants, which have lossless
    translations, alternating with G(n, 1/2) graphs, which mostly have none."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(6, 8)
        if i % 2:
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        else:
            jumps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5] or [1]
            jumps = jumps[:-1] if len(jumps) == n // 2 else jumps  # not complete
            label = rng.sample(range(1, n + 1), n)
            edges = {(label[u], label[(u + s) % n]) for u in range(n) for s in jumps}
        yield Graph(n, edges)


@pytest.mark.parametrize(
    "graphs",
    [
        [make_torus([5, 5])],
        [make_torus([4, 4])],
        [make_ring(7)],
        [make_complete(6)],
        [make_grid([2, 4])],
        list(_random_graphs(30, 17)),
    ],
    ids=["torus5x5", "torus4x4", "ring7", "complete6", "grid2x4", "random30"],
)
def test_lossless_enumeration_matches_vf2_automorphisms(graphs):
    for g in graphs:
        found = enumerate_translations(g, EnumerationFilter(lossless_only=True))
        assert [m.image_tuple() for m in found] == _vf2_lossless_translations(g)


def _assert_same_as_validated(ts):
    """Each trusted-built translation equals, and hashes as, the validated build."""
    for m in ts:
        checked = Mapping(m.domain, m.codomain, dict(m.items()))
        assert m == checked and hash(m) == hash(checked)


def test_filtered_enumeration_matches_naive_oracle_in_order():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.data())
    def check(data):
        g, f = draw_graph_and_filter(data, st)
        ts = enumerate_translations(g, f)
        assert ts == naive_oracle(g, f)
        _assert_same_as_validated(ts)
        v1 = f.restrict_domain if f.restrict_domain is not None else g.vertex_set
        v2 = f.require_image_set if f.require_image_set is not None else frozenset()
        witness = naive_oracle(g, EnumerationFilter(require_image_set=v2, restrict_domain=v1))
        assert exists_translation_between(g, v1, v2) == (witness[0] if witness else None)

    check()


@pytest.mark.parametrize(
    "g, lossless",
    [
        (make_grid([3, 3]), False),
        (make_grid([2, 4]), False),
        (make_ring(8), False),
        (make_complete(7), False),
        (make_torus([5, 5]), True),
    ],
    ids=["grid3x3", "grid2x4", "ring8", "complete7", "torus5x5-lossless"],
)
def test_census_translations_equal_their_validated_builds(g, lossless):
    _assert_same_as_validated(enumerate_translations(g, EnumerationFilter(lossless_only=lossless)))


def _tuples(ms):
    return [m.image_tuple() for m in ms]


def _assert_leaf_level_matches_oracle(g, f):
    assert _tuples(enumerate_translations(g, f)) == _tuples(naive_oracle(g, f))


@pytest.mark.parametrize("n", [1, 2])
def test_leaf_level_on_one_and_two_vertices(n):
    for g in all_graphs(n):
        for f in (
            EnumerationFilter(),
            EnumerationFilter(lossless_only=True),
            EnumerationFilter(max_loss=1),
            EnumerationFilter(require_image_set=frozenset()),
            EnumerationFilter(require_image_set=frozenset({1})),
            EnumerationFilter(restrict_domain=frozenset({1})),
        ):
            _assert_leaf_level_matches_oracle(g, f)


def test_leaf_level_outside_the_domain_takes_only_bottom():
    for g in (make_complete(4), make_ring(5), make_grid([2, 3])):
        f = EnumerationFilter(restrict_domain=frozenset(range(1, g.n)))
        ts = enumerate_translations(g, f)
        assert ts and all(m(g.n) is BOTTOM for m in ts)
        _assert_leaf_level_matches_oracle(g, f)


def test_leaf_level_bottom_cap_refuses_bottom_at_the_last_vertex():
    # |image_set| = 2 of 3 allows one bottom; after one, vertex 3 must take an image.
    g = make_complete(3)
    f = EnumerationFilter(require_image_set=frozenset({1, 2}))
    assert _tuples(enumerate_translations(g, f)) == [(2, 1, BOTTOM), (2, BOTTOM, 1), (BOTTOM, 1, 2)]
    _assert_leaf_level_matches_oracle(g, f)
    for g in (make_complete(4), make_ring(4), make_grid([4])):
        for size in range(g.n):
            for image_set in itertools.combinations(g.vertices, size):
                _assert_leaf_level_matches_oracle(g, EnumerationFilter(require_image_set=frozenset(image_set)))


def test_leaf_level_max_loss_used_up_before_the_last_vertex():
    for g in (make_complete(4), make_ring(5), make_grid([4])):
        for max_loss in range(g.n):
            f = EnumerationFilter(max_loss=max_loss)
            ts = enumerate_translations(g, f)
            assert all(m.loss() <= max_loss for m in ts)
            _assert_leaf_level_matches_oracle(g, f)
    # One bottom at vertex 1 uses up max_loss 1, so vertex 4 takes an image.
    ts = enumerate_translations(make_complete(4), EnumerationFilter(max_loss=1))
    assert any(m(1) is BOTTOM for m in ts) and all(m(4) is not BOTTOM for m in ts if m(1) is BOTTOM)


def test_leaf_level_translations_do_not_share_an_image_dict():
    # Each leaf holds its images in an immutable tuple, so no two leaves share
    # mutable state; all leaves of one search share one frame, position index included.
    ts = enumerate_translations(make_complete(5))
    assert all(type(m._img) is tuple for m in ts)
    assert len({id(m._frame) for m in ts}) == 1
    assert ts[0].domain is ts[0].codomain and type(ts[0]._frame[2]) is dict


def test_search_is_lazy_on_the_5x5_torus():
    # Draining every lossy translation of this torus runs out of memory.
    g = make_torus([5, 5])
    m = next(_search(g, *EnumerationFilter()._options(g)))
    assert m.loss() == 13
    assert property_report(g, m).is_translation


def _assert_search_matches_reference(g, options, cap, limit=None):
    """`_search` yields the pair-scan reference's image tuples in its order,
    over the first `limit` of them (all if None)."""
    got = itertools.islice(_search(g, options, cap), limit)
    want = itertools.islice(search_reference(g, options, cap), limit)
    assert [m.image_tuple() for m in got] == list(want)


def test_search_matches_the_pair_scan_reference():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(st.data())
    def check(data):
        g, f = draw_graph_and_filter(data, st, max_n=9)
        if data.draw(st.booleans(), label="lossless_only"):
            f = dataclasses.replace(f, lossless_only=True, max_loss=None)
        # A dense graph on 9 vertices has millions of translations: compare a prefix.
        _assert_search_matches_reference(g, *f._options(g), limit=3000)

    check()


@pytest.mark.parametrize("dims", [[6, 6, 6], [20, 20]], ids=["torus6x6x6", "torus20x20"])
def test_search_matches_the_reference_past_one_word(dims):
    # 216 and 400 vertices: every mask spans several 64-bit words.
    g = make_torus(dims)
    _assert_search_matches_reference(g, *EnumerationFilter(lossless_only=True)._options(g))


def test_min_loss_on_grid_8x3_matches_the_reference_at_each_cap():
    g = make_grid([8, 3])
    assert min_loss(g, upper=3) == 3
    options, _ = EnumerationFilter()._options(g)
    for cap in range(4):
        _assert_search_matches_reference(g, options, cap, limit=200)
        assert (next(_search(g, options, cap), None) is None) == (cap < 3)


def test_enumeration_restores_the_gc_state():
    assert gc.isenabled()
    enumerate_translations(make_complete(4))
    assert gc.isenabled()
    gc.disable()
    try:
        enumerate_translations(make_complete(4))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_enumeration_reenables_gc_when_the_search_raises(monkeypatch):
    trusted = Mapping._trusted

    def failing(domain, codomain, at):
        build, built = trusted(domain, codomain, at), [0]

        def leaf(img):
            built[0] += 1
            if built[0] == 100:
                raise RuntimeError("leaf 100")
            return build(img)

        return leaf

    monkeypatch.setattr(Mapping, "_trusted", staticmethod(failing))
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="leaf 100"):
        enumerate_translations(make_complete(5))
    assert gc.isenabled()


def test_a_half_consumed_search_leaves_gc_on():
    g = make_complete(5)
    search = _search(g, *EnumerationFilter()._options(g))
    next(search)
    assert gc.isenabled()
    search.close()


def test_no_gc_collection_while_enumerating_k7():
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    g = make_complete(7)
    gc.callbacks.append(on_gc)
    try:
        assert len(enumerate_translations(g)) == 63840
    finally:
        gc.callbacks.remove(on_gc)
    assert collections == []
