import itertools
import random

import pytest

from graph_shift.enumeration import (
    EnumerationFilter,
    count_minimal_upper_bound,
    count_upper_bound,
    enumerate_translations,
    exists_translation_between,
    hamiltonian_cycle_translation,
    has_hamiltonian_cycle,
    has_perfect_matching,
    min_loss,
    minimal_translations,
    naive_oracle,
    perfect_matching_translation,
    pseudo_minimal_translations,
)
from graph_shift.graph import Graph, make_complete, make_grid, make_ring
from graph_shift.mapping import BOTTOM, Mapping, bottom_map, full_mapping, is_translation, precedes


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
    assert all(is_translation(g, m) for m in ts)
    keys = [tuple(g.n + 1 if w is BOTTOM else w for w in m.image_tuple()) for m in ts]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 9), (5, 44)])
def test_lossless_count_is_derangements(n, expected):
    ts = enumerate_translations(make_complete(n), EnumerationFilter(lossless_only=True))
    assert len(ts) == expected
    assert len(ts) == count_minimal_upper_bound(n)


def test_count_formula_values():
    assert [count_upper_bound(n) for n in range(1, 6)] == [1, 3, 8, 31, 147]


def test_count_formula_vs_brute_force_k3():
    # The closed-form sum undercounts lossy translations on complete graphs
    # (18 observed on K3 vs 8 from the formula); the lossless term agrees.
    assert count_upper_bound(3) == 8
    assert len(enumerate_translations(make_complete(3))) == 18


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


def test_empty_graph_only_bottom():
    g = Graph(3, [])
    assert enumerate_translations(g) == [bottom_map(g)]


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


@pytest.mark.parametrize("v1_set, v2_set", [({1, 2}, {2, 99}), ({0, 1}, {2, 3})])
def test_exists_translation_between_rejects_out_of_range_vertex(v1_set, v2_set):
    with pytest.raises(ValueError, match="out of range"):
        exists_translation_between(make_ring(5), v1_set, v2_set)


def test_minimal_on_k4_is_derangement_set():
    g = make_complete(4)
    mins = minimal_translations(g)
    assert len(mins) == 9
    assert all(m.is_lossless() for m in mins)


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
    "g,counts",
    [(make_grid([2, 4]), (1227, 1, 3)), (make_ring(8), (739, 2, 3))],
    ids=["grid2x4", "ring8"],
)
def test_census_counts(g, counts):
    ts = enumerate_translations(g)
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
        n = data.draw(st.integers(1, 6), label="n")
        pairs = itertools.combinations(range(1, n + 1), 2)
        g = Graph(n, [e for e in pairs if data.draw(st.booleans(), label=f"edge {e}")])
        subset = st.frozensets(st.sampled_from(list(g.vertices)))
        f = EnumerationFilter(
            max_loss=data.draw(st.none() | st.integers(0, n), label="max_loss"),
            restrict_domain=data.draw(st.none() | subset, label="domain"),
            require_image_set=data.draw(st.none() | subset, label="image set"),
        )
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


def test_perfect_matching():
    assert has_perfect_matching(make_complete(4))
    assert not has_perfect_matching(make_complete(3))
    assert not has_perfect_matching(Graph(4, [(1, 2), (1, 3), (1, 4)]))
    m = perfect_matching_translation(make_ring(6))
    assert m is not None and m.is_lossless()
    assert all(m(m(v)) == v for v in range(1, 7))


def test_hamiltonian_cycle():
    assert has_hamiltonian_cycle(make_ring(5))
    assert not has_hamiltonian_cycle(Graph(4, [(1, 2), (2, 3), (3, 4)]))
    t = hamiltonian_cycle_translation(make_complete(4))
    assert t is not None and t.is_lossless()
    g = make_ring(5)
    rot = hamiltonian_cycle_translation(g)
    assert is_translation(g, rot)
