import copy
import itertools
import math
import pickle

import pytest

from graph_shift.enumeration import EnumerationFilter, _search
from graph_shift.euclid import euclidean_on_grid, euclidean_on_torus
from graph_shift.graph import Graph, make_complete, make_random_geometric, make_ring
from graph_shift.mapping import (
    BOTTOM,
    Mapping,
    apply_to_signal,
    bottom_map,
    compose,
    decompose,
    full_mapping,
    identity_map,
    inverse,
    precedes,
    property_report,
)
from graph_shift.relax import ScoreParams
from graph_shift.search import best_composition, minimize_s
from oracles import MappingReference, draw_graph_and_filter


@pytest.fixture
def path4():
    return Graph(4, [(1, 2), (2, 3), (3, 4)])


def test_mappings_carry_no_instance_dict_and_compare_and_hash_equal():
    checked = Mapping({1, 2}, {2, 3}, {1: 2, 2: BOTTOM})
    build = Mapping._trusted(frozenset({1, 2}), frozenset({2, 3}), {1: 0, 2: 1})
    trusted = build((2, BOTTOM))
    for m in (checked, trusted):
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.extra = 1
    assert checked == trusted and hash(checked) == hash(trusted)
    assert len({checked, trusted}) == 1
    assert trusted != build((3, BOTTOM)) and build((3, BOTTOM))._frame is trusted._frame
    # Another type, even the image tuple itself, is not a mapping.
    assert checked.__eq__((2, BOTTOM)) is NotImplemented and checked != (2, BOTTOM)


def _one_of_each_producer():
    """A checked mapping, an enumeration leaf and a greedy step."""
    g = make_ring(6)
    leaf = list(_search(g, *EnumerationFilter()._options(g)))[7]
    step, _ = minimize_s(2, 3, g, {1, 2, 3}, {2, 3, 4}, ScoreParams())
    return [Mapping({1, 2}, {2, 3}, {1: 2, 2: BOTTOM}), leaf, step]


def test_mappings_keep_their_domain_and_codomain():
    # Assigning either would change the hash and leave the position index stale.
    for m in _one_of_each_producer():
        before = (m.domain, m.codomain, hash(m), m.to_json_dict())
        for name in ("domain", "codomain"):
            with pytest.raises(AttributeError):
                setattr(m, name, frozenset({5, 6}))
        assert (m.domain, m.codomain, hash(m), m.to_json_dict()) == before


def test_mappings_survive_pickle_and_copy():
    for m in _one_of_each_producer():
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(twin) is Mapping and twin == m and hash(twin) == hash(m)
            assert list(twin.items()) == list(m.items()) and twin.to_json_dict() == m.to_json_dict()
    # Leaves pickled together come back sharing one frame again.
    g = make_complete(4)
    leaves = pickle.loads(pickle.dumps(list(_search(g, *EnumerationFilter()._options(g)))))
    assert len({id(m._frame) for m in leaves}) == 1


def test_injectivity_rejected():
    with pytest.raises(ValueError):
        Mapping({1, 2}, {1, 2, 3}, {1: 3, 2: 3})


def test_image_outside_codomain_rejected():
    with pytest.raises(ValueError, match="^image 3 of 1 outside codomain$"):
        Mapping([1], [2], {1: 3})


def test_image_must_cover_domain():
    with pytest.raises(ValueError):
        Mapping({1, 2}, {1, 2}, {1: 2})


def test_bottom_is_not_counted_twice():
    m = Mapping({1, 2, 3}, {1, 2, 3}, {1: BOTTOM, 2: BOTTOM, 3: 1})
    assert m.loss() == 2
    assert m(1) is BOTTOM
    assert m(99) is BOTTOM  # out of domain → bottom


def test_ec_wnp_snp_on_path(path4):
    shift = property_report(path4, full_mapping(path4, {1: 2, 2: 3, 3: 4, 4: BOTTOM}))
    assert (shift.is_ec, shift.ec_violations) == (True, 0)
    assert shift.is_wnp
    assert shift.is_snp
    assert shift.is_translation

    hop = property_report(path4, full_mapping(path4, {1: 3, 2: 4, 3: BOTTOM, 4: BOTTOM}))
    assert not hop.is_ec and hop.ec_violations == 2
    assert hop.is_snp  # 1-2 edge maps to 3-4 edge


def test_translation_iff_ec_and_snp(path4):
    for m in [identity_map(path4), bottom_map(path4)]:
        rep = property_report(path4, m)
        assert rep.is_translation == (rep.is_ec and rep.is_snp)


def test_snp_violation_count():
    g = make_complete(3)
    # 1 and 2 are adjacent but images 1 and 3 remain adjacent on K3: no flip
    m = full_mapping(g, {1: 1, 2: 3, 3: BOTTOM})
    assert property_report(g, m).snp_violations == 0
    p = Graph(4, [(1, 2), (3, 4)])
    m2 = full_mapping(p, {1: 1, 2: 3, 3: BOTTOM, 4: BOTTOM})
    assert property_report(p, m2).snp_violations == 1


def test_deformation_infinite_conventions():
    g = Graph(4, [(1, 2), (3, 4)])
    # sources in one component, images split across components
    m = full_mapping(g, {1: 1, 2: 3, 3: BOTTOM, 4: BOTTOM})
    assert property_report(g, m).deformation == g.n  # |finite - inf| capped at n
    m2 = full_mapping(g, {1: 1, 2: BOTTOM, 3: 3, 4: BOTTOM})
    assert property_report(g, m2).deformation == 0  # inf vs inf


def test_snp_with_loss_need_not_be_isometry():
    # Two 4-cycles joined by a 2-edge bridge through a sacrificial vertex.
    # Rotating each cycle and dropping the middle is SNP but stretches the
    # distance between the cycles.
    edges = [(1, 2), (2, 4), (3, 4), (1, 3), (4, 5), (5, 6),
             (6, 7), (7, 9), (8, 9), (6, 8)]
    g = Graph(9, edges)
    m = full_mapping(
        g, {1: 2, 2: 4, 4: 3, 3: 1, 5: BOTTOM, 6: 8, 8: 9, 9: 7, 7: 6}
    )
    rep = property_report(g, m)
    assert rep.is_snp
    assert not rep.is_isometry
    assert g.geodesic(3, 8) == 4
    assert g.geodesic(m(3), m(8)) == 6
    assert g.geodesic(inverse(m)(3), inverse(m)(8)) == 2


def test_property_report_fields(path4):
    rep = property_report(path4, bottom_map(path4))
    assert rep.loss == 4
    assert rep.is_translation
    assert rep.ec_violations == 0 and rep.snp_violations == 0


def _reference_report(g, m):
    """Scalar oracle: every pair predicate from geodesic and has_edge."""
    mapped = sorted(m.mapped)
    pairs = list(itertools.combinations(mapped, 2))
    ec_bad = sum(1 for v in mapped if not g.has_edge(v, m(v)))
    flips = sum(1 for u, v in pairs if g.has_edge(u, v) != g.has_edge(m(u), m(v)))

    def gap(u, v):
        d1, d2 = g.geodesic(u, v), g.geodesic(m(u), m(v))
        if d1 == d2:
            return 0
        return g.n if math.inf in (d1, d2) else abs(d1 - d2)

    return {
        "loss": m.loss(),
        "is_ec": ec_bad == 0,
        "is_wnp": all(g.has_edge(m(u), m(v)) for u, v in pairs if g.has_edge(u, v)),
        "is_snp": flips == 0,
        "is_translation": ec_bad == 0 and flips == 0,
        "is_isometry": all(gap(u, v) == 0 for u, v in pairs),
        "ec_violations": ec_bad,
        "snp_violations": flips,
        "deformation": sum(gap(u, v) for u, v in pairs),
    }


def test_property_report_matches_scalar_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8), label="n")
        pairs = itertools.combinations(range(1, n + 1), 2)
        g = Graph(n, [e for e in pairs if data.draw(st.booleans(), label=f"edge {e}")])
        domain = data.draw(st.frozensets(st.sampled_from(list(g.vertices))), label="domain")
        targets = data.draw(st.permutations(list(g.vertices)), label="targets")
        image = {
            v: BOTTOM if data.draw(st.booleans(), label=f"lose {v}") else w
            for v, w in zip(sorted(domain), targets)
        }
        m = Mapping(domain, g.vertices, image)
        ref = _reference_report(g, m)
        report = property_report(g, m)
        rep = report.to_json_dict()
        assert rep == ref
        for name, value in rep.items():
            assert type(value) is (bool if name.startswith("is_") else int), name
            assert getattr(report, name) == ref[name], name

    check()


@pytest.mark.parametrize(
    "data",
    [
        {"domain": 5, "codomain": [1, 2], "image": []},
        {"domain": [1], "codomain": "12", "image": [[1, 2]]},
        {"domain": [1], "codomain": [1, 2], "image": {"1": 2}},
        {"domain": ["1"], "codomain": [1, 2], "image": [["1", 2]]},
        {"domain": [1], "codomain": [1, 2], "image": [[1, 2.0]]},
        {"domain": [1], "codomain": [1, 2], "image": [[1]]},
        {"domain": [1], "codomain": [1, 2], "image": [[[1], 2]]},
        {"domain": [[1]], "codomain": [1, 2], "image": [[1, 2]]},
        {"domain": [1], "codomain": [1, 2], "image": [[True, 2]]},
        [1, 2],
    ],
)
def test_mapping_json_rejects_wrong_types(data):
    with pytest.raises(ValueError):
        Mapping.from_json_dict(data)


def test_decompose_partitions_domain():
    g = make_ring(5)
    rot = full_mapping(g, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    cycles, paths = decompose(rot)
    assert cycles == [[1, 2, 3, 4, 5]] and paths == []

    m = full_mapping(g, {1: 2, 2: 3, 3: BOTTOM, 4: 5, 5: BOTTOM})
    cycles, paths = decompose(m)
    assert cycles == []
    covered = sorted(v for p in paths for v in p)
    assert covered == [1, 2, 3, 4, 5]


def test_decompose_bottom_map_is_all_singleton_paths():
    g = make_complete(3)
    cycles, paths = decompose(bottom_map(g))
    assert cycles == [] and sorted(paths) == [[1], [2], [3]]


def test_decompose_partition_invariants():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def partial_injections(draw):
        # Codomain vertices may lie outside the domain, and images may be bottom.
        n = draw(st.integers(0, 9))
        domain = draw(st.lists(st.integers(1, n), unique=True)) if n else []
        codomain = range(1, n + draw(st.integers(0, 3)) + 1)
        images = draw(st.permutations(codomain))
        lost = draw(st.lists(st.booleans(), min_size=len(domain), max_size=len(domain)))
        image = {v: BOTTOM if b else w for v, w, b in zip(domain, images, lost)}
        return Mapping(domain, codomain, image)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(partial_injections())
    def check(m):
        cycles, paths = decompose(m)
        walks = cycles + paths
        assert sorted(v for w in walks for v in w) == sorted(m.domain)
        assert all(m(a) == b for w in walks for a, b in zip(w, w[1:]))
        assert all(m(c[-1]) == c[0] and c[0] == min(c) for c in cycles)
        assert all(p[0] not in m.image_set and m(p[-1]) not in m.domain for p in paths)
        for starts in ([c[0] for c in cycles], [p[0] for p in paths]):
            assert starts == sorted(starts)

    check()


def test_inverse_roundtrip(path4):
    m = full_mapping(path4, {1: 2, 2: 3, 3: BOTTOM, 4: BOTTOM})
    inv = inverse(m)
    assert inv(2) == 1 and inv(3) == 2 and inv(1) is BOTTOM
    assert inverse(inv)(1) == 2


def test_compose_bottom_absorbs(path4):
    m1 = full_mapping(path4, {1: 2, 2: BOTTOM, 3: 4, 4: BOTTOM})
    m2 = full_mapping(path4, {1: BOTTOM, 2: 3, 3: 2, 4: BOTTOM})
    c = compose(m2, m1)
    assert c(1) == 3
    assert c(2) is BOTTOM  # bottom stays bottom
    assert c(3) is BOTTOM  # hand-off into m2's bottom


def test_apply_to_signal(path4):
    shift = full_mapping(path4, {1: 2, 2: 3, 3: 4, 4: BOTTOM})
    assert apply_to_signal(shift, [5.0, 0.0, 0.0, 7.0]) == [0.0, 5.0, 0.0, 0.0]
    n2 = sum(v * v for v in apply_to_signal(shift, [1.0, 2.0, 3.0, 0.0]))
    assert n2 == pytest.approx(14.0)
    # Vertex 0 would read and write x[-1], the last entry, through negative indexing.
    with pytest.raises(ValueError, match="^signal vertex 0 out of range 1..2$"):
        apply_to_signal(Mapping([1, 2], [0, 1], {1: 0, 2: 1}), [5.0, 7.0])
    with pytest.raises(ValueError, match="^signal vertex 4 out of range 1..3$"):
        apply_to_signal(shift, [1.0, 2.0, 3.0])


def test_mapping_json_roundtrip(tmp_path, path4):
    m = full_mapping(path4, {1: 2, 2: BOTTOM, 3: 4, 4: BOTTOM})
    path = tmp_path / "m.json"
    m.save(path)
    assert Mapping.load(path) == m
    d = m.to_json_dict()
    assert d["image"][1] == [2, None]


class TestPrecedes:
    def test_irreflexive(self, path4):
        m = full_mapping(path4, {1: 2, 2: 3, 3: 4, 4: BOTTOM})
        assert not precedes(m, m)

    def test_basic_direction(self, path4):
        worse = full_mapping(path4, {1: 2, 2: BOTTOM, 3: BOTTOM, 4: BOTTOM})
        better = full_mapping(path4, {1: 2, 2: 3, 3: 4, 4: BOTTOM})
        assert precedes(worse, better)
        assert not precedes(better, worse)

    def test_six_path_intransitivity_witness(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        b = BOTTOM
        psi1 = full_mapping(g, {1: 2, 2: b, 3: b, 4: b, 5: b, 6: b})
        psi2 = full_mapping(g, {1: 2, 2: 3, 3: b, 4: b, 5: b, 6: 5})
        psi3 = full_mapping(g, {1: b, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5})
        assert precedes(psi1, psi2)
        assert precedes(psi2, psi3)
        assert not precedes(psi1, psi3)
        # but the inverse of psi3 is comparable again
        assert precedes(psi1, inverse(psi3)) or precedes(psi2, inverse(psi3))


def _assert_matches_reference(m):
    """m passes every check of the constructor and reads as its dict-backed reference."""
    ref = MappingReference(m)
    checked = Mapping(m.domain, m.codomain, ref.image)
    assert m == checked and hash(m) == hash(checked)
    top = max(m.domain | m.codomain, default=0)
    probes = [*sorted(m.domain), *sorted(m.codomain - m.domain), BOTTOM, 0, -1, top + 1, 10**30]
    assert [m(v) for v in probes] == [ref(v) for v in probes]
    assert m.mapped == ref.mapped and m.image_set == ref.image_set and m.loss() == ref.loss()
    assert m.image_tuple() == ref.image_tuple()
    assert m.to_json_dict() == ref.to_json_dict() and repr(m) == repr(ref)


def test_trusted_builders_match_the_dict_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def leaves(data):
        g, f = draw_graph_and_filter(data, st)
        ts = list(_search(g, *f._options(g)))
        assert len({id(m._frame) for m in ts}) <= 1  # one frame per search
        return ts[:: max(1, len(ts) // 40)]

    def greedy_steps(data):
        n = data.draw(st.integers(2, 10), label="n")
        r = data.draw(st.sampled_from([0.3, 0.5, 0.8]), label="r")
        g = make_random_geometric(n, r, data.draw(st.integers(0, 10**6), label="seed"))
        vertices = list(g.vertices)
        V1 = data.draw(st.sets(st.sampled_from(vertices), min_size=1, max_size=5), label="V1")
        V2 = data.draw(st.sets(st.sampled_from(vertices), max_size=6), label="V2")
        v1 = data.draw(st.sampled_from(sorted(V1)), label="v1")
        v2, v_tgt = (data.draw(st.sampled_from(vertices), label=x) for x in ("v2", "v_tgt"))
        p = ScoreParams(k_block=data.draw(st.integers(1, 3), label="k_block"))
        trace = best_composition(g, V1, v1, v_tgt, p)
        return [minimize_s(v1, v2, g, V1, V2, p)[0]] + [m for m, _ in trace.steps]

    def shifts(data):
        wrap = data.draw(st.booleans(), label="wrap")
        dims = data.draw(st.lists(st.integers(3 if wrap else 1, 5), min_size=1, max_size=3), label="dims")
        delta = data.draw(st.lists(st.integers(-6, 6), min_size=len(dims), max_size=len(dims)), label="delta")
        return [(euclidean_on_torus if wrap else euclidean_on_grid)(dims, delta)]

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.data())
    def check(data):
        source = data.draw(st.sampled_from([leaves, greedy_steps, shifts]), label="source")
        for m in source(data):
            _assert_matches_reference(m)

    check()


def test_trusted_builders_match_the_dict_reference_on_a_scattered_domain():
    # A domain that is neither contiguous nor given in ascending order.
    _assert_matches_reference(Mapping([10, 3, 7], {2, 3, 7, 12}, {10: 3, 3: BOTTOM, 7: 12}))
    g = make_ring(12)
    m, _ = minimize_s(7, 8, g, {10, 3, 7}, {2, 9, 11}, ScoreParams())
    assert sorted(m.domain) == [3, 7, 10] and m(7) == 8
    _assert_matches_reference(m)
    for m, _ in best_composition(g, {10, 3, 7}, 3, 6, ScoreParams(k_block=2)).steps:
        _assert_matches_reference(m)
    _assert_matches_reference(next(_search(Graph(0, []), *EnumerationFilter()._options(Graph(0, [])))))
