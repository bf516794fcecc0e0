"""One integer rule for every vertex and count that enters the library.

Each entry below takes an integer: an order, a vertex, a hop radius, a loss
budget, a block size, a generator seed, or a grid axis, index, sign or shift.
All of them reject non-integers (floats, even 2.0, bools and strings) and
out-of-range integers with a ValueError that starts with the parameter's
name, and accept numpy integers as Python ints.
"""

import os

import numpy as np
import pytest

import graph_shift.graph as graph_module
from graph_shift.enumeration import EnumerationFilter, min_loss
from graph_shift.euclid import dirac, dirac_shift_loss, euclidean_on_grid, euclidean_on_torus, grid_slice
from graph_shift.graph import (
    Graph,
    _atomic_write,
    _dumps,
    coord_to_index,
    index_to_coord,
    make_complete,
    make_grid,
    make_random_geometric,
    make_ring,
    make_torus,
)
from graph_shift.mapping import Mapping, apply_to_signal
from graph_shift.relax import ScoreParams
from graph_shift.search import best_composition, expand_support, parameter_sweep

RING = make_ring(5)


def _pair(v, w):
    """The mapping v -> w without the constructor's integer check, so that
    `apply_to_signal` is the one to see a bad vertex."""
    return Mapping._trusted(frozenset({v}), frozenset({w}), {v: 0})((w,))

#: (test id, name in the message, call(x) returning the integer x became or one
#: derived from it, a valid x, an out-of-range x or None where no range applies).
#: Each id is written out, not taken from the row's position, so that removing a
#: row renames no other test.
ENTRIES = [
    ("0-n", "n", lambda x: Graph(x, []).n, 3, -1),
    ("1-edge vertex", "edge vertex", lambda x: max(next(iter(Graph(3, [(1, x)]).edges))), 3, 4),
    ("2-vertex", "vertex", lambda x: next(iter(RING.neighborhood(x, 0))), 2, 6),
    ("3-vertex", "vertex", lambda x: RING.geodesic(1, x), 3, 0),
    ("4-h", "h", lambda x: min(RING.neighborhood(1, x)), 2, -1),
    ("5-n", "n", lambda x: make_complete(x).n, 3, 0),
    ("6-n", "n", lambda x: make_ring(x).n, 4, 2),
    ("7-n", "n", lambda x: make_random_geometric(x, 0.5, 1).n, 3, 0),
    ("8-dimension", "dimension", lambda x: make_grid([x]).coords[-1][0], 3, 0),
    ("9-dimension", "dimension", lambda x: make_torus([x]).coords[-1][0], 3, 2),
    ("10-coordinate", "coordinate", lambda x: coord_to_index([x], [3]), 2, 4),
    ("11-domain vertex", "domain vertex", lambda x: next(iter(Mapping([x], [1], {x: 1}).domain)), 2, None),
    ("12-codomain vertex", "codomain vertex", lambda x: next(iter(Mapping([1], [x], {1: x}).codomain)), 2, None),
    ("13-image vertex", "image vertex", lambda x: Mapping([1], [3], {1: x})(1), 3, None),
    ("14-k_block", "k_block", lambda x: ScoreParams(k_block=x).k_block, 2, 0),
    ("15-max_loss", "max_loss", lambda x: EnumerationFilter(max_loss=x)._options(RING)[1], 1, 6),
    ("16-n", "n", lambda x: Graph.from_json_dict({"n": x, "edges": []}).n, 3, -1),
    ("17-n", "n", lambda x: Graph(x, []).n, 3, graph_module._MAX_ORDER + 1),
    ("18-upper", "upper", lambda x: min_loss(RING, x), 5, 6),
    ("19-hops", "hops", lambda x: len(expand_support(RING, {1}, x)), 1, -1),
    ("20-hops", "hops", lambda x: len(best_composition(RING, {1, 2}, 1, 3, ScoreParams(), hops=x).steps), 1, -1),
    ("21-vertex", "vertex", lambda x: best_composition(RING, {1, 2}, x, 3, ScoreParams()).v_src, 1, 6),
    ("22-d", "d", lambda x: len(dirac(x, 1)), 2, 0),
    ("23-axis", "axis", lambda x: dirac(3, x).index(1) + 1, 2, 4),
    ("24-axis", "axis", lambda x: len(grid_slice([3, 4], x, 1)), 2, 3),
    ("25-axis", "axis", lambda x: dirac_shift_loss([2, 3, 5], x), 2, 0),
    ("26-slice index", "slice index", lambda x: grid_slice([3, 4], 2, x)[0], 2, 5),
    ("27-sign", "sign", lambda x: sum(dirac(2, 1, x)), -1, 0),
    ("28-index", "index", lambda x: index_to_coord(x, [3, 3])[0], 4, 0),
    ("29-delta entry", "delta entry", lambda x: euclidean_on_grid([4], (x,))(1), 2, None),
    ("30-delta entry", "delta entry", lambda x: euclidean_on_torus([4], (x,))(1), 2, None),
    ("31-signal vertex", "signal vertex", lambda x: apply_to_signal(_pair(x, 1), [1, 2, 3])[0], 2, 0),
    ("32-signal vertex", "signal vertex", lambda x: apply_to_signal(_pair(1, x), [7, 0, 0]).index(7) + 1, 2, 4),
    ("33-dimension", "dimension", lambda x: index_to_coord(3, [3, x])[1], 2, 0),
    ("34-dimension", "dimension", lambda x: coord_to_index([2, 1], [3, x]), 2, 0),
    ("35-seed", "seed", lambda x: len(make_random_geometric(6, 0.5, x).edges), 3, -1),
    # Supports are lists: a set literal would fold True into 1.
    ("36-vertex", "vertex", lambda x: max(best_composition(RING, [1, x], 1, 3, ScoreParams()).steps[0][0].domain), 2, 6),
    ("37-vertex", "vertex",
     lambda x: max(parameter_sweep(RING, [1, x], 1, 3, grid=[(1.0, 0.1, 0.5, 1)])[0][0].steps[0][0].domain), 2, 6),
]


assert len({e[0] for e in ENTRIES}) == len(ENTRIES), "test ids must be unique"


@pytest.mark.parametrize("name, call, good, out_of_range", [e[1:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_every_integer_entry_applies_one_rule(name, call, good, out_of_range):
    for bad in (1.5, 2.0, True, "3", out_of_range):
        if bad is None:
            continue
        with pytest.raises(ValueError, match=f"^{name} "):
            call(bad)
    got = call(np.int64(good))
    assert got == call(good) and type(got) is int


def test_a_numpy_int_support_gives_traces_that_serialise():
    # Each step's mapping is keyed by support vertices; numpy ints there made json.dumps raise.
    support = [np.int64(1), np.int64(2)]
    traces = [best_composition(RING, support, 1, 3, ScoreParams())]
    cells = parameter_sweep(RING, support, 1, 3, grid=[(1.0, 0.1, 0.5, 1), (0.1, 0.5, 1.0, 1)])
    for trace in traces + [trace for trace, _ in cells]:
        assert trace.found and trace.steps
        assert all(type(v) is int for m, _ in trace.steps for v in m.domain | m.codomain | m.image_set)
        expected = best_composition(RING, [1, 2], 1, 3, trace.params)
        assert _dumps(trace.to_json_dict()) == _dumps(expected.to_json_dict())


def test_graph_order_is_capped_where_the_distance_table_stays_int16(monkeypatch):
    cap = graph_module._MAX_ORDER
    assert np.min_scalar_type(-2 * cap - 1) == np.int16
    assert np.min_scalar_type(-2 * (cap + 1) - 1) == np.int32
    # A small cap stands in for the real one, so no large graph is built.
    monkeypatch.setattr(graph_module, "_MAX_ORDER", 10)
    assert Graph(10, []).n == 10
    for build in (
        lambda: Graph(11, []),
        lambda: Graph.from_json_dict({"n": 11, "edges": []}),
        lambda: make_complete(11),
        lambda: make_ring(11),
        lambda: make_random_geometric(11, 0.5, 1),
        lambda: make_grid([4, 3]),
        lambda: euclidean_on_grid([4, 3], (1, 0)),
        lambda: euclidean_on_torus([4, 3], (1, 0)),
    ):
        with pytest.raises(ValueError, match=r" (11|12) out of range \d\.\.10$"):
            build()


def test_graph_file_endpoints_are_type_checked_before_the_range():
    # A string endpoint is a ValueError, not a TypeError from comparing it with an int.
    for edge in ([1, "a"], ["a", "a"], [[1], 2], [1, None]):
        with pytest.raises(ValueError, match="^edge vertex .* is not an integer"):
            Graph.from_json_dict({"n": 3, "edges": [edge]})


def test_graphs_and_mappings_of_python_and_numpy_ints_round_trip(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cast = st.sampled_from([int, np.int64, np.int32, np.uint16])

    @st.composite
    def graphs(draw):
        n = draw(st.integers(0, 10))
        pair = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=15)) if n >= 2 else []
        return Graph(draw(cast)(n), [(draw(cast)(u), draw(cast)(v)) for u, v in edges])

    @st.composite
    def mappings(draw):
        n = draw(st.integers(1, 8))
        domain = draw(st.lists(st.integers(1, n), unique=True))
        images = draw(st.permutations(range(1, n + 1)))
        lost = draw(st.lists(st.booleans(), min_size=len(domain), max_size=len(domain)))
        image = {draw(cast)(v): None if b else draw(cast)(w) for v, w, b in zip(domain, images, lost)}
        return Mapping(list(image), [draw(cast)(w) for w in range(1, n + 1)], image)

    path = tmp_path / "x.json"

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(graphs(), mappings())
    def check(g, m):
        assert type(g.n) is int and all(type(v) is int for e in g.edges for v in e)
        g.save(path)
        assert Graph.load(path) == g
        vertices = m.domain | m.codomain | m.image_set
        assert all(type(v) is int for v in vertices)
        m.save(path)
        assert Mapping.load(path) == m
        assert os.listdir(tmp_path) == ["x.json"]

    check()


def test_a_failed_save_leaves_the_previous_file(tmp_path):
    p = tmp_path / "g.json"
    make_ring(5).save(p)
    before = p.read_bytes()
    # JSON cannot encode an object as a coordinate.
    with pytest.raises(TypeError):
        Graph(3, [(1, 2)], coords=[(object(),)] * 3).save(p)
    # A write that fails once the temp file exists.
    with pytest.raises(TypeError):
        _atomic_write(p, b"bytes, not text")
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["g.json"]
