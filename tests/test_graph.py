import json

import numpy as np
import pytest

import graph_shift.graph as graph_module
from graph_shift.graph import (
    Graph,
    INF,
    coord_to_index,
    index_to_coord,
    make_complete,
    make_grid,
    make_random_geometric,
    make_ring,
    make_torus,
)
from graph_shift.mapping import full_mapping, property_report
from oracles import distance_table_reference, geometric_edges_reference, lattice_reference


def test_complete_graph_basics():
    g = make_complete(4)
    assert g.n == 4
    assert len(g.edges) == 6
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_edges_are_canonical_and_simple():
    g = Graph(3, [(2, 1), (1, 2), (2, 3)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])


def test_geodesic_and_disconnection():
    g = Graph(4, [(1, 2), (3, 4)])
    assert g.geodesic(1, 2) == 1
    assert g.geodesic(1, 3) == INF
    assert g.geodesic(1, 1) == 0
    # Unreachable pairs hold the sentinel 2n, which no hop count reaches.
    d = g.distance_matrix()
    assert d[1, 3] == d[4, 2] == 8 and d[1, 2] == 1
    assert g.neighborhood(1, 8) == set()


def test_neighborhood_exact_hops():
    g = make_ring(6)
    assert g.neighborhood(1, 0) == {1}
    assert g.neighborhood(1, 1) == {2, 6}
    assert g.neighborhood(1, 3) == {4}


def test_neighborhood_walks_without_building_the_distance_table():
    # Reading a row of the all-pairs table first built all 3000 x 3000 of it.
    g = make_ring(3000)
    assert g.neighborhood(1, 2) == {3, 2999}
    assert g._dist is None


@pytest.mark.parametrize("dims", [[3], [2, 4], [2, 3, 4]])
def test_coord_index_roundtrip(dims):
    n = 1
    for d in dims:
        n *= d
    for v in range(1, n + 1):
        assert coord_to_index(index_to_coord(v, dims), dims) == v


def test_coord_index_reject_points_off_the_lattice():
    for index in (0, 10, -1):
        with pytest.raises(ValueError, match=f"^index {index} out of range 1..9$"):
            index_to_coord(index, [3, 3])
    for coord in ((1, 2, 3), (1,), ()):
        with pytest.raises(ValueError, match=f"^coord .* has {len(coord)} entries for 2 dimensions$"):
            coord_to_index(coord, [3, 3])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(3, [], coords=[(0,)] * 2), "coords length must equal vertex count"),
        (
            lambda: Graph.from_json_dict({"n": 2, "edges": [], "coords": [1, 2]}),
            "graph coords must be null or a list of coordinate lists",
        ),
    ],
    ids=["length", "json-not-lists"],
)
def test_graph_rejects_malformed_coords(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_coord_index_check_dims_as_make_grid_does():
    for call, message in (
        (lambda: index_to_coord(2, [3.0, 3]), "dimension 3.0 is not an integer"),
        (lambda: index_to_coord(2, [True, 3]), "dimension True is not an integer"),
        (lambda: coord_to_index((1, 2), [3, 2.5]), "dimension 2.5 is not an integer"),
        (lambda: index_to_coord(1, [3, 0]), "dimension 0 out of range 1.."),
        (lambda: index_to_coord(1, []), "dimensions vector must be non-empty"),
        (lambda: coord_to_index((), []), "dimensions vector must be non-empty"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert index_to_coord(np.int64(6), [np.int64(3), 3]) == (2, 3)
    assert coord_to_index((2, 3), [np.int64(3), 3]) == 6


# The last dims have more axes than a numpy array may have.
@pytest.mark.parametrize("dims", [[1], [5], [1, 4], [2, 3], [3, 3], [3, 5], [4, 3, 3], [2, 1, 3], [1] * 70 + [3]])
def test_grid_and_torus_match_a_pairwise_oracle(dims):
    for wrap, build in ((False, make_grid), (True, make_torus)):
        if wrap and min(dims) < 3:
            continue
        g = build(dims)
        points, edges = lattice_reference(dims, wrap)
        assert g.coords == points and g.edges == edges
        assert all(type(c) is int for point in g.coords for c in point)
        assert [index_to_coord(v, dims) for v in g.vertices] == points


def test_grid_structure():
    g = make_grid([2, 3])
    assert g.n == 6
    # corner vertex has 2 neighbors, the middle edge ones have 3
    degs = sorted(g.degree(v) for v in g.vertices)
    assert degs == [2, 2, 2, 2, 3, 3]
    assert g.coords is not None


def test_torus_is_regular_and_wraps():
    g = make_torus([3, 5])
    assert all(g.degree(v) == 4 for v in g.vertices)
    # wrap along dim 1: (1, 1) adjacent to (3, 1)
    assert g.has_edge(coord_to_index((1, 1), [3, 5]), coord_to_index((3, 1), [3, 5]))


def test_torus_rejects_short_dims():
    with pytest.raises(ValueError):
        make_torus([2, 5])


def test_geometric_graph_deterministic():
    a = make_random_geometric(30, 0.3, seed=5)
    b = make_random_geometric(30, 0.3, seed=5)
    assert a == b
    assert a.coords == b.coords
    c = make_random_geometric(30, 0.3, seed=6)
    assert a != c


@pytest.mark.parametrize("radius", [0.0, -0.5, float("nan")])
def test_geometric_graph_rejects_non_positive_radius(radius):
    # NaN compares False against 0, so `radius <= 0` let it through as an edgeless graph.
    with pytest.raises(ValueError, match="radius"):
        make_random_geometric(5, radius, seed=0)


@pytest.mark.parametrize(
    "n, radius, seeds, cells",
    [
        (24, 0.35, [11], None),  # the benchmark sweep's graph
        (100, 0.15, [3, *range(100, 116)], None),  # the benchmark compose pool
        (300, 0.1, [0, 1], None),
        (40, 0.25, range(5), 90),  # row blocks of two rows
        (1, 0.5, [0], None),
    ],
    ids=["bench-sweep", "bench-compose", "n300", "row-blocks", "n1"],
)
def test_geometric_graph_matches_pair_loop(monkeypatch, n, radius, seeds, cells):
    if cells is not None:
        monkeypatch.setattr(graph_module, "_GEOMETRIC_CELLS", cells)
    for seed in seeds:
        edges, coords = geometric_edges_reference(n, radius, seed)
        g = make_random_geometric(n, radius, seed)
        assert g.edges == frozenset(edges)
        assert g.coords == [tuple(c) for c in coords]
        assert all(type(u) is int and type(v) is int for u, v in g.edges)


@pytest.mark.parametrize("radius", [True, "0.5", None, 1j])
def test_geometric_graph_rejects_a_bool_or_non_real_radius(radius):
    # True built the radius-1.0 graph; a string, None or a complex raised TypeError.
    with pytest.raises(ValueError, match="^radius must be a positive real number"):
        make_random_geometric(5, radius, seed=0)


def test_geometric_graph_needs_a_seed():
    # None drew a different graph on every call.
    with pytest.raises(ValueError, match="^seed None is not an integer"):
        make_random_geometric(5, 0.5, seed=None)


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_a_failed_save_names_the_target_path(tmp_path, where):
    target = tmp_path / "missing" / "g.json"
    if where == "directory":
        target = tmp_path / "dir"
        target.mkdir()
    with pytest.raises(OSError) as info:
        make_ring(5).save(target)
    assert isinstance(info.value, FileNotFoundError if where == "missing directory" else IsADirectoryError)
    assert info.value.filename == str(target) and info.value.filename2 is None
    assert ".tmp-" not in str(info.value)
    assert not list(tmp_path.rglob(".tmp-*"))


def test_json_roundtrip(tmp_path):
    g = make_grid([3, 3])
    p = tmp_path / "g.graph.json"
    g.save(p)
    data = json.loads(p.read_text())
    assert set(data) == {"n", "edges", "coords"}
    assert all(u < v for u, v in data["edges"])
    loaded = Graph.load(p)
    assert loaded == g and loaded is not g and len({g, loaded}) == 1


def test_graph_repr_and_comparison_with_another_type():
    g = make_grid([3, 3])
    assert repr(g) == "Graph(n=9, m=12)"
    assert g.__eq__(g.to_json_dict()) is NotImplemented and g != g.to_json_dict()


def test_numpy_scalar_coords_save_and_load_back_equal(tmp_path):
    p = tmp_path / "g.graph.json"
    g = Graph(3, [(1, 2)], coords=[(np.float32(0.5), np.int64(v)) for v in range(3)])
    assert g.coords == [(0.5, 0), (0.5, 1), (0.5, 2)]
    assert all(type(x) in (float, int) for c in g.coords for x in c)
    g.save(p)
    loaded = Graph.load(p)
    assert loaded == g and loaded.coords == g.coords


def test_coords_become_tuples_of_python_numbers():
    # Lists, as JSON loads them, become tuples.
    g = Graph(2, [(1, 2)], coords=[[0, 1.5], [2, 3]])
    assert g.coords == [(0, 1.5), (2, 3)] and all(type(c) is tuple for c in g.coords)
    assert Graph.from_json_dict({"n": 2, "edges": [], "coords": [[1, 2], [3, 4]]}).coords == [(1, 2), (3, 4)]
    # One numpy scalar after plain tuples is still converted.
    g = Graph(3, [], coords=[(1, 2), (3, 4), (5, np.int64(6))])
    assert g.coords == [(1, 2), (3, 4), (5, 6)] and type(g.coords[2][1]) is int
    # Tuples of Python numbers, as the lattices build, go into a list of the graph's own.
    given = [(1, 2.5), (3, 4)]
    g = Graph(2, [], coords=given)
    assert g.coords == given and g.coords is not given
    # Other values stay as given.
    assert Graph(1, [], coords=[(True, "a")]).coords == [(True, "a")]


def test_distance_matrix_symmetry():
    g = make_random_geometric(20, 0.4, seed=1)
    d = g.distance_matrix()
    assert (d[1:, 1:] == d[1:, 1:].T).all()


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, []),
        Graph(1, []),
        Graph(6, []),
        Graph(5, [(1, 2), (4, 5)]),
        make_ring(9),
        make_grid([4, 5]),
        make_torus([3, 4, 5]),
        make_complete(7),
    ],
    ids=["n0", "n1", "edgeless", "two-edges", "ring", "grid", "torus", "complete"],
)
def test_distance_table_matches_deque_oracle(g):
    # Values and the 2n sentinel, row and column 0 included.
    assert np.array_equal(g.distance_matrix(), distance_table_reference(g))


def test_distance_table_matches_deque_oracle_on_geometric_graphs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.integers(1, 80), st.floats(0.02, 0.6), st.integers(0, 2**16))
    def check(n, radius, seed):
        g = make_random_geometric(n, radius, seed)
        assert np.array_equal(g.distance_matrix(), distance_table_reference(g))

    check()


def test_distance_table_matches_networkx():
    nx = pytest.importorskip("networkx")
    g = make_random_geometric(60, 0.15, seed=4)
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    d = g.distance_matrix()
    assert nx.number_connected_components(h) > 1  # the sentinel is exercised
    for u in g.vertices:
        assert [int(d[u, v]) for v in g.vertices] == [
            lengths[u].get(v, 2 * g.n) for v in g.vertices
        ]


def test_distance_table_blocks_of_sources(monkeypatch):
    # A block holds at least one 64-bit word of sources, so at 200 vertices
    # the smallest constant gives four blocks, the last one 8 sources wide.
    g, again = (make_random_geometric(200, 0.12, seed=2) for _ in range(2))
    whole = g.distance_matrix()
    monkeypatch.setattr(graph_module, "_BFS_CELLS", 1)
    assert np.array_equal(again.distance_matrix(), whole)
    assert np.array_equal(whole, distance_table_reference(g))


@pytest.mark.parametrize("n, dtype", [(63, np.int8), (64, np.int16)])
def test_distance_table_is_read_only_in_the_smallest_signed_dtype(n, dtype):
    g = make_ring(n)
    d = g.distance_matrix()
    assert d.dtype == dtype and np.issubdtype(d.dtype, np.signedinteger)
    # The table is shared by every later score, so a caller cannot write it.
    with pytest.raises(ValueError):
        d[1, 2] = 5
    assert g.geodesic(1, 2) == 1


@pytest.mark.parametrize("n", [63, 64])
def test_deformation_across_components_does_not_wrap(n):
    # A path on 1..n-1 and the isolated vertex n. Swapping 1 and n makes
    # every pair with 1 or n finite on one side and infinite on the other,
    # and the finite side reaches n - 2: differences up to 2n in the table's dtype.
    g = Graph(n, [(v, v + 1) for v in range(1, n - 1)])
    m = full_mapping(g, {v: {1: n, n: 1}.get(v, v) for v in g.vertices})
    d = g.distance_matrix().astype(np.int64)
    want = sum(
        min(abs(d[u, v] - d[m(u), m(v)]), n) for u in g.vertices for v in g.vertices if u < v
    )
    assert property_report(g, m).deformation == want == 2 * (n - 2) * n


@pytest.mark.parametrize("v", [-1, 0, 6, True, 2.0])
def test_accessors_reject_out_of_range_vertices(v):
    g = make_ring(5)
    # True and 2.0 hash like the vertices 1 and 2, so a bare dict lookup
    # would accept them
    message = "out of range" if type(v) is int else "not an integer"
    for access in (g.neighbors, g.degree, lambda u: g.has_edge(u, 4), lambda u: g.has_edge(1, u)):
        with pytest.raises(ValueError, match=message):
            access(v)


@pytest.mark.parametrize("v", [2.5, 2.0, True, "3"])
def test_geodesic_rejects_non_integer_vertices(v):
    g = make_ring(5)
    for access in (
        lambda u: g.geodesic(1, u),
        lambda u: g.geodesic(u, 1),
        g.neighbors,
        g.degree,
        lambda u: g.has_edge(u, 2),
        lambda u: g.has_edge(2, u),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            access(v)
    assert g.geodesic(np.int64(1), np.int64(3)) == 2
    assert g.neighbors(np.int64(1)) == {2, 5} and g.degree(np.int64(2)) == 2
