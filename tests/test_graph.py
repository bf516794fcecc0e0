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
from oracles import geometric_edges_reference


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


@pytest.mark.parametrize("dims", [[3], [2, 4], [2, 3, 4]])
def test_coord_index_roundtrip(dims):
    n = 1
    for d in dims:
        n *= d
    for v in range(1, n + 1):
        assert coord_to_index(index_to_coord(v, dims), dims) == v


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


def test_json_roundtrip(tmp_path):
    g = make_grid([3, 3])
    p = tmp_path / "g.graph.json"
    g.save(p)
    data = json.loads(p.read_text())
    assert set(data) == {"n", "edges", "coords"}
    assert all(u < v for u, v in data["edges"])
    assert Graph.load(p) == g


def test_distance_matrix_symmetry():
    g = make_random_geometric(20, 0.4, seed=1)
    d = g.distance_matrix()
    assert (d[1:, 1:] == d[1:, 1:].T).all()


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
