import math
import time

import pytest

from graph_shift import euclid, graph
from graph_shift.enumeration import EnumerationFilter, enumerate_translations
from graph_shift.euclid import (
    contaminate_torus,
    dirac,
    dirac_shift_loss,
    euclidean_on_grid,
    euclidean_on_torus,
    grid_slice,
    satisfies_large_grid_assumption,
)
from graph_shift.graph import Graph, coord_to_index, make_grid, make_torus
from graph_shift.mapping import BOTTOM, Mapping, compose, property_report
from oracles import lattice_reference


def dirac_shifts(dims):
    return {
        euclidean_on_torus(dims, dirac(len(dims), i, s))
        for i in range(1, len(dims) + 1)
        for s in (1, -1)
    }


def test_dirac_vectors():
    assert dirac(2, 1, 1) == (1, 0)
    assert dirac(2, 2, -1) == (0, -1)
    assert dirac(3, 3, 1) == (0, 0, 1)
    with pytest.raises(ValueError, match="^axis 3 out of range 1..2$"):
        dirac(2, 3, 1)


@pytest.mark.parametrize("flag", [True, False])
def test_grid_helpers_reject_bool_indices_and_signs(flag):
    with pytest.raises(ValueError, match="^axis "):
        dirac(2, flag)
    with pytest.raises(ValueError, match="^sign "):
        dirac(2, 1, flag)
    with pytest.raises(ValueError, match="^axis "):
        grid_slice([3, 3], flag, 1)
    with pytest.raises(ValueError, match="^slice index "):
        grid_slice([3, 3], 1, flag)
    with pytest.raises(ValueError, match="^axis "):
        dirac_shift_loss([3, 3], flag)
    with pytest.raises(ValueError, match="^delta entry "):
        euclidean_on_grid([3, 3], (flag, 0))
    with pytest.raises(ValueError, match="^delta entry "):
        euclidean_on_torus([3, 3], (0, flag))


@pytest.mark.parametrize(
    "helper",
    [satisfies_large_grid_assumption, lambda dims: dirac_shift_loss(dims, 1), lambda dims: grid_slice(dims, 1, 1)],
    ids=["large_grid", "shift_loss", "slice"],
)
def test_closed_form_helpers_check_dims_as_make_grid_does(helper):
    for dims in ([3, -2], [3, 0], [3, 1.5], [3, 2.0], [3, True], ["3"]):
        with pytest.raises(ValueError, match="^dimension "):
            helper(dims)
    with pytest.raises(ValueError, match="^dimensions vector must be non-empty$"):
        helper([])
    # No order cap: the closed forms never build the grid.
    assert dirac_shift_loss([200, 200], 1) == 200
    assert satisfies_large_grid_assumption([20_000, 3])


def test_torus_shift_is_translation():
    g = make_torus([5, 5])
    m = euclidean_on_torus([5, 5], (1, 0))
    assert m.is_lossless()
    assert property_report(g, m).is_translation


def test_torus_identity_and_diagonal_are_not_translations():
    g = make_torus([5, 5])
    ident = euclidean_on_torus([5, 5], (0, 0))
    assert ident.is_lossless() and not property_report(g, ident).is_translation
    diag = euclidean_on_torus([5, 5], (1, 1))
    rep = property_report(g, diag)
    assert diag.is_lossless() and not rep.is_ec and rep.is_snp


def test_grid_shift_losses():
    assert euclidean_on_grid([6, 5], dirac(2, 1)).loss() == 5
    assert euclidean_on_grid([6, 5], dirac(2, 2)).loss() == 6
    assert euclidean_on_grid([6, 5], (0, 0)).loss() == 0


@pytest.mark.parametrize("shift", [euclidean_on_grid, euclidean_on_torus])
def test_shift_rejects_a_delta_of_the_wrong_length(shift):
    with pytest.raises(ValueError, match="^delta length must match dims$"):
        shift([3, 3], (1,))


@pytest.mark.parametrize(
    "dims", [[4], [9], [2, 5], [3, 3], [4, 4, 4], [2, 3, 4], [10, 10]]
)
def test_grid_loss_formula_every_axis_and_sign(dims):
    for i in range(1, len(dims) + 1):
        for s in (1, -1):
            m = euclidean_on_grid(dims, dirac(len(dims), i, s))
            assert m.loss() == dirac_shift_loss(dims, i)
            assert property_report(make_grid(dims), m).is_translation


# The last dims have more axes than a numpy array may have.
@pytest.mark.parametrize("dims", [[4], [7], [2, 3], [3, 5], [4, 4], [3, 4, 5], [1] * 70 + [3]])
def test_shifts_equal_a_per_vertex_coord_to_index_oracle(dims):
    # The expected images index the oracle's own point list, so no layout code is shared.
    d = len(dims)
    deltas = [(0,) * d, tuple(x + 1 for x in dims), tuple(-2 * x - 1 for x in dims), (dims[0] + 2,) + (1,) * (d - 1)]
    deltas += [(10**30,) + (1,) * (d - 1), (-(10**30),) + (0,) * (d - 1)]
    deltas += [dirac(d, i, s) for i in range(1, d + 1) for s in (1, -1)]
    for wrap, shift in ((False, euclidean_on_grid), (True, euclidean_on_torus)):
        if wrap and min(dims) < 3:
            continue
        points = lattice_reference(dims, wrap)[0]
        index = {p: v for v, p in enumerate(points, start=1)}
        for delta in deltas:
            moved = [tuple(a + s for a, s in zip(p, delta)) for p in points]
            if wrap:
                moved = [tuple((a - 1) % x + 1 for a, x in zip(p, dims)) for p in moved]
            want = tuple(index.get(p, BOTTOM) for p in moved)
            m = shift(dims, delta)
            assert m.image_tuple() == want, (wrap, delta)
            assert m == Mapping(m.domain, m.codomain, dict(m.items()))  # passes every skipped check


def test_euclidean_shifts_build_no_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("a shift built a Graph")

    monkeypatch.setattr(Graph, "__init__", refuse)
    assert euclidean_on_grid([3, 3], (1, 0)).image_tuple() == (4, 5, 6, 7, 8, 9, None, None, None)
    assert euclidean_on_torus([3, 3], (1, 0)).image_tuple() == (4, 5, 6, 7, 8, 9, 1, 2, 3)
    assert euclidean_on_grid([100, 100], (1, 0)).loss() == 100


def test_contamination_seeds_give_the_four_shifts():
    dims = [5, 5]
    g = make_torus(dims)
    v1 = coord_to_index((2, 2), dims)
    results = set()
    for w in sorted(g.neighbors(v1)):
        m, unique = contaminate_torus(dims, v1, w)
        assert unique
        assert m(v1) == w
        results.add(m)
    assert results == dirac_shifts(dims)


def test_contamination_flags_small_dims():
    dims = [4, 4]
    g = make_torus(dims)
    v1 = 1
    w = sorted(g.neighbors(v1))[0]
    m, unique = contaminate_torus(dims, v1, w)
    assert not unique
    assert m.is_lossless()


def test_contamination_rejects_non_adjacent_seed():
    dims = [5, 5]
    with pytest.raises(ValueError):
        contaminate_torus(dims, 1, coord_to_index((3, 3), dims))


def test_contamination_checks_the_seed_on_the_torus_of_its_dims():
    # 1 -> 5 wraps around a row of five, but not around a row of six.
    assert make_torus([5, 5]).has_edge(1, 5)
    with pytest.raises(ValueError, match="^seed pair must be adjacent$"):
        contaminate_torus([5, 6], 1, 5)
    m, unique = contaminate_torus([5, 6], 1, 6)
    assert len(m.domain) == 30 and unique and m == euclidean_on_torus([5, 6], (0, -1))
    for dims in ([5, 2], [5.0, 5], [], [5, True]):
        with pytest.raises(ValueError, match="^dimension"):
            contaminate_torus(dims, 1, 2)
    with pytest.raises(ValueError, match="^vertex "):
        contaminate_torus([5, 5], 1, 26)


# The lossless translations that extend the seed 1 -> w, for each neighbour w
# of vertex 1 in ascending order, next to the flag `contaminate_torus` returns.
_SEED_EXTENSIONS = [
    ([3, 3], False, [1, 1, 1, 1]),
    ([3, 5], False, [1, 1, 1, 1]),
    ([3, 3, 3], False, [1] * 6),
    ([3, 5, 5], False, [1] * 6),
    ([3, 4], False, [2, 2, 1, 1]),
    ([4, 5], False, [1, 1, 2, 2]),
    ([4, 4], False, [4, 4, 4, 4]),
    ([5, 5], True, [1, 1, 1, 1]),
    ([5, 6], True, [1, 1, 1, 1]),
]


@pytest.mark.parametrize(
    "dims, unique, counts", _SEED_EXTENSIONS, ids=["x".join(map(str, dims)) for dims, *_ in _SEED_EXTENSIONS]
)
def test_contamination_flag_is_only_the_sufficient_condition(dims, unique, counts):
    g = make_torus(dims)
    lossless = enumerate_translations(g, EnumerationFilter(lossless_only=True))
    neighbours = sorted(g.neighbors(1))
    assert len(neighbours) == len(counts)
    for w, count in zip(neighbours, counts):
        m, flag = contaminate_torus(dims, 1, w)
        extensions = [t for t in lossless if t(1) == w]
        assert flag == unique and m in extensions and len(extensions) == count
        assert count == 1 or not flag


def _axis_shift_images(dims):
    """Image tuples of the torus shifts by ±e_i, read off the oracle's points."""
    points = lattice_reference(dims, True)[0]
    index = {p: v for v, p in enumerate(points, start=1)}
    return {
        tuple(index[p[:i] + ((p[i] + s - 1) % d + 1,) + p[i + 1 :]] for p in points)
        for i, d in enumerate(dims)
        for s in (1, -1)
    }


# A dimension of 4 admits lossless translations besides the axis shifts.
_LOSSLESS_WITH_A_4 = {(4, 4): 16, (4, 4, 4): 36, **{p: 6 for d in (3, 5, 6, 7, 8) for p in ((4, d), (d, 4))}}


@pytest.mark.parametrize(
    "dims",
    [[a, b] for a in range(3, 9) for b in range(3, 9)] + [[3, 3, 3], [3, 5, 5], [4, 4, 4], [5, 5, 5], [6, 6, 6]],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_torus_lossless_translations_are_the_axis_shifts_unless_a_dimension_is_4(dims):
    g = make_torus(dims)
    found = {m.image_tuple() for m in enumerate_translations(g, EnumerationFilter(lossless_only=True))}
    shifts = _axis_shift_images(dims)
    if 4 in dims:
        assert shifts < found and len(found) == _LOSSLESS_WITH_A_4[tuple(dims)]
    else:
        assert found == shifts


def test_torus44_has_non_dirac_lossless():
    g = make_torus([4, 4])
    found = set(enumerate_translations(g, EnumerationFilter(lossless_only=True)))
    extra = found - dirac_shifts([4, 4])
    assert extra
    w = next(iter(extra))
    assert w.is_lossless() and property_report(g, w).is_translation


def test_shift_composition_is_additive():
    dims = [5, 5]
    e1 = euclidean_on_torus(dims, dirac(2, 1))
    e2 = euclidean_on_torus(dims, dirac(2, 2))
    assert compose(e2, e1) == euclidean_on_torus(dims, (1, 1))
    back = euclidean_on_torus(dims, dirac(2, 1, -1))
    assert compose(back, e1) == euclidean_on_torus(dims, (0, 0))


def test_large_grid_assumption():
    assert satisfies_large_grid_assumption([8, 3])
    assert not satisfies_large_grid_assumption([6, 5])
    assert satisfies_large_grid_assumption([3])
    assert not satisfies_large_grid_assumption([8, 2])


def test_grid_slices_partition():
    dims = [6, 5]
    assert len(grid_slice(dims, 1, 2)) == 5
    assert len(grid_slice(dims, 2, 5)) == 6
    seen = sorted(v for j in range(1, 7) for v in grid_slice(dims, 1, j))
    assert seen == list(range(1, 31))
    with pytest.raises(ValueError, match="^slice index 7 out of range 1..6$"):
        grid_slice(dims, 1, 7)


def scanned_slice(dims, i, j):
    """Every vertex of the grid whose row-major coordinate on axis i is j, found
    by testing all prod(dims) vertices."""
    stride = math.prod(dims[i:])  # index step of axis i
    return [v for v in range(1, math.prod(dims) + 1) if (v - 1) // stride % dims[i - 1] == j - 1]


@pytest.mark.parametrize("dims", [[1], [3], [2, 3], [3, 1, 4], [2, 2, 2, 2], [5, 1, 1, 3], [4, 3, 2]])
def test_grid_slice_equals_a_whole_grid_scan(dims):
    for i, d in enumerate(dims, start=1):
        for j in range(1, d + 1):
            assert grid_slice(dims, i, j) == scanned_slice(dims, i, j)


def test_grid_slice_checks_its_dimensions_once(monkeypatch):
    calls = []
    for module in (euclid, graph):
        check = module._check_dims
        monkeypatch.setattr(module, "_check_dims", lambda *a, check=check: calls.append(a) or check(*a))
    assert grid_slice([4, 5, 3], 2, 3) == scanned_slice([4, 5, 3], 2, 3)
    assert len(calls) == 1


def test_grid_slice_costs_the_slice_not_the_grid():
    # A scan of the 10**10 vertices would take about 1,400 s; the slice has 10**5.
    t = time.perf_counter()
    got = grid_slice([10**5, 10**5], 2, 7)
    assert time.perf_counter() - t < 1.0
    assert got == list(range(7, 10**10, 10**5))
