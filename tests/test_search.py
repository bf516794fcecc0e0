import dataclasses
import itertools
import json
import math
import types
import warnings
import weakref

import numpy as np
import pytest

import graph_shift.search as search_module
from graph_shift.euclid import dirac, euclidean_on_grid, euclidean_on_torus
from graph_shift.graph import Graph, make_grid, make_random_geometric, make_ring, make_torus
from graph_shift.mapping import BOTTOM, Mapping
from graph_shift.relax import ScoreParams, _weigh, score
from graph_shift.search import (
    DEFAULT_BLOCKS,
    DEFAULT_WEIGHTS,
    SearchStats,
    _distinct_rows,
    _minimize_batch,
    _round_key,
    _step,
    best_composition,
    expand_support,
    localized_sets,
    minimize_s,
    parameter_sweep,
)
from oracles import distinct_rows_reference, greedy_reference

P = ScoreParams(1.0, 0.1, 0.5, 1)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def test_single_vertex_support_is_pinned():
    g = path(3)
    m, b = minimize_s(1, 2, g, [1], {1, 2}, P)
    assert m(1) == 2
    assert b.total == score(g, m, P).total == 0


def test_anchor_must_be_in_support():
    with pytest.raises(ValueError):
        minimize_s(4, 1, path(4), [1, 2], {1, 2}, P)


def test_target_added_when_missing():
    g = path(3)
    m, _ = minimize_s(1, 3, g, [1], {1, 2}, P)
    assert m(1) == 3


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "V1, V2, v2",
    [([1, -2], [2, 3], 2), ([1, 6], [2, 3], 2), ([1, 3], [2, -1], 2), ([1, 3], [2, 0], 2),
     ([1, 3], [2, 3], -1), ([1, 3], [2, 3], 6), ([1, 3], [2, 3], 2.0), ([1, 3], [2, 2.5], 2)],
)
def test_minimize_s_rejects_out_of_range_vertices(V1, V2, v2, k):
    # Negative vertices used to be wrapped by numpy indexing: on the 5-ring
    # V1 = [1, -2] gave Mapping(-2->3, 1->2).
    with pytest.raises(ValueError):
        minimize_s(1, v2, make_ring(5), V1, V2, ScoreParams(k_block=k))


def test_minimize_batch_matches_scalar_greedy_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weight = st.sampled_from((0.0,) + DEFAULT_WEIGHTS)
    weights = st.tuples(weight, weight, weight).filter(any)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.data())
    def check(data):
        # k = 4 adds a round of four sources (six pair tables, a four-axis
        # decode); its support of five or more vertices makes that round run.
        k = data.draw(st.sampled_from(DEFAULT_BLOCKS + (4,)), label="k_block")
        # A scalar round of k sources scores up to (targets + 1)^k rows, so
        # larger blocks draw smaller instances.
        n = data.draw(st.integers(6, 12 if k == 1 else 9 if k < 4 else 8), label="n")
        r = data.draw(st.sampled_from([0.2, 0.35, 0.5]), label="r")  # 0.2: mostly disconnected
        g = make_random_geometric(n, r, data.draw(st.integers(0, 10**6), label="seed"))
        vertices = list(g.vertices)
        V1 = data.draw(st.sets(st.sampled_from(vertices), min_size=5 if k == 4 else 1, max_size=7), label="V1")
        v1 = data.draw(st.sampled_from(sorted(V1)), label="v1")
        V2 = data.draw(
            st.sampled_from([expand_support(g, V1, 1), expand_support(g, V1, 2), set(vertices)])
            | st.sets(st.sampled_from(vertices)),
            label="V2",
        )
        v2s = data.draw(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=n if k == 1 else 3 if k < 4 else 2, unique=True),
            label="v2s",
        )
        p = ScoreParams(*data.draw(weights, label="weights"), k)
        support = sorted(V1)
        # Every pin of a batch is a target; a v2 outside V2 goes through minimize_s.
        targets = frozenset(V2).union(v2s)

        stats = SearchStats()
        batch = _minimize_batch(v1, v2s, g, support, targets, [p] * len(v2s), stats)
        rows = 0
        for v2, (total, row, raw) in zip(v2s, batch, strict=True):
            m, b = _step(v1, v2, support, targets, row, raw, p)
            ref_m, ref_b, ref_rows = greedy_reference(g, v1, v2, V1, targets, p)
            assert (m, b) == (ref_m, ref_b)
            assert total.hex() == b.total.hex()  # the queue key adds the kernel's total
            rows += ref_rows
            if v2 not in V2:  # minimize_s adds it to the targets
                m, b = minimize_s(v1, v2, g, V1, V2, p)
                assert (m, b) == greedy_reference(g, v1, v2, V1, V2, p)[:2]
                assert m(v1) == v2 and v2 in m.codomain
        assert (stats.calls, stats.evaluations, stats.rows_computed) == (len(v2s), rows, rows)
        assert (stats.round_hits, stats.kernel_calls) == (0, 0)
        # Chains do not see each other's used targets.
        assert [_minimize_batch(v1, [v2], g, support, targets, [p])[0] for v2 in v2s] == batch

        # A sweep's round cache, filled under p (every round misses), read
        # again under p (every round of two or more sources hits)
        # and under other weights (the first such round hits; later ones
        # hit where the picks before them agree). Each equals the kernel
        # without a cache.
        sources = len(V1) - 1
        cached = len(v2s) * sum(min(k, sources - s) >= 2 for s in range(0, sources, k))
        first = len(v2s) if min(k, sources) >= 2 else 0
        reweighed = ScoreParams(*data.draw(weights, label="reweigh"), k)
        rounds = {}
        for q, hits in ((p, {0}), (p, {cached}), (reweighed, range(first, cached + 1))):
            plain, reused = SearchStats(), SearchStats()
            expected = _minimize_batch(v1, v2s, g, support, targets, [q] * len(v2s), plain)
            assert _minimize_batch(v1, v2s, g, support, targets, [q] * len(v2s), reused, rounds) == expected
            assert (reused.calls, reused.evaluations) == (plain.calls, plain.evaluations)
            assert reused.round_hits in hits
            assert (reused.rows_computed < plain.rows_computed) == bool(reused.round_hits)

    check()


def test_minimize_batch_with_mixed_weights_equals_one_call_per_weight_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weight = st.sampled_from((0.0,) + DEFAULT_WEIGHTS)
    weights = st.tuples(weight, weight, weight).filter(any)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.data())
    def check(data):
        k = data.draw(st.sampled_from(DEFAULT_BLOCKS), label="k_block")
        n = data.draw(st.integers(6, 11 if k == 1 else 9), label="n")
        g = make_random_geometric(n, data.draw(st.sampled_from([0.35, 0.5])), data.draw(st.integers(0, 10**6)))
        V1 = data.draw(st.sets(st.sampled_from(list(g.vertices)), min_size=1, max_size=6), label="V1")
        v1 = data.draw(st.sampled_from(sorted(V1)), label="v1")
        V2, support = frozenset(expand_support(g, V1, 1)), sorted(V1)
        # Cells may repeat weights; a chain may repeat another's v2 under other weights.
        cells = [ScoreParams(*w, k) for w in data.draw(st.lists(weights, min_size=2, max_size=4), label="cells")]
        chains = data.draw(
            st.lists(st.tuples(st.sampled_from(sorted(V2)), st.integers(0, len(cells) - 1)), min_size=1, max_size=8),
            label="chains",
        )
        cache = data.draw(st.booleans(), label="cache")
        v2s, ps = [v2 for v2, _ in chains], [cells[c] for _, c in chains]

        mixed = SearchStats()
        out = _minimize_batch(v1, v2s, g, support, V2, ps, mixed, {} if cache else None)
        apart, rounds, expected = SearchStats(), {} if cache else None, [None] * len(chains)
        for c, p in enumerate(cells):
            at = [i for i, (_, cell) in enumerate(chains) if cell == c]
            alone = _minimize_batch(v1, [v2s[i] for i in at], g, support, V2, [p] * len(at), apart, rounds)
            for i, chain in zip(at, alone):
                expected[i] = chain
        for (total, row, raw), (ref_total, ref_row, ref_raw), v2, p in zip(out, expected, v2s, ps):
            assert (total.hex(), row, raw) == (ref_total.hex(), ref_row, ref_raw)
            assert _step(v1, v2, support, V2, row, raw, p) == _step(v1, v2, support, V2, ref_row, ref_raw, p)
        assert mixed == apart

    check()


def test_chains_that_share_a_round_cache_key_build_its_rows_once():
    g = make_random_geometric(16, 0.35, 2)
    V1 = sorted(expand_support(g, {5}, 1))
    V2 = expand_support(g, V1, 1)
    v2 = min(V2 - {5})
    p, q = ScoreParams(1.0, 0.1, 0.5, 2), ScoreParams(0.1, 0.5, 1.0, 2)
    once, alone = SearchStats(), {}
    chain = _minimize_batch(5, [v2], g, V1, V2, [p], once, alone)
    assert len(alone) == (len(V1) - 1) // 2 >= 2
    # Run again on its filled cache, the chain builds only its uncached rounds' rows.
    again = SearchStats()
    assert _minimize_batch(5, [v2], g, V1, V2, [p], again, alone) == chain
    assert again.round_hits == len(alone)
    # The same chain twice in one call: the second reads every entry the first filled.
    twice, shared = SearchStats(), {}
    assert _minimize_batch(5, [v2, v2], g, V1, V2, [p, p], twice, shared) == chain * 2
    assert shared.keys() == alone.keys()
    assert (twice.rows_computed, twice.round_hits) == (once.rows_computed + again.rows_computed, len(alone))
    # Under other weights the chains' first cached rounds still share a key.
    mixed, rounds = SearchStats(), {}
    _minimize_batch(5, [v2, v2], g, V1, V2, [p, q], mixed, rounds)
    assert mixed.round_hits >= 1 and len(rounds) == 2 * len(alone) - mixed.round_hits


def test_minimize_batch_splits_only_the_deformation_table(monkeypatch):
    g = make_random_geometric(12, 0.4, 2)
    V1 = sorted(expand_support(g, {1}, 1))
    V2 = expand_support(g, V1, 1)
    v2s = sorted(V2 - {1})
    nc, nt, nrest = len(v2s), len(V2), len(V1) - 1
    assert nrest >= 2 * max(DEFAULT_BLOCKS)  # two cached rounds at every cached k
    kernel = search_module._minimize_batch
    reentered = set()
    for k, cache in itertools.product(DEFAULT_BLOCKS, (False, True)):
        p = dataclasses.replace(P, k_block=k)
        # Half the chains' rounds are cached beforehand, so a cached round
        # mixes hits with misses, in one call or across its chunks.
        filled = {}
        if cache:
            kernel(1, v2s[::2], g, V1, V2, [p] * len(v2s[::2]), None, filled)
        whole_rounds, whole = dict(filled), SearchStats()
        expected = kernel(1, v2s, g, V1, V2, [p] * nc, whole, whole_rounds if cache else None)
        dense = (nt + 1) ** min(k, nrest)  # one chain's rows in its widest round
        table = nrest * (nt + 1)  # one chain's deformation table
        for chains in (1, 2):
            budget = chains * dense
            calls = []
            monkeypatch.setattr(search_module, "_BATCH_CELLS", budget)
            monkeypatch.setattr(search_module, "_minimize_batch", lambda *a: calls.append(a) or kernel(*a))
            split_rounds, split = dict(filled), SearchStats()
            assert kernel(1, v2s, g, V1, V2, [p] * nc, split, split_rounds if cache else None) == expected
            # Every counter the kernel keeps matches the unsplit call's; kernel_calls
            # is 0 in both, because only the anchor search counts kernel calls.
            assert split == whole
            if cache and k >= 2:
                cached = sum(min(k, nrest - s) >= 2 for s in range(0, nrest, k))
                assert 0 < split.round_hits < split.calls * cached
            assert split_rounds.keys() == whole_rounds.keys()
            assert all(np.array_equal(split_rounds[key], entry) for key, entry in whole_rounds.items())
            # Re-entered, one call per chunk of chains, only when the chains'
            # deformation tables exceed the budget.
            if nc * table <= budget:
                assert calls == []
            else:
                assert len(calls) == -(-nc // max(1, budget // table))
            reentered.add(bool(calls))
            monkeypatch.undo()
    assert reentered == {False, True}


def _repeat_term(shape, top):
    """`top` once for each pair of positions on one target, over a round's option product with ⊥ last."""
    cols = np.indices(shape)
    pairs = itertools.combinations(range(len(shape)), 2)
    return top * sum((cols[i] == cols[j]) & (cols[i] < shape[0] - 1) for i, j in pairs)


def test_candidate_rows_shape_and_order():
    # Options [4, 7, ⊥] for two sources with edge-constraint flags and no deformation.
    ec = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    shared, S = _round_key(ec, _repeat_term((3, 3), 1), 1)
    rows = list(itertools.product(range(3), repeat=2))
    # Candidates, the keys below S, in product order with ⊥ (2) last; a
    # concrete target may not repeat within a row, ⊥ may.
    assert [row for row, key in zip(rows, shared) if key < S] == [
        row for row in rows if row[0] != row[1] or row[0] == 2
    ]
    # Base-3 digits: the ⊥ count last, the edge-constraint sum before it.
    assert (shared % 3).tolist() == [row.count(2) for row in rows]
    assert (shared // 3 % 3).tolist() == [int(ec[0, a] + ec[1, b]) for a, b in rows]
    assert tuple(int(i) for i in np.unravel_index(5, (3, 3))) == rows[5]
    # Three sources over three targets: 1 + 3·3 + 3·6 + 6 rows keep their targets distinct.
    shared, S = _round_key(np.zeros((3, 4), dtype=np.int64), _repeat_term((4, 4, 4), 1), 1)
    assert np.count_nonzero(shared < S) == 34


def test_minimize_s_score_equals_scalar_score_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 9), label="n")
        r = data.draw(st.sampled_from([0.3, 0.45, 0.7]), label="r")
        g = make_random_geometric(n, r, data.draw(st.integers(0, 10**6), label="seed"))
        vertices = list(g.vertices)
        V1 = data.draw(st.sets(st.sampled_from(vertices), min_size=1, max_size=5), label="V1")
        v1 = data.draw(st.sampled_from(sorted(V1)), label="v1")
        V2 = data.draw(
            st.sampled_from([expand_support(g, V1, 1), set(vertices), set()]), label="V2"
        )
        v2 = data.draw(st.sampled_from(vertices), label="v2")
        k = data.draw(st.integers(1, 3), label="k_block")
        p = ScoreParams(*[data.draw(st.sampled_from(DEFAULT_WEIGHTS)) for _ in range(3)], k)
        m, b = minimize_s(v1, v2, g, V1, V2, p)
        assert type(b.total) is float
        assert all(type(r) is int for r in (b.raw_loss, b.raw_ec, b.raw_def))
        assert b == score(g, m, p)

    check()


# Anchors whose step total is above 0 at k = 1, 2, 3, 4, for +e1, -e1 and
# +e2; -e2 gives the +e2 counts on every torus here.
TORUS_POSITIVE_STEPS = {
    (3, 3): ((6, 0, 3, 0), (6, 3, 3, 0), (3, 1, 1, 0)),
    (4, 4): ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    (4, 6): ((0, 0, 0, 0), (0, 0, 0, 0), (4, 2, 1, 0)),
    (5, 5): ((10, 10, 10, 0), (10, 10, 5, 0), (5, 3, 1, 0)),
    (5, 7): ((14, 14, 14, 0), (14, 14, 7, 0), (5, 3, 1, 0)),
    (6, 6): ((12, 12, 12, 0), (12, 12, 6, 0), (6, 4, 1, 0)),
}


def lattice_steps(dims, delta, k, wrap):
    """(anchor, mapping, breakdown) of `minimize_s` at every anchor v of the
    torus (wrap) or grid with v + delta on it: pin v ↦ v + delta, support
    N[v], targets the 1-hop ball of the shifted support, default weights."""
    g = (make_torus if wrap else make_grid)(dims)
    shift = (euclidean_on_torus if wrap else euclidean_on_grid)(dims, delta)
    for v in g.vertices:
        if shift(v) is not BOTTOM:
            V1 = expand_support(g, {v}, 1)
            V2 = expand_support(g, {shift(u) for u in V1} - {BOTTOM}, 1)
            yield (v, *minimize_s(v, shift(v), g, V1, V2, ScoreParams(k_block=k)))


@pytest.mark.parametrize("dims", list(TORUS_POSITIVE_STEPS), ids=lambda d: f"{d[0]}x{d[1]}")
def test_relaxed_step_on_2d_tori_against_the_axis_shifts(dims):
    # The paper: on a torus the translations are the axis shifts, each
    # lossless and scoring 0. The run: one greedy step per anchor, counted
    # where its total is above 0. Below the exhaustive round some tori have
    # such anchors; at k = 4 = |N[v]| - 1, one exhaustive round, none does.
    plus_e1, minus_e1, e2 = TORUS_POSITIVE_STEPS[dims]
    for delta, expected in [((1, 0), plus_e1), ((-1, 0), minus_e1), ((0, 1), e2), ((0, -1), e2)]:
        positive = tuple(sum(b.total > 0 for _, _, b in lattice_steps(dims, delta, k, True)) for k in (1, 2, 3, 4))
        assert positive == expected, delta


def test_relaxed_step_on_torus_5x5_leaves_the_shift_only_on_the_wrap_rows():
    # The paper's shift +e1 scores 0 at every anchor. The run at k = 1: the
    # step totals above 0 sit at the anchors of rows 1 and 5, each with loss
    # 0, deformation 0 and one or two edge-constraint violations.
    steps = {v: (m, b) for v, m, b in lattice_steps([5, 5], (1, 0), 1, True)}
    assert {v for v, (_, b) in steps.items() if b.total > 0} == set(range(1, 6)) | set(range(21, 26))
    assert [steps[v][1].total for v in range(1, 6)] == [0.02] * 5
    assert [steps[v][1].total for v in range(21, 26)] == [0.04] * 5
    for v in [*range(1, 6), *range(21, 26)]:
        b = steps[v][1]
        assert (b.raw_loss, b.raw_def, b.def_term) == (0, 0, 0.0) and b.raw_ec in (1, 2)
    # Sources go in index order. At anchor 1 = (1, 1) the first source,
    # 2 = (1, 2), has two images of cost 0, 1 and 7, and the lower one is taken.
    assert steps[1][0](2) == 1
    # At interior anchor 13 the first source is 13 - e1 = 8, with one image of
    # cost 0, so the step is the shift.
    shift = euclidean_on_torus([5, 5], dirac(2, 1))
    m, b = steps[13]
    assert b.total == 0 and all(w == shift(v) for v, w in m.items())


# Anchors, of those whose shifted anchor is on the grid, where the step total
# is above the restricted shift's, at k = 1 and 2, for +e1, -e1, +e2, -e2,
# then +e3, -e3 on a 3-D grid. Each value is (count, anchors).
GRID_STEPS_ABOVE_SHIFT = {
    (8, 3): (((0, 21), (0, 21), (0, 16), (7, 16)), ((0, 21), (0, 21), (0, 16), (0, 16))),
    (6, 6): (((0, 30), (0, 30), (0, 30), (5, 30)), ((0, 30), (0, 30), (0, 30), (0, 30))),
    (10, 5): (((0, 45), (0, 45), (0, 40), (9, 40)), ((0, 45), (0, 45), (0, 40), (0, 40))),
    (5, 5, 3): (
        ((0, 60), (0, 60), (0, 60), (12, 60), (16, 50), (24, 50)),
        ((0, 60), (0, 60), (0, 60), (7, 60), (0, 50), (6, 50)),
    ),
}


def grid_steps(dims, delta, k):
    """`lattice_steps` on the grid, each with its reference: `score` of the
    grid shift restricted to the support N[v], ⊥ off the grid."""
    g, shift = make_grid(dims), euclidean_on_grid(dims, delta)
    for v, m, b in lattice_steps(dims, delta, k, False):
        restricted = Mapping(m.domain, g.vertex_set, {u: shift(u) for u in m.domain})
        yield v, m, b, score(g, restricted, ScoreParams(k_block=k))


@pytest.mark.parametrize("dims", list(GRID_STEPS_ABOVE_SHIFT), ids=lambda d: "x".join(map(str, d)))
def test_relaxed_step_on_grids_against_the_axis_shifts(dims):
    # The paper: on a grid the translations are the axis shifts, lossy only
    # at the boundary. The run: one greedy step per anchor, counted where its
    # total is above the shift's own on the support. On a 2-D grid only -e2
    # has such anchors, and none at k = 2; on 5x5x3, -e2, +e3 and -e3 do.
    deltas = [dirac(len(dims), i, s) for i in range(1, len(dims) + 1) for s in (1, -1)]
    for k, expected in zip((1, 2), GRID_STEPS_ABOVE_SHIFT[dims]):
        counts = []
        for delta in deltas:
            steps = list(grid_steps(dims, delta, k))
            counts.append((sum(b.total > ref.total for _, _, b, ref in steps), len(steps)))
        assert tuple(counts) == expected, k


def test_relaxed_step_on_grid_8x3_fills_the_pinned_anchor_with_a_lost_source():
    # Shift -e2, k = 1, anchor 5 = (2, 2) pinned to 4 = (2, 1). Sources go in
    # ascending order: 2 takes its shifted image 1; 4 = (2, 1) has no image on
    # the grid and takes 5, which the pin left free at no cost; so 6 = (2, 3)
    # goes to 7 with one edge-constraint violation, and 8 finds its image 7
    # taken. The restricted shift loses only 4.
    m, b, ref = {v: rest for v, *rest in grid_steps([8, 3], (0, -1), 1)}[5]
    assert [w for _, w in m.items()] == [1, 5, 4, 7, BOTTOM]
    assert (b.raw_loss, b.raw_ec, b.raw_def) == (1, 1, 0) and b.total == 0.225
    assert (ref.raw_loss, ref.raw_ec, ref.raw_def) == (1, 0, 0) and ref.total == 0.2


def test_k1_evaluation_budget():
    g = make_torus([5, 5])
    V1 = sorted({1} | g.neighbors(1))
    V2 = expand_support(g, set(V1), 1)
    stats = SearchStats()
    minimize_s(1, 2, g, V1, V2, P, stats=stats)
    assert stats.calls == 1
    assert stats.evaluations <= 2 * len(V1) * (len(V2) + 1)


def test_best_composition_two_unit_moves():
    g = path(3)
    tr = best_composition(g, {1}, 1, 3, P)
    assert tr.found
    assert len(tr.steps) == 2
    assert tr.cumulative_score == 0
    assert [m.image_tuple() for m, _ in tr.steps] == [(2,), (3,)]
    assert tr.composed()(1) == 3
    assert tr.final_pair == (0.0, 0.0)


def test_best_composition_counts_its_queue():
    stats = SearchStats()
    best_composition(path(3), {1}, 1, 3, P, stats=stats)
    # The start entry, then 1 pushes 2 and 2 pushes 3 (1 is visited); all settle.
    # The target is not expanded, so two kernel calls built the two chains.
    assert (stats.pushes, stats.settled, stats.stale_pops, stats.calls, stats.kernel_calls) == (3, 3, 0, 2, 2)
    g = make_grid([3, 3])
    stats = SearchStats()
    tr = best_composition(g, {1, 2, 4}, 1, 9, P, stats=stats)
    assert tr == best_composition(g, {1, 2, 4}, 1, 9, P)
    assert stats.pushes == stats.calls + 1 and stats.stale_pops > 0
    assert stats.kernel_calls == stats.settled - 1
    assert stats.settled + stats.stale_pops <= stats.pushes


def test_best_composition_trivial_target():
    g = path(3)
    tr = best_composition(g, {1}, 1, 1, P)
    assert tr.found and tr.steps == [] and tr.cumulative_score == 0


def test_best_composition_no_path():
    g = Graph(4, [(1, 2), (3, 4)])
    tr = best_composition(g, {1}, 1, 3, P)
    assert not tr.found
    assert tr.steps == [] and math.isinf(tr.cumulative_score)


def test_trace_scores_are_prefix_monotone_and_consistent():
    g = make_grid([3, 3])
    tr = best_composition(g, expand_support(g, {1}, 1), 1, 9, P)
    assert tr.found
    totals = [b.total for _, b in tr.steps]
    assert tr.cumulative_score == pytest.approx(sum(totals), abs=1e-9)
    prefix = list(itertools.accumulate(totals))
    assert prefix == sorted(prefix)
    assert all(b == score(g, m, P) for m, b in tr.steps)
    composed = tr.composed()
    assert 9 in composed.image_set  # target reached by the replay


def test_cumulative_score_is_the_popped_queue_key():
    # The key starts from the int 0 and adds the step totals in chain order,
    # as sum() does, so the two agree bit for bit; a chain without steps keeps the int.
    geo = make_random_geometric(100, 0.15, 3)  # test_golden.py's pinned compose instance
    grid, small = make_grid([3, 3]), make_random_geometric(14, 0.4, 26)
    cases = [(geo, 82, 8, ScoreParams(1.0, 0.1, 0.5, k)) for k in (1, 2, 3)]
    cases += [(grid, 1, 9, P), (grid, 1, 9, ScoreParams(0.1, 1.0, 0.5, 2)), (small, 13, 8, P)]
    for g, src, tgt, p in cases:
        tr = best_composition(g, expand_support(g, {src}, 1), src, tgt, p)
        assert tr.steps and tr.cumulative_score == sum(b.total for _, b in tr.steps)
    for g, src, _, p in cases:
        tr = best_composition(g, expand_support(g, {src}, 1), src, src, p)
        assert tr.found and tr.steps == [] and type(tr.cumulative_score) is int


def _chain_oracle(g, V1, v_src, v_tgt, p, max_steps=4):
    """Cheapest chain of at most max_steps best_composition steps, revisits allowed.

    Each step is minimize_s from (anchor, carried support) to a vertex of the
    support's 1-hop frontier; branches are pruned by the running best, which
    is sound because step scores are non-negative. Returns (score, anchors).
    """
    best = [math.inf, None]

    def walk(v1, support, total, anchors):
        V2 = expand_support(g, support, 1)
        for v2 in sorted(V2 - {v1}):
            m, b = minimize_s(v1, v2, g, sorted(support), V2, p)
            cost = total + b.total
            if cost >= best[0]:
                continue
            if v2 == v_tgt:
                best[:] = [cost, anchors + [v2]]
            elif len(anchors) < max_steps:
                walk(v2, frozenset(m.image_set), cost, anchors + [v2])

    walk(v_src, frozenset(V1), 0.0, [v_src])
    return tuple(best)


def test_best_composition_is_a_heuristic_over_anchors():
    # The search settles 8 through the direct step; the three-step chain
    # 13 -> 5 -> 1 -> 8 costs less in total, because a step's cost depends
    # on the support it carries and each anchor is settled only once.
    g = make_random_geometric(14, 0.4, 26)
    V1 = expand_support(g, {13}, 1)
    tr = best_composition(g, V1, 13, 8, P)
    assert len(tr.steps) == 1
    assert tr.cumulative_score == pytest.approx(0.07, abs=1e-12)
    cost, anchors = _chain_oracle(g, V1, 13, 8, P)
    assert anchors == [13, 5, 1, 8]
    assert cost == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("seed, v_tgt", [(3, 8), (5, 5), (9, 5)])
def test_chain_oracle_never_worse_than_search(seed, v_tgt):
    g = make_random_geometric(14, 0.4, seed)
    V1 = expand_support(g, {1}, 1)
    tr = best_composition(g, V1, 1, v_tgt, P)
    assert tr.found and len(tr.steps) <= 4
    cost, anchors = _chain_oracle(g, V1, 1, v_tgt, P)
    assert anchors[-1] == v_tgt
    assert cost <= tr.cumulative_score


def test_trace_json_deterministic():
    g = make_grid([3, 3])
    runs = []
    for _ in range(2):
        tr = best_composition(g, expand_support(g, {1}, 1), 1, 9, P)
        runs.append(json.dumps(tr.to_json_dict(), sort_keys=True))
    assert runs[0] == runs[1]


def test_trace_with_numpy_weights_round_trips_through_json():
    g = make_ring(5)
    tr = best_composition(g, {1, 2}, 1, 3, ScoreParams(np.float32(1.0), np.float64(0.1), np.int64(1), 1))
    d = tr.to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert d == best_composition(g, {1, 2}, 1, 3, ScoreParams(1.0, 0.1, 1, 1)).to_json_dict()
    assert type(d["params"]["gamma"]) is int


def test_localized_sets_examples():
    g = make_ring(5)
    V1 = localized_sets(g, [1, 0, 0, 0, 0])
    assert V1 == {1}
    assert len(expand_support(g, V1, 1)) == 3

    full = localized_sets(g, [1] * 5)
    assert expand_support(g, full, 1) == set(g.vertices)

    t = make_torus([5, 5])
    ball = expand_support(t, {13}, 1)
    assert len(ball) == 5
    assert len(expand_support(t, ball, 1)) == 13


def test_local_hop_questions_match_the_distance_table_and_networkx():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nx = pytest.importorskip("networkx")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.data())
    def check(data):
        # Any edge set on up to 12 vertices: isolated vertices and several components too.
        n = data.draw(st.integers(1, 12), label="n")
        pairs = list(itertools.combinations(range(1, n + 1), 2)) or [None]
        edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges") - {None}
        g = Graph(n, edges)
        vertices = list(g.vertices)
        for v in vertices:
            for h in range(n + 2):
                assert g.neighborhood(v, h) == {w for w in vertices if g.geodesic(v, w) == h}
        S = data.draw(st.sets(st.sampled_from(vertices), min_size=1), label="S")
        for hops in range(n + 1):
            ball = {w for w in vertices if min(g.geodesic(s, w) for s in S) <= hops}
            assert expand_support(g, S, hops) == ball
        h = nx.Graph()
        h.add_nodes_from(vertices)
        h.add_edges_from(edges)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert localized_sets(g, [1 if v in S else 0 for v in vertices]) == S
        assert len(caught) == (not nx.is_connected(h.subgraph(S)))

    check()


def test_localized_sets_rejects_empty_and_warns_disconnected():
    g = make_ring(5)
    with pytest.raises(ValueError):
        localized_sets(g, [0] * 5)
    with pytest.warns(UserWarning):
        localized_sets(g, [1, 0, 1, 0, 0])


@pytest.mark.parametrize("x", [[1, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]])
def test_localized_sets_rejects_a_signal_of_the_wrong_length(x):
    g = make_ring(5)
    with pytest.raises(ValueError, match="entries for 5 vertices"):
        localized_sets(g, x)


def test_expand_support_rejects_out_of_range_vertices():
    g = make_ring(5)
    for bad in (0, -1, 6):
        with pytest.raises(ValueError):
            expand_support(g, {1, bad}, 1)
    for bad in (2.5, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            expand_support(g, {bad}, 1)


def test_expand_support_rejects_negative_hops():
    g = make_ring(5)
    assert expand_support(g, {3}, 0) == {3}
    with pytest.raises(ValueError, match="hops"):
        expand_support(g, {3}, -1)


def test_hops_flag_widens_targets():
    g = path(5)
    assert expand_support(g, {3}, 1) == {2, 3, 4}
    assert expand_support(g, {3}, 2) == {1, 2, 3, 4, 5}


def test_expand_support_stops_at_an_empty_frontier():
    # A loop over all 10**9 hops would take minutes.
    g = make_ring(5)
    assert expand_support(g, {1}, 10**9) == expand_support(g, {1}, 2) == set(g.vertices)


def test_parameter_sweep_single_cell():
    g = make_grid([3, 3])
    cells = parameter_sweep(g, expand_support(g, {1}, 1), 1, 9, grid=[(1.0, 0.1, 0.5, 1)])
    assert len(cells) == 1
    trace, on_front = cells[0]
    assert trace.found and on_front


def test_parameter_sweep_rejects_zero_weights():
    g = make_grid([3, 3])
    with pytest.raises(ValueError):
        parameter_sweep(g, expand_support(g, {1}, 1), 1, 9, grid=[(0.0, 0.0, 0.0, 1)])


def test_best_composition_rejects_negative_hops_at_target():
    g = make_ring(5)
    with pytest.raises(ValueError, match="hops"):
        best_composition(g, {1, 2}, 1, 1, ScoreParams(), hops=-1)


def _assert_sweep_matches_lone_cells(g, src, tgt, grid):
    """parameter_sweep, lockstep with its round cache, against one cache-free call per cell.

    Returns the sweep's stats and the lone calls' stats, one per cell.
    """
    support = expand_support(g, {src}, 1)
    swept, alone = SearchStats(), []
    cells = parameter_sweep(g, support, src, tgt, grid=grid, stats=swept)
    params = [trace.params for trace, _ in cells]
    assert [(p.alpha, p.beta, p.gamma, p.k_block) for p in params] == list(grid)
    for (trace, _), cell in zip(cells, grid):
        alone.append(SearchStats())
        tr = best_composition(g, support, src, tgt, ScoreParams(*cell), stats=alone[-1])
        assert trace == tr
        assert trace.to_json_dict() == tr.to_json_dict()
        assert alone[-1].kernel_calls == alone[-1].settled - tr.found  # one call per expanded anchor
    total = SearchStats(*map(sum, zip(*(dataclasses.astuple(s) for s in alone))))
    same = ("evaluations", "calls", "pushes", "stale_pops", "settled")
    assert [getattr(swept, f) for f in same] == [getattr(total, f) for f in same]
    assert (total.rows_computed, total.round_hits) == (total.evaluations, 0)
    assert swept.kernel_calls <= total.kernel_calls
    return swept, alone


def test_best_composition_calls_the_kernel_once_per_expanded_anchor(monkeypatch):
    # Every settled anchor but a found target is expanded by one kernel call.
    g = make_random_geometric(24, 0.35, 11)
    support = expand_support(g, {1}, 1)
    kernel = search_module._minimize_batch
    calls = []
    monkeypatch.setattr(search_module, "_minimize_batch", lambda *a: calls.append(a) or kernel(*a))
    for cell in [(1.0, 0.1, 0.5, 3), (0.1, 0.5, 1.0, 3), (0.5, 1.0, 0.1, 3)]:
        stats = SearchStats()
        trace = best_composition(g, support, 1, 20, ScoreParams(*cell), stats=stats)
        assert len(calls) == stats.kernel_calls == stats.settled - trace.found
        calls.clear()


def test_parameter_sweep_calls_the_kernel_fewer_times_than_it_expands():
    # The bench sweep instance: cells that expand the same anchor with the
    # same support share a kernel call, the source's first expansion at least.
    g = make_random_geometric(24, 0.35, 11)
    stats = SearchStats()
    cells = parameter_sweep(g, expand_support(g, {1}, 1), 1, 20, stats=stats)
    expansions = stats.settled - sum(trace.found for trace, _ in cells)
    assert 0 < stats.kernel_calls < expansions


def test_sweep_matches_lone_cells_at_the_source_when_unreachable_and_with_duplicates():
    g = make_random_geometric(14, 0.45, 3)
    grid = [(1.0, 0.1, 0.5, 3), (0.1, 0.5, 1.0, 1), (1.0, 0.1, 0.5, 3), (0.5, 0.5, 0.5, 3), (0.1, 0.5, 1.0, 1)]
    # v_src == v_tgt: every cell settles its source and stops; nothing is expanded.
    swept, _ = _assert_sweep_matches_lone_cells(g, 1, 1, grid)
    assert (swept.settled, swept.kernel_calls) == (len(grid), 0)
    # Duplicate cells share every expansion, so they add no kernel call.
    swept, alone = _assert_sweep_matches_lone_cells(g, 1, 8, grid)
    assert swept.kernel_calls < sum(s.kernel_calls for s in alone)
    assert swept.round_hits > 0
    # An unreachable target: every queue runs dry, after different numbers of ticks.
    two = Graph(9, [(1, 2), (2, 3), (3, 4), (2, 4), (4, 5), (6, 7), (7, 8), (8, 9)])
    grid = [(1.0, 0.1, 0.5, 1), (0.1, 1.0, 0.1, 1), (1.0, 0.1, 0.5, 2), (0.5, 0.1, 1.0, 2)]
    swept, alone = _assert_sweep_matches_lone_cells(two, 1, 9, grid)
    assert swept.settled == sum(s.settled for s in alone) == len(grid) * 5


def test_sweep_cells_that_finish_on_different_ticks_match_lone_cells():
    # A cell settles one anchor per tick, so differing settled counts mean
    # that some cells stop while others still expand.
    g = make_random_geometric(16, 0.4, 4)
    weights = [(1.0, 0.1, 0.5), (0.1, 1.0, 0.1), (0.1, 0.1, 1.0), (0.0, 0.0, 1.0)]
    grid = [(*w, k) for k in (1, 3) for w in weights]
    _, alone = _assert_sweep_matches_lone_cells(g, 1, 12, grid)
    for k in (0, 4):  # the k=1 cells, then the k=3 cells
        assert len({s.settled for s in alone[k : k + 4]}) > 1


def test_a_one_cell_search_fills_no_round_cache(monkeypatch):
    # A lone cell expands each anchor once, with distinct pins, so it would
    # never read a round cache: its kernel calls get none, and the entries
    # they fill live for one round. Two cells of one block size share one cache.
    g = make_random_geometric(24, 0.35, 11)  # the bench sweep instance
    support = expand_support(g, {1}, 1)
    grid = [(1.0, 0.1, 0.5, 3), (0.1, 0.5, 1.0, 3)]
    kernel, distinct = search_module._minimize_batch, search_module._distinct_rows
    caches, entries = [], []

    def fill(*a):
        entry = distinct(*a)
        entries.append(weakref.ref(entry))
        return entry

    monkeypatch.setattr(search_module, "_minimize_batch", lambda *a: caches.append(a[-1]) or kernel(*a))
    monkeypatch.setattr(search_module, "_distinct_rows", fill)
    lone = [best_composition(g, support, 1, 20, ScoreParams(*cell)) for cell in grid]
    assert [parameter_sweep(g, support, 1, 20, grid=[cell])[0][0] for cell in grid] == lone
    assert caches and set(map(id, caches)) == {id(None)}
    assert entries and all(entry() is None for entry in entries)
    caches.clear()
    assert [trace for trace, _ in parameter_sweep(g, support, 1, 20, grid=grid)] == lone
    assert len(set(map(id, caches))) == 1 and caches[0]


def test_sweep_round_cache_matches_lone_cells_with_blocks_out_of_order():
    g = make_random_geometric(14, 0.45, 3)
    grid = [
        (1.0, 0.1, 0.5, 3),
        (0.1, 0.5, 1.0, 2),
        (0.5, 0.5, 0.5, 3),
        (1.0, 1.0, 0.1, 1),
        (0.1, 0.1, 0.1, 2),
        (0.1, 1.0, 1.0, 3),
    ]
    stats, _ = _assert_sweep_matches_lone_cells(g, 1, 8, grid)
    assert stats.round_hits > 0
    assert stats.rows_computed < stats.evaluations


def test_sweep_round_cache_serves_two_source_rounds():
    g = make_random_geometric(14, 0.45, 3)
    grid = [(1.0, 0.1, 0.5, 2), (0.1, 0.5, 1.0, 2), (0.5, 1.0, 0.1, 2)]
    stats, _ = _assert_sweep_matches_lone_cells(g, 1, 8, grid)
    assert stats.round_hits > 0
    assert stats.rows_computed < stats.evaluations


def test_sweep_round_cache_matches_lone_cells_with_zero_weights():
    # A zero weight makes many rows tie, so the first-row order decides.
    g = make_random_geometric(14, 0.45, 8)
    grid = [
        (0.0, 1.0, 1.0, 2),
        (1.0, 0.0, 1.0, 2),
        (1.0, 1.0, 0.0, 2),
        (0.0, 0.0, 1.0, 3),
        (0.0, 1.0, 0.0, 3),
        (1.0, 0.0, 0.0, 3),
        (0.0, 0.5, 0.0, 2),
    ]
    stats, _ = _assert_sweep_matches_lone_cells(g, 1, 11, grid)
    assert stats.round_hits > 0


def test_sweep_round_cache_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weight = st.sampled_from((0.0,) + DEFAULT_WEIGHTS)
    cell = st.tuples(weight, weight, weight, st.sampled_from(DEFAULT_BLOCKS)).filter(
        lambda c: any(c[:3])
    )

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(6, 11), label="n")
        r = data.draw(st.sampled_from([0.45, 0.6]), label="r")
        g = make_random_geometric(n, r, data.draw(st.integers(0, 10**6), label="seed"))
        src = data.draw(st.integers(1, n), label="src")
        tgt = data.draw(st.integers(1, n), label="tgt")
        grid = data.draw(st.lists(cell, min_size=3, max_size=6), label="grid")
        _assert_sweep_matches_lone_cells(g, src, tgt, grid)

    check()


def _dense_round(ec, between, deform, used, sums):
    """One chain's dense (raw_loss, raw_ec, raw_def, bad) over a round's option product.

    The rows an uncached round weighs, from the inputs of `_round_key` and
    `_distinct_rows`, written out per row position: ⊥ is the last option,
    and a row is masked where it takes a used target or two positions take
    the same target.
    """
    L, nopt = ec.shape
    cols = np.indices((nopt,) * L).reshape(L, -1)
    at = np.arange(L)[:, None], cols
    bottom = cols == nopt - 1
    raw_loss = sums[0] + bottom.sum(axis=0)
    raw_ec = sums[1] + ec[at].sum(axis=0)
    raw_def = sums[2] + deform[at].sum(axis=0) + between.ravel()
    bad = used[cols].any(axis=0)
    for i, j in itertools.combinations(range(L), 2):
        bad |= (cols[i] == cols[j]) & ~bottom[i]
    return raw_loss, raw_ec, raw_def, bad


def _random_round(rng, L, nopt, high, chains):
    """A round's (ec, between) and, per chain, (deform, used, sums); ⊥ is never used and has ec flag 0."""
    ec = rng.integers(0, 2, (L, nopt))
    ec[:, -1] = 0
    between = rng.integers(0, int(rng.integers(1, 6)), (nopt,) * L)
    own = []
    for _ in range(chains):
        used = rng.random(nopt) < rng.choice([0.0, 0.3, 0.7])
        used[-1] = False
        sums = tuple(np.int64(rng.integers(0, 40)) for _ in range(3))
        own.append((rng.integers(0, high, (L, nopt)), used, sums))
    return ec, between, own


def _fill(ec, between, own):
    """Every chain's entry of one round through one shared `_round_key`, as the kernel fills them.

    `top` is above every candidate's deformation, and `between` gains it once
    for each pair of positions on one target.
    """
    deforms = np.stack([deform for deform, _, _ in own], axis=1)
    top = int(between.max()) + int(deforms.max(axis=(1, 2)).sum()) + 1
    key = _round_key(ec, between + _repeat_term(between.shape, top), top)
    return [_distinct_rows(key, deform, used, sums) for deform, used, sums in own]


def test_distinct_rows_pick_the_first_minimum():
    rng = np.random.default_rng(5)
    for trial in range(300):
        L = (2, 3, 4)[trial % 3]
        nopt = int(rng.integers(2, (16, 9, 6)[trial % 3]))
        # Deformation below 8 mostly keeps the packed keys within the table; the
        # wider draws take the sort, on uint16, uint32 and uint64 keys.
        high = int(rng.integers(1, (8, 1 << 10, 1 << 20, 1 << 26)[trial % 4]))
        ec, between, own = _random_round(rng, L, nopt, high, 2)
        for kept, (deform, used, sums) in zip(_fill(ec, between, own), own):
            raw_loss, raw_ec, raw_def, bad = _dense_round(ec, between, deform, used, sums)
            assert kept.dtype == np.int32
            rows = np.flatnonzero(~bad)
            raw_loss, raw_ec, raw_def = raw_loss[rows], raw_ec[rows], raw_def[rows]
            # Every candidate triple once, at its first row, in first-row order.
            first = np.searchsorted(rows, kept[3])
            assert (rows[first] == kept[3]).all() and (np.diff(first) > 0).all()
            triples = list(zip(raw_loss.tolist(), raw_ec.tolist(), raw_def.tolist()))
            assert [triples.index(t) for t in dict.fromkeys(triples)] == first.tolist()
            assert (kept[:3] == np.stack((raw_loss, raw_ec, raw_def))[:, first]).all()
            n1 = int(raw_loss.max()) + int(rng.integers(0, 3)) + 1
            for _ in range(4):
                # _weigh reads only the weights, so any real ones do, negative too.
                w = types.SimpleNamespace(**dict(zip(("alpha", "beta", "gamma"), rng.normal(0, 1, 3))))
                if rng.random() < 0.5:
                    setattr(w, rng.choice(["alpha", "beta", "gamma"]), 0.0)
                every = np.argmin(_weigh(w, n1, raw_loss, raw_ec, raw_def)[-1])
                assert kept[3, np.argmin(_weigh(w, n1, *kept[:3])[-1])] == rows[every]


def test_distinct_rows_equal_the_sorting_oracle_property(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    unique, sorts, ways, seen = np.unique, [], set(), set()
    monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(1) or unique(*a, **kw))

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.data())
    def check(data):
        L = data.draw(st.sampled_from((2, 3, 4)), label="L")
        nopt = data.draw(st.integers(2, (16, 9, 6)[L - 2]), label="options")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # Wide deformation rows span more keys than there are rows; rows up to
        # 2^40 and committed sums of 2^33 leave int32 and put keys up to about 2^50,
        # below the (C(L, 2) + L + 1)·S bound and well inside int64.
        high = data.draw(st.sampled_from((1, 4, 1 << 12, 1 << 40)), label="deformation width")
        ec, between, own = _random_round(rng, L, nopt, high, data.draw(st.integers(1, 3), label="chains"))
        if data.draw(st.booleans(), label="def offset"):
            own = [(deform, used, (*sums[:2], sums[2] + (1 << 33))) for deform, used, sums in own]
        sorts.clear()
        got = _fill(ec, between, own)
        ways.add(bool(sorts))
        for entry, (deform, used, sums) in zip(got, own):
            seen.add(entry.dtype)
            want = distinct_rows_reference(*_dense_round(ec, between, deform, used, sums))
            assert entry.dtype == want.dtype
            assert np.array_equal(entry, want)
            # At L >= 2 a used target is also taken by two positions in some rows.
            if used.any():
                seen.add("used and repeated")

    check()
    # Both ways to a key's first row ran: the table, and the sort; both dtypes came out.
    assert ways == {False, True}
    assert seen == {np.dtype(np.int32), np.dtype(np.int64), "used and repeated"}


def test_minimize_batch_mixes_cached_and_missed_chains_in_one_round():
    g = make_random_geometric(16, 0.35, 2)
    V1 = sorted(expand_support(g, {5}, 1))
    V2 = expand_support(g, V1, 1)
    v2s = sorted(V2 - {5})
    assert len(V1) - 1 >= 4 and len(v2s) >= 4  # two cached rounds per chain
    subset = v2s[::2]
    # (1.0, 0.0, 0.0) weighs loss alone, so every chain's entry ties on many totals.
    for weights in ((1.0, 0.1, 0.5), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)):
        p = ScoreParams(*weights, 2)
        rounds = {}
        _minimize_batch(5, subset, g, V1, V2, [p] * len(subset), None, rounds)
        filled = len(rounds)
        assert filled == len(subset) * ((len(V1) - 1) // 2)
        stats = SearchStats()
        ps = [p] * len(v2s)
        assert _minimize_batch(5, v2s, g, V1, V2, ps, stats, rounds) == _minimize_batch(5, v2s, g, V1, V2, ps)
        assert stats.round_hits == filled
