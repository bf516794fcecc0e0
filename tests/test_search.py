import itertools
import json
import math

import numpy as np
import pytest

from graph_shift.euclid import dirac, euclidean_on_torus
from graph_shift.graph import Graph, make_grid, make_random_geometric, make_ring, make_torus
from graph_shift.mapping import BOTTOM, Mapping
from graph_shift.relax import ScoreParams, score
from graph_shift.search import (
    DEFAULT_BLOCKS,
    DEFAULT_WEIGHTS,
    SearchStats,
    _Committed,
    _row_template,
    _score_rows,
    best_composition,
    expand_support,
    localized_sets,
    minimize_s,
    parameter_sweep,
)

P = ScoreParams(1.0, 0.1, 0.5, 1)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def test_single_vertex_support_is_pinned():
    g = path(3)
    m, s = minimize_s(1, 2, g, [1], {1, 2}, P)
    assert m(1) == 2
    assert s == score(g, m, P).total == 0


def test_anchor_must_be_in_support():
    with pytest.raises(ValueError):
        minimize_s(4, 1, path(4), [1, 2], {1, 2}, P)


def test_target_added_when_missing():
    g = path(3)
    m, _ = minimize_s(1, 3, g, [1], {1, 2}, P)
    assert m(1) == 3


def test_candidate_rows_shape_and_order():
    cols, bottoms = _row_template(2, 2)
    as_tuples = [tuple(int(t) for t in row) for row in cols.T]
    # option indices into [4, 7, ⊥]: concrete targets never repeat, ⊥ (2)
    # may, and ⊥ sorts last
    assert (0, 0) not in as_tuples and (2, 2) in as_tuples
    assert as_tuples[0] == (0, 1)
    assert as_tuples[-1] == (2, 2)
    assert as_tuples == [
        r for r in itertools.product(range(3), repeat=2) if r[0] != r[1] or r[0] == 2
    ]
    assert list(bottoms) == [r.count(2) for r in as_tuples]
    assert cols.dtype == np.uint8
    assert not cols.flags.writeable


def _committed(g, assigned):
    """Committed state of a partial assignment, raw sums from the scalar score."""
    b = score(g, Mapping(set(assigned), set(g.vertices), assigned), P)
    src = sorted(v for v, w in assigned.items() if w is not BOTTOM)
    img = [assigned[v] for v in src]
    return _Committed(src, img, b.raw_loss, b.raw_ec, int(b.raw_def))


def _assert_rows_match_score(g, p, assigned, block, pool):
    cols, totals, raw_loss, raw_ec, raw_def = _score_rows(
        g, p, _committed(g, assigned), block, pool
    )
    options = pool + [BOTTOM]
    assert cols.shape == (len(block), len(totals))
    for i, row in enumerate(cols.T):
        image = dict(assigned)
        image.update((src, options[t]) for src, t in zip(block, row))
        ref = score(g, Mapping(set(image), set(g.vertices), image), p)
        assert totals[i] == ref.total
        assert (raw_loss[i], raw_ec[i], raw_def[i]) == (ref.raw_loss, ref.raw_ec, ref.raw_def)


def test_vectorized_scores_match_reference():
    _assert_rows_match_score(make_ring(6), P, {1: 2, 4: BOTTOM}, [2, 5], [3, 5, 6])
    # Unreachable pairs: two infinite distances count 0, one counts the cap n.
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (6, 7)])
    _assert_rows_match_score(
        g, ScoreParams(0.1, 0.5, 1.0, 3), {1: 4, 6: BOTTOM, 2: 5}, [3, 4, 7], [1, 2, 3, 6, 7]
    )


def test_vectorized_scores_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(4, 9), label="n")
        r = data.draw(st.sampled_from([0.3, 0.45, 0.7]), label="r")
        g = make_random_geometric(n, r, data.draw(st.integers(0, 10**6), label="seed"))
        order = data.draw(st.permutations(list(g.vertices)), label="sources")
        length = data.draw(st.sampled_from(DEFAULT_BLOCKS), label="length")
        n_old = data.draw(st.integers(1, n - 1), label="assigned")
        old, block = order[:n_old], sorted(order[n_old : n_old + length])
        hyp.assume(block)
        targets = data.draw(st.permutations(list(g.vertices)), label="targets")
        assigned = {}
        for v, w in zip(old, targets):
            assigned[v] = BOTTOM if data.draw(st.booleans(), label=f"lose {v}") else w
        free = sorted(set(targets) - set(assigned.values()))
        pool = [w for w in free if data.draw(st.booleans(), label=f"offer {w}")]
        weights = [data.draw(st.sampled_from(DEFAULT_WEIGHTS)) for _ in range(3)]
        _assert_rows_match_score(g, ScoreParams(*weights, length), assigned, block, pool)

    check()


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
        m, s = minimize_s(v1, v2, g, V1, V2, p)
        assert type(s) is float
        assert s == score(g, m, p).total

    check()


def test_greedy_matches_exhaustive_at_zero_floor():
    dims = [5, 5]
    g = make_torus(dims)
    shift = euclidean_on_torus(dims, dirac(2, 1))
    v1 = 13
    V1 = sorted({v1} | g.neighbors(v1))
    V2 = expand_support(g, set(V1), 1)
    v2 = shift(v1)
    m1, s1 = minimize_s(v1, v2, g, V1, V2, P)
    assert s1 == 0
    assert all(m1(v) == shift(v) for v in V1)
    exhaustive = ScoreParams(P.alpha, P.beta, P.gamma, len(V1))
    m2, s2 = minimize_s(v1, v2, g, V1, V2, exhaustive)
    assert s2 == 0


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
    composed = tr.composed()
    assert 9 in composed.image_set  # target reached by the replay


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
            m, s = minimize_s(v1, v2, g, sorted(support), V2, p)
            if total + s >= best[0]:
                continue
            if v2 == v_tgt:
                best[:] = [total + s, anchors + [v2]]
            elif len(anchors) < max_steps:
                walk(v2, frozenset(m.image_set), total + s, anchors + [v2])

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
        tr = best_composition(g, expand_support(g, {1}, 1), 1, 9, P, seed=3)
        runs.append(json.dumps(tr.to_json_dict(), sort_keys=True))
    assert runs[0] == runs[1]


def test_localized_sets_examples():
    g = make_ring(5)
    V1, expand = localized_sets(g, [1, 0, 0, 0, 0])
    assert V1 == {1}
    assert len(expand(V1)) == 3

    full, expand_full = localized_sets(g, [1] * 5)
    assert expand_full(full) == set(g.vertices)

    t = make_torus([5, 5])
    ball = expand_support(t, {13}, 1)
    assert len(ball) == 5
    assert len(expand_support(t, ball, 1)) == 13


def test_localized_sets_rejects_empty_and_warns_disconnected():
    g = make_ring(5)
    with pytest.raises(ValueError):
        localized_sets(g, [0] * 5)
    with pytest.warns(UserWarning):
        localized_sets(g, [1, 0, 1, 0, 0])


def test_expand_support_rejects_out_of_range_vertices():
    g = make_ring(5)
    for bad in (0, -1, 6):
        with pytest.raises(ValueError):
            expand_support(g, {1, bad}, 1)


def test_hops_flag_widens_targets():
    g = path(5)
    assert expand_support(g, {3}, 1) == {2, 3, 4}
    assert expand_support(g, {3}, 2) == {1, 2, 3, 4, 5}


def test_parameter_sweep_single_cell():
    g = make_grid([3, 3])
    x = [1.0 if v in expand_support(g, {1}, 1) else 0.0 for v in g.vertices]
    recs = parameter_sweep(g, x, 1, 9, grid=[(1.0, 0.1, 0.5, 1)])
    assert len(recs) == 1
    assert recs[0].found and recs[0].pareto


def test_parameter_sweep_rejects_zero_weights():
    g = make_grid([3, 3])
    x = [1.0 if v in expand_support(g, {1}, 1) else 0.0 for v in g.vertices]
    with pytest.raises(ValueError):
        parameter_sweep(g, x, 1, 9, grid=[(0.0, 0.0, 0.0, 1)])
