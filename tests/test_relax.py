import math

import numpy as np
import pytest

from graph_shift.graph import _MAX_ORDER, Graph, make_complete, make_ring
from graph_shift.mapping import BOTTOM, Mapping, full_mapping, property_report
from graph_shift.relax import (
    _MAX_WEIGHT,
    ScoreParams,
    _weigh,
    evaluation_pair,
    pareto_front,
    score,
)

P = ScoreParams(1.0, 0.1, 0.5, 1)


def restricted(g, domain, image):
    return Mapping(domain, set(g.vertices), image)


def test_params_validation():
    with pytest.raises(ValueError):
        ScoreParams(0, 0, 0, 1)
    with pytest.raises(ValueError):
        ScoreParams(1, 1, 1, 0)
    with pytest.raises(ValueError):
        ScoreParams(-1, 0, 1, 1)


def test_params_keep_real_weights_as_python_numbers():
    p = ScoreParams(2, np.float32(0.5), np.int64(1))
    assert (type(p.alpha), type(p.beta), type(p.gamma)) == (int, float, int)
    assert p.alpha == 2 and p.beta == 0.5 and p.gamma == 1


def test_perfect_translation_scores_zero():
    g = make_ring(5)
    rot = full_mapping(g, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    b = score(g, rot, P)
    assert b.total == 0
    assert b.raw_loss == b.raw_ec == b.raw_def == 0


def test_all_bottom_scores_alpha():
    g = make_complete(3)
    m = restricted(g, {1, 2}, {1: BOTTOM, 2: BOTTOM})
    b = score(g, m, ScoreParams(0.7, 0.1, 0.5, 1))
    assert b.total == pytest.approx(0.7)
    assert b.ec_term == 0 and b.def_term == 0  # degenerate normalizers


def test_path4_double_hop_scores_beta():
    # both sources jump two hops; the image pair keeps its distance
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    m = restricted(g, {1, 2}, {1: 3, 2: 4})
    b = score(g, m, ScoreParams(1.0, 0.25, 0.5, 1))
    assert b.raw_ec == 2 and b.raw_def == 0
    assert b.total == pytest.approx(0.25)


def test_single_mapped_vertex_has_no_def_term():
    g = make_ring(4)
    m = restricted(g, {1, 2}, {1: 2, 2: BOTTOM})
    b = score(g, m, P)
    assert b.def_term == 0
    assert b.total == pytest.approx(0.5)  # alpha * 1/2


def test_empty_domain_rejected():
    g = make_ring(4)
    with pytest.raises(ValueError):
        score(g, Mapping(set(), set(g.vertices), {}), P)
    with pytest.raises(ValueError):
        evaluation_pair(g, Mapping(set(), set(g.vertices), {}))


def test_total_is_sum_of_terms():
    g = make_ring(6)
    m = restricted(g, {1, 2, 3}, {1: 3, 2: BOTTOM, 3: 5})
    b = score(g, m, P)
    assert b.total == pytest.approx(b.loss_term + b.ec_term + b.def_term)
    assert b.total > 0


def test_weight_scaling_scales_total():
    g = make_ring(6)
    m = restricted(g, {1, 2, 3}, {1: 3, 2: BOTTOM, 3: 5})
    t1 = score(g, m, ScoreParams(1, 0.1, 0.5, 1)).total
    t3 = score(g, m, ScoreParams(3, 0.3, 1.5, 1)).total
    assert t3 == pytest.approx(3 * t1)


def test_snp_violations_on_a_restricted_domain():
    g = make_ring(4)
    m = restricted(g, {1, 2}, {1: 1, 2: 3})
    assert property_report(g, m).snp_violations == 1


def test_evaluation_pair_examples():
    g = make_ring(5)
    rot = full_mapping(g, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})
    assert evaluation_pair(g, rot) == (0.0, 0.0)
    allb = full_mapping(g, {v: BOTTOM for v in g.vertices})
    assert evaluation_pair(g, allb) == (1.0, 0.0)


def test_evaluation_pair_checks_vertices_at_every_mapped_count():
    # With at most one mapped vertex the pair was returned before any vertex check.
    g = make_ring(5)
    for image in ({1: 2, 9: BOTTOM}, {1: 2, 9: 7}):
        with pytest.raises(ValueError, match="^vertex (7|9) out of range 1..5$"):
            evaluation_pair(g, Mapping([1, 9], [2, 7], image))
    with pytest.raises(ValueError, match="^vertex 9 out of range 1..5$"):
        evaluation_pair(g, Mapping([9], [], {9: BOTTOM}))
    assert evaluation_pair(g, Mapping([1, 2], [3], {1: 3, 2: BOTTOM})) == (0.5, 0.0)


def test_evaluation_pair_ignores_params():
    g = make_ring(6)
    m = restricted(g, {1, 2, 3}, {1: 3, 2: BOTTOM, 3: 5})
    assert evaluation_pair(g, m) == evaluation_pair(g, m)
    lr, sr = evaluation_pair(g, m)
    assert 0 <= lr <= 1 and 0 <= sr <= 1


def test_pareto_front_basic():
    pts = [(0.0, 0.1, "a"), (0.05, 0.0, "b"), (0.05, 0.1, "c")]
    assert pareto_front(pts) == pts[:2]


def test_pareto_front_keeps_duplicates_and_order():
    pts = [(0.1, 0.1, 1), (0.1, 0.1, 2)]
    assert pareto_front(pts) == pts
    assert pareto_front([(0.3, 0.4, None)]) == [(0.3, 0.4, None)]


# A weight that is not a real number, a bool among them, raises the same error.
@pytest.mark.parametrize(
    "weight", [math.nan, math.inf, -math.inf, "1", None, True, pytest.param(np.bool_(True), id="np.bool_")]
)
def test_params_reject_non_finite_weights(weight):
    for field in ("alpha", "beta", "gamma"):
        weights = {"alpha": 1.0, "beta": 0.1, "gamma": 0.5, field: weight}
        with pytest.raises(ValueError, match="finite"):
            ScoreParams(**weights, k_block=1)


def test_params_cap_weights_where_no_score_or_chain_overflows():
    for field in ("alpha", "beta", "gamma"):
        with pytest.raises(ValueError, match="finite"):
            ScoreParams(**{field: math.nextafter(_MAX_WEIGHT, math.inf)})
        with pytest.raises(ValueError, match="finite"):
            ScoreParams(**{field: 10**400})  # an int too large for a float
    p = ScoreParams(_MAX_WEIGHT, _MAX_WEIGHT, _MAX_WEIGHT)
    # The largest raw sums on a graph at the order cap: every source lost, or
    # every source mapped with all its edges broken and every gap at the cap.
    n = _MAX_ORDER
    worst = [_weigh(p, n, n, 0, 0), _weigh(p, n, 0, n, n * (n * (n - 1) // 2)), _weigh(p, 2, 0, 2, n)]
    for terms in worst:
        assert all(math.isfinite(t) for t in terms)
        # A chain has fewer than n steps.
        assert math.isfinite(sum([terms[-1]] * (n - 1)))
    assert math.isfinite(sum(max(t[-1] for t in worst) for _ in range(n - 1)))
