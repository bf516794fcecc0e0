"""Best-composition search for moving a signal support across a graph.

Two layers: a greedy K-block assignment heuristic that builds one
approximate translation between anchor vertices (`minimize_s`), and a
Dijkstra-style search over anchors that chains such steps from a source
to a target vertex (`best_composition`), keyed by accumulated score.

Candidate assignments inside a greedy round are scored in bulk with numpy.
The candidate rows of a round are a cached index template into the round's
options (free targets, then bottom). Each round gathers small integer cost
tables from the distance table: per block position and option, the
edge-constraint violation and the deformation against the committed pairs,
and per pair of block positions, the deformation between their options. A
row's raw sums are table lookups through the template columns, added to the
committed sums that carry over from the previous round's chosen row. Rows
and the finished step are weighed by `relax._weigh`, the expression behind
`relax.score`, so each candidate is scored once and the numbers agree.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import mapping as mp
from .mapping import BOTTOM, Mapping, _gaps
from .relax import ScoreParams, _weigh, composition_score, evaluation_pair, pareto_front, score


@lru_cache(maxsize=128)
def _row_template(npool, length):
    """Candidate rows of a block as indices into sorted(pool) + [⊥].

    Index npool stands for ⊥. Concrete options appear at most once per row;
    ⊥ may repeat. Rows come out in product order with ⊥ last, so downstream
    argmin ties resolve to the canonical first candidate. Returns one index
    column per block position, shape (length, rows), in the smallest dtype
    that holds npool, and each row's ⊥ count. Both arrays are read-only,
    because every caller shares them.
    """
    cols = np.indices((npool + 1,) * length, dtype=np.min_scalar_type(npool))
    cols = cols.reshape(length, -1)
    keep = np.ones(cols.shape[1], dtype=bool)
    for i in range(length):
        for j in range(i + 1, length):
            keep &= (cols[i] != cols[j]) | (cols[i] == npool)
    cols = cols[:, keep]
    bottoms = (cols == npool).sum(axis=0, dtype=np.min_scalar_type(length))
    cols.flags.writeable = False
    bottoms.flags.writeable = False
    return cols, bottoms


@dataclass
class _Committed:
    """Assignment committed by earlier greedy rounds and its raw score sums.

    Every committed source is in `src` or counted in `raw_loss` (sent to ⊥).
    """

    src: list  # sources with a concrete image
    img: list  # their images
    raw_loss: int
    raw_ec: int
    raw_def: int


def _score_rows(g, p, done: _Committed, block, pool):
    """Score every candidate row as if its block assignment were committed.

    Returns (cols, total, raw_loss, raw_ec, raw_def): the row template of
    `_row_template(len(pool), len(block))` and one value per row. Raw sums
    stay int64; `total` is `_weigh` over the would-be assigned set, per the
    greedy round convention.
    """
    dist = g.distance_matrix()
    npool, length = len(pool), len(block)
    cols, bottoms = _row_template(npool, length)
    opts = np.asarray(pool, dtype=np.intp)
    blk = np.asarray(block, dtype=np.intp)

    # Per-option tables; the last column (⊥) costs nothing. An option keeps
    # the edge constraint only at one hop from its source.
    ec = np.zeros((length, npool + 1), dtype=np.int64)
    ec[:, :npool] = dist[blk[:, None], opts] != 1
    deform = np.zeros((length, npool + 1), dtype=np.int64)
    if done.src:
        d_src = dist[blk[:, None], done.src]
        d_img = dist[opts[:, None], done.img]
        deform[:, :npool] = _gaps(d_src[:, None, :], d_img[None, :, :], g.n).sum(axis=2)

    raw_ec, raw_def = done.raw_ec, done.raw_def
    if length > 1:
        d_opts = dist[opts[:, None], opts]
        pair = np.zeros((npool + 1, npool + 1), dtype=np.int64)
    for j in range(length):
        raw_ec += ec[j][cols[j]]
        raw_def += deform[j][cols[j]]
        for i in range(j):
            pair[:npool, :npool] = _gaps(dist[block[i], block[j]], d_opts, g.n)
            raw_def += pair[cols[i], cols[j]]

    raw_loss = done.raw_loss + bottoms.astype(np.int64)
    n1 = len(done.src) + done.raw_loss + length
    return cols, _weigh(p, n1, raw_loss, raw_ec, raw_def)[-1], raw_loss, raw_ec, raw_def


@dataclass
class SearchStats:
    """Instrumentation: candidate assignments scored inside minimize_s."""

    evaluations: int = 0
    calls: int = 0


def minimize_s(v1, v2, g, V1, V2, p: ScoreParams, stats: Optional[SearchStats] = None):
    """Greedy construction of an approximate translation with v1 ↦ v2.

    After pinning v1 ↦ v2, remaining sources are assigned in blocks of
    p.k_block, smallest vertex indices first; each round exhaustively tries
    every arrangement of unused targets (⊥ allowed) for the block and keeps
    the score minimizer over the assigned-so-far set. With k_block = |V1|
    the single round is an exhaustive search.

    A round scores its candidates through `_score_rows`: a cached index
    template of the rows, per-option cost tables gathered through it, and
    the raw sums of the committed assignment, carried from the previous
    round's chosen row. The returned score is `_weigh` over the final sums,
    equal to `relax.score` of the returned mapping.
    """
    V1 = sorted(set(V1))
    if v1 not in V1:
        raise ValueError("anchor source must belong to the support")
    targets = set(V2) | {v2}
    if stats is not None:
        stats.calls += 1

    done = _Committed([v1], [v2], 0, int(not g.has_edge(v1, v2)), 0)
    rest = [v for v in V1 if v != v1]
    for start in range(0, len(rest), p.k_block):
        block = rest[start : start + p.k_block]
        pool = sorted(targets.difference(done.img))
        cols, total, raw_loss, raw_ec, raw_def = _score_rows(g, p, done, block, pool)
        if stats is not None:
            stats.evaluations += len(total)
        best = int(np.argmin(total))
        for src, t in zip(block, cols[:, best]):
            if t < len(pool):  # index len(pool) is ⊥
                done.src.append(src)
                done.img.append(pool[t])
        done.raw_loss, done.raw_ec, done.raw_def = raw_loss[best], raw_ec[best], raw_def[best]

    image = dict.fromkeys([v1] + rest, BOTTOM)
    image.update(zip(done.src, done.img))
    total = _weigh(p, len(V1), done.raw_loss, done.raw_ec, done.raw_def)[-1]
    return Mapping(V1, sorted(targets), image), float(total)


@dataclass
class TranslationTrace:
    """Replayable record of a best-composition run."""

    found: bool
    steps: list  # of (Mapping, ScoreBreakdown)
    cumulative_score: float
    final_pair: Optional[tuple]
    params: ScoreParams
    v_src: int
    v_tgt: int
    seed: Optional[int] = None
    graph_ref: Optional[str] = None

    def composed(self):
        """Net mapping from the initial support, folding all steps in order."""
        if not self.steps:
            return None
        acc = self.steps[0][0]
        for m, _ in self.steps[1:]:
            acc = mp.compose(m, acc)
        return acc

    def to_json_dict(self):
        pair = None
        if self.final_pair is not None:
            pair = {"loss_ratio": self.final_pair[0], "snp_ratio": self.final_pair[1]}
        return {
            "graph": self.graph_ref,
            "found": self.found,
            "src": self.v_src,
            "tgt": self.v_tgt,
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "gamma": self.params.gamma,
                "k": self.params.k_block,
                "seed": self.seed,
            },
            "steps": [
                {"mapping": m.to_json_dict(), "score": b.to_json_dict()}
                for m, b in self.steps
            ],
            "cumulative_score": self.cumulative_score,
            "pair": pair,
        }


def expand_support(g, support, hops=1):
    """Support plus every vertex within the given hop count of it.

    Raises ValueError for a support vertex outside 1..n.
    """
    for v in support:
        g._check_vertex(v)
    out = set(support)
    frontier = set(support)
    for _ in range(hops):
        frontier = {w for v in frontier for w in g.neighbors(v)} - out
        out |= frontier
    return out


def localized_sets(g, x):
    """Support of a signal and the per-step target-set rule for it.

    Returns (V1, expand) where expand(support) adds the 1-hop frontier.
    A disconnected support is allowed but warned about: the search then
    moves each fragment through whatever frontier it happens to share.
    """
    support = {v for v in g.vertices if x[v - 1] != 0}
    if not support:
        raise ValueError("signal support is empty")
    if not _induced_connected(g, support):
        warnings.warn("signal support induces a disconnected subgraph")
    return support, lambda s: expand_support(g, s, 1)


def _induced_connected(g, vs):
    vs = set(vs)
    seen = {min(vs)}
    stack = [min(vs)]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def best_composition(
    g,
    V1_init,
    v_src,
    v_tgt,
    p: ScoreParams,
    hops=1,
    stats: Optional[SearchStats] = None,
    seed=None,
    graph_ref=None,
) -> TranslationTrace:
    """Chain approximate translations from v_src to v_tgt at a low total score.

    A heuristic over anchors: a Dijkstra queue keyed by accumulated score
    settles each anchor vertex once, with the support its first chain
    carries, and expands it to the unvisited vertices of that support's
    hop-frontier via minimize_s. A step's cost depends on the carried
    support, so the chain found need not be the cheapest one (a brute-force
    chain oracle in the tests pins such a gap). Ties in the queue break on
    (score, vertex index, insertion order).
    """
    V1_init = frozenset(V1_init)
    if v_src not in V1_init:
        raise ValueError("v_src must belong to the initial support")
    g._check_vertex(v_tgt)

    visited = set()
    predecessors = {}
    counter = itertools.count()
    queue = [(0.0, v_src, next(counter), None, None, V1_init)]
    settled_target = False
    while queue:
        total, v1, _, pred, step_map, support = heapq.heappop(queue)
        if v1 in visited:
            continue
        visited.add(v1)
        predecessors[v1] = (pred, step_map, total)
        if v1 == v_tgt:
            settled_target = True
            break
        if step_map is not None:
            support = frozenset(step_map.image_set)
        V2 = expand_support(g, support, hops)
        for v2 in sorted(V2 - {v1}):
            if v2 in visited:
                continue
            m, s = minimize_s(v1, v2, g, sorted(support), V2, p, stats=stats)
            heapq.heappush(queue, (total + s, v2, next(counter), v1, m, support))

    if not settled_target:
        return TranslationTrace(
            False, [], math.inf, None, p, v_src, v_tgt, seed, graph_ref
        )

    chain = []
    v = v_tgt
    while v != v_src:
        pred, step_map, _ = predecessors[v]
        chain.append(step_map)
        v = pred
    chain.reverse()

    steps = [(m, score(g, m, p)) for m in chain]
    cumulative = composition_score(b for _, b in steps)
    trace = TranslationTrace(True, steps, cumulative, None, p, v_src, v_tgt, seed, graph_ref)
    composed = trace.composed() or Mapping(V1_init, V1_init, {v: v for v in V1_init})
    trace.final_pair = evaluation_pair(g, composed)
    return trace


DEFAULT_WEIGHTS = (0.1, 0.5, 1.0)
DEFAULT_BLOCKS = (1, 2, 3)


def default_grid():
    return [
        (a, b, c, k)
        for a in DEFAULT_WEIGHTS
        for b in DEFAULT_WEIGHTS
        for c in DEFAULT_WEIGHTS
        for k in DEFAULT_BLOCKS
    ]


@dataclass
class SweepRecord:
    alpha: float
    beta: float
    gamma: float
    k: int
    found: bool
    loss_ratio: Optional[float]
    snp_ratio: Optional[float]
    score: float
    steps: int
    pareto: bool = False
    trace: Optional[TranslationTrace] = None


def parameter_sweep(g, x, v_src, v_tgt, grid=None, hops=1, seed=None) -> list:
    """Run best_composition for every parameter cell; flag the Pareto rows.

    Cells run one after another in grid order, and records come back in
    that order.
    """
    grid = list(grid) if grid is not None else default_grid()
    V1, _ = localized_sets(g, x)
    if v_src not in V1:
        raise ValueError("v_src must carry signal")
    traces = [
        best_composition(g, V1, v_src, v_tgt, ScoreParams(a, b, c, k), hops=hops, seed=seed)
        for a, b, c, k in grid
    ]

    records = []
    for (a, b, c, k), tr in zip(grid, traces):
        lr, sr = (tr.final_pair if tr.found else (None, None))
        records.append(
            SweepRecord(a, b, c, k, tr.found, lr, sr, tr.cumulative_score,
                        len(tr.steps), trace=tr)
        )
    front = pareto_front(
        [(r.loss_ratio, r.snp_ratio, i) for i, r in enumerate(records) if r.found]
    )
    for _, _, i in front:
        records[i].pareto = True
    return records
