"""Best-composition search for moving a signal support across a graph.

Two layers: a greedy K-block assignment heuristic that builds one
approximate translation between anchor vertices (`minimize_s`), and a
Dijkstra-style search over anchors that chains such steps from a source
to a target vertex (`best_composition`), keyed by accumulated score.

At k_block = 1 a round has one row per unused target plus ⊥, too few for
per-round numpy overhead to pay off chain by chain. But expanding an anchor
builds one chain per unvisited v2, and those chains share the support, its
order and the targets. So `_minimize_batch` runs them together: each round
is one (chains, options) array over the sorted targets and ⊥, a chain's
used targets masked to +inf before one `np.argmin` per row. A shared
edge-constraint table and a per-chain deformation table, grown by the
pairs each round commits, give the raw sums; `_weigh` turns them into the
same floats a lone chain gets, and masking keeps the order of the other
options, so each row picks the option a lone chain picks.

For larger blocks, candidate assignments inside a greedy round are scored
in bulk with numpy. The candidate rows of a round are a cached index
template into the round's options (free targets, then bottom). Each round
gathers small integer cost tables from the distance table: per block
position and option, the edge-constraint violation and the deformation
against the committed pairs, and per pair of block positions, the
deformation between their options. A row's raw sums are table lookups
through the template columns, added to the committed sums that carry over
from the previous round's chosen row. Rows and the finished step are
weighed by `relax._weigh`, the expression behind `relax.score`, so each
candidate is scored once and the numbers agree.
Each anchor-queue entry carries its chain of (mapping, breakdown) steps, so
the chain found is neither walked back nor scored again.

A parameter sweep shares greedy rounds across its weight cells. A round's
raw sums depend only on the committed assignment, the block and the pool;
the weights enter only through the final argmin. So `parameter_sweep`
hands `minimize_s` a private round cache keyed by those three. An entry
keeps each distinct (raw_loss, raw_ec, raw_def) triple of the round with its
first row, minus every triple that an earlier-first-row triple with the
same raw_loss bounds in both raw_ec and raw_def (`_argmin_candidates`).
Within a round the normalizers are fixed and float multiply and add are
monotone, so for non-negative weights a dropped triple never totals less
than the one bounding it and is never the first minimum. A later cell
weighs the kept triples only; `np.argmin` returns the first minimum, and
the kept triples are in first-row order, so it picks the row that scoring
every row would pick and outputs stay bit-identical. The cache lives for
one block size of the sweep: the cells of one k_block share their rounds,
cells of different k_block almost never do, and dropping the entries
between groups bounds the memory. Rounds of a one-vertex block are not
cached: they have only |pool| + 1 rows, nearly all distinct, so an entry
would cost more than it saves.
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
from .relax import ScoreBreakdown, ScoreParams, _weigh, composition_score, evaluation_pair, pareto_front


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

    def size(self):
        """Committed sources, mapped or sent to ⊥."""
        return len(self.src) + self.raw_loss


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
    n1 = done.size() + length
    return cols, _weigh(p, n1, raw_loss, raw_ec, raw_def)[-1], raw_loss, raw_ec, raw_def


def _argmin_candidates(raw_loss, raw_ec, raw_def):
    """The rows of a round that an argmin of `_weigh` totals can pick.

    Takes a round's per-row raw sums (int64, non-negative) and returns one
    array of shape (4, m): raw_loss, raw_ec, raw_def and first row of each
    kept triple, in first-row order, as int32 where the values fit (half
    the cache's memory). A triple is kept iff no triple with an earlier
    first row and the same raw_loss is no larger in both raw_ec and
    raw_def; for any non-negative weights, the first minimum of the kept
    triples' totals then sits at the first minimum of all rows'.
    """
    loss_base = int(raw_loss.max()) + 1
    ec_base = int(raw_ec.max()) + 1
    _, first = np.unique((raw_def * ec_base + raw_ec) * loss_base + raw_loss, return_index=True)
    first.sort()
    loss, ec, deform = raw_loss[first], raw_ec[first], raw_def[first]

    # bound[l, e, i]: least raw_def among triples before the i-th with loss
    # level l and ec level <= e (int64 max where there is none).
    lo, eo, m = loss - loss.min(), ec - ec.min(), len(first)
    bound = np.full((lo.max() + 1, eo.max() + 1, m + 1), np.iinfo(np.int64).max)
    bound[lo, eo, np.arange(1, m + 1)] = deform
    np.minimum.accumulate(bound, axis=2, out=bound)
    np.minimum.accumulate(bound, axis=1, out=bound)
    keep = bound[lo, eo, np.arange(m)] > deform
    out = np.stack((loss, ec, deform, first))[:, keep]
    return out.astype(np.int32) if out.max() <= np.iinfo(np.int32).max else out


@dataclass
class SearchStats:
    """Instrumentation of the greedy steps and the anchor queue.

    `calls` counts greedy chains built (one per minimize_s call or chain of
    a batched k=1 expansion), `evaluations` the candidate rows they
    considered, `rows_computed` the rows actually scored, and `round_hits`
    the greedy rounds read from a sweep's round cache instead (their rows
    count as considered, not computed). `pushes`, `stale_pops` and `settled`
    count best_composition's queue entries pushed, popped for an anchor
    already settled, and anchors settled.
    """

    evaluations: int = 0
    calls: int = 0
    rows_computed: int = 0
    round_hits: int = 0
    pushes: int = 0
    stale_pops: int = 0
    settled: int = 0


#: Cells of one batched k=1 deformation table, (chains, sources, options),
#: above which `_minimize_batch` splits its chains (8 MB of int64).
_BATCH_CELLS = 1 << 20


def _checked_support(g, v1, v2s, V1, V2):
    """Sorted support and target set; every vertex must be an integer in 1..n."""
    V1, V2 = set(V1), set(V2)
    for v in itertools.chain(V1, V2, v2s):
        g._check_vertex(v)
    if v1 not in V1:
        raise ValueError("anchor source must belong to the support")
    return sorted(V1), V2


def _minimize_batch(v1, v2s, g, V1, V2, p: ScoreParams, stats: Optional[SearchStats] = None):
    """minimize_s at k_block = 1 for each v2 in v2s: a list of (mapping, breakdown).

    Every chain pins v1 -> v2 and then assigns the other support vertices
    one per round, in ascending order, each to the first minimizer over its
    unused targets (V2 and its own v2) in sorted order, then ⊥. All chains
    run each round together as the rows of (chains, options) arrays whose
    columns are the sorted union of the targets and ⊥; a target a chain
    cannot use is masked to +inf before `np.argmin`, which leaves the order
    of the others unchanged. The edge-constraint table (sources, options)
    is shared; the deformation table (chains, sources, options) holds each
    later source's deformation against a chain's committed pairs and grows
    by the pairs each round commits. Raw sums are int64 and rows are
    weighed by `_weigh`, so every chain equals a lone minimize_s call.
    """
    V1, V2 = _checked_support(g, v1, v2s, V1, V2)
    if not v2s:
        return []
    rest = [v for v in V1 if v != v1]
    T = sorted(V2.union(v2s))
    nt, chains = len(T), np.arange(len(v2s))
    step = max(1, _BATCH_CELLS // (max(1, len(rest)) * (nt + 1)))
    if len(v2s) > step:
        return [
            out
            for start in range(0, len(v2s), step)
            for out in _minimize_batch(v1, v2s[start : start + step], g, V1, V2, p, stats)
        ]

    dist = g.distance_matrix()
    tg, rs, pins = (np.array(vs, dtype=np.intp) for vs in (T, rest, v2s))
    # Option columns: the targets in sorted order, then ⊥ (column nt), which
    # costs nothing. d_opt's ⊥ row is never read unmasked.
    ec = np.zeros((len(rest), nt + 1), dtype=np.int64)
    ec[:, :nt] = dist[rs[:, None], tg] != 1
    d_opt = np.zeros((nt + 1, nt), dtype=np.int64)
    d_opt[:nt] = dist[tg[:, None], tg]
    d_rest = dist[rs[:, None], rs]
    deform = np.zeros((len(v2s), len(rest), nt + 1), dtype=np.int64)
    deform[:, :, :nt] = _gaps(dist[rs, v1][None, :, None], dist[pins[:, None], tg][:, None, :], g.n)
    # A chain may take each target of V2 but its own v2 once; ⊥ always stays open.
    used = np.tile(np.array([t not in V2 for t in T] + [False]), (len(v2s), 1))
    used[chains, np.searchsorted(tg, pins)] = True
    bottom = np.zeros(nt + 1, dtype=np.int64)
    bottom[nt] = 1

    loss = np.zeros(len(v2s), dtype=np.int64)
    ec_sum = (dist[v1, pins] != 1).astype(np.int64)
    def_sum = np.zeros(len(v2s), dtype=np.int64)
    picks = np.empty((len(v2s), len(rest)), dtype=np.intp)
    for i in range(len(rest)):
        raw_loss = loss[:, None] + bottom
        raw_ec = ec_sum[:, None] + ec[i]
        raw_def = def_sum[:, None] + deform[:, i]
        total = _weigh(p, i + 2, raw_loss, raw_ec, raw_def)[-1]
        total[used] = np.inf
        best = total.argmin(axis=1)
        if stats is not None:
            rows = used.size - int(np.count_nonzero(used))
            stats.evaluations += rows
            stats.rows_computed += rows
        picks[:, i] = best
        loss, ec_sum, def_sum = raw_loss[chains, best], raw_ec[chains, best], raw_def[chains, best]
        mapped = best < nt
        used[chains, best] = mapped
        if i + 1 < len(rest):
            gaps = _gaps(d_rest[i + 1 :, i][None, :, None], d_opt[best][:, None, :], g.n)
            deform[:, i + 1 :, :nt] += gaps * mapped[:, None, None]
    if stats is not None:
        stats.calls += len(v2s)

    domain, V2 = frozenset(V1), frozenset(V2)
    out = []
    for v2, row, *raw in zip(v2s, picks.tolist(), loss.tolist(), ec_sum.tolist(), def_sum.tolist()):
        image = {v1: v2}
        image.update((s, T[t] if t < nt else BOTTOM) for s, t in zip(rest, row))
        codomain = V2 if v2 in V2 else V2 | {v2}
        m = Mapping._trusted(domain, codomain, image)
        out.append((m, ScoreBreakdown(*_weigh(p, len(V1), *raw), *raw)))
    return out


def minimize_s(
    v1, v2, g, V1, V2, p: ScoreParams, stats: Optional[SearchStats] = None, _rounds=None
):
    """Greedy construction of an approximate translation with v1 ↦ v2.

    After pinning v1 ↦ v2, remaining sources are assigned in blocks of
    p.k_block, smallest vertex indices first; each round exhaustively tries
    every arrangement of unused targets (⊥ allowed) for the block and keeps
    the score minimizer over the assigned-so-far set. With k_block ≥
    |V1| − 1 the single round is an exhaustive search. Raises ValueError
    if v1 is not in V1, or if v2 or a vertex of V1 or V2 is not an integer
    in 1..n.

    At k_block = 1 this is `_minimize_batch` on the one chain. Otherwise a
    round scores its candidates through `_score_rows`: a cached index
    template of the rows, per-option cost tables gathered through it, and
    the raw sums of the committed assignment, carried from the previous
    round's chosen row. Returns (mapping, breakdown): the breakdown is
    `_weigh` over the final sums as Python ints, equal in every field to
    `relax.score` of the mapping.

    `_rounds` is a sweep's private round cache (see the module docstring):
    a dict from the committed sources, images and raw_loss, the block and
    the pool, packed as int32 bytes, to `_argmin_candidates` of that round.
    Rounds of one-vertex blocks bypass it. The result is the same with or
    without it.
    """
    if p.k_block == 1:
        return _minimize_batch(v1, [v2], g, V1, V2, p, stats)[0]
    V1, targets = _checked_support(g, v1, [v2], V1, V2)
    targets.add(v2)
    if stats is not None:
        stats.calls += 1

    done = _Committed([v1], [v2], 0, int(not g.has_edge(v1, v2)), 0)
    rest = [v for v in V1 if v != v1]
    for start in range(0, len(rest), p.k_block):
        block = rest[start : start + p.k_block]
        pool = sorted(targets.difference(done.img))
        key = entry = None
        if _rounds is not None and len(block) > 1:
            key = np.array(
                [len(done.src), len(block), *done.src, *done.img, done.raw_loss, *block, *pool],
                dtype=np.int32,
            ).tobytes()
            entry = _rounds.get(key)
        if entry is None:
            cols, total, raw_loss, raw_ec, raw_def = _score_rows(g, p, done, block, pool)
            best = int(np.argmin(total))
            chosen = raw_loss[best], raw_ec[best], raw_def[best]
            if key is not None:
                _rounds[key] = _argmin_candidates(raw_loss, raw_ec, raw_def)
        else:
            cols, _ = _row_template(len(pool), len(block))
            j = int(np.argmin(_weigh(p, done.size() + len(block), *entry[:3])[-1]))
            best, chosen = entry[3, j], entry[:3, j]
        if stats is not None:
            stats.evaluations += cols.shape[1]
            if entry is None:
                stats.rows_computed += cols.shape[1]
            else:
                stats.round_hits += 1
        for src, t in zip(block, cols[:, best]):
            if t < len(pool):  # index len(pool) is ⊥
                done.src.append(src)
                done.img.append(pool[t])
        done.raw_loss, done.raw_ec, done.raw_def = chosen

    image = dict.fromkeys([v1] + rest, BOTTOM)
    image.update(zip(done.src, done.img))
    raw = int(done.raw_loss), int(done.raw_ec), int(done.raw_def)
    m = Mapping._trusted(frozenset(V1), frozenset(targets), image)
    return m, ScoreBreakdown(*_weigh(p, len(V1), *raw), *raw)


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

    Raises ValueError for a negative hop count or a support vertex outside 1..n.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    for v in support:
        g._check_vertex(v)
    out = set(support)
    frontier = set(support)
    for _ in range(hops):
        frontier = {w for v in frontier for w in g._adj[v]} - out
        out |= frontier
    return out


def localized_sets(g, x):
    """Support of a signal: the vertices where x is nonzero.

    A disconnected support is allowed but warned about: the search then
    moves each fragment through whatever frontier it happens to share.
    """
    support = {v for v in g.vertices if x[v - 1] != 0}
    if not support:
        raise ValueError("signal support is empty")
    if not _induced_connected(g, support):
        warnings.warn("signal support induces a disconnected subgraph")
    return support


def _induced_connected(g, vs):
    vs = set(vs)
    seen = {min(vs)}
    stack = [min(vs)]
    while stack:
        v = stack.pop()
        for w in g._adj[v]:
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
    _rounds=None,
) -> TranslationTrace:
    """Chain approximate translations from v_src to v_tgt at a low total score.

    A heuristic over anchors: a Dijkstra queue keyed by accumulated score
    settles each anchor vertex once, with the support its first chain
    carries, and expands it to the unvisited vertices of that support's
    hop-frontier via minimize_s; at k_block = 1 one `_minimize_batch`
    call builds the steps to all of them. Each queue entry carries its
    chain as the (mapping, breakdown) steps so far; the support is the last
    step's image set, or V1_init for the empty chain. A step's cost depends
    on the carried support, so the chain found need not be the cheapest one
    (a brute-force chain oracle in the tests pins such a gap). Ties in the
    queue break on (score, vertex index, insertion order). `stats`, if
    given, also counts the queue's pushes, stale pops and settled anchors.
    `_rounds` is a sweep's private round cache, handed to every minimize_s
    call.
    """
    V1_init = frozenset(V1_init)
    if hops < 0:
        raise ValueError("hops must be non-negative")
    if v_src not in V1_init:
        raise ValueError("v_src must belong to the initial support")
    g._check_vertex(v_tgt)

    visited = set()
    counter = itertools.count()
    queue = [(0.0, v_src, next(counter), ())]
    if stats is not None:
        stats.pushes += 1
    while queue:
        total, v1, _, steps = heapq.heappop(queue)
        if v1 in visited:
            if stats is not None:
                stats.stale_pops += 1
            continue
        visited.add(v1)
        if stats is not None:
            stats.settled += 1
        if v1 == v_tgt:
            cumulative = composition_score(b for _, b in steps)
            trace = TranslationTrace(True, list(steps), cumulative, None, p, v_src, v_tgt, seed, graph_ref)
            composed = trace.composed() or Mapping(V1_init, V1_init, {v: v for v in V1_init})
            trace.final_pair = evaluation_pair(g, composed)
            return trace
        support = sorted(steps[-1][0].image_set if steps else V1_init)
        V2 = expand_support(g, support, hops)
        v2s = [v2 for v2 in sorted(V2 - {v1}) if v2 not in visited]
        if p.k_block == 1:
            found = _minimize_batch(v1, v2s, g, support, V2, p, stats)
        else:
            found = (minimize_s(v1, v2, g, support, V2, p, stats, _rounds) for v2 in v2s)
        for v2, (m, b) in zip(v2s, found):
            heapq.heappush(queue, (total + b.total, v2, next(counter), steps + ((m, b),)))
        if stats is not None:
            stats.pushes += len(v2s)

    return TranslationTrace(False, [], math.inf, None, p, v_src, v_tgt, seed, graph_ref)


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


def parameter_sweep(
    g, x, v_src, v_tgt, grid=None, hops=1, seed=None, stats: Optional[SearchStats] = None
) -> list:
    """Run best_composition for every parameter cell; flag the Pareto rows.

    Cells are independent. They run grouped by block size k, in order of
    first appearance and in grid order within a group, and the records come
    back in grid order. Each group shares one round cache (module
    docstring): the cells of a k differ only in their weights, which a
    greedy round reads only through its argmin, so a round scored for one
    cell is weighed from its cached triples in the others. The cache is
    dropped when its group ends, so it holds one block size's rounds at a
    time, and one-vertex rounds are never cached. Every record and trace
    equals that of a lone best_composition call. `stats`, if given,
    accumulates over every cell.
    """
    grid = list(grid) if grid is not None else default_grid()
    params = [ScoreParams(a, b, c, k) for a, b, c, k in grid]
    V1 = localized_sets(g, x)
    if v_src not in V1:
        raise ValueError("v_src must carry signal")
    traces = [None] * len(grid)
    for k in dict.fromkeys(p.k_block for p in params):
        rounds = {}
        for i, p in enumerate(params):
            if p.k_block == k:
                traces[i] = best_composition(
                    g, V1, v_src, v_tgt, p, hops=hops, stats=stats, seed=seed, _rounds=rounds
                )

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
