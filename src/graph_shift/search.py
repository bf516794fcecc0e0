"""Best-composition search for moving a signal support across a graph.

Two layers: a greedy K-block assignment heuristic that builds one
approximate translation between anchor vertices (`minimize_s`), and a
Dijkstra-style search over anchors that chains such steps from a source
to a target vertex (`best_composition`), keyed by accumulated score.
Each anchor-queue entry carries its chain's (mapping, breakdown) steps up
to its last anchor and the kernel's record of its last step (score, picks
and raw sums), built into a step only when the entry settles its anchor;
so the chain found is neither walked back nor scored again, and a chain
that is never popped costs no mapping.

One kernel, `_minimize_batch`, builds every greedy step. Expanding an
anchor builds one chain per unvisited v2, and the chains share the
support, its order and the targets, so one kernel call builds them all.
Each chain brings its own weights: chains that share one ScoreParams are
weighed by its scalars, mixed ones by per-chain weight arrays, whose
elementwise float64 products give the same bits.
A round assigns a block of L sources; its rows are the flat product of L
option axes over the sorted targets, then ⊥. Rows where a chain reuses a
target, or two positions take the same one, are not candidates, and each
chain picks the first minimizer of its candidates in product order.
`relax._weigh`, the expression behind `relax.score`, weighs rows and
steps, so the numbers agree. A one-source round has |targets| + 1 rows,
nearly all distinct: it is weighed densely, with a chain's used targets
masked to +inf, and one `np.argmin` per chain picks.

A round of two or more sources has (|targets| + 1)^L rows but far fewer
distinct raw-sum triples. Its raw sums depend on the chain's committed
assignment, the block and the targets; the weights enter only through
the argmin. So each chain's round is weighed from an entry that keeps
each distinct (raw_loss, raw_ec, raw_def) triple of its candidates with
its first row, in first-row order. A row's triple, less the chain's
committed sums, is written as one int64 key in base L + 1: deformation,
then edge-constraint sum, then ⊥ count. Its ⊥ count, its edge-constraint
sum and its deformation within the block are the same for every chain,
so they are packed once per round (`_round_key`); each chain that fills
an entry adds only its own deformation rows (`_distinct_rows`). One rule
drops the rows a chain cannot take: a key at or above a bound S is no
candidate. A used target adds S, and two positions on one target add a
pair term above every candidate's deformation, which puts the key at or
above S. Each entry keeps the first row of each key below S, through a
table indexed by key when the keys are few, and a sort otherwise. No
dense raw sums are built. A row's total is a function of its triple, so
for any weights the first minimum over the entry sits at the first
minimum over all rows: outputs stay bit-identical. Every chain of the
round is weighed from its entry in one `_weigh` call over the entries
laid end to end; each chain takes the first index of its own segment
that holds the segment's minimum (`np.minimum.reduceat`), so no sort is
needed. A lone search keeps an entry for its round only.

A parameter sweep runs the cells of one block size in lockstep
(`_best_compositions`): on each tick every live cell settles one anchor,
and the cells that expand the same anchor with the same support, hence
the same targets, hand all their chains to one kernel call. The cells
also share rounds: a lockstep of two or more cells keeps its entries in a
round cache, keyed per chain by its committed assignment, block and
targets, for the whole lockstep search, one block size of the sweep. The
chains of one call that share a key fill its entry once.
"""

from __future__ import annotations

import heapq
import itertools
import math
import types
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mapping as mp
from .graph import _check_int, _walk
from .mapping import BOTTOM, Mapping, _gaps
from .relax import ScoreBreakdown, ScoreParams, _weigh, evaluation_pair, pareto_front


def _outer(tables):
    """Sums over the product of option axes, table j on axis j, flat in C order."""
    out = tables[0]
    for t in tables[1:]:
        out = np.add.outer(out, t).ravel()
    return out


def _round_key(ec, between, top):
    """The part of a cached round's row keys that every chain of the round shares, and the bound S.

    `ec` holds the block's L edge-constraint flags, 0 or 1, over the options
    (the targets, then ⊥, whose flag is 0); `between` holds the deformation
    within the block over their product, plus `top` for each pair of
    positions on one target, and `top` is above every candidate's
    deformation. A row's key writes its deformation d, its edge-constraint
    sum e ≤ L and its ⊥ count b ≤ L in base L + 1, d·(L + 1)² + e·(L + 1) + b;
    this part holds all of it but the chain's own deformation. A key at or
    above S = top·(L + 1)² is no candidate, so a row that repeats a target
    is none. Returns (shared part, S).
    """
    L = len(ec)
    unary = ec * (L + 1)
    unary[:, -1] = 1
    return between.ravel() * (L + 1) ** 2 + _outer(unary), top * (L + 1) ** 2


#: `_distinct_rows` uses a table indexed by key when the keys span at most
#: this many values per row, and a sort otherwise.
_KEY_SPAN_PER_ROW = 4
_INT32_MAX = np.iinfo(np.int32).max


def _distinct_rows(round_key, deform, used, sums):
    """A chain's cache entry: each distinct raw-sum triple of its round's candidates, with its first row.

    `round_key` is the round's `_round_key`; `deform` holds the chain's L
    deformation rows over the options, `used` its used options and `sums`
    its committed (loss, ec, def) sums. A row's key adds the chain's
    deformation times (L + 1)² at each position, or S at a used target, to
    the shared part, and the candidates are the keys below S. The shared
    part is below (C(L, 2) + 1)·S and each of the L others at most S, so a
    key is below (C(L, 2) + L + 1)·S, far inside int64: top is at most
    (L·|V1| + C(L, 2))·n + 1 with n < 2^14, and (targets + 1)^L rows must
    fit in memory. When the candidates' keys span few values per row, as on
    small graphs, a table indexed by key keeps each key's first candidate
    (`np.minimum.at`) and only those rows are sorted; wider keys, as
    deformation grows with the graph, go through `np.unique`'s stable sort
    in the narrowest unsigned dtype (a radix sort up to 16 bits). Returns
    one array with a column per distinct triple, in first-row order:
    raw_loss, raw_ec, raw_def and first row, as int32 where the values fit
    (half the cache's memory).
    """
    shared, bound = round_key
    base = len(deform) + 1
    parts = deform * base**2
    parts[:, used] = bound
    key = _outer(parts)
    key += shared
    rows = np.flatnonzero(key < bound)
    cand = key[rows]
    least = int(cand.min())
    span = int(cand.max()) - least + 1
    cand -= least
    if span <= _KEY_SPAN_PER_ROW * len(key):
        table = np.full(span, len(key))
        np.minimum.at(table, cand, rows)
        first = np.sort(table[table < len(key)])
    else:
        _, at = np.unique(cand.astype(np.min_scalar_type(span - 1)), return_index=True)
        first = np.sort(rows[at])
    # Read each first row's key digits, then add the chain's committed sums.
    rest, bottoms = np.divmod(key[first], base)
    deformation, ec = np.divmod(rest, base)
    out = np.array((sums[0] + bottoms, sums[1] + ec, sums[2] + deformation, first))
    return out.astype(np.int32) if out.max() <= _INT32_MAX else out


@dataclass
class SearchStats:
    """Instrumentation of the greedy steps and the anchor queue.

    `calls` counts greedy chains built (one per v2 the kernel is given),
    `evaluations` the candidate rows their rounds considered (a chain's
    masked rows are not candidates), `rows_computed` the candidate rows
    whose raw sums or keys were built, and `round_hits` the chains' rounds
    read from a sweep's round cache instead (rounds of two or more sources;
    their rows count as considered, not computed). `pushes`,
    `stale_pops` and `settled` count best_composition's queue entries
    pushed, popped for an anchor already settled, and anchors settled.
    `kernel_calls` counts the anchor search's calls of the greedy kernel,
    however many chunks it splits its chains into: one per expanded anchor
    in a lone search, one per shared expansion in a sweep; minimize_s
    counts none.
    """

    evaluations: int = 0
    calls: int = 0
    rows_computed: int = 0
    round_hits: int = 0
    pushes: int = 0
    stale_pops: int = 0
    settled: int = 0
    kernel_calls: int = 0


#: Cells a kernel call's deformation tables may take, sources × (targets + 1)
#: per chain: a call whose chains exceed it splits them into chunks that fit,
#: so a one-source round's dense rows, (targets + 1) per chain, fit it too.
_BATCH_CELLS = 1 << 14


def _minimize_batch(v1, v2s, g, V1, V2, ps, stats: Optional[SearchStats] = None, rounds=None):
    """minimize_s for each v2 in v2s, weighed by its own ScoreParams in ps: a list of (total, row, raw).

    Every chain pins v1 -> v2 and then assigns the other support vertices
    in ascending order, up to k_block per round, each block to the first
    minimizer over arrangements of its unused targets and ⊥ (module
    docstring); each equals a lone minimize_s call. `row` holds the images
    of V1's other vertices in order (0 for ⊥), `raw` the (loss, ec, def)
    sums, and `total` the score, bit for bit that of the step `_step`
    builds from them. The caller guarantees valid vertices: V1 is the
    sorted support and holds v1, V2 is the target set, every pin in v2s is
    a target, and ps share one k_block. A round of two or more sources
    weighs each chain from its entry, `_distinct_rows` of its candidates by
    flat product index, filled once per entry key. `rounds` is a lockstep's
    round cache: a dict from a chain's round (anchor, block, targets,
    committed sources, pin and picks, as bytes; the pin and picks fix the
    used targets) to its entry. Without it, each chain fills its own entry,
    kept for the round only. The result is the same either way.
    """
    if not v2s:
        return []
    rest = [v for v in V1 if v != v1]
    T = sorted(V2)
    nt, nc = len(T), len(v2s)
    step = max(1, _BATCH_CELLS // ((nt + 1) * max(1, len(rest))))
    if nc > step:
        out = []
        for lo in range(0, nc, step):
            out += _minimize_batch(v1, v2s[lo : lo + step], g, V1, V2, ps[lo : lo + step], stats, rounds)
        return out

    p, W = ps[0], None
    if any(q is not p for q in ps):
        W = np.array([(q.alpha, q.beta, q.gamma) for q in ps]).T

    def weights(at):  # for _weigh: p's scalars, or the weights of the chains at `at`, shaped like it
        return p if W is None else types.SimpleNamespace(alpha=W[0][at], beta=W[1][at], gamma=W[2][at])

    dist = g.distance_matrix()
    tg, rs, pins = (np.array(vs, dtype=np.intp) for vs in (T, rest, v2s))
    chains = np.arange(nc)
    # Option columns: the targets in sorted order, then ⊥ (column nt), which
    # costs nothing. d_opt's ⊥ row is never read unmasked.
    bottom = np.arange(nt + 1) == nt
    ec = np.zeros((len(rest), nt + 1), dtype=np.int64)
    ec[:, :nt] = dist[rs[:, None], tg] != 1
    d_opt = np.zeros((nt + 1, nt), dtype=np.int64)
    d_opt[:nt] = dist[tg[:, None], tg]
    d_rest = dist[rs[:, None], rs]
    deform = np.zeros((len(rest), nc, nt + 1), dtype=np.int64)
    deform[:, :, :nt] = _gaps(dist[rs, v1][:, None, None], dist[pins[:, None], tg], g.n)
    # A chain may take each target but its own v2 once; ⊥ always stays open.
    used = np.zeros((nc, nt + 1), dtype=bool)
    used[chains, np.searchsorted(tg, pins)] = True

    loss = np.zeros(nc, dtype=np.int64)
    ec_sum = (dist[v1, pins] != 1).astype(np.int64)
    def_sum = np.zeros(nc, dtype=np.int64)
    picks = np.empty((len(rest), nc), dtype=np.intp)
    for start in range(0, len(rest), p.k_block):
        L = min(p.k_block, len(rest) - start)
        n1, shape = start + L + 1, (nt + 1,) * L
        todo = chains
        if L > 1:
            # Each chain's entry: in the lockstep's cache under its round's key,
            # else in a dict for this round only, under its index.
            keys, entries = range(nc), {}
            if rounds is not None:
                head = np.array([v1, start, L, nt, *T, *rest[: start + L]], dtype=np.int32).tobytes()
                state = np.vstack((pins, picks[:start])).T.astype(np.int32)
                keys, entries = [head + s.tobytes() for s in state], rounds
            missed = {}
            for c, key in enumerate(keys):
                if key not in entries:
                    missed.setdefault(key, c)
            todo = np.array(list(missed.values()), dtype=np.intp)
        if stats is not None:
            # A chain's candidates: j of the L sources on distinct free targets, the rest on ⊥.
            free = nt - np.count_nonzero(used, axis=1)
            rows = sum(math.comb(L, j) * math.prod(free - i for i in range(j)) for j in range(L + 1))
            stats.evaluations += int(rows.sum())
            stats.round_hits += nc - len(todo)
            stats.rows_computed += int(rows[todo].sum())

        if L == 1:
            # Dense raw sums: a chain's committed sums plus the source's own tables.
            raw_loss = loss[:, None] + bottom
            raw_ec = ec_sum[:, None] + ec[start]
            raw_def = def_sum[:, None] + deform[start]
            total = _weigh(weights(chains[:, None]), n1, raw_loss, raw_ec, raw_def)[-1]
            total[used] = np.inf
            best = total.argmin(axis=1)
            loss, ec_sum, def_sum = raw_loss[chains, best], raw_ec[chains, best], raw_def[chains, best]
        else:
            # Each missed chain adds its own deformation to the round's shared key.
            if len(todo):
                # A candidate's deformation sums at most len(rest) gaps per position and one
                # per pair, each at most n, so it is below top, which a shared target adds.
                top = (L * len(rest) + math.comb(L, 2)) * g.n + 1
                diagonal = np.diag(np.where(bottom, 0, top))
                between = np.zeros(shape, dtype=np.int64)
                for i, j in itertools.combinations(range(L), 2):
                    pair = diagonal.copy()
                    pair[:nt, :nt] += _gaps(d_rest[start + i, start + j], d_opt[:nt], g.n)
                    between += pair.reshape([nt + 1 if x in (i, j) else 1 for x in range(L)])
                round_key = _round_key(ec[start : start + L], between, top)
                for c in todo:
                    own = deform[start : start + L, c]
                    entries[keys[c]] = _distinct_rows(round_key, own, used[c], (loss[c], ec_sum[c], def_sum[c]))
            # Every chain's entry, weighed at once as one pool of segments;
            # each chain takes the first pool index holding its segment's minimum.
            pooled = [entries[key] for key in keys]
            sizes = np.array([entry.shape[1] for entry in pooled])
            starts = np.cumsum(sizes) - sizes
            pool = np.concatenate(pooled, axis=1)
            total = _weigh(weights(np.repeat(chains, sizes)), n1, *pool[:3])[-1]
            hits = np.flatnonzero(total == np.repeat(np.minimum.reduceat(total, starts), sizes))
            first = hits[np.searchsorted(hits, starts)]
            best = pool[3, first]
            loss[:], ec_sum[:], def_sum[:] = pool[:3, first]

        opts = np.unravel_index(best, shape)
        for j, o in enumerate(opts, start):
            picks[j] = o
            mapped = o < nt
            used[chains, o] = mapped
            if start + L < len(rest):
                gaps = _gaps(d_rest[start + L :, j, None, None], d_opt[o], g.n)
                deform[start + L :, :, :nt] += gaps * mapped[:, None]
    if stats is not None:
        stats.calls += nc

    totals = _weigh(weights(chains), len(V1), loss, ec_sum, def_sum)[-1]
    rows = np.append(tg, 0)[picks].T.tolist()
    return list(zip(totals.tolist(), rows, zip(loss.tolist(), ec_sum.tolist(), def_sum.tolist())))


def _step(v1, v2, V1, V2, row, raw, p):
    """The (mapping, breakdown) of a `_minimize_batch` chain v1 -> v2 from its row and raw sums.

    V1 is the sorted support the kernel took and V2 the frozenset of targets, v2 among them.
    The breakdown is `_weigh` over the raw sums as Python ints, equal in
    every field to `relax.score` of the mapping.
    """
    at = {v: i for i, v in enumerate(V1)}
    image = [w or BOTTOM for w in row]
    image.insert(at[v1], v2)
    return Mapping._trusted(frozenset(V1), V2, at, tuple(image)), ScoreBreakdown(*_weigh(p, len(V1), *raw), *raw)


def minimize_s(v1, v2, g, V1, V2, p: ScoreParams, stats: Optional[SearchStats] = None):
    """Greedy construction of an approximate translation with v1 ↦ v2.

    After pinning v1 ↦ v2, remaining sources are assigned in blocks of
    p.k_block, smallest vertex indices first; each round exhaustively tries
    every arrangement of unused targets (⊥ allowed) for the block and keeps
    the first score minimizer over the assigned-so-far set. With k_block ≥
    |V1| − 1 the single round is an exhaustive search. v2 joins the
    targets V2 if it is not among them. Raises ValueError if v1 is not in
    V1, or if v2 or a vertex of V1 or V2 is not an integer in 1..n.

    This is the greedy kernel `_minimize_batch` on one chain. Returns
    (mapping, breakdown): the breakdown is `_weigh` over the final raw sums
    as Python ints, equal in every field to `relax.score` of the mapping.
    """
    V1, V2 = (frozenset(g._check_vertex(v) for v in vs) for vs in (V1, V2))
    v1, v2 = g._check_vertex(v1), g._check_vertex(v2)
    if v1 not in V1:
        raise ValueError("anchor source must belong to the support")
    V1, V2 = sorted(V1), V2 | {v2}
    _, row, raw = _minimize_batch(v1, [v2], g, V1, V2, [p], stats)[0]
    return _step(v1, v2, V1, V2, row, raw, p)


@dataclass
class TranslationTrace:
    """Replayable record of a best-composition run; the CLI sets `graph_ref`, its graph file.

    `cumulative_score` is the anchor-queue key the target was popped with:
    the sum of the step totals, the integer 0 for the empty chain, or inf.
    """

    found: bool
    steps: list  # of (Mapping, ScoreBreakdown)
    cumulative_score: float
    final_pair: Optional[tuple]
    params: ScoreParams
    v_src: int
    v_tgt: int
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

    Raises ValueError unless hops is a non-negative integer and every
    support vertex an integer in 1..n.
    """
    hops = _check_int(hops, "hops", 0)
    return _walk(g, {g._check_vertex(v) for v in support}, hops)[0]


def localized_sets(g, x):
    """Support of a signal, its nonzero vertices: the input the search functions take.

    A disconnected support is allowed but warned about: the search then
    moves each fragment through whatever frontier it happens to share.
    Raises ValueError unless x has one entry per vertex, one of them nonzero.
    """
    if len(x) != g.n:
        raise ValueError(f"signal has {len(x)} entries for {g.n} vertices")
    support = {v for v in g.vertices if x[v - 1] != 0}
    if not support:
        raise ValueError("signal support is empty")
    # Inside the support, every vertex connected to min(support) lies within len(support) hops.
    if _walk(g, {min(support)}, len(support), support)[0] != support:
        warnings.warn("signal support induces a disconnected subgraph")
    return support


def best_composition(
    g, V1_init, v_src, v_tgt, p: ScoreParams, hops=1, stats: Optional[SearchStats] = None
) -> TranslationTrace:
    """Chain approximate translations from v_src to v_tgt at a low total score.

    A heuristic over anchors: a Dijkstra queue keyed by accumulated score
    settles each anchor vertex once, with the support its first chain
    carries, and expands it to the unvisited vertices of that support's
    hop-frontier; one call of the greedy kernel `_minimize_batch` builds
    the steps to all of them, at every k_block. A queue entry carries the
    steps of its chain up to its last anchor and the kernel's record of its
    last step, which becomes a (mapping, breakdown) step only when the
    entry settles its anchor; the support is the last step's image set, or
    V1_init for the empty chain. A step's cost depends on the carried
    support, so the chain found need not be the cheapest one (a brute-force
    chain oracle in the tests pins such a gap). Ties in the queue break on
    (score, vertex index, insertion order). `stats`, if given, also counts
    the queue's pushes, stale pops and settled anchors.
    """
    return _best_compositions(g, V1_init, v_src, v_tgt, [p], hops, stats)[0]


def _best_compositions(g, V1_init, v_src, v_tgt, params, hops, stats):
    """best_composition for each of `params`, which share one k_block, run in lockstep: their traces.

    Each cell keeps its own queue and settled set, so each trace is that of
    a lone call. On each tick every live cell pops until it settles a fresh
    anchor or its target, or its queue runs dry. The pending expansions are
    then grouped by (anchor, support), which fix the target set, and each
    group's chains, over all its cells, go to one kernel call with each
    chain's weights. Two or more cells share a round cache; a lone cell
    would never read one, as it expands each anchor once with distinct pins.
    The support, v_src, v_tgt and hops are checked here, once.
    """
    V1_init = frozenset(g._check_vertex(v) for v in V1_init)
    hops = _check_int(hops, "hops", 0)
    v_src, v_tgt = g._check_vertex(v_src), g._check_vertex(v_tgt)
    if v_src not in V1_init:
        raise ValueError("v_src must belong to the initial support")

    # An entry is (key, anchor, count, steps, last), `last` the arguments of
    # `_step` but p for its last step, None for the empty chain. The key
    # starts from the int 0, as sum() does: it is the step totals' sum, bit for bit.
    # `count`, the anchors its cell had settled at the push, rises with each
    # expansion, whose entries have distinct anchors: it breaks ties in push order.
    queues = [[(0, v_src, 0, (), None)] for _ in params]
    visited = [set() for _ in params]
    rounds = {} if len(params) > 1 else None
    traces = [None] * len(params)
    if stats is not None:
        stats.pushes += len(params)
    live = range(len(params))
    while live:
        groups = {}
        for c in live:
            queue, p = queues[c], params[c]
            while queue:
                total, v1, _, steps, last = heapq.heappop(queue)
                if v1 not in visited[c]:
                    break
                if stats is not None:
                    stats.stale_pops += 1
            else:
                traces[c] = TranslationTrace(False, [], math.inf, None, p, v_src, v_tgt)
                continue
            visited[c].add(v1)
            if stats is not None:
                stats.settled += 1
            if last is not None:
                steps += (_step(*last, p),)
            if v1 == v_tgt:
                traces[c] = TranslationTrace(True, list(steps), total, None, p, v_src, v_tgt)
                composed = traces[c].composed() or Mapping(V1_init, V1_init, {v: v for v in V1_init})
                traces[c].final_pair = evaluation_pair(g, composed)
                continue
            support = tuple(sorted(steps[-1][0].image_set if steps else V1_init))
            groups.setdefault((v1, support), []).append((c, total, steps))
        for c in live:
            if traces[c] is not None:  # a finished cell frees its queue and settled set
                queues[c] = visited[c] = None
        live = [c for c in live if traces[c] is None]

        for (v1, support), cells in groups.items():
            V2 = frozenset(_walk(g, support, hops)[0])
            targets = sorted(V2 - {v1})
            chains = [(c, total, steps, v2) for c, total, steps in cells for v2 in targets if v2 not in visited[c]]
            v2s, ps = [v2 for *_, v2 in chains], [params[c] for c, *_ in chains]
            found = _minimize_batch(v1, v2s, g, support, V2, ps, stats, rounds)
            for (c, total, steps, v2), (step_total, row, raw) in zip(chains, found):
                last = v1, v2, support, V2, row, raw
                heapq.heappush(queues[c], (total + step_total, v2, len(visited[c]), steps, last))
            if stats is not None:
                stats.pushes += len(chains)
                stats.kernel_calls += 1
    return traces


DEFAULT_WEIGHTS = (0.1, 0.5, 1.0)
DEFAULT_BLOCKS = (1, 2, 3)


def parameter_sweep(g, support, v_src, v_tgt, grid=None, hops=1, stats: Optional[SearchStats] = None) -> list:
    """Run best_composition from `support` for every parameter cell, with its Pareto flag.

    Returns one (trace, on_front) pair per cell, in grid order; on_front
    says that the trace found a chain whose final (loss ratio, snp ratio)
    pair no other cell's pair dominates. The default grid is the 81 cells
    of DEFAULT_WEIGHTS cubed by DEFAULT_BLOCKS, k varying fastest. The
    cells of one block size k run as one lockstep search, so cells that
    expand the same anchor with the same support share one kernel call,
    and share one round cache (module docstring), dropped when the search
    ends: its cells differ only in their weights, which a greedy round
    reads only through its argmin. Every trace equals that of a lone
    best_composition call: its cumulative score is the queue key, its step
    totals summed, or the int 0 if v_src == v_tgt. `stats`, if given,
    accumulates over every cell.
    """
    grid = list(itertools.product(*[DEFAULT_WEIGHTS] * 3, DEFAULT_BLOCKS) if grid is None else grid)
    params = [ScoreParams(a, b, c, k) for a, b, c, k in grid]
    traces = [None] * len(grid)
    for k in dict.fromkeys(p.k_block for p in params):
        cells = [i for i, p in enumerate(params) if p.k_block == k]
        found = _best_compositions(g, support, v_src, v_tgt, [params[i] for i in cells], hops, stats)
        for i, trace in zip(cells, found):
            traces[i] = trace

    front = pareto_front([(*tr.final_pair, i) for i, tr in enumerate(traces) if tr.found])
    on_front = {i for _, _, i in front}
    return [(tr, i in on_front) for i, tr in enumerate(traces)]
