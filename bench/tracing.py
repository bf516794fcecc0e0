"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer` wraps the public functions of the graph_shift layer modules in
timed spans. A span's self time is its duration minus the time of wrapped
calls made inside it. Modules bind library names with ``from ... import``,
so a wrapper is installed on every graph_shift module that holds the original
function object, not only on the module that defines it. `remove` puts every
original back, so an untraced pass after it runs the unmodified program.

A few boundaries get more than a span:

- ``search.minimize_s`` is handed a ``SearchStats`` when its caller gave
  none, and the rows it scored are added up;
- ``Graph._distance_table`` is timed as BFS only on the call that builds the
  table, and counts sources and table bytes;
- ``Mapping.__init__`` and ``cli._atomic_write`` are counted, not timed;
- the precedence pairs of a minimality scan are counted from the loss
  histogram of its input, after the span ends.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Modules measured as layers, by their name in the package. `euclid` is
#: closed-form and cheap, so it is left unmeasured.
LAYERS = ("graph", "mapping", "enumeration", "relax", "search", "cli")

#: Public functions left unwrapped: `precedes` runs about 10^6 times per
#: census op and `distance_gap` once per vertex pair, so a wrapper would
#: cost more than the work it measures.
UNWRAPPED = {"precedes", "distance_gap"}

GENERATORS = ("make_complete", "make_grid", "make_random_geometric", "make_ring", "make_torus")
GRAPH_JSON = ("to_json_dict", "from_json_dict", "save", "load")


def _precedes_pairs(translations):
    """Pairs the precedence scan compares: (m, o) with loss(o) < loss(m)."""
    hist = Counter(m.loss() for m in translations)
    pairs = below = 0
    for loss in sorted(hist):
        pairs += hist[loss] * below
        below += hist[loss]
    return pairs


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.enabled = True
        self._open = []  # child time accumulated by each open span
        self._undo = []

    # -- installing -------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        mods = {layer: getattr(self.pkg, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    inner, after = self._hook(layer, name, fn)
                    wrappers[fn] = self._span(f"{layer}.{name}", inner, after)
        bindings = [self.pkg] + [m for m in vars(self.pkg).values() if inspect.ismodule(m)]
        for mod in bindings:
            if not mod.__name__.startswith(self.pkg.__name__):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

        graph_cls = mods["graph"].Graph
        self._set(graph_cls, "_distance_table", self._bfs(vars(graph_cls)["_distance_table"]))
        for name in GRAPH_JSON:
            attr = vars(graph_cls)[name]
            if isinstance(attr, classmethod):
                self._set(graph_cls, name, classmethod(self._span(f"graph.Graph.{name}", attr.__func__)))
            else:
                self._set(graph_cls, name, self._span(f"graph.Graph.{name}", attr))
        mapping_cls = mods["mapping"].Mapping
        self._set(mapping_cls, "__init__", self._counted("mapping.mappings_built", mapping_cls.__init__))
        self._set(mods["cli"], "_atomic_write", self._counted("cli.bytes_out", mods["cli"]._atomic_write,
                                                             lambda path, text: len(text.encode())))

    def remove(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    @contextmanager
    def installed(self):
        """Trace the calls made inside the block; counters add up across blocks."""
        self.install()
        try:
            yield
        finally:
            self.remove()

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without charging them to any layer."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- wrappers ---------------------------------------------------------

    def _span(self, key, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - child
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _counted(self, key, fn, amount=lambda *a, **k: 1):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[key] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _bfs(self, fn):
        span = self._span("graph.bfs", fn)

        @functools.wraps(fn)
        def _distance_table(graph):
            if not self.enabled or getattr(graph, "_dist", None) is not None:
                return fn(graph)
            table = span(graph)
            self.counts["graph.bfs_sources"] += graph.n
            self.counts["graph.dist_bytes"] += table.nbytes
            return table

        return _distance_table

    def _hook(self, layer, name, fn):
        """The function to wrap in a span, and the counter to run after it."""
        if (layer, name) == ("search", "minimize_s"):
            return self._with_search_stats(fn), None
        return fn, {
            ("search", "best_composition"): self._after_composition,
            ("enumeration", "enumerate_translations"): self._after_enumeration,
            ("enumeration", "minimal_translations"): self._after_minimality,
            ("enumeration", "pseudo_minimal_translations"): self._after_minimality,
        }.get((layer, name))

    def _with_search_stats(self, fn):
        sig = inspect.signature(fn)
        stats_cls = self.pkg.search.SearchStats

        @functools.wraps(fn)
        def minimize_s(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = stats_cls()
            before = stats.evaluations
            out = fn(*bound.args, **bound.kwargs)
            if self.enabled:
                self.counts["search.rows_scored"] += stats.evaluations - before
            return out

        return minimize_s

    def _after_composition(self, trace, args, kwargs):
        self.counts["search.chain_steps"] += len(trace.steps)

    def _after_enumeration(self, found, args, kwargs):
        self.counts["enumeration.translations"] += len(found)

    def _after_minimality(self, found, args, kwargs):
        translations = args[1] if len(args) > 1 else kwargs.get("translations")
        if translations is not None:
            self.counts["mapping.precedes_pairs"] += _precedes_pairs(translations)

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(t for key, t in self.self_time.items() if key.startswith(layer + "."))

    def table(self):
        """Per-span rows (key, calls, inclusive s, self s), busiest first."""
        rows = [(k, self.calls[k], self.total[k], self.self_time[k]) for k in self.calls]
        return sorted(rows, key=lambda r: -r[3])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead_ratio):
    """{name: (value, unit)} of the per-layer metrics in BENCHMARK.json."""
    rows = tr.counts["search.rows_scored"]
    ms_calls = tr.calls["search.minimize_s"]
    ms_self = tr.self_time["search.minimize_s"]
    search_s = tr.total["enumeration.enumerate_translations"]
    translations = tr.counts["enumeration.translations"]
    values = {
        "search.rows_scored": (rows, "count"),
        "search.rows_per_s": (_ratio(rows, ms_self), "1/s"),
        "search.rows_per_call": (_ratio(rows, ms_calls), "rows/call"),
        "search.minimize_s_calls": (ms_calls, "count"),
        "search.minimize_s_self_s": (ms_self, "s"),
        "search.dijkstra_self_s": (tr.self_time["search.best_composition"], "s"),
        "search.useful_ratio": (_ratio(tr.counts["search.chain_steps"], ms_calls), "ratio"),
        "relax.score_calls": (tr.calls["relax.score"], "count"),
        "relax.score_s": (tr.total["relax.score"], "s"),
        "relax.pareto_s": (tr.total["relax.pareto_front"], "s"),
        "enumeration.search_s": (search_s, "s"),
        "enumeration.translations": (translations, "count"),
        "enumeration.translations_per_s": (_ratio(translations, search_s), "1/s"),
        "enumeration.minimal_s": (
            tr.total["enumeration.minimal_translations"]
            + tr.total["enumeration.pseudo_minimal_translations"],
            "s",
        ),
        "mapping.precedes_pairs": (tr.counts["mapping.precedes_pairs"], "count"),
        "mapping.mappings_built": (tr.counts["mapping.mappings_built"], "count"),
        "mapping.self_s": (tr.layer_self_s("mapping"), "s"),
        "graph.gen_s": (sum(tr.total[f"graph.{name}"] for name in GENERATORS), "s"),
        "graph.bfs_s": (tr.total["graph.bfs"], "s"),
        "graph.bfs_sources": (tr.counts["graph.bfs_sources"], "count"),
        "graph.dist_bytes": (tr.counts["graph.dist_bytes"], "B"),
        "graph.json_s": (sum(tr.self_time[f"graph.Graph.{name}"] for name in GRAPH_JSON), "s"),
        "cli.self_s": (tr.layer_self_s("cli"), "s"),
        "cli.bytes_out": (tr.counts["cli.bytes_out"], "B"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return values
