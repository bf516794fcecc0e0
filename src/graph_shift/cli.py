"""Command-line front end: generators, enumeration, checks, search, sweeps.

Exit codes: 0 success, 2 invalid input, 3 search found nothing, 4 I/O error.
All outputs are deterministic for fixed flags and seed; files are written
atomically (temp file + rename) with sorted JSON keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .graph import (
    Graph,
    make_complete,
    make_grid,
    make_ring,
    make_random_geometric,
    make_torus,
)
from .mapping import BOTTOM, Mapping, property_report
from .enumeration import EnumerationFilter, enumerate_translations, minimal_translations
from .relax import ScoreParams
from .search import best_composition, expand_support, parameter_sweep

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_RESULT = 3
EXIT_IO = 4


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text):
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_ints(raw):
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def graph_to_dot(g, m=None):
    """DOT rendering: dotted base edges, solid arrows for a mapping,
    filled style for vertices whose image is bottom."""
    lines = ["digraph G {"]
    lost = set()
    if m is not None:
        lost = {v for v in m.domain if m(v) is BOTTOM}
    for v in g.vertices:
        style = ' [style=filled, fillcolor=gray]' if v in lost else ""
        lines.append(f"  {v}{style};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -> {v} [dir=none, style=dotted];")
    if m is not None:
        for v in sorted(m.domain):
            w = m(v)
            if w is not BOTTOM:
                lines.append(f"  {v} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


#: Flags each generator kind cannot run without.
GEN_REQUIRES = {
    "complete": ("n",),
    "ring": ("n",),
    "grid": ("dims",),
    "torus": ("dims",),
    "geometric": ("n", "r"),
}


def cmd_gen(args):
    kind = args.kind
    missing = [f"--{flag}" for flag in GEN_REQUIRES[kind] if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"gen {kind} needs {' and '.join(missing)}")
    if kind == "complete":
        g = make_complete(args.n)
    elif kind == "ring":
        g = make_ring(args.n)
    elif kind == "grid":
        g = make_grid(_parse_ints(args.dims))
    elif kind == "torus":
        g = make_torus(_parse_ints(args.dims))
    else:
        g = make_random_geometric(args.n, args.r, args.seed)
    _emit(args, _dumps(g.to_json_dict()))
    return EXIT_OK


def cmd_enumerate(args):
    g = Graph.load(args.graph)
    f = EnumerationFilter(
        lossless_only=args.lossless,
        max_loss=args.max_loss,
        require_image_set=frozenset(_parse_ints(args.image_set)) if args.image_set else None,
        restrict_domain=frozenset(_parse_ints(args.domain_set)) if args.domain_set else None,
    )
    found = enumerate_translations(g, f)
    if args.minimal:
        found = minimal_translations(g, found)
    body = "".join(_dumps(m.to_json_dict()) for m in found)
    _emit(args, body)
    summary = {"count": len(found), "losses": sorted(m.loss() for m in found)}
    sys.stderr.write(_dumps(summary))
    return EXIT_OK


def cmd_check(args):
    g = Graph.load(args.graph)
    m = Mapping.load(args.mapping)
    rep = property_report(g, m)
    if args.format == "dot":
        _emit(args, graph_to_dot(g, m))
    else:
        _emit(args, _dumps(rep.to_json_dict()))
    return EXIT_OK


def _score_params(args):
    return ScoreParams(args.alpha, args.beta, args.gamma, args.k)


def cmd_compose(args):
    if args.format == "dot" and not args.out:
        raise ValueError("--format dot writes one DOT file per step and needs --out")
    g = Graph.load(args.graph)
    support = (
        set(_parse_ints(args.domain_set))
        if args.domain_set
        else expand_support(g, {args.src}, 1)
    )
    trace = best_composition(
        g, support, args.src, args.tgt, _score_params(args),
        hops=args.hops, seed=args.seed, graph_ref=args.graph,
    )
    if not trace.found:
        sys.stderr.write("no composition found\n")
        return EXIT_NO_RESULT
    _emit(args, _dumps(trace.to_json_dict()))
    if args.format == "dot":
        stem = args.out.rsplit(".", 1)[0]
        for i, (m, _) in enumerate(trace.steps, start=1):
            _atomic_write(f"{stem}_step{i}.dot", graph_to_dot(g, m))
    return EXIT_OK


def cmd_sweep(args):
    g = Graph.load(args.graph)
    support = (
        set(_parse_ints(args.domain_set))
        if args.domain_set
        else expand_support(g, {args.src}, 1)
    )
    x = [1.0 if v in support else 0.0 for v in g.vertices]
    records = parameter_sweep(g, x, args.src, args.tgt, hops=args.hops, seed=args.seed)
    if not any(r.found for r in records):
        sys.stderr.write("no composition found\n")
        return EXIT_NO_RESULT
    header = "alpha,beta,gamma,K,loss_ratio,snp_ratio,score,steps,pareto"
    rows = [header]
    for r in records:
        lr = "" if r.loss_ratio is None else repr(r.loss_ratio)
        sr = "" if r.snp_ratio is None else repr(r.snp_ratio)
        rows.append(
            f"{r.alpha!r},{r.beta!r},{r.gamma!r},{r.k},{lr},{sr},"
            f"{r.score!r},{r.steps},{int(r.pareto)}"
        )
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="graph-shift",
        description="Neighborhood-preserving and approximate translations on graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common_out(p, *formats):
        p.add_argument("--out", default=None)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("kind", choices=["complete", "ring", "grid", "torus", "geometric"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--dims", default=None)
    p.add_argument("--seed", type=int, default=0)
    common_out(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enumerate", help="enumerate translations")
    p.add_argument("graph")
    p.add_argument("--lossless", action="store_true")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--max-loss", type=int, default=None)
    p.add_argument("--image-set", default=None)
    p.add_argument("--domain-set", default=None)
    common_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="property report for a mapping on a graph")
    p.add_argument("graph")
    p.add_argument("mapping")
    common_out(p, "json", "dot")
    p.set_defaults(func=cmd_check)

    def search_flags(p):
        p.add_argument("--src", type=int, required=True)
        p.add_argument("--tgt", type=int, required=True)
        p.add_argument("--domain-set", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--hops", type=int, default=1)

    p = sub.add_parser("compose", help="best composition of approximate translations")
    p.add_argument("graph")
    search_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1)
    common_out(p, "json", "dot")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("sweep", help="parameter sweep with Pareto report")
    p.add_argument("graph")
    search_flags(p)
    common_out(p, "csv")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
