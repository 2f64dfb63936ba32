"""Command-line front end.

Subcommands::

    daf query  -k FILE -s {basic,spec,prio,shadow} [options] "O <formula>"
    daf query  -k FILE -s ... --queries FILE          # batch, one per line
    daf export -k FILE -s ... [--query "O f"] [--dot PATH] [--json PATH]

Exit codes: 0 success (with ``--exit-status``: derivable), 1 not
derivable (only with ``--exit-status``), 2 parse/validation error,
3 generation bound exceeded.  ``DAF_HARD_CAP`` overrides the default
universe cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Iterator, List, Optional

from .arguments import Argument, ArgumentUniverse, BoundExceeded, \
    GenerationConfig, enumerate_universe
from .attacks import AttackGraph, Variant, build_attack_graph
from .consequence import Verdict, entails, evaluate_graph, \
    fast_basic_verdicts
from .formulas import Formula, ParseError, render
from .grounded import AbstractFramework, ExtensionResult
from .kb import KbOptions, KnowledgeBase, ValidationError, parse_kb, \
    parse_query

__all__ = ["main", "run_queries", "export_graph", "framework_from_json"]

_EDGE_COLORS = {
    "fact": "firebrick",
    "conflict": "black",
    "specificity": "darkorange",
    "prioritized": "royalblue3",
    "shadow": "purple",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daf",
        description="Decide which all-things-considered obligations are "
        "detachable from facts, constraints, and conditional norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-k", "--kb", required=True, help="knowledge-base file")
        p.add_argument(
            "-s",
            "--semantics",
            default="basic",
            choices=[v.value for v in Variant],
        )
        p.add_argument(
            "--facts-settled",
            choices=["on", "off"],
            default="on",
            help="treat plain facts as settled (default on)",
        )
        p.add_argument("--arity", type=int, default=3,
                       help="max aggregate arity")
        p.add_argument("--rounds", type=int, default=2,
                       help="composition rounds")
        p.add_argument("--doubt-theta", type=int, default=3,
                       help="max doubt-witness size")
        p.add_argument("--hard-cap", type=int, default=None,
                       help="universe size cap (default 100000, or "
                       "DAF_HARD_CAP)")

    query = sub.add_parser("query", help="decide one or more queries")
    common(query)
    query.add_argument("-e", "--engine", choices=["fixpoint", "fast"],
                       default="fixpoint")
    query.add_argument("-o", "--output", choices=["text", "json"],
                       default="text")
    query.add_argument("--exit-status", action="store_true",
                       help="exit 0 iff derivable (all queries in batch)")
    query.add_argument("--queries", help="file with one query per line")
    query.add_argument("--dot", help="also dump the evaluated graph "
                       "(fixpoint engine, last query)")
    query.add_argument("query", nargs="?", help='query, e.g. "O q"')

    export = sub.add_parser("export", help="dump universe/graph/extension")
    common(export)
    export.add_argument("--query", help="optional query to inject as a "
                        "weakening target")
    export.add_argument("--dot", help="write a DOT graph here")
    export.add_argument("--json", dest="json_path",
                        help="write the JSON dump here")
    return parser


def _config_from_args(args) -> GenerationConfig:
    cap = args.hard_cap
    if cap is None:
        cap = int(os.environ.get("DAF_HARD_CAP", "100000"))
    return GenerationConfig(
        max_aggregate_arity=args.arity,
        build_rounds=args.rounds,
        max_doubt_theta=args.doubt_theta,
        hard_cap=cap,
    )


def _load_kb(args) -> KnowledgeBase:
    with open(args.kb, "r", encoding="utf-8") as handle:
        text = handle.read()
    options = KbOptions(facts_settled=(args.facts_settled == "on"))
    return parse_kb(text, options)


def _witness_tree(a: Argument, indent: str = "") -> List[str]:
    lines = [indent + a.describe()]
    for child in a.children:
        lines.extend(_witness_tree(child, indent + "  "))
    return lines


def _witness_json(a: Optional[Argument]):
    if a is None:
        return None
    return {
        "id": a.aid,
        "conclusion": render(a.conclusion),
        "rule": a.rule,
        "sequence": a.describe(),
    }


def run_queries(kb: KnowledgeBase, variant: Variant,
                queries: Iterable[Formula], cfg: GenerationConfig,
                engine: str) -> Iterator[Verdict]:
    """Evaluate queries in order with the selected engine; the fast
    engine decides chain acceptance once for the queries over the
    knowledge base's atoms."""
    if engine != "fast":
        return (entails(kb, variant, q, cfg) for q in queries)
    if variant != Variant.BASIC:
        raise ValidationError("the fast engine supports basic semantics "
                              "only")
    return fast_basic_verdicts(kb, queries)


def _emit_verdict(verdict: Verdict, output: str) -> None:
    if output == "json":
        record = {
            "query": render(verdict.query),
            "variant": verdict.variant.value,
            "engine": verdict.engine,
            "derivable": verdict.derivable,
            "categorical": verdict.categorical,
            "witness": _witness_json(verdict.witness),
            "universe_stats": dict(sorted(verdict.universe_stats.items())),
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(str(verdict))
        if verdict.witness is not None:
            print("witness:")
            for line in _witness_tree(verdict.witness, "  "):
                print(line)


def universe_to_json(u: ArgumentUniverse, graph: AttackGraph,
                     result: ExtensionResult) -> dict:
    """Deterministic JSON form of a universe, its attacks, and the
    grounded stages."""
    args_json = []
    for a in u.arguments:
        args_json.append({
            "id": a.aid,
            "conclusion": render(a.conclusion),
            "rule": a.rule,
            "children": [c.aid for c in a.children],
            "premises": [render(f) for f in a.premise_formulas],
            "cs": sorted(render(f) for f in a.cs),
            "uo": sorted(render(f) for f in a.uo),
            "support": sorted(render(f) for f in a.support),
        })
    return {
        "variant": graph.variant.value,
        "query": render(u.query) if u.query is not None else None,
        "arguments": args_json,
        "attacks": [
            {"from": src, "to": dst, "kind": kind.value}
            for src, dst, kind in graph.edges
        ],
        "grounded": sorted(result.grounded),
        "stages": [sorted(s) for s in result.stages],
    }


def framework_from_json(record: dict) -> AbstractFramework:
    """Rebuild the abstract skeleton of a JSON dump (round-trip check)."""
    nodes = tuple(a["id"] for a in record["arguments"])
    attacks = tuple(
        sorted({(e["from"], e["to"]) for e in record["attacks"]})
    )
    return AbstractFramework(nodes, attacks)


def graph_to_dot(u: ArgumentUniverse, graph: AttackGraph,
                 result: ExtensionResult) -> str:
    """DOT rendering: attack arrows colored per kind, dashed undirected
    lines for proper-subargument pairs, doubled borders on grounded
    nodes.  Canonically ordered, byte-stable across runs."""
    lines = ["digraph daf {", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];']
    for a in u.arguments:
        label = f"a{a.aid}\\n{render(a.conclusion)}"
        peripheries = 2 if a.aid in result.grounded else 1
        lines.append(
            f'  a{a.aid} [label="{label}", peripheries={peripheries}];'
        )
    for src, dst, kind in graph.edges:
        color = _EDGE_COLORS[kind.value]
        lines.append(f"  a{src} -> a{dst} [color={color}];")
    nested = sorted(
        (min(a.aid, s.aid), max(a.aid, s.aid))
        for a in u.arguments
        for s in u.superarguments(a)
    )
    for low, high in nested:
        lines.append(
            f"  a{low} -> a{high} "
            "[style=dashed, dir=none, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(kb: KnowledgeBase, variant: Variant,
                 cfg: GenerationConfig, query: Optional[Formula] = None):
    """Build universe, graph, and grounded extension for exporting."""
    universe = enumerate_universe(
        kb, cfg, query=query, with_doubt=(variant == Variant.SHADOW)
    )
    graph = build_attack_graph(kb, universe, variant)
    result = evaluate_graph(graph)
    return universe, graph, result


def _cmd_query(args) -> int:
    kb = _load_kb(args)
    cfg = _config_from_args(args)
    variant = Variant(args.semantics)
    texts: List[str] = []
    if args.queries:
        with open(args.queries, "r", encoding="utf-8") as handle:
            texts = [line.strip() for line in handle
                     if line.strip() and not line.strip().startswith("#")]
    if args.query:
        texts.append(args.query)
    if not texts:
        raise ValidationError("no query given (positional or --queries)")
    queries = [parse_query(text) for text in texts]
    all_derivable = True
    for verdict in run_queries(kb, variant, queries, cfg, args.engine):
        _emit_verdict(verdict, args.output)
        all_derivable = all_derivable and verdict.derivable
    if args.dot:
        if args.engine != "fixpoint":
            raise ValidationError("--dot needs the fixpoint engine")
        universe, graph, result = export_graph(kb, variant, cfg, queries[-1])
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(universe, graph, result))
    if args.exit_status:
        return 0 if all_derivable else 1
    return 0


def _cmd_export(args) -> int:
    kb = _load_kb(args)
    cfg = _config_from_args(args)
    variant = Variant(args.semantics)
    query = parse_query(args.query) if args.query else None
    universe, graph, result = export_graph(kb, variant, cfg, query)
    if args.json_path:
        record = universe_to_json(universe, graph, result)
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(universe, graph, result))
    if not args.json_path and not args.dot:
        record = universe_to_json(universe, graph, result)
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "query":
            return _cmd_query(args)
        return _cmd_export(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
