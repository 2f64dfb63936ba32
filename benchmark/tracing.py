"""Span recorder and traced replays of the program's entry points.

A traced replay makes the same calls as ``daf.consequence.entails``,
``daf.consequence.evaluate_graph``, ``entails_fast_basic`` and the
``daf export`` command, in the same order, with a span around each call
into a layer.  ``KbEntailment`` is built inside ``enumerate_universe``
and inside the fast engine, so for the length of a replay the benchmark
swaps the name in those two modules for a subclass that records a span
and the size of the truth table.  Spans stay in memory; ``dump`` writes
them once, at the end of a run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

import daf.arguments
import daf.consequence
from daf.arguments import AGGREGATE, WEAKEN, GenerationConfig, \
    enumerate_universe
from daf.attacks import AttackKind, Variant, build_attack_graph
from daf.cli import graph_to_dot, universe_to_json
from daf.consequence import StageCollapseError, entails_fast_basic
from daf.entail import KbEntailment
from daf.formulas import conflicting, ob
from daf.grounded import AbstractFramework, grounded_extension
from daf.kb import parse_kb, parse_query

_CONFLICT_KINDS = (AttackKind.CONFLICT, AttackKind.SPECIFICITY,
                   AttackKind.PRIORITIZED)


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def parent_name(self) -> Optional[str]:
        return self.spans[self._open[-1]][0] if self._open else None

    def busy(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Dict[str, float]:
        """Per span name, the summed duration less the time its direct
        children cover (children never overlap: one thread)."""
        out = self.busy()
        for name, start, end, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def child_busy(self, child: str, parent: str) -> float:
        return sum(end - start for name, start, end, p in self.spans
                   if name == child and p is not None
                   and self.spans[p][0] == parent)

    def dump(self, path: str, extra: dict) -> None:
        record = dict(extra)
        record["self_s"] = dict(sorted(self.self_times().items()))
        record["counts"] = dict(sorted(self.counts.items()))
        record["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
            handle.write("\n")


@contextmanager
def entail_spans(tracer: Tracer):
    """Record a span per ``KbEntailment`` built by argument generation
    or the fast engine while the block runs."""

    class Traced(KbEntailment):
        def __init__(self, *args, **kwargs):
            parent = tracer.parent_name()
            with tracer.span("entail.context"):
                super().__init__(*args, **kwargs)
            tracer.counts["entail.table_rows"] += self.table.rows
            if parent == "consequence.fast":
                tracer.counts["consequence.settled_rows"] += bin(
                    self.settled_mask).count("1")

    daf.arguments.KbEntailment = Traced
    daf.consequence.KbEntailment = Traced
    try:
        yield
    finally:
        daf.arguments.KbEntailment = KbEntailment
        daf.consequence.KbEntailment = KbEntailment


def parse(tracer: Tracer, kb_text: str, query_text: str):
    with tracer.span("kb.parse"):
        kb = parse_kb(kb_text)
        query = parse_query(query_text)
    return kb, query


def evaluate_graph(tracer: Tracer, graph):
    """``daf.consequence.evaluate_graph`` with a span per call."""
    with tracer.span("grounded.from_graph"):
        af = AbstractFramework.from_graph(graph)
    with tracer.span("grounded.fixpoint"):
        result = grounded_extension(af)
    if graph.variant == Variant.BASIC:
        stage1 = result.stages[1] if len(result.stages) > 1 \
            else result.stages[0]
        if result.grounded != stage1:
            raise StageCollapseError(
                "grounded extension not reached at stage 1 on a basic graph"
            )
    tracer.counts["grounded.stages"] += len(result.stages)
    tracer.counts["grounded.edge_scans"] += len(result.stages) * len(
        af.attacks)
    return af, result


def build(tracer: Tracer, kb, variant: Variant, query, cfg):
    """Universe, attack graph and grounded extension, as ``entails``
    and ``daf.cli.export_graph`` build them."""
    with entail_spans(tracer):
        with tracer.span("arguments.enumerate"):
            universe = enumerate_universe(
                kb, cfg, query=query, with_doubt=(variant == Variant.SHADOW)
            )
    with tracer.span("attacks.build"):
        graph = build_attack_graph(kb, universe, variant)
    af, result = evaluate_graph(tracer, graph)
    _count_universe(tracer, universe, graph)
    return universe, graph, af, result


def _count_universe(tracer: Tracer, universe, graph) -> None:
    c = tracer.counts
    c["arguments.built"] += len(universe.arguments)
    c["arguments.weakening"] += sum(1 for a in universe.arguments
                                    if a.rule == WEAKEN)
    c["arguments.aggregation"] += sum(1 for a in universe.arguments
                                      if a.rule == AGGREGATE)
    c["arguments.doubt"] += len(universe.doubts)
    by_id = universe.by_id
    for src, dst, kind in graph.edges:
        c["attacks.edges"] += 1
        if kind == AttackKind.FACT:
            c["attacks.edges_fact"] += 1
        elif kind == AttackKind.SHADOW:
            c["attacks.edges_shadow"] += 1
        else:
            c["attacks.edges_conflict"] += 1
            if conflicting(by_id[src].conclusion.body,
                           by_id[dst].conclusion.body):
                c["attacks.direct_conflicts"] += 1


def entails(tracer: Tracer, kb, variant: str, query, cfg=None):
    """Replay of ``daf.consequence.entails``; returns the verdict and
    the framework it was read from."""
    variant = Variant(variant)
    if variant == Variant.PRIO:
        kb.validate_priorities()
    universe, graph, af, result = build(tracer, kb, variant, query, cfg)
    derivable = any(a.aid in result.grounded
                    for a in universe.with_conclusion(ob(query)))
    return derivable, af, result


def fast(tracer: Tracer, kb, query) -> bool:
    with entail_spans(tracer):
        with tracer.span("consequence.fast"):
            verdict = entails_fast_basic(kb, query)
    tracer.counts["consequence.chains"] += verdict.universe_stats["chains"]
    tracer.counts["consequence.accepted_chains"] += \
        verdict.universe_stats["accepted_chains"]
    return verdict.derivable


def export(tracer: Tracer, kb_path: str, semantics: str, query_text: str,
           json_path: str, dot_path: str):
    """Replay of ``daf export -k KB -s SEM --query Q --json J --dot D``
    with default bounds."""
    with open(kb_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    kb, query = parse(tracer, text, query_text)
    variant = Variant(semantics)
    universe, graph, _, result = build(tracer, kb, variant, query,
                                       GenerationConfig())
    with tracer.span("cli.export_json"):
        record = universe_to_json(universe, graph, result)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with tracer.span("cli.export_dot"):
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(universe, graph, result))
    tracer.counts["cli.json_bytes"] += os.path.getsize(json_path)
    tracer.counts["cli.dot_bytes"] += os.path.getsize(dot_path)
