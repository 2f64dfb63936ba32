"""The benchmark workloads: the three that ``BENCHMARK.json`` lists and
``export``, which runs by name for reference.

A workload turns a seed into a pool of items (a KB text with its query
cells), prepares them before timing (parsing), answers one cell per
operation, replays that operation with tracing, and checks every answer
with ``check.py``.  Operations are driven by a single
client in a closed loop: the next one starts when the last returns.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from typing import Dict, List, Tuple

import check
import gen
import tracing
from daf import entails, entails_fast_basic, parse_kb, parse_query
from daf.cli import main as cli_main

# Size of each workload's inputs; the README explains the choices.
FAST_LARGE = dict(atoms=12, facts=3, constraints=("nand", "clause"),
                  roots=4, links=10)
FIXPOINT = dict(atoms=7, facts=1, constraints=("nand",), roots=2, links=0,
                queries=2, clash=True)
EXPORT = dict(FIXPOINT, links=1)
SEMANTICS = ("basic", "spec", "prio", "shadow", "fast")
# (atoms, norms) of the desk-scale KBs, taken in turn so that every
# round has the same mix of sizes
SMALL_SIZES = ((3, 4), (4, 5), (4, 7), (4, 5), (5, 5), (3, 5))
# the desk-scale KBs of ``export``, taken in turn
EXPORT_SIZES = ((5, 6), (3, 6))


def _verdict(kb, semantics: str, query) -> bool:
    if semantics == "fast":
        return entails_fast_basic(kb, query).derivable
    return entails(kb, semantics, query).derivable


class VerdictWorkload:
    """Workloads whose operation is one query verdict."""

    name = ""
    items_per_second = 1.0  # pool size: items a run may take per second
    traced_items_per_s = 1.0  # items a traced run replays per second
    # peak RSS is read once this many items per second of run are done,
    # a count every run reaches, so that it is read after equal work
    rss_items_per_s = 1.0

    def items(self, seed: int, seconds: int) -> List[gen.Item]:
        raise NotImplementedError

    def prepare(self, items, workdir: str):
        self.kbs = {item.name: parse_kb(item.kb_text) for item in items}

    def begin_item(self, item: gen.Item):
        """Untimed work before an item's first operation."""

    def op(self, item: gen.Item, cell: Tuple[str, str]):
        query_text, semantics = cell
        return _verdict(self.kbs[item.name], semantics,
                        parse_query(query_text))

    def observe(self, value):
        """What a traced replay must reproduce of an operation."""
        return value

    def traced_op(self, tracer, item: gen.Item, cell: Tuple[str, str]):
        """Replay one operation with tracing.  Returns the check to run
        once the timing is over: the replay reached the untraced
        verdict, and its framework passes the checker's own grounded
        labelling."""
        query_text, semantics = cell
        kb, query = tracing.parse(tracer, item.kb_text, query_text)
        framework = None
        if semantics == "fast":
            derivable = tracing.fast(tracer, kb, query)
        else:
            derivable, af, result = tracing.entails(tracer, kb, semantics,
                                                    query)
            framework = (af, result)

        def replay_check(observed) -> List[str]:
            problems = [] if derivable == observed else [
                "the traced replay reached another verdict"]
            if framework is not None:
                af, result = framework
                problems += check.check_grounded(af.nodes, af.attacks,
                                                 result.grounded)
            return problems

        return replay_check

    def check_item(self, item: gen.Item, verdicts: Dict) -> List[Tuple]:
        """(query, problem) pairs for one item's verdicts."""
        return check.check_expected(verdicts, item.expected)


class FastLarge(VerdictWorkload):
    name = "fast-large"
    items_per_second = 12.0
    traced_items_per_s = 4.0
    rss_items_per_s = 6.0

    def items(self, seed, seconds):
        rng = random.Random(seed)
        return [gen.fast_large_item(rng, i, norms=rng.randint(30, 40),
                                    **FAST_LARGE)
                for i in range(int(seconds * self.items_per_second) + 1)]

    def check_item(self, item, verdicts):
        view = check.KbView(item.kb_text, [q for q, _ in item.cells])
        derivable = {q: verdicts[(q, s)] for q, s in item.cells
                     if (q, s) in verdicts}
        return (check.check_expected(verdicts, item.expected)
                + check.check_batch(view, derivable))


class FixpointBasic(VerdictWorkload):
    name = "fixpoint-basic"
    items_per_second = 30.0
    traced_items_per_s = 8.0
    rss_items_per_s = 10.0

    def items(self, seed, seconds):
        rng = random.Random(seed)
        return [gen.fixpoint_item(rng, i, ("G2", "G9")[i % 2],
                                  idle=rng.randint(6, 10),
                                  **FIXPOINT)
                for i in range(int(seconds * self.items_per_second) + 1)]

    def check_item(self, item, verdicts):
        """Every verdict equals the fast engine's: in the literal
        fragment the two engines must agree."""
        problems = check.check_expected(verdicts, item.expected)
        kb = self.kbs[item.name]
        for (q, s), got in verdicts.items():
            if entails_fast_basic(kb, parse_query(q)).derivable != got:
                problems.append((q, f"{q}: fixpoint says {got}, fast "
                                    "engine disagrees"))
        return problems


class SemanticsMix(VerdictWorkload):
    """Rounds of the paper's fixture matrix followed by small seeded
    KBs asked under every semantics."""

    name = "semantics-mix"
    items_per_second = 45.0
    traced_items_per_s = 6.0
    rss_items_per_s = 10.0
    small_per_round = 24

    def items(self, seed, seconds):
        rng = random.Random(seed)
        fixtures = gen.fixture_items()
        out: List[gen.Item] = []
        index = 0
        while len(out) < seconds * self.items_per_second:
            out.extend(fixtures)
            for _ in range(self.small_per_round):
                out.append(gen.small_item(
                    rng, index, *SMALL_SIZES[index % len(SMALL_SIZES)],
                    SEMANTICS))
                index += 1
        return out

    def check_item(self, item, verdicts):
        problems = check.check_expected(verdicts, item.expected)
        view = check.KbView(item.kb_text, [q for q, _ in item.cells])
        for sem in {s for _, s in item.cells}:
            derivable = {q: verdicts[(q, s)] for q, s in item.cells
                         if s == sem and (q, s) in verdicts}
            problems += check.check_batch(view, derivable, closure=False)
            problems += check.check_settled_consistent(view, derivable)
        return problems


class Export(VerdictWorkload):
    """``daf export`` in process: mid-size literal-fragment KBs under
    basic, and desk-scale KBs under shadow; an operation is one KB
    exported to JSON and DOT."""

    name = "export"
    items_per_second = 20.0
    traced_items_per_s = 4.0
    rss_items_per_s = 5.0

    def items(self, seed, seconds):
        rng = random.Random(seed)
        out = []
        for i in range(int(seconds * self.items_per_second) + 1):
            if i % 3 == 2:
                item = gen.small_item(rng, i, *EXPORT_SIZES[i // 3 % 2],
                                      ("shadow",))
            else:
                item = gen.fixpoint_item(rng, i, ("G1", "G2")[i % 3],
                                         idle=rng.randint(6, 10), **EXPORT)
            out.append(dataclasses.replace(item, cells=item.cells[:1],
                                           expected={}))
        return out

    def prepare(self, items, workdir):
        for item in items:
            parse_kb(item.kb_text)
        self.workdir = workdir
        self.kb_path = os.path.join(workdir, "kb.txt")

    def begin_item(self, item):
        with open(self.kb_path, "w", encoding="utf-8") as handle:
            handle.write(item.kb_text)

    def _out(self, name: str) -> Tuple[str, str]:
        return (os.path.join(self.workdir, name + ".json"),
                os.path.join(self.workdir, name + ".dot"))

    def op(self, item, cell):
        query_text, semantics = cell
        json_path, dot_path = self._out("out")
        return cli_main(["export", "-k", self.kb_path, "-s", semantics,
                         "--query", query_text, "--json", json_path,
                         "--dot", dot_path])

    def _read(self, name: str) -> Tuple[bytes, bytes]:
        out = []
        for path in self._out(name):
            with open(path, "rb") as handle:
                out.append(handle.read())
        return out[0], out[1]

    def observe(self, value):
        """The exported bytes, read back after an operation."""
        return value if value != 0 else self._read("out")

    def check_item(self, item, results):
        """The export is checked against the labelling of its own
        attacks, and a ``basic`` export's conflict edges against their
        recomputation; every eighth KB is exported a second time and
        must give the same bytes."""
        (cell, code), = results.items()
        if code != 0:
            return [(cell[0], f"export exited {code}")]
        json_bytes, dot_bytes = self.observe(code)
        record = json.loads(json_bytes)
        problems = check.check_export(record, dot_bytes.decode("utf-8"))
        if cell[1] == "basic":
            problems += check.check_conflict_edges(record)
        if int(item.name.rsplit("/", 1)[1]) % 8 == 0:
            again = self.observe(self.op(item, cell))
            if again != (json_bytes, dot_bytes):
                problems.append("a second export gave other bytes")
        return [(cell[0], p) for p in problems]

    def traced_op(self, tracer, item, cell):
        """Replay the export into files of its own; afterwards they must
        hold the same bytes as the untraced export's."""
        query_text, semantics = cell
        tracing.export(tracer, self.kb_path, semantics, query_text,
                       *self._out("replay"))

        def replay_check(observed) -> List[str]:
            return [] if self._read("replay") == observed else [
                "the traced export wrote other bytes"]

        return replay_check


def probe(tracer, workdir: str) -> None:
    """A fixed traced tail for every workload, so that each layer has
    spans on each of them: G1 exported under basic, G8 under shadow, and
    G1 asked of the fast engine."""
    for name, semantics, query in (("G1", "basic", "O q"),
                                   ("G8", "shadow", "O t")):
        path = os.path.join(workdir, f"probe-{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(gen.KB_TEXTS[name])
        tracing.export(tracer, path, semantics, query,
                       os.path.join(workdir, "probe.json"),
                       os.path.join(workdir, "probe.dot"))
    kb, query = tracing.parse(tracer, gen.KB_TEXTS["G1"], "O q")
    tracing.fast(tracer, kb, query)


WORKLOADS = {w.name: w for w in (FastLarge, FixpointBasic, SemanticsMix,
                                 Export)}
