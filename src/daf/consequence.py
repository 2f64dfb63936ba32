"""Derivability of all-things-considered obligations.

Two engines answer "is O A derivable from this knowledge base":

* The fixpoint engine builds the bounded argument universe (with the
  query injected as a weakening target), the variant's attack graph,
  and the grounded extension, then looks for a grounded argument whose
  conclusion is structurally O A.  Works for every variant; negative
  answers are relative to the generation bounds.

* The fast basic engine never builds composite arguments.  It
  enumerates detachment chains, accepts a chain when its obligations
  are jointly compatible with the settled base and no coherent chain
  set classically refutes one of them, and then asks whether some
  coherent set of accepted chains classically entails the query under
  the settled base.  Exact for the basic variant: grounded membership
  is closed under subarguments, weakening, and aggregation, and defense
  only ever comes from unattacked constraint leaves, so quantifying
  over chain sets is equivalent to quantifying over composites.

Basic-variant grounded computations additionally check the
stage-one-collapse property (the grounded extension equals stage 1 of
the fixpoint), which holds on every subargument-closed universe with
complete edge computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, \
    Tuple

from .arguments import Argument, GenerationConfig, enumerate_universe
from .attacks import AttackGraph, Variant, build_attack_graph
from .entail import KbEntailment
from .formulas import Cond, Formula, TOP, atoms_of, cond, ob, render
from .grounded import AbstractFramework, ExtensionResult, grounded_extension
from .kb import KnowledgeBase

__all__ = [
    "Verdict",
    "OutputBase",
    "entails",
    "entails_fast_basic",
    "fast_basic_verdicts",
    "output_base",
    "extend_with_output",
    "evaluate_graph",
]


@dataclass(frozen=True)
class Verdict:
    derivable: bool
    query: Formula
    engine: str  # "fixpoint" | "fast-basic"
    variant: Variant
    categorical: bool  # non-derivability is definitive (fast engine)
    witness: Optional[Argument] = None
    universe_stats: Dict[str, int] = field(default_factory=dict)

    def __str__(self):
        turnstile = "|-" if self.derivable else "|/-"
        suffix = "" if (self.derivable or self.categorical) \
            else " (within bounds)"
        return f"G {turnstile}DAF O {render(self.query)}{suffix}"


class StageCollapseError(AssertionError):
    """The basic-variant grounded extension exceeded stage 1; indicates
    an edge-computation bug, never expected on well-formed input."""


def evaluate_graph(graph: AttackGraph) -> ExtensionResult:
    """Grounded extension of an attack graph, with the basic-variant
    stage-collapse check."""
    result = grounded_extension(AbstractFramework.from_graph(graph))
    if graph.variant == Variant.BASIC:
        stage1 = result.stages[1] if len(result.stages) > 1 \
            else result.stages[0]
        if result.grounded != stage1:
            raise StageCollapseError(
                "grounded extension not reached at stage 1 on a basic graph"
            )
    return result


def entails(
    kb: KnowledgeBase,
    variant: Variant,
    query: Formula,
    cfg: Optional[GenerationConfig] = None,
) -> Verdict:
    """Fixpoint-engine derivability of O-query under a semantics variant."""
    variant = Variant(variant)
    if variant == Variant.PRIO:
        kb.validate_priorities()
    universe = enumerate_universe(
        kb, cfg, query=query, with_doubt=(variant == Variant.SHADOW)
    )
    graph = build_attack_graph(kb, universe, variant)
    result = evaluate_graph(graph)
    conclusion = ob(query)
    witness = None
    for a in universe.with_conclusion(conclusion):
        if a.aid in result.grounded:
            witness = a
            break
    return Verdict(
        derivable=witness is not None,
        query=query,
        engine="fixpoint",
        variant=variant,
        categorical=False,
        witness=witness,
        universe_stats=universe.stats(),
    )


# ---------------------------------------------------------------------------
# fast engine for the basic variant


@dataclass(frozen=True)
class _ChainClass:
    """Detachment chains collapsed by (conclusion, obligation set); the
    attack relations cannot tell two such chains apart."""

    conclusion: Formula
    uo: FrozenSet[Formula]


def _chain_classes(kb: KnowledgeBase,
                   ctx: KbEntailment) -> List[_ChainClass]:
    """All detachment chains (factual root, deontic steps, each
    conditional at most once per chain), deduplicated by class."""
    by_antecedent: Dict[Formula, List[Cond]] = {}
    seen_classes = set()
    seen_states = set()
    classes: List[_ChainClass] = []
    frontier: List[Tuple[Formula, FrozenSet[Formula], FrozenSet]] = []

    def push(conclusion, uo, used):
        state = (conclusion, used)
        if state not in seen_states:
            seen_states.add(state)
            frontier.append((conclusion, uo, used))

    for c in kb.conditionals:
        by_antecedent.setdefault(c.antecedent, []).append(c)
        if ctx.fact_entails(c.antecedent):
            push(c.consequent, frozenset((c.consequent,)), frozenset((c,)))
    index = 0
    while index < len(frontier):
        conclusion, uo, used = frontier[index]
        index += 1
        key = (conclusion, uo)
        if key not in seen_classes:
            seen_classes.add(key)
            classes.append(_ChainClass(conclusion, uo))
        for c in by_antecedent.get(conclusion, ()):
            if c not in used:
                push(c.consequent, uo | {c.consequent}, used | {c})
    return classes


class _FastBasic:
    """Accepted-chain computation plus the chain-set consequence search.

    On each row of the settled base the chains whose obligations hold
    form the maximal coherent chain set; only those sets need checking.
    Building the engine scans the rows once, refuting the obligations
    each maximal set of coherent chains excludes; a chain with none
    refuted is accepted.  Each ``derivable`` call scans the accepted
    chains once, up to the first set entailing the query.  A scan costs
    a bit test per row and member, and a full-width conjunction per set.
    """

    def __init__(self, kb: KnowledgeBase,
                 extra: Tuple[Formula, ...] = ()):
        self.kb = kb
        self.ctx = KbEntailment(kb, extra)
        self.chains = _chain_classes(kb, self.ctx)
        table = self.ctx.table
        self.uo_masks = [table.conj_mask(c.uo) for c in self.chains]
        self.concl_masks = [table.mask(c.conclusion) for c in self.chains]
        self.accepted = self._accept()

    def _joint_masks(self, members: List[int]) -> Iterator[int]:
        """Per distinct maximal set of ``members`` coherent on a settled
        row, the settled base conjoined with its chains' conclusions;
        lazy, so callers stop at the first hit."""
        settled = self.ctx.settled_mask
        width = (self.ctx.table.rows + 7) // 8
        pairs = [(i, self.uo_masks[i].to_bytes(width, "little"))
                 for i in members]
        concl_masks = self.concl_masks
        seen = set()
        bits = bin(settled)[:1:-1]  # character r is bit r
        r = bits.find("1")
        while r >= 0:
            byte, bit = r >> 3, r & 7
            held = tuple([i for i, b in pairs if b[byte] >> bit & 1])
            if held and held not in seen:
                seen.add(held)
                joint = settled
                for i in held:
                    joint &= concl_masks[i]
                yield joint
            r = bits.find("1", r + 1)

    def _accept(self) -> List[int]:
        """Coherent chains none of whose obligations some maximal
        coherent chain set refutes, in one scan of those sets."""
        coherent = [i for i, m in enumerate(self.uo_masks)
                    if self.ctx.settled_mask & m]
        pending = {f: self.ctx.mask(f)
                   for i in coherent for f in self.chains[i].uo}
        refuted = set()
        for joint in self._joint_masks(coherent):
            for f in [f for f, m in pending.items() if joint & m == 0]:
                refuted.add(f)
                del pending[f]
            if not pending:
                break
        return [i for i in coherent if self.chains[i].uo.isdisjoint(refuted)]

    def derivable(self, query: Formula) -> bool:
        """Some nonempty coherent set of accepted chains entails the
        query under the settled base."""
        table = self.ctx.table
        outside = ~table.mask(query) & table.full
        return any(joint & outside == 0
                   for joint in self._joint_masks(self.accepted))

    def conclusions(self) -> FrozenSet[Formula]:
        return frozenset(self.chains[i].conclusion for i in self.accepted)

    def verdict(self, query: Formula) -> Verdict:
        return Verdict(
            derivable=self.derivable(query),
            query=query,
            engine="fast-basic",
            variant=Variant.BASIC,
            categorical=True,
            universe_stats={"chains": len(self.chains),
                            "accepted_chains": len(self.accepted)},
        )


def entails_fast_basic(kb: KnowledgeBase, query: Formula) -> Verdict:
    """Fast-engine derivability for the basic variant (categorical)."""
    return _FastBasic(kb, (query,)).verdict(query)


def fast_basic_verdicts(kb: KnowledgeBase,
                        queries: Iterable[Formula]) -> Iterator[Verdict]:
    """Fast-engine verdicts in order.  Queries over the knowledge base's
    atoms share one engine (one acceptance); a query with more atoms
    gets its own rather than doubling the shared table per atom."""
    shared = _FastBasic(kb)
    own = set(shared.ctx.table.atoms)
    for query in queries:
        engine = shared if atoms_of(query) <= own \
            else _FastBasic(kb, (query,))
        yield engine.verdict(query)


@dataclass(frozen=True)
class OutputBase:
    """Intensional view of the basic-variant output set: conclusions of
    accepted chains, with membership decided by the chain-set search."""

    kb: KnowledgeBase
    conclusions: FrozenSet[Formula]

    def __contains__(self, formula: Formula) -> bool:
        return _FastBasic(self.kb, (formula,)).derivable(formula)


def output_base(kb: KnowledgeBase) -> OutputBase:
    return OutputBase(kb, _FastBasic(kb).conclusions())


def extend_with_output(kb: KnowledgeBase, delta,
                       priority: Optional[int] = None) -> KnowledgeBase:
    """Append an always-triggered conditional for each formula.

    In prioritized mode the added conditionals default to the maximum
    existing priority (they encode already-accepted output).
    """
    existing = [c.priority for c in kb.conditionals if c.priority is not None]
    default = priority
    if default is None and existing:
        default = max(existing)
    return kb.extended(
        cond(TOP, f, default) for f in sorted(delta, key=render)
    )
