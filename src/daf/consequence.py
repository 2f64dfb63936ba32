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
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .arguments import Argument, GenerationConfig, enumerate_universe
from .attacks import AttackGraph, Variant, build_attack_graph
from .entail import KbEntailment
from .formulas import Formula, TOP, cond, ob, render
from .grounded import AbstractFramework, ExtensionResult, grounded_extension
from .kb import KnowledgeBase

__all__ = [
    "Verdict",
    "OutputBase",
    "entails",
    "entails_fast_basic",
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
        for c in kb.conditionals:
            if c in used or c.antecedent is not conclusion:
                continue
            push(c.consequent, uo | {c.consequent}, used | {c})
    return classes


class _FastBasic:
    """Accepted-chain computation plus the chain-set consequence search.

    Chain-set searches exploit that joint coherence with the settled
    base is witnessed row-wise: for each satisfying assignment of the
    settled base, the inclusion-maximal coherent chain set is the set of
    chains whose obligations hold on that row, so only those maximal
    sets need checking.
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

    def _rows(self) -> List[int]:
        rows = []
        remaining = self.ctx.settled_mask
        while remaining:
            low = remaining & -remaining
            rows.append(low.bit_length() - 1)
            remaining ^= low
        return rows

    def _maximal_sets(self, member_ok) -> List[List[int]]:
        """Per settled-base row, the maximal chain set coherent on it."""
        sets = []
        seen = set()
        for r in self._rows():
            members = tuple(
                i
                for i, m in enumerate(self.uo_masks)
                if m >> r & 1 and member_ok(i)
            )
            if members and members not in seen:
                seen.add(members)
                sets.append(list(members))
        return sets

    def _joint_masks(self, member_ok) -> Iterator[int]:
        """Per maximal chain set, the settled base conjoined with its
        chains' conclusions; lazy, so callers stop at the first hit."""
        settled = self.ctx.settled_mask
        concl_masks = self.concl_masks
        for members in self._maximal_sets(member_ok):
            joint = settled
            for i in members:
                joint &= concl_masks[i]
            yield joint

    def _refutable(self, formula: Formula, member_ok) -> bool:
        """Some coherent chain set classically refutes the formula under
        the settled base."""
        f_mask = self.ctx.table.mask(formula)
        return any(joint & f_mask == 0
                   for joint in self._joint_masks(member_ok))

    def _accept(self) -> List[int]:
        settled = self.ctx.settled_mask
        coherent = [
            i
            for i, m in enumerate(self.uo_masks)
            if settled & m != 0
        ]
        coherent_ok = set(coherent).__contains__
        accepted = []
        for i in coherent:
            if not any(
                self._refutable(c, coherent_ok)
                for c in sorted(self.chains[i].uo, key=render)
            ):
                accepted.append(i)
        return accepted

    def derivable(self, query: Formula) -> bool:
        """Some nonempty coherent set of accepted chains entails the
        query under the settled base."""
        table = self.ctx.table
        outside = ~table.mask(query) & table.full
        accepted_ok = set(self.accepted).__contains__
        return any(joint & outside == 0
                   for joint in self._joint_masks(accepted_ok))

    def conclusions(self) -> FrozenSet[Formula]:
        return frozenset(self.chains[i].conclusion for i in self.accepted)


def entails_fast_basic(kb: KnowledgeBase, query: Formula) -> Verdict:
    """Fast-engine derivability for the basic variant (categorical)."""
    engine = _FastBasic(kb, (query,))
    return Verdict(
        derivable=engine.derivable(query),
        query=query,
        engine="fast-basic",
        variant=Variant.BASIC,
        categorical=True,
        universe_stats={"chains": len(engine.chains),
                        "accepted_chains": len(engine.accepted)},
    )


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
