"""Attack relations between arguments, one edge set per semantics variant.

Edge sources by variant:

* basic   -- fact attacks (settled constraints defeat arguments whose
             obligations jointly contradict them) plus conflict attacks
             (complementary obligation conclusions defeat each other).
* spec    -- fact attacks plus specificity-refined conflict attacks:
             the direction from the strictly more specific factual
             support survives, the converse is suppressed.
* prio    -- fact attacks plus weakest-link prioritized conflict
             attacks: an attack holds unless the attacker is strictly
             weaker than its target.
* shadow  -- doubt-argument attacks only: a doubt conclusion defeats the
             deontic subarguments (and their superarguments) of every
             minimal-support argument it matches, which subsumes the
             basic attacks.

Fact and conflict attacks propagate to superarguments; the builders
below compute the full propagated edge sets deterministically.

The builders decide each direction with the module predicates
(``strictly_more_specific``, ``prioritized_attacks``, and the licensor
test behind ``shadow_attacks``).  Fact edges come from the witness
leaves that generation materializes; ``fact_attacked`` is their
reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .arguments import Argument, ArgumentUniverse, minimal_inconsistent_subset
from .entail import KbEntailment
from .formulas import (
    Cond,
    Formula,
    Not,
    Ob,
    complement,
    conflicting,
    is_conjunction_over,
    neg,
    ob,
    render,
)
from .kb import KnowledgeBase, ValidationError

__all__ = [
    "Variant",
    "AttackKind",
    "AttackGraph",
    "fact_attacked",
    "conflict_attacks",
    "support_at_most",
    "strictly_more_specific",
    "specificity_attacks",
    "priority_rank",
    "prioritized_attacks",
    "shadow_attacks",
    "build_attack_graph",
]


class Variant(str, Enum):
    BASIC = "basic"
    SPEC = "spec"
    PRIO = "prio"
    SHADOW = "shadow"


class AttackKind(str, Enum):
    FACT = "fact"
    CONFLICT = "conflict"
    SPECIFICITY = "specificity"
    PRIORITIZED = "prioritized"
    SHADOW = "shadow"


_CONFLICT_KIND = {
    Variant.BASIC: AttackKind.CONFLICT,
    Variant.SPEC: AttackKind.SPECIFICITY,
    Variant.PRIO: AttackKind.PRIORITIZED,
}


@dataclass(frozen=True)
class AttackGraph:
    universe: ArgumentUniverse
    variant: Variant
    edges: Tuple[Tuple[int, int, AttackKind], ...]

    def edge_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((src, dst) for src, dst, _ in self.edges)


# ---------------------------------------------------------------------------
# individual attack tests (module API; the graph builders call these)


def fact_attacked(kb: KnowledgeBase, a: Argument,
                  ctx: Optional[KbEntailment] = None):
    """Minimal witness set of obligations in ``a`` that jointly
    contradict the settled base, or None if there is none.

    Equivalent to: some nonempty subset of the argument's obligations
    has a settled negation; decided by one joint-consistency test, with
    the witness recovered by subset search in canonical order.
    """
    if not a.is_deontic:
        raise ValueError("fact attack targets deontic arguments")
    ctx = ctx or KbEntailment(kb, sorted(a.uo, key=render))
    if ctx.settled_mask & ctx.table.conj_mask(a.uo) != 0:
        return None
    return minimal_inconsistent_subset(ctx, a.uo)


def conflict_attacks(a: Argument, b: Argument) -> bool:
    """Complementary obligation conclusions (either direction of the
    syntactic complement); the graph builder adds the superargument
    propagation."""
    if not (a.is_deontic and b.is_deontic):
        raise ValueError("conflict attack needs deontic arguments")
    return conflicting(a.conclusion.body, b.conclusion.body)


def support_at_most(kb: KnowledgeBase, sa: FrozenSet[Formula],
                    sb: FrozenSet[Formula],
                    ctx: Optional[KbEntailment] = None) -> bool:
    """Support order: every member of sa entails some member of sb and
    every member of sb is entailed by some member of sa."""
    ctx = ctx or KbEntailment(kb, sorted(sa | sb, key=render))
    return _support_at_most(ctx, sa, sb)


def _support_at_most(ctx: KbEntailment, sa, sb) -> bool:
    for a in sa:
        if not any(ctx.single_entails(a, b) for b in sb):
            return False
    for b in sb:
        if not any(ctx.single_entails(a, b) for a in sa):
            return False
    return True


def strictly_more_specific(kb: KnowledgeBase, sa, sb,
                           ctx: Optional[KbEntailment] = None) -> bool:
    """sa is strictly below sb in the support order."""
    ctx = ctx or KbEntailment(kb, sorted(sa | sb, key=render))
    return _support_at_most(ctx, sa, sb) and not _support_at_most(ctx, sb, sa)


def specificity_attacks(kb: KnowledgeBase, a: Argument, b: Argument,
                        ctx: Optional[KbEntailment] = None):
    """Directed attack pairs between two complementary-conclusion
    arguments under the specificity refinement: each direction holds
    unless its target is strictly more specific."""
    if not conflict_attacks(a, b):
        raise ValueError("specificity attack needs complementary conclusions")
    ctx = ctx or KbEntailment(kb, sorted(a.support | b.support, key=render))
    edges = set()
    if not strictly_more_specific(kb, b.support, a.support, ctx):
        edges.add((a, b))
    if not strictly_more_specific(kb, a.support, b.support, ctx):
        edges.add((b, a))
    return edges


def priority_rank(a: Argument):
    """Weakest-link strength: the least priority among the conditionals
    used in the argument; +inf when no conditional occurs."""
    cached = a._rank
    if cached is not None:
        return cached
    rank = math.inf
    for f in a.cs:
        if isinstance(f, Cond):
            if f.priority is None:
                raise ValidationError(
                    f"missing priority on conditional {render(f)!r}"
                )
            rank = min(rank, f.priority)
    a._rank = rank
    return rank


def prioritized_attacks(a: Argument, b: Argument) -> bool:
    """Attack holds unless the attacker is strictly weaker (weakest
    link) than the target."""
    if not conflict_attacks(a, b):
        return False
    return priority_rank(a) >= priority_rank(b)


def shadow_attacks(d: Argument, target: Argument,
                   u: ArgumentUniverse) -> bool:
    """Whether a doubt argument defeats the target: some minimal-support
    argument either concludes the doubted obligation or carries the
    doubted conjunction among its obligations, and the target is one of
    its deontic subarguments or a superargument of one."""
    if not d.is_doubt:
        raise ValueError("shadow attack sources are doubt arguments")
    return any(
        target.aid in _shadow_targets(u, a)
        for a in _licensors(d, _minimal_deontic(u))
    )


def _minimal_deontic(u: ArgumentUniverse) -> List[Argument]:
    return [a for a in u.deontic if u.has_minimal_support(a)]


def _licensors(d: Argument, minimal: List[Argument]) -> List[Argument]:
    """The minimal-support arguments a doubt licenses an attack from:
    those concluding the doubted obligation or carrying the doubted
    conjunction among their obligations."""
    body = d.conclusion.body
    return [
        a for a in minimal
        if a.conclusion.body is body or is_conjunction_over(body, a.uo)
    ]


def _shadow_targets(u: ArgumentUniverse, licensor: Argument) -> Set[int]:
    """Deontic subarguments of the licensor plus all their
    superarguments (doubt superarguments included)."""
    out: Set[int] = set()
    for f in licensor.cs:
        if not isinstance(f, Ob):
            continue
        for b in u.with_conclusion(f):
            if b.cs <= licensor.cs:
                out.add(b.aid)
                for s in u.superarguments(b):
                    out.add(s.aid)
    return out


# ---------------------------------------------------------------------------
# graph construction


def build_attack_graph(kb: KnowledgeBase, u: ArgumentUniverse,
                       variant: Variant) -> AttackGraph:
    """Full propagated edge set for one semantics variant; edges are
    canonically ordered for determinism."""
    variant = Variant(variant)
    if (variant == Variant.SHADOW) != u.with_doubt:
        raise ValueError(
            "universe doubt mode must match the shadow variant"
        )
    edges: Set[Tuple[int, int, AttackKind]] = set()
    if variant == Variant.SHADOW:
        _shadow_edges(u, edges)
    else:
        _fact_edges(u, edges)
        _conflict_edges(kb, u, variant, edges)
    ordered = tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].value)))
    return AttackGraph(u, variant, ordered)


def _fact_edges(u: ArgumentUniverse, edges) -> None:
    for leaf in u.constraint_leaves:
        target = complement(leaf.conclusion.body)
        for x in u.deontic:
            if is_conjunction_over(target, x.uo):
                edges.add((leaf.aid, x.aid, AttackKind.FACT))


def _conflict_partners(u: ArgumentUniverse, body: Formula):
    partners = u.with_conclusion(ob(neg(body)))
    if isinstance(body, Not):
        partners = partners + u.with_conclusion(ob(body.body))
    return partners


def _conflict_edges(kb: KnowledgeBase, u: ArgumentUniverse,
                    variant: Variant, edges) -> None:
    kind = _CONFLICT_KIND[variant]
    if variant == Variant.PRIO:
        kb.validate_priorities()
    specificity_cache: Dict[Tuple[frozenset, frozenset], bool] = {}

    def target_more_specific(y: Argument, z: Argument) -> bool:
        key = (y.support, z.support)
        cached = specificity_cache.get(key)
        if cached is None:
            cached = strictly_more_specific(kb, y.support, z.support, u.ctx)
            specificity_cache[key] = cached
        return cached

    for y in u.deontic:
        attackers = _conflict_partners(u, y.conclusion.body)
        if not attackers:
            continue
        supers = None
        for z in attackers:
            if variant == Variant.SPEC and target_more_specific(y, z):
                continue
            if variant == Variant.PRIO and not prioritized_attacks(z, y):
                continue
            if supers is None:
                supers = u.superarguments(y)
            edges.add((z.aid, y.aid, kind))
            for s in supers:
                edges.add((z.aid, s.aid, kind))


def _shadow_edges(u: ArgumentUniverse, edges) -> None:
    target_cache: Dict[int, Set[int]] = {}
    minimal = _minimal_deontic(u)
    for d in u.doubts:
        for a in _licensors(d, minimal):
            targets = target_cache.get(a.aid)
            if targets is None:
                targets = _shadow_targets(u, a)
                target_cache[a.aid] = targets
            for t in targets:
                edges.add((d.aid, t, AttackKind.SHADOW))
