"""Argument construction: proof trees over a knowledge base.

Seven construction rules:

* constraint leaf      -- ``<[]A : -->``       for settled A
* factual detachment   -- ``<O B : A, A=>B>``  when A follows from the facts
* deontic detachment   -- ``<O B : a, A=>B>``  when a concludes O A
* aggregation          -- ``<O (A&B) : a, b>`` over deontic arguments
* weakening            -- ``<O B : a, [](A->B)>`` when A->B is settled
* doubt (constraint)   -- ``<(.)-A : <[]A>>``
* doubt (deontic)      -- ``<(.)-A : <O A>>``

The full rule closure is infinite; ``enumerate_universe`` builds a
finite, deterministic, subargument-closed fragment driven by a
``GenerationConfig``: detachment chains are closed each round, then
aggregates over bounded child sets, then weakenings to a finite target
set.  Fact-attack witness leaves (and, in doubt mode, doubt arguments)
are materialized before the universe is frozen so that attack
computation is a pure read.

Every argument caches its constituent set ``cs`` (all formulas used,
conclusion included), the unconditional obligations ``uo`` (bodies of
the O-formulas in ``cs``) and the factual support (``cs`` intersected
with the propositional layer).  Sub/super-argument comparisons are
inclusions between ``cs`` sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .entail import KbEntailment
from .formulas import (
    Box,
    Cond,
    Doubt,
    Formula,
    Ob,
    box,
    complement,
    conjoin,
    doubt,
    implies,
    ob,
    render,
)
from .kb import KnowledgeBase

__all__ = [
    "Argument",
    "ArgumentUniverse",
    "BoundExceeded",
    "GenerationConfig",
    "constraint_leaf",
    "factual_detach",
    "deontic_detach",
    "aggregate",
    "weaken",
    "doubt_from_constraint",
    "doubt_from_deontic",
    "base",
    "enumerate_universe",
]

LEAF = "constraint-leaf"
FACTUAL = "factual-detachment"
DEONTIC = "deontic-detachment"
AGGREGATE = "aggregation"
WEAKEN = "weakening"
DOUBT_CONSTRAINT = "doubt-constraint"
DOUBT_DEONTIC = "doubt-deontic"


class BoundExceeded(RuntimeError):
    """Raised when universe generation would exceed the hard cap."""


class Argument:
    """An immutable proof tree with cached constituent sets.

    ``aid`` is assigned by the universe builder (-1 for free-standing
    arguments built directly through the rule constructors).
    """

    __slots__ = ("aid", "conclusion", "rule", "children", "premise_formulas",
                 "cs", "uo", "support", "weaken_free", "_rank", "_key")

    def __init__(self, conclusion: Formula, rule: str,
                 children: Tuple["Argument", ...],
                 premise_formulas: Tuple[Formula, ...]):
        self.aid = -1
        self.conclusion = conclusion
        self.rule = rule
        self.children = children
        self.premise_formulas = premise_formulas
        cs = set(premise_formulas)
        cs.add(conclusion)
        for child in children:
            cs |= child.cs
        self.cs = frozenset(cs)
        self.uo = frozenset(f.body for f in self.cs if isinstance(f, Ob))
        self.support = frozenset(f for f in self.cs if f.is_prop)
        self.weaken_free = rule != WEAKEN and all(
            c.weaken_free for c in children
        )
        self._rank = None
        self._key = None

    @property
    def is_deontic(self) -> bool:
        return isinstance(self.conclusion, Ob)

    @property
    def is_leaf(self) -> bool:
        return self.rule == LEAF

    @property
    def is_doubt(self) -> bool:
        return isinstance(self.conclusion, Doubt)

    def sort_key(self):
        key = self._key
        if key is None:
            key = (render(self.conclusion), len(self.cs),
                   tuple(sorted(render(f) for f in self.cs)))
            self._key = key
        return key

    def is_subargument_of(self, other: "Argument") -> bool:
        return self.cs <= other.cs

    def is_proper_subargument_of(self, other: "Argument") -> bool:
        return self.cs < other.cs

    def __repr__(self):
        name = f"a{self.aid}" if self.aid >= 0 else "arg"
        return f"<{name} {render(self.conclusion)}>"

    def describe(self) -> str:
        """One-line proof-sequence form, e.g. ``<O q: p, p => q>``."""
        if self.rule == LEAF:
            return f"<{render(self.conclusion)}: -->"
        parts = []
        for child in self.children:
            parts.append(child.describe())
        for f in self.premise_formulas:
            parts.append(render(f))
        return f"<{render(self.conclusion)}: {', '.join(parts)}>"


def constraint_leaf(body: Formula) -> Argument:
    return Argument(box(body), LEAF, (), ())


def factual_detach(conditional: Cond) -> Argument:
    """Detach O B from A=>B and the fact A (recorded verbatim)."""
    return Argument(
        ob(conditional.consequent),
        FACTUAL,
        (),
        (conditional.antecedent, conditional),
    )


def deontic_detach(child: Argument, conditional: Cond) -> Argument:
    """Detach O B from A=>B and an argument concluding O A."""
    if not child.is_deontic or child.conclusion.body is not conditional.antecedent:
        raise ValueError(
            f"child must conclude O {render(conditional.antecedent)}"
        )
    return Argument(
        ob(conditional.consequent),
        DEONTIC,
        (child,),
        (conditional,),
    )


def aggregate(children: Iterable[Argument]) -> Argument:
    """Aggregate deontic arguments into their joint obligation.

    Aggregate children are flattened (no aggregate child remains),
    deduplicated, and stored in a canonical order, so any argument order
    yields the identical result.  The conclusion is the canonical
    conjunction of the set of child conclusions.
    """
    flat: List[Argument] = []
    for child in children:
        if child.rule == AGGREGATE:
            flat.extend(child.children)
        else:
            flat.append(child)
    unique: List[Argument] = []
    seen = set()
    for child in flat:
        if not child.is_deontic:
            raise ValueError("aggregate children must be deontic")
        marker = id(child)
        if marker not in seen:
            seen.add(marker)
            unique.append(child)
    if len(unique) < 2:
        raise ValueError("aggregation needs at least two distinct arguments")
    unique.sort(key=Argument.sort_key)
    conclusion = ob(conjoin({c.conclusion.body for c in unique}))
    return Argument(conclusion, AGGREGATE, tuple(unique), ())


def weaken(child: Argument, target: Formula) -> Argument:
    """Weaken O A to O B under the settled implication [](~A | B).

    The caller is responsible for the implication actually being
    settled; the universe builder checks it before constructing.
    """
    if not child.is_deontic:
        raise ValueError("weakening needs a deontic child")
    license_box = box(implies(child.conclusion.body, target))
    return Argument(ob(target), WEAKEN, (child,), (license_box,))


def doubt_from_constraint(leaf: Argument) -> Argument:
    if not isinstance(leaf.conclusion, Box):
        raise ValueError("doubt-from-constraint needs a constraint leaf")
    return Argument(
        doubt(complement(leaf.conclusion.body)), DOUBT_CONSTRAINT, (leaf,), ()
    )


def doubt_from_deontic(child: Argument) -> Argument:
    if not child.is_deontic:
        raise ValueError("doubt-from-deontic needs a deontic child")
    return Argument(
        doubt(complement(child.conclusion.body)), DOUBT_DEONTIC, (child,), ()
    )


def base(a: Argument) -> FrozenSet[Argument]:
    """All subarguments whose top rule is factual detachment."""
    found: Dict[int, Argument] = {}

    def walk(node: Argument):
        if node.rule == FACTUAL:
            found[id(node)] = node
        for child in node.children:
            walk(child)

    walk(a)
    return frozenset(found.values())


def conditional_uses(a: Argument, conditional: Cond) -> int:
    """How often a conditional is applied inside a proof tree."""
    count = 0
    if a.rule in (FACTUAL, DEONTIC) and a.premise_formulas[-1] is conditional:
        count += 1
    for child in a.children:
        count += conditional_uses(child, conditional)
    return count


@dataclass(frozen=True)
class GenerationConfig:
    """Bounds that make the infinite rule closure finite.

    max_aggregate_arity: most children in a (flattened) aggregate.
    build_rounds: composition rounds (detach closure, aggregates,
        weakenings); two rounds reach every shape the attack relations
        can distinguish at desk scale.
    max_doubt_theta: largest settled-inconsistent obligation subset
        materialized as a doubt leaf.
    hard_cap: absolute argument-count bound (BoundExceeded beyond).
    conditional_reuse_limit: times one conditional may recur on a branch.
    """

    max_aggregate_arity: int = 3
    build_rounds: int = 2
    max_doubt_theta: int = 3
    hard_cap: int = 100000
    conditional_reuse_limit: int = 1

    def __post_init__(self):
        if self.max_aggregate_arity < 1 or self.build_rounds < 1:
            raise ValueError("generation bounds must be >= 1")
        if self.max_doubt_theta < 1 or self.hard_cap < 1:
            raise ValueError("generation bounds must be >= 1")
        if self.conditional_reuse_limit < 1:
            raise ValueError("generation bounds must be >= 1")


class ArgumentUniverse:
    """A frozen, deduplicated, subargument-closed argument fragment."""

    def __init__(self, kb: KnowledgeBase, cfg: GenerationConfig,
                 query: Optional[Formula], with_doubt: bool,
                 arguments: Tuple[Argument, ...], ctx: KbEntailment):
        self.kb = kb
        self.cfg = cfg
        self.query = query
        self.with_doubt = with_doubt
        self.arguments = arguments
        self.ctx = ctx
        self.by_id = {a.aid: a for a in arguments}
        self.deontic = tuple(a for a in arguments if a.is_deontic)
        self.constraint_leaves = tuple(a for a in arguments if a.is_leaf)
        self.doubts = tuple(a for a in arguments if a.is_doubt)
        self.by_conclusion: Dict[Formula, Tuple[Argument, ...]] = {}
        groups: Dict[Formula, List[Argument]] = {}
        for a in arguments:
            groups.setdefault(a.conclusion, []).append(a)
        self.by_conclusion = {k: tuple(v) for k, v in groups.items()}
        self._cs_member_index: Dict[Formula, List[Argument]] = {}
        for a in arguments:
            for f in a.cs:
                self._cs_member_index.setdefault(f, []).append(a)

    def __len__(self):
        return len(self.arguments)

    def with_conclusion(self, conclusion: Formula) -> Tuple[Argument, ...]:
        return self.by_conclusion.get(conclusion, ())

    def superarguments(self, a: Argument) -> List[Argument]:
        """Members with strictly larger constituent sets (candidates come
        from the index on the argument's own conclusion formula)."""
        return [
            x
            for x in self._cs_member_index.get(a.conclusion, ())
            if a.cs < x.cs
        ]

    def has_minimal_support(self, a: Argument) -> bool:
        """No member with the same conclusion has strictly smaller cs."""
        for other in self.with_conclusion(a.conclusion):
            if other.cs < a.cs:
                return False
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "arguments": len(self.arguments),
            "deontic": len(self.deontic),
            "constraint_leaves": len(self.constraint_leaves),
            "doubt": len(self.doubts),
            "max_aggregate_arity": self.cfg.max_aggregate_arity,
            "build_rounds": self.cfg.build_rounds,
            "hard_cap": self.cfg.hard_cap,
        }


class _Builder:
    def __init__(self, kb: KnowledgeBase, cfg: GenerationConfig,
                 ctx: KbEntailment):
        self.kb = kb
        self.cfg = cfg
        self.ctx = ctx
        self.args: List[Argument] = []
        self.dedup: Dict[Tuple[Formula, FrozenSet[Formula]], Argument] = {}
        self.uo_masks: Dict[int, int] = {}

    def add(self, candidate: Argument) -> Argument:
        key = (candidate.conclusion, candidate.cs)
        existing = self.dedup.get(key)
        if existing is not None:
            return existing
        if len(self.args) >= self.cfg.hard_cap:
            raise BoundExceeded(
                f"universe exceeds the hard cap of {self.cfg.hard_cap}"
            )
        candidate.aid = len(self.args)
        self.args.append(candidate)
        self.dedup[key] = candidate
        if candidate.is_deontic:
            self.uo_masks[candidate.aid] = self.ctx.table.conj_mask(
                candidate.uo
            )
        return candidate

    def settled_coherent(self, a: Argument) -> bool:
        return self.ctx.settled_mask & self.uo_masks[a.aid] != 0

    # -- construction passes -------------------------------------------

    def premise_leaves(self):
        for c in self.kb.constraints:
            self.add(constraint_leaf(c.body))

    def factual_roots(self):
        for c in self.kb.conditionals:
            if self.ctx.fact_entails(c.antecedent):
                self.add(factual_detach(c))

    def detach_closure(self):
        limit = self.cfg.conditional_reuse_limit
        index = 0
        while index < len(self.args):
            a = self.args[index]
            index += 1
            if not a.is_deontic:
                continue
            for c in self.kb.conditionals:
                if c.antecedent is not a.conclusion.body:
                    continue
                if limit == 1:
                    if c in a.cs:
                        continue
                elif conditional_uses(a, c) >= limit:
                    continue
                self.add(deontic_detach(a, c))

    def aggregates(self):
        # Weakening-free children only: an aggregate over weakenings is
        # dominated by the aggregate over the weakenings' sources, which
        # settles everything the weaker conjunction settles.
        pool = [a for a in self.args
                if a.is_deontic and a.rule != AGGREGATE and a.weaken_free]
        arity = self.cfg.max_aggregate_arity
        for size in range(2, arity + 1):
            for subset in itertools.combinations(pool, size):
                bodies = {a.conclusion.body for a in subset}
                if len(bodies) < size:
                    continue  # same-conclusion children add nothing
                self.add(aggregate(subset))

    def weaken_targets(self, query: Optional[Formula]) -> List[Formula]:
        # Complements of weakening-free conclusions enable every
        # conflict attacker the grounded evaluation can need.
        # Settled-entailed complements are dropped: arguments
        # concluding their complements are settled-incoherent and
        # already defeated by an unattacked constraint leaf.
        targets = set()
        for a in self.args:
            if a.is_deontic and a.weaken_free:
                t = complement(a.conclusion.body)
                if not self.ctx.settled_entails(t):
                    targets.add(t)
        if query is not None:
            targets.add(query)
            targets.add(complement(query))
        return sorted(targets, key=render)

    def weakens(self, targets: List[Formula]):
        if not targets:
            return
        # No weakening of a weakening: settled implication is transitive,
        # so the one-step weakening from the original source reaches the
        # same conclusion with a smaller argument.  None from a
        # settled-incoherent argument either: it is defeated outright,
        # and so is every weakening of it.
        sources = [
            a
            for a in self.args
            if a.is_deontic and a.rule != WEAKEN and self.settled_coherent(a)
        ]
        target_masks = [(t, self.ctx.mask(t)) for t in targets]
        settled = self.ctx.settled_mask
        for a in sources:
            concl_mask = self.ctx.mask(a.conclusion.body)
            premise = settled & concl_mask
            for t, t_mask in target_masks:
                if t is a.conclusion.body:
                    continue
                if premise & ~t_mask & self.ctx.table.full == 0:
                    self.add(weaken(a, t))

    def fact_witness_leaves(self):
        settled = self.ctx.settled_mask
        full = self.ctx.table.full
        for a in list(self.args):
            if not a.is_deontic:
                continue
            if settled & self.uo_masks[a.aid] != 0:
                continue
            theta = minimal_inconsistent_subset(self.ctx, a.uo)
            self.add(constraint_leaf(complement(conjoin(theta))))
            if self.uo_masks[a.aid] == 0:
                # internally incoherent obligations are also witnessed by
                # a settled tautology, independent of the constraints
                intrinsic = minimal_inconsistent_subset(
                    self.ctx, a.uo, base_mask=full
                )
                self.add(constraint_leaf(complement(conjoin(intrinsic))))

    def doubt_theta_leaves(self):
        settled = self.ctx.settled_mask
        bound = self.cfg.max_doubt_theta
        for a in list(self.args):
            if not a.is_deontic:
                continue
            ordered = sorted(a.uo, key=render)
            for size in range(1, min(len(ordered), bound) + 1):
                for subset in itertools.combinations(ordered, size):
                    if settled & self.ctx.table.conj_mask(subset) == 0:
                        self.add(
                            constraint_leaf(complement(conjoin(subset)))
                        )

    def doubt_arguments(self):
        for leaf in [a for a in self.args if a.is_leaf]:
            self.add(doubt_from_constraint(leaf))
        for a in [a for a in self.args if a.is_deontic]:
            self.add(doubt_from_deontic(a))


def _witness_order(f: Formula):
    text = render(f)
    return (len(text), text)


def minimal_inconsistent_subset(ctx: KbEntailment,
                                formulas: FrozenSet[Formula],
                                base_mask: Optional[int] = None):
    """Smallest subset jointly inconsistent with the base (the settled
    base unless a mask is given; ties broken by shortest-rendering-first
    order, which keeps the witnessing constraints readable).  The caller
    guarantees one exists."""
    ordered = sorted(formulas, key=_witness_order)
    base = ctx.settled_mask if base_mask is None else base_mask
    for size in range(1, len(ordered) + 1):
        for subset in itertools.combinations(ordered, size):
            if base & ctx.table.conj_mask(subset) == 0:
                return frozenset(subset)
    raise ValueError("no inconsistent subset exists")


def enumerate_universe(
    kb: KnowledgeBase,
    cfg: Optional[GenerationConfig] = None,
    query: Optional[Formula] = None,
    with_doubt: bool = False,
) -> ArgumentUniverse:
    """Build the bounded argument universe for a knowledge base.

    Deterministic: equal inputs produce identical universes, ids
    included.  The result is closed under subarguments and contains the
    constraint leaves that witness every fact attack (plus doubt
    arguments when ``with_doubt`` is set).
    """
    cfg = cfg or GenerationConfig()
    ctx = KbEntailment(kb, () if query is None else (query,))

    builder = _Builder(kb, cfg, ctx)
    builder.premise_leaves()
    builder.factual_roots()
    for _ in range(cfg.build_rounds):
        builder.detach_closure()
        builder.aggregates()
        builder.weakens(builder.weaken_targets(query))
    builder.fact_witness_leaves()
    if with_doubt:
        builder.doubt_theta_leaves()
        builder.doubt_arguments()

    return ArgumentUniverse(
        kb, cfg, query, with_doubt, tuple(builder.args), ctx
    )
