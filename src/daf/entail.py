"""Classical and settled entailment by exhaustive truth tables.

Formulas are evaluated to bitmasks over the full assignment space of a
fixed atom tuple: bit r of ``mask(f)`` is set iff assignment r satisfies
f, where atom i is true in assignment r iff bit i of r is set.  Boolean
connectives become integer bit-operations, entailment a single AND-and
-compare.  Exact by construction; inputs are assumed to stay at desk
scale (the atom count is capped).

The settled layer instantiates the constraint logic as: ``[]A`` is
derivable iff the settled base classically entails A.  The settled base
is the set of constraint bodies, plus the plain facts when the knowledge
base runs in facts-settled mode.  Conditionals never contribute.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .formulas import And, Atom, Bottom, Formula, Not, Or, Top, atoms_of
from .kb import KnowledgeBase

__all__ = [
    "AtomLimitError",
    "TruthTable",
    "KbEntailment",
    "cl_entails",
    "cl_consistent",
    "settled_base",
    "settled_entails",
    "fact_entails",
]

MAX_ATOMS = 20


class AtomLimitError(ValueError):
    """Raised when an entailment query involves too many atoms."""


class TruthTable:
    """Bitmask evaluation over a fixed, ordered atom tuple."""

    def __init__(self, atoms: Tuple[str, ...]):
        if len(atoms) > MAX_ATOMS:
            raise AtomLimitError(
                f"{len(atoms)} atoms exceed the supported maximum "
                f"of {MAX_ATOMS}"
            )
        self.atoms = atoms
        self.rows = 1 << len(atoms)
        self.full = (1 << self.rows) - 1
        self._patterns: Dict[str, int] = {}
        self._masks: Dict[Formula, int] = {}
        for i, name in enumerate(atoms):
            self._patterns[name] = self._atom_pattern(i)

    def _atom_pattern(self, i: int) -> int:
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        pattern = block
        length = period
        while length < self.rows:
            pattern |= pattern << length
            length <<= 1
        return pattern & self.full

    def mask(self, f: Formula) -> int:
        cached = self._masks.get(f)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            result = self._patterns[f.name]
        elif isinstance(f, Top):
            result = self.full
        elif isinstance(f, Bottom):
            result = 0
        elif isinstance(f, Not):
            result = self.full ^ self.mask(f.body)
        elif isinstance(f, Or):
            result = self.mask(f.left) | self.mask(f.right)
        elif isinstance(f, And):
            result = self.mask(f.left) & self.mask(f.right)
        else:
            raise TypeError(f"not a propositional formula: {f!r}")
        self._masks[f] = result
        return result

    def conj_mask(self, formulas: Iterable[Formula]) -> int:
        acc = self.full
        for f in formulas:
            acc &= self.mask(f)
        return acc

    def entails(self, assumption_mask: int, goal: Formula) -> bool:
        return assumption_mask & ~self.mask(goal) & self.full == 0


def _space(formulas: Iterable[Formula]) -> TruthTable:
    names = set()
    for f in formulas:
        names |= atoms_of(f)
    return TruthTable(tuple(sorted(names)))


def cl_entails(assumptions: Iterable[Formula], goal: Formula) -> bool:
    """Classical consequence: goal holds in every assignment satisfying
    all assumptions."""
    assumptions = tuple(assumptions)
    table = _space(assumptions + (goal,))
    return table.entails(table.conj_mask(assumptions), goal)


def cl_consistent(formulas: Iterable[Formula]) -> bool:
    """Joint classical satisfiability."""
    formulas = tuple(formulas)
    table = _space(formulas)
    return table.conj_mask(formulas) != 0


def settled_base(kb: KnowledgeBase) -> frozenset:
    """Formulas treated as settled: constraint bodies, plus facts when
    the facts-settled option is on."""
    base = {c.body for c in kb.constraints}
    if kb.options.facts_settled:
        base.update(kb.facts)
    return frozenset(base)


class KbEntailment:
    """Per-knowledge-base entailment context with a shared atom space.

    The atom space covers the knowledge base plus any extra formulas the
    caller will query (weakening targets, query bodies), so every check
    is a cached mask plus one bit-operation.  Pure cache: results agree
    with the module-level functions.
    """

    def __init__(self, kb: KnowledgeBase,
                 extra: Iterable[Formula] = ()):
        names = set()
        for p in kb.premises:
            names |= atoms_of(p)
        for f in extra:
            names |= atoms_of(f)
        self.kb = kb
        self.table = TruthTable(tuple(sorted(names)))
        self.settled_formulas = settled_base(kb)
        self.settled_mask = self.table.conj_mask(self.settled_formulas)
        self.fact_mask = self.settled_mask & self.table.conj_mask(kb.facts)

    def mask(self, f: Formula) -> int:
        return self.table.mask(f)

    def settled_entails(self, goal: Formula) -> bool:
        return self.table.entails(self.settled_mask, goal)

    def fact_entails(self, goal: Formula) -> bool:
        return self.table.entails(self.fact_mask, goal)

    def single_entails(self, premise: Formula, goal: Formula) -> bool:
        """One-premise classical entailment (used by the support order)."""
        return self.table.entails(self.table.mask(premise), goal)


def settled_entails(kb: KnowledgeBase, goal: Formula) -> bool:
    """Whether ``[]goal`` is derivable from the knowledge base: the
    settled base classically entails the goal."""
    return KbEntailment(kb, (goal,)).settled_entails(goal)


def fact_entails(kb: KnowledgeBase, goal: Formula) -> bool:
    """Whether the goal follows from everything held true: settled base
    plus plain facts (constraint bodies count as facts via reflexivity)."""
    return KbEntailment(kb, (goal,)).fact_entails(goal)
