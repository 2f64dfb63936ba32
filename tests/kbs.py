"""Shared premise-set fixtures (the nine benchmark scenarios) and a
seeded random knowledge-base generator for the property suites."""

from __future__ import annotations

import random
from typing import List

from daf.formulas import Formula, TOP, atom, conj2, disj, neg
from daf.kb import KbOptions, KnowledgeBase, parse_kb

KB_TEXTS = {
    # contrary-to-duty: dog, warning sign
    "G1": "constraint p\nob true => ~p\nob ~p => ~q\nob p => q",
    # jointly incoherent unconditional norms
    "G2": "ob true => p\nob true => ~p\nob true => q",
    # conflicting detachments under a joint constraint
    "G3": "fact p\nfact q\nob p => r\nob p & q => s\nconstraint ~(r & s)",
    # cautious/rational monotonicity counterexample base
    "G4": ("fact p\nob p => q\nob q => r\nob r => ~q\nob ~q => s\n"
           "ob true => ~s"),
    # specificity: carrot soup
    "G5": "fact q\nfact r\nob q => p\nob q & r => ~p",
    # three prioritized norms under a joint constraint
    "G6": ("fact p\nfact q\nfact r\nconstraint ~(s & t & u)\n"
           "ob p =>[1] s\nob q =>[2] t\nob r =>[3] u"),
    # party invitations: committing to a violation
    "G7": "fact p\nob p => q\nob q => r\nob r => ~p",
    # doubt propagation across a detachment chain
    "G8": ("constraint s\nob true => p\nob true => q\nob p & q => r\n"
           "ob r => ~s\nob q => t"),
    # blocked transitive detachment
    "G9": "fact p\nob p => q\nob p => ~r\nob q => r",
}


def kb(name: str, facts_settled: bool = True) -> KnowledgeBase:
    return parse_kb(KB_TEXTS[name], KbOptions(facts_settled=facts_settled))


def literal_pool(names: List[str]) -> List[Formula]:
    atoms = [atom(n) for n in names]
    return atoms + [neg(a) for a in atoms]


def query_pool(names: List[str]) -> List[Formula]:
    """Atoms, their negations, and pairwise conjunctions/disjunctions."""
    atoms = [atom(n) for n in names]
    pool: List[Formula] = list(atoms) + [neg(a) for a in atoms]
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            pool.append(conj2(a, b))
            pool.append(disj(a, b))
    return pool


def random_kb(
    rng: random.Random,
    max_atoms: int = 4,
    max_conditionals: int = 5,
    max_constraints: int = 2,
    max_facts: int = 2,
    prioritized: bool = False,
    compound: bool = False,
    facts_settled: bool = True,
) -> KnowledgeBase:
    """A small random knowledge base over two to ``max_atoms`` (at most
    six) atoms.

    By default antecedents are literals or truth and consequents are
    literals.  This keeps deontic detachment on the structural
    antecedent match active while staying inside the fragment where the
    chain-level engine is a faithful oracle for grounded evaluation.
    ``compound`` makes half of the antecedents and consequents a
    conjunction or disjunction of two literals; ``facts_settled`` is the
    knowledge-base option.  Neither draws random numbers when left at
    its default, so existing seeds give the same knowledge bases.
    """
    names = ["p", "q", "r", "s", "t", "u"][: rng.randint(2, max_atoms)]
    literals = literal_pool(names)
    lines: List[str] = []

    def literal() -> Formula:
        return rng.choice(literals)

    def operand() -> Formula:
        if not compound or rng.random() < 0.5:
            return literal()
        join = conj2 if rng.random() < 0.5 else disj
        return join(literal(), literal())

    for _ in range(rng.randint(0, max_facts)):
        lines.append(f"fact {literal()}")
    for _ in range(rng.randint(0, max_constraints)):
        if rng.random() < 0.5:
            lines.append(f"constraint {literal()}")
        else:
            lines.append(f"constraint ~({literal()} & {literal()})")
    for _ in range(rng.randint(1, max_conditionals)):
        antecedent: Formula = TOP if rng.random() < 0.4 else operand()
        consequent = operand()
        if prioritized:
            lines.append(
                f"ob {antecedent} =>[{rng.randint(1, 3)}] {consequent}"
            )
        else:
            lines.append(f"ob {antecedent} => {consequent}")
    return parse_kb("\n".join(lines), KbOptions(facts_settled=facts_settled))


def random_formula(rng: random.Random, names: List[str],
                   depth: int = 3) -> Formula:
    """Random propositional formula over the given atom names."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        if roll < 0.2:
            from daf.formulas import BOTTOM

            return BOTTOM
        return atom(rng.choice(names))
    roll = rng.random()
    if roll < 0.35:
        return neg(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return disj(left, right) if roll < 0.7 else conj2(left, right)
