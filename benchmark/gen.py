"""Seeded inputs for the benchmark workloads.

Every knowledge base (KB) is produced as text, exactly as a user would
write it, together with the query texts asked against it.  The same
seed always gives the same texts.

* The settled base (facts and constraints) is satisfiable by
  construction: a hidden assignment is drawn first, and every fact and
  every constraint is drawn true in it.
* ``literal_only`` keeps antecedents to ``true`` or a literal and
  consequents to a literal: the fragment in which the fast engine and
  the fixpoint engine must agree.
* ``prioritized`` puts a priority on every conditional.
* Paper gadgets (G1, G2, G9) are planted on fresh atoms that share
  nothing with the random part, so their verdicts are the paper's.

The gadget texts come from ``tests/kbs.py`` and the paper's verdict
matrix from ``tests/test_acceptance.py``; this module copies neither.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from kbs import KB_TEXTS  # tests/kbs.py
from test_acceptance import VERDICTS  # tests/test_acceptance.py

_KEYWORDS = {"fact", "constraint", "ob", "true", "false", "O"}
_NAME = re.compile(r"\b[a-z][a-zA-Z0-9_]*\b")


@dataclass(frozen=True)
class Item:
    """One KB with the queries asked against it.

    ``cells`` lists (query text, semantics) pairs in the order they are
    asked; a semantics is ``basic``, ``spec``, ``prio``, ``shadow`` or
    ``fast`` (the fast engine, basic semantics).  ``expected`` gives the
    paper's verdict for the cells that have one (planted gadgets and
    fixtures).
    """

    name: str
    kb_text: str
    cells: Tuple[Tuple[str, str], ...]
    expected: Dict[Tuple[str, str], bool] = field(default_factory=dict)


def paper_matrix() -> List[Tuple[str, str, List[Tuple[str, bool]]]]:
    """(fixture, semantics, [(query, verdict)]) rows of the paper's
    matrix, in a fixed order."""
    rows = []
    for (name, variant), cells in sorted(
        VERDICTS.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        rows.append((name, variant.value, list(cells)))
    return rows


def rename(text: str, prefix: str) -> str:
    """The text with every atom ``a`` renamed to ``prefix + a``."""
    return _NAME.sub(
        lambda m: m.group(0) if m.group(0) in _KEYWORDS
        else prefix + m.group(0), text)


def gadget_atoms(name: str, prefix: str) -> List[str]:
    return sorted({prefix + m for m in _NAME.findall(KB_TEXTS[name])
                   if m not in _KEYWORDS})


def _literal(atom: str, positive: bool) -> str:
    return atom if positive else "~" + atom


def complement_text(text: str) -> str:
    """Text of the syntactic complement of a literal or a formula."""
    if re.fullmatch(r"~[a-z][a-zA-Z0-9_]*", text):
        return text[1:]
    if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", text):
        return "~" + text
    return f"~({text})"


class _Random:
    """The random part of a KB: fresh atoms around a hidden assignment."""

    def __init__(self, rng: random.Random, n_atoms: int, prefix: str):
        self.rng = rng
        self.atoms = [f"{prefix}{i}" for i in range(n_atoms)]
        self.hidden = {a: rng.random() < 0.5 for a in self.atoms}
        self.fact_literals: List[str] = []

    def literal(self, atoms: Optional[Sequence[str]] = None) -> str:
        return _literal(self.rng.choice(atoms or self.atoms),
                        self.rng.random() < 0.5)

    def facts(self, count: int) -> List[str]:
        """Literal facts on distinct atoms, true in the hidden
        assignment."""
        chosen = self.rng.sample(self.atoms, min(count, len(self.atoms)))
        self.fact_literals = [_literal(a, self.hidden[a]) for a in chosen]
        return [f"fact {lit}" for lit in self.fact_literals]

    def constraints(self, shapes: Sequence[str]) -> List[str]:
        """One constraint per shape, true in the hidden assignment, each
        on atoms of its own outside the facts: ``nand`` (~(a & b))
        rules out a quarter of the assignments, ``clause`` (a | b | c)
        an eighth."""
        free = [a for a in self.atoms
                if _literal(a, True) not in self.fact_literals
                and _literal(a, False) not in self.fact_literals]
        self.rng.shuffle(free)
        out = []
        for shape in shapes:
            if shape == "nand":
                a, b, free = free[0], free[1], free[2:]
                out.append(f"constraint ~({_literal(a, not self.hidden[a])}"
                           f" & {_literal(b, self.rng.random() < 0.5)})")
            else:
                a, b, c, free = free[0], free[1], free[2], free[3:]
                out.append(f"constraint {_literal(a, self.hidden[a])} | "
                           f"{_literal(b, self.rng.random() < 0.5)} | "
                           f"{_literal(c, self.rng.random() < 0.5)}")
        return out

    def norms(self, roots: int, links: int, idle: int, literal_only: bool,
              prioritized: bool, clash: bool = False
              ) -> Tuple[List[str], List[str]]:
        """Conditionals (in shuffled order) and the consequents of those
        that fire.

        ``roots`` fire on ``true`` or on facts; each of the ``links``
        takes the consequent of an earlier firing conditional as its
        antecedent; the ``idle`` ones have the complement of a fact as
        antecedent and never fire.  Firing consequents are distinct and
        avoid the fact atoms, so (as long as there are enough atoms for
        distinct consequents) the KB has exactly ``roots + links``
        detachment chains: the shape, and with it the cost of a query,
        stays in a narrow band while the content is random.

        With ``clash`` the first two conditionals are roots with
        complementary literal consequents (``x``, ``~x``) and every other
        firing consequent is a literal on an atom of its own, so every KB
        has exactly one conflicting pair.  Without it, literals may
        collide at random, and a collision makes a query several times
        dearer."""
        open_atoms = [a for a in self.atoms
                      if _literal(a, True) not in self.fact_literals
                      and _literal(a, False) not in self.fact_literals]
        used = set()

        def fresh_consequent() -> str:
            if clash:
                if len(consequents) == 1:
                    return complement_text(consequents[0])
                taken = {c.lstrip("~") for c in consequents}
                return self.literal([a for a in open_atoms
                                     if a not in taken] or open_atoms)
            for _ in range(50):  # a small KB may run out of fresh ones
                roll = self.rng.random()
                if literal_only or roll < 0.7:
                    text = self.literal(open_atoms)
                elif roll < 0.85:
                    text = " & ".join(sorted({self.literal(open_atoms),
                                              self.literal(open_atoms)}))
                else:
                    text = " | ".join(sorted({self.literal(open_atoms),
                                              self.literal(open_atoms)}))
                if text not in used:
                    break
            used.add(text)
            return text

        def arrow() -> str:
            return f"=>[{self.rng.randint(1, 3)}]" if prioritized else "=>"

        lines: List[str] = []
        consequents: List[str] = []
        lead = ["root", "root"] if clash else ["root"]
        kinds = lead + sorted(["root"] * (roots - len(lead))
                              + ["link"] * links,
                              key=lambda _: self.rng.random())
        for kind in kinds:
            if kind == "link":
                antecedent = self.rng.choice(consequents)
            elif self.rng.random() < 0.4 or not self.fact_literals:
                antecedent = "true"
            elif literal_only or self.rng.random() < 0.7:
                antecedent = self.rng.choice(self.fact_literals)
            else:
                antecedent = " & ".join(sorted(set(self.rng.sample(
                    self.fact_literals, min(2, len(self.fact_literals))))))
            consequent = fresh_consequent()
            lines.append(f"ob {antecedent} {arrow()} {consequent}")
            consequents.append(consequent)
        for _ in range(idle):
            antecedent = complement_text(self.rng.choice(
                self.fact_literals)) if self.fact_literals else "false"
            lines.append(f"ob {antecedent} {arrow()} {self.literal()}")
        self.rng.shuffle(lines)
        return lines, consequents


def _gadget_cells(gadget: str, prefix: str, rng: random.Random,
                  count: int):
    """Up to ``count`` basic-semantics cells of a gadget's paper row."""
    cells = dict(next(c for n, v, c in paper_matrix()
                      if n == gadget and v == "basic"))
    chosen = rng.sample(sorted(cells), min(count, len(cells)))
    return [(rename(f"O {q}", prefix), cells[q]) for q in chosen]


def _wrap(query: str) -> str:
    return f"O {query}"


def _planted(gadget: str, prefix: str):
    """A gadget's renamed text, its atom count and its norm count."""
    text = rename(KB_TEXTS[gadget], prefix)
    return text, len(gadget_atoms(gadget, prefix)), text.count("ob ")


def fast_large_item(rng: random.Random, index: int, atoms: int, norms: int,
                    facts: int, constraints: Sequence[str], roots: int,
                    links: int) -> Item:
    """A KB outside the literal fragment with one planted gadget, and a
    batch of queries A, ~A, A | l and the gadget's: a complementary pair
    and an entailment-related pair."""
    gadget = ("G1", "G2", "G9")[index % 3]
    prefix = f"g{index}"
    text, g_atoms, g_norms = _planted(gadget, prefix)
    r = _Random(rng, atoms - g_atoms, "x")
    lines = r.facts(facts) + r.constraints(constraints)
    body, consequents = r.norms(roots, links, norms - g_norms - roots - links,
                                literal_only=False, prioritized=False)
    a = rng.choice(consequents)
    queries = [a, complement_text(a), f"{a} | {r.literal()}"]
    cells = [(_wrap(q), "fast") for q in queries]
    expected = {}
    for q, verdict in _gadget_cells(gadget, prefix, rng, 1):
        cells.append((q, "fast"))
        expected[(q, "fast")] = verdict
    kb_text = "\n".join(lines + body + [text])
    return Item(f"fast-large/{index}", kb_text, tuple(cells), expected)


def fixpoint_item(rng: random.Random, index: int, gadget: str, atoms: int,
                  facts: int, constraints: Sequence[str], roots: int,
                  links: int, idle: int, queries: int,
                  clash: bool = False) -> Item:
    """Literal-fragment KB with one planted gadget, asked under basic."""
    prefix = f"g{index}"
    text, g_atoms, _ = _planted(gadget, prefix)
    r = _Random(rng, atoms - g_atoms, "x")
    lines = r.facts(facts) + r.constraints(constraints)
    norms, consequents = r.norms(roots, links, idle, literal_only=True,
                                 prioritized=False, clash=clash)
    picked = rng.sample(consequents, min(queries, len(consequents)))
    cells = [(_wrap(q), "basic") for q in picked]
    expected = {}
    for q, verdict in _gadget_cells(gadget, prefix, rng, 1):
        cells.append((q, "basic"))
        expected[(q, "basic")] = verdict
    kb_text = "\n".join(lines + norms + [text])
    return Item(f"fixpoint/{index}", kb_text, tuple(cells), expected)


def small_item(rng: random.Random, index: int, atoms: int, norms: int,
               semantics: Sequence[str]) -> Item:
    """A desk-scale KB (one fact, a priority on every conditional) with
    a literal and its complement asked under every given semantics."""
    r = _Random(rng, atoms, "x")
    lines = r.facts(1) + r.constraints(["nand"] * (index % 2))
    links = 1 if norms <= 5 else 2
    body, consequents = r.norms(2, links, norms - 2 - links,
                                literal_only=True, prioritized=True)
    q = rng.choice(consequents)
    cells = [(_wrap(text), sem) for text in (q, complement_text(q))
             for sem in semantics]
    return Item(f"small/{index}", "\n".join(lines + body), tuple(cells))


def fixture_items() -> List[Item]:
    """The paper's verdict matrix, one item per (fixture, semantics)
    row, with the fast engine asked too on basic rows, plus the
    G4 + (true => r) cell."""
    items = []
    for name, variant, rows in paper_matrix():
        semantics = [variant] + (["fast"] if variant == "basic" else [])
        cells = [(_wrap(q), s) for q, _ in rows for s in semantics]
        expected = {(_wrap(q), s): want for q, want in rows
                    for s in semantics}
        items.append(Item(f"{name}/{variant}", KB_TEXTS[name], tuple(cells),
                          expected))
    g4r = [("O ~s", "basic"), ("O ~s", "fast")]
    items.append(Item("G4+r/basic", KB_TEXTS["G4"] + "\nob true => r",
                      tuple(g4r), {cell: False for cell in g4r}))
    return items
