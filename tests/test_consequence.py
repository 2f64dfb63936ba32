"""Derivability engines: fixpoint vs fast, output base, extension."""

from __future__ import annotations

import random

import pytest

from daf.attacks import Variant
from daf.consequence import (
    _FastBasic,
    entails,
    entails_fast_basic,
    extend_with_output,
    output_base,
)
from daf.formulas import TOP, atoms_of, parse_formula, render
from daf.kb import KbOptions, ValidationError, parse_kb
from kbs import kb, query_pool, random_kb


def pf(text):
    return parse_formula(text)


def test_g1_verdicts_both_engines():
    g1 = kb("G1")
    for text, expected in [("q", True), ("q | r", True), ("~p", False),
                           ("~q", False)]:
        fixpoint = entails(g1, Variant.BASIC, pf(text))
        fast = entails_fast_basic(g1, pf(text))
        assert fixpoint.derivable == expected
        assert fast.derivable == expected
        # a witness argument accompanies exactly the positive fixpoint runs
        assert (fixpoint.witness is not None) == expected
        assert fast.witness is None


def test_g5_specificity_verdicts():
    g5 = kb("G5")
    assert entails(g5, Variant.SPEC, pf("~p")).derivable
    assert not entails(g5, Variant.SPEC, pf("p")).derivable


def test_g7_shadow_blocks_the_chain():
    g7 = kb("G7")
    assert entails(g7, Variant.BASIC, pf("q")).derivable
    assert entails(g7, Variant.BASIC, pf("r")).derivable
    assert not entails(g7, Variant.SHADOW, pf("q")).derivable
    assert not entails(g7, Variant.SHADOW, pf("r")).derivable


def test_g9_blocked_transitivity():
    g9 = kb("G9")
    assert entails_fast_basic(g9, pf("q")).derivable
    assert not entails_fast_basic(g9, pf("r")).derivable
    assert not entails_fast_basic(g9, pf("~r")).derivable


def test_g4_fast_engine_examples():
    g4 = kb("G4")
    assert entails_fast_basic(g4, pf("r")).derivable
    assert entails_fast_basic(g4, pf("~s")).derivable
    assert not entails_fast_basic(g4, pf("s")).derivable
    assert not entails_fast_basic(g4, pf("~r")).derivable


def test_verdict_rendering_and_fields():
    g1 = kb("G1")
    verdict = entails(g1, Variant.BASIC, pf("q"))
    assert str(verdict) == "G |-DAF O q"
    assert verdict.witness is not None
    assert str(verdict.witness.conclusion) == "O q"
    assert verdict.universe_stats["arguments"] > 0
    missing = entails(g1, Variant.BASIC, pf("~q"))
    assert str(missing) == "G |/-DAF O ~q (within bounds)"
    assert missing.witness is None
    fast = entails_fast_basic(g1, pf("~q"))
    assert str(fast) == "G |/-DAF O ~q"
    assert fast.categorical


def test_prio_requires_priorities():
    with pytest.raises(ValidationError):
        entails(kb("G1"), Variant.PRIO, pf("q"))


def test_output_base_examples():
    assert output_base(kb("G1")).conclusions == {pf("q")}
    assert output_base(kb("G2")).conclusions == {pf("q")}
    assert output_base(parse_kb("")).conclusions == frozenset()
    base = output_base(kb("G1"))
    assert pf("q | r") in base
    assert pf("~p") not in base


def test_extend_with_output():
    g4 = kb("G4")
    extended = extend_with_output(g4, [pf("r")])
    added = extended.conditionals[-1]
    assert added.antecedent is TOP
    assert added.consequent is pf("r")
    assert added.priority is None
    assert len(extend_with_output(g4, []).premises) == len(g4.premises)
    # the cautious-monotonicity counterexample
    assert entails_fast_basic(g4, pf("~s")).derivable
    assert not entails_fast_basic(extended, pf("~s")).derivable
    assert not entails(extended, Variant.BASIC, pf("~s")).derivable


def test_extend_with_output_priorities():
    g6 = kb("G6")
    extended = extend_with_output(g6, [pf("t")])
    assert extended.conditionals[-1].priority == 3
    pinned = extend_with_output(g6, [pf("t")], priority=1)
    assert pinned.conditionals[-1].priority == 1


def test_shadow_cm_premises_fail_legitimately_on_g4():
    """The basic-variant counterexample does not transfer: under the
    doubt semantics the premises of cautious monotonicity already fail."""
    g4 = kb("G4")
    extended = extend_with_output(g4, [pf("r")])
    assert not entails(g4, Variant.SHADOW, pf("q")).derivable
    assert not entails(extended, Variant.SHADOW, pf("q")).derivable


def test_engines_agree_on_random_kbs_spot():
    rng = random.Random(77)
    for _ in range(30):
        source = random_kb(rng)
        names = sorted(
            {n for p in source.premises for n in _atom_names(p)}
        ) or ["p"]
        queries = query_pool(names)
        for query in rng.sample(queries, min(3, len(queries))):
            fast = entails_fast_basic(source, query)
            slow = entails(source, Variant.BASIC, query)
            assert fast.derivable == slow.derivable, (
                str(source), render(query)
            )


def _atom_names(premise):
    from daf.formulas import atoms_of

    return atoms_of(premise)


def test_empty_kb_nothing_derivable():
    empty = parse_kb("")
    assert not entails(empty, Variant.BASIC, pf("p")).derivable
    assert not entails_fast_basic(empty, pf("p")).derivable
    # a settled tautology is still not an obligation without norms
    assert not entails_fast_basic(empty, pf("p | ~p")).derivable


# ---------------------------------------------------------------------------
# fast engine against a brute-force reference


def _random_kb_text(rng: random.Random) -> str:
    """Up to eight atoms, clause constraints, and conjunctive or
    disjunctive facts, antecedents and consequents."""
    names = "abcdefgh"[: rng.randint(2, 8)]

    def literal():
        name = rng.choice(names)
        return name if rng.random() < 0.5 else f"~{name}"

    def operand():
        roll = rng.random()
        if roll < 0.5:
            return literal()
        return f"({literal()} {'&' if roll < 0.75 else '|'} {literal()})"

    lines = [f"fact {operand()}" for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 3)):
        clause = " | ".join(literal() for _ in range(rng.randint(1, 3)))
        lines.append(f"constraint {clause}")
    for _ in range(rng.randint(1, 7)):
        antecedent = "true" if rng.random() < 0.3 else operand()
        lines.append(f"ob {antecedent} => {operand()}")
    return "\n".join(lines)


def _reference(engine: _FastBasic, queries):
    """Accepted chains and query verdicts, decided row by row and
    obligation by obligation from the engine's chains and truth table."""
    table = engine.ctx.table
    settled = engine.ctx.settled_mask
    rows = [r for r in range(table.rows) if settled >> r & 1]
    chains = engine.chains

    def holds(i, r):
        return all(table.mask(f) >> r & 1 for f in chains[i].uo)

    def maximal_sets(members):
        sets = []
        for r in rows:
            held = [i for i in members if holds(i, r)]
            if held and held not in sets:
                sets.append(held)
        return sets

    def joint(chain_set):
        mask = settled
        for i in chain_set:
            mask &= table.mask(chains[i].conclusion)
        return mask

    coherent = [i for i in range(len(chains))
                if any(holds(i, r) for r in rows)]
    sets = maximal_sets(coherent)

    def refutable(formula):
        return any(joint(s) & table.mask(formula) == 0 for s in sets)

    accepted = [i for i in coherent
                if not any(refutable(f) for f in chains[i].uo)]
    accepted_sets = maximal_sets(accepted)
    verdicts = [any(table.entails(joint(s), q) for s in accepted_sets)
                for q in queries]
    return accepted, verdicts, len(sets)


def _check_against_reference(text, facts_settled, queries):
    source = parse_kb(text, KbOptions(facts_settled=facts_settled))
    engine = _FastBasic(source, tuple(queries))
    accepted, verdicts, _ = _reference(engine, queries)
    assert engine.accepted == accepted, text
    assert [engine.derivable(q) for q in queries] == verdicts, text
    return verdicts


def test_fast_engine_matches_brute_force_reference():
    rng = random.Random(20161606)
    positives = 0
    for seed in range(150):
        text = _random_kb_text(rng)
        source = parse_kb(text)
        consequents = [c.consequent for c in source.conditionals]
        names = sorted({n for p in source.premises for n in atoms_of(p)})
        pool = consequents + query_pool(names)
        queries = rng.sample(pool, min(6, len(pool)))
        positives += sum(
            _check_against_reference(text, seed % 2 == 0, queries))
    assert positives > 50  # the comparison covers positive verdicts too


def test_fast_engine_without_coherent_chains():
    text = "constraint ~p\nconstraint ~q\nob true => p\nob p => q"
    _check_against_reference(text, True, [pf("p"), pf("q"), pf("p | q")])
    engine = _FastBasic(parse_kb(text))
    assert len(engine.chains) == 2
    assert engine.accepted == []


def test_acceptance_scan_stops_once_every_obligation_is_refuted(
        monkeypatch):
    # rows in order: {~p, ~q} refutes p and q, {p, ~q} refutes ~p,
    # {~p, q} refutes ~q; the fourth maximal set, {p, q}, is not needed
    text = "ob true => p\nob true => ~p\nob true => q\nob true => ~q"
    source = parse_kb(text)
    _check_against_reference(text, True, [pf("p"), pf("~p"), pf("p | q")])
    consumed = []
    original = _FastBasic._joint_masks

    def counting(self, members):
        for joint in original(self, members):
            consumed.append(joint)
            yield joint

    monkeypatch.setattr(_FastBasic, "_joint_masks", counting)
    engine = _FastBasic(source)
    _, _, total = _reference(engine, [])
    assert engine.accepted == []
    assert (len(consumed), total) == (3, 4)


def test_one_chain_set_scan_per_build_and_per_query(monkeypatch):
    calls = []
    original = _FastBasic._joint_masks

    def counted(self, members):
        calls.append(len(members))
        return original(self, members)

    monkeypatch.setattr(_FastBasic, "_joint_masks", counted)
    engine = _FastBasic(kb("G4"), (pf("r"), pf("~s"), pf("s")))
    assert len(calls) == 1
    for n, query in enumerate([pf("r"), pf("~s"), pf("s"), pf("q")], 2):
        engine.derivable(query)
        assert len(calls) == n
