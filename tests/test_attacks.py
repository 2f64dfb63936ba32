"""Attack relations: witnesses, directions, propagation, and the
per-variant graphs."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from daf.arguments import (
    FACTUAL,
    WEAKEN,
    aggregate,
    enumerate_universe,
    factual_detach,
    weaken,
)
from daf.attacks import (
    AttackKind,
    Variant,
    build_attack_graph,
    conflict_attacks,
    fact_attacked,
    prioritized_attacks,
    priority_rank,
    shadow_attacks,
    specificity_attacks,
    strictly_more_specific,
    support_at_most,
)
from daf.entail import cl_consistent, settled_base, settled_entails
from daf.formulas import complement, conjoin, ob, parse_formula, render
from daf.kb import ValidationError, parse_kb
from kbs import kb, random_kb


def pf(text):
    return parse_formula(text)


def _member(universe, conclusion_text, rule=None):
    matches = [
        a
        for a in universe.with_conclusion(ob(pf(conclusion_text)))
        if rule is None or a.rule == rule
    ]
    assert matches, conclusion_text
    return min(matches, key=lambda a: a.aid)


# -- fact attack -------------------------------------------------------------


def test_fact_attack_witness_examples():
    g1 = kb("G1")
    universe = enumerate_universe(g1)
    a2 = _member(universe, "~p")
    assert fact_attacked(g1, a2) == {pf("~p")}
    a4 = _member(universe, "q")
    assert fact_attacked(g1, a4) is None

    g2 = kb("G2")
    a1 = factual_detach(g2.conditionals[0])
    a2b = factual_detach(g2.conditionals[1])
    a4b = weaken(a1, pf("p | ~q"))
    a5 = aggregate([a2b, a4b])
    assert fact_attacked(g2, a5) == {pf("p"), pf("~p")}


def test_fact_attack_subset_test_equals_joint_inconsistency():
    """Witness existence coincides with joint inconsistency of the
    obligations with the settled base, by brute force up to |UO| = 6."""
    rng = random.Random(42)
    checked = 0
    for _ in range(60):
        source = random_kb(rng)
        universe = enumerate_universe(source)
        base_set = settled_base(source)
        for a in universe.deontic:
            if len(a.uo) > 6:
                continue
            brute = False
            ordered = sorted(a.uo, key=render)
            for size in range(1, len(ordered) + 1):
                for subset in itertools.combinations(ordered, size):
                    if settled_entails(
                        source, complement(conjoin(subset))
                    ):
                        brute = True
                        break
                if brute:
                    break
            witness = fact_attacked(source, a)
            assert (witness is not None) == brute
            assert brute == (not cl_consistent(base_set | a.uo))
            if witness is not None:
                assert witness <= a.uo
                assert not cl_consistent(base_set | witness)
            checked += 1
    assert checked > 100


def test_fact_attack_requires_deontic_target():
    from daf.arguments import constraint_leaf

    with pytest.raises(ValueError):
        fact_attacked(kb("G1"), constraint_leaf(pf("p")))


# -- conflict attack ---------------------------------------------------------


def test_conflict_attack_examples():
    g1 = kb("G1")
    universe = enumerate_universe(g1)
    a3 = _member(universe, "~q")
    a4 = _member(universe, "q")
    assert conflict_attacks(a3, a4)
    assert conflict_attacks(a4, a3)
    other = _member(universe, "~p")
    assert not conflict_attacks(a4, other)


def test_conflict_propagates_to_superarguments():
    g3 = kb("G3")
    universe = enumerate_universe(g3)
    graph = build_attack_graph(g3, universe, Variant.BASIC)
    pairs = graph.edge_pairs()
    a1 = _member(universe, "r")
    a2 = _member(universe, "s")
    a3 = _member(universe, "r & s")
    a5 = _member(universe, "~r", WEAKEN)
    a6 = _member(universe, "~s", WEAKEN)
    a4 = universe.constraint_leaves[0]
    assert (a4.aid, a3.aid) in pairs  # fact attack on the joint obligation
    for src, dst in [(a1, a5), (a5, a1), (a5, a3), (a5, a6),
                     (a2, a6), (a6, a2), (a6, a3), (a6, a5)]:
        assert (src.aid, dst.aid) in pairs


def test_propagation_invariant_on_fixture_graphs():
    """Whenever an argument is attacked, each of its superarguments is
    attacked by the same attacker."""
    for name, variant in [("G1", Variant.BASIC), ("G3", Variant.BASIC),
                          ("G4", Variant.BASIC), ("G3", Variant.SPEC),
                          ("G6", Variant.PRIO)]:
        source = kb(name)
        universe = enumerate_universe(source)
        graph = build_attack_graph(source, universe, variant)
        pairs = graph.edge_pairs()
        members = universe.arguments
        for src, dst in pairs:
            target = universe.by_id[dst]
            for sup in members:
                if target.cs < sup.cs:
                    assert (src, sup.aid) in pairs, (name, variant)


# -- specificity -------------------------------------------------------------


def test_support_order_examples():
    g5 = kb("G5")
    s_a1 = frozenset({pf("q")})
    s_a2 = frozenset({pf("q & r")})
    assert support_at_most(g5, s_a2, s_a1)
    assert not support_at_most(g5, s_a1, s_a2)
    assert strictly_more_specific(g5, s_a2, s_a1)
    # {p} and {p, q} are incomparable
    assert not support_at_most(
        g5, frozenset({pf("p")}), frozenset({pf("p"), pf("q")})
    )


def test_support_order_is_a_preorder():
    rng = random.Random(3)
    from kbs import random_formula

    names = ["p", "q"]
    sets = [
        frozenset(
            random_formula(rng, names, 2) for _ in range(rng.randint(1, 3))
        )
        for _ in range(12)
    ]
    base = parse_kb("fact p")
    for sa in sets:
        assert support_at_most(base, sa, sa)
    for sa, sb, sc in itertools.product(sets, repeat=3):
        if support_at_most(base, sa, sb) and support_at_most(base, sb, sc):
            assert support_at_most(base, sa, sc)
        if strictly_more_specific(base, sa, sb):
            assert not strictly_more_specific(base, sb, sa)
            assert not strictly_more_specific(base, sa, sa)
            if strictly_more_specific(base, sb, sc):
                assert strictly_more_specific(base, sa, sc)


def test_specificity_attack_directions():
    g5 = kb("G5")
    universe = enumerate_universe(g5)
    a1 = _member(universe, "p")
    a2 = _member(universe, "~p")
    edges = specificity_attacks(g5, a1, a2)
    assert edges == {(a2, a1)}
    graph = build_attack_graph(g5, universe, Variant.SPEC)
    pairs = graph.edge_pairs()
    assert (a2.aid, a1.aid) in pairs
    assert (a1.aid, a2.aid) not in pairs


def test_specificity_totality_on_conflict_pairs():
    """At least one direction of attack holds on every complementary
    pair."""
    for name in ["G3", "G5", "G9"]:
        source = kb(name)
        universe = enumerate_universe(source)
        for a in universe.deontic:
            for b in universe.deontic:
                if conflict_attacks(a, b):
                    assert specificity_attacks(source, a, b)


def test_specificity_equal_supports_attack_mutually():
    g9 = kb("G9")
    universe = enumerate_universe(g9)
    a2 = _member(universe, "~r", FACTUAL)
    a3 = _member(universe, "r")
    edges = specificity_attacks(g9, a2, a3)
    assert edges == {(a2, a3), (a3, a2)}


def test_spec_graph_example3():
    g3 = kb("G3")
    universe = enumerate_universe(g3)
    graph = build_attack_graph(g3, universe, Variant.SPEC)
    pairs = graph.edge_pairs()
    a1 = _member(universe, "r")
    a2 = _member(universe, "s")
    a5 = _member(universe, "~r", WEAKEN)
    a6 = _member(universe, "~s", WEAKEN)
    assert (a5.aid, a1.aid) in pairs
    assert (a1.aid, a5.aid) not in pairs
    assert (a2.aid, a6.aid) in pairs
    assert (a6.aid, a2.aid) not in pairs


# -- priorities --------------------------------------------------------------


def test_priority_rank_examples():
    g6 = kb("G6")
    universe = enumerate_universe(g6)
    ranks = {}
    for text, expect in [("s", 1), ("t", 2), ("u", 3), ("s & t", 1),
                         ("t & u", 2), ("s & t & u", 1), ("~s", 2),
                         ("~u", 1), ("~(s & t)", 3)]:
        a = _member(universe, text)
        ranks[text] = priority_rank(a)
        assert ranks[text] == expect, text
    leaf = universe.constraint_leaves[0]
    assert priority_rank(leaf) == math.inf


def test_priority_rank_requires_priorities():
    g1 = kb("G1")
    universe = enumerate_universe(g1)
    with pytest.raises(ValidationError, match="missing priority"):
        priority_rank(_member(universe, "q"))


def test_prioritized_attack_examples():
    g6 = kb("G6")
    universe = enumerate_universe(g6)
    a2 = _member(universe, "s")
    a3 = _member(universe, "t")
    a13 = _member(universe, "~t", WEAKEN)
    a14 = _member(universe, "~s", WEAKEN)
    assert prioritized_attacks(a14, a2)
    assert not prioritized_attacks(a2, a14)
    assert prioritized_attacks(a3, a13)
    graph = build_attack_graph(g6, universe, Variant.PRIO)
    pairs = graph.edge_pairs()
    a4 = _member(universe, "u")
    a5 = _member(universe, "s & t")
    a12 = _member(universe, "~u", WEAKEN)
    a11 = _member(universe, "~(s & t)", WEAKEN)
    for src, dst in [(a14, a2), (a14, a5), (a14, a12), (a3, a13),
                     (a4, a12), (a11, a5), (a11, a12)]:
        assert (src.aid, dst.aid) in pairs
    assert (a2.aid, a14.aid) not in pairs
    assert (a12.aid, a4.aid) not in pairs


def test_equal_ranks_attack_mutually():
    base = parse_kb("ob true =>[2] p\nob true =>[2] ~p")
    universe = enumerate_universe(base)
    a = _member(universe, "p")
    b = _member(universe, "~p")
    assert prioritized_attacks(a, b) and prioritized_attacks(b, a)


# -- shadow ------------------------------------------------------------------


def test_shadow_attack_party_example():
    g7 = kb("G7")
    universe = enumerate_universe(g7, with_doubt=True)
    doubt = next(
        d for d in universe.doubts if render(d.conclusion) == "(.)~p"
    )
    a2 = _member(universe, "q", FACTUAL)
    a3 = _member(universe, "r")
    a4 = _member(universe, "~p")
    for target in (a2, a3, a4):
        assert shadow_attacks(doubt, target, universe)
    leaf = next(
        l for l in universe.constraint_leaves
        if render(l.conclusion) == "[]p"
    )
    assert not shadow_attacks(doubt, leaf, universe)


def test_shadow_attack_detachment_chain_example():
    g8 = kb("G8")
    universe = enumerate_universe(g8, with_doubt=True)
    doubt = next(
        d for d in universe.doubts if render(d.conclusion) == "(.)~s"
    )
    for text in ["p", "q", "p & q", "r", "~s", "t"]:
        target = _member(universe, text)
        assert shadow_attacks(doubt, target, universe), text


def test_shadow_attack_via_chain_commitment():
    g4 = kb("G4")
    universe = enumerate_universe(g4, with_doubt=True)
    doubt = next(
        d for d in universe.doubts if render(d.conclusion) == "(.)s"
    )
    for text in ["q", "r", "~q", "s"]:
        target = _member(universe, text)
        assert shadow_attacks(doubt, target, universe), text


def test_shadow_subsumes_basic_attacks():
    """Anything fact- or conflict-attacked in the basic graph is
    shadow-attacked (directly or via a subargument) in the doubt
    universe."""
    for name in ["G1", "G3", "G4", "G7", "G8", "G9"]:
        source = kb(name)
        basic_universe = enumerate_universe(source)
        basic = build_attack_graph(source, basic_universe, Variant.BASIC)
        shadow_universe = enumerate_universe(source, with_doubt=True)
        shadow = build_attack_graph(source, shadow_universe, Variant.SHADOW)
        shadow_targets = {dst for _, dst, _ in shadow.edges}
        lookup = {}
        for a in shadow_universe.arguments:
            lookup[(a.conclusion, a.cs)] = a
        for _, dst, _ in basic.edges:
            target = basic_universe.by_id[dst]
            twin = lookup.get((target.conclusion, target.cs))
            assert twin is not None, (name, target)
            hit = twin.aid in shadow_targets or any(
                b.aid in shadow_targets
                for b in shadow_universe.deontic
                if b.cs <= twin.cs
            )
            assert hit, (name, render(target.conclusion))


def test_variant_and_doubt_mode_must_match():
    g7 = kb("G7")
    plain = enumerate_universe(g7)
    with pytest.raises(ValueError):
        build_attack_graph(g7, plain, Variant.SHADOW)
    doubtful = enumerate_universe(g7, with_doubt=True)
    with pytest.raises(ValueError):
        build_attack_graph(g7, doubtful, Variant.BASIC)


def test_empty_kb_graph_is_empty():
    empty = parse_kb("")
    universe = enumerate_universe(empty)
    graph = build_attack_graph(empty, universe, Variant.BASIC)
    assert graph.edges == ()


# -- differential: graph builders against the rule predicates ---------------


def _direction_holds(source, universe, variant, z, y):
    if variant == Variant.BASIC:
        return True
    if variant == Variant.SPEC:
        return (z, y) in specificity_attacks(source, z, y, universe.ctx)
    return prioritized_attacks(z, y)


def test_graph_edges_equal_the_rule_predicates():
    """Every non-shadow graph edge set equals the brute-force closure of
    the module predicates: conflict edges from ``conflict_attacks`` plus
    the variant's direction, propagated to superarguments, and fact-edge
    targets from ``fact_attacked``."""
    rng = random.Random(20160605)
    for _ in range(40):
        source = random_kb(rng, prioritized=True)
        universe = enumerate_universe(source)
        members = universe.arguments
        fact_targets = {
            x.aid for x in universe.deontic
            if fact_attacked(source, x, universe.ctx) is not None
        }
        for variant in (Variant.BASIC, Variant.SPEC, Variant.PRIO):
            graph = build_attack_graph(source, universe, variant)
            expected = set()
            for y in universe.deontic:
                for z in universe.deontic:
                    if not conflict_attacks(z, y):
                        continue
                    if not _direction_holds(source, universe, variant, z, y):
                        continue
                    expected.update(
                        (z.aid, x.aid) for x in members
                        if x is y or y.cs < x.cs
                    )
            conflict = {(s, d) for s, d, k in graph.edges
                        if k != AttackKind.FACT}
            assert conflict == expected, (str(source), variant)
            fact = {d for _, d, k in graph.edges if k == AttackKind.FACT}
            assert fact == fact_targets, (str(source), variant)


def test_shadow_graph_edges_equal_shadow_attacks():
    rng = random.Random(16061605)
    for _ in range(25):
        source = random_kb(rng, max_conditionals=4, prioritized=True)
        universe = enumerate_universe(source, with_doubt=True)
        graph = build_attack_graph(source, universe, Variant.SHADOW)
        expected = {
            (d.aid, t.aid)
            for d in universe.doubts
            for t in universe.arguments
            if shadow_attacks(d, t, universe)
        }
        assert graph.edge_pairs() == expected, str(source)
