"""Tests of the benchmark's own checker and input generator.

    python3 -m pytest -q benchmark/test_check.py

Each check must accept a right answer and reject a hand-made wrong one.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import check  # noqa: E402
import gen  # noqa: E402
from daf import parse_kb  # noqa: E402
from daf.formulas import atoms_of  # noqa: E402
from daf.grounded import AbstractFramework, grounded_extension  # noqa: E402


def test_evaluator_precedence_and_entailment():
    view = check.KbView("fact p\nconstraint ~(q & r)",
                        ["O p | q & r", "O (p | q) & r", "O p -> q",
                         "O ~(q & r)", "O q <-> ~r"])
    t = view.table
    assert view.query_models("O p | q & r") != \
        view.query_models("O (p | q) & r")
    assert t.entails(view.query_models("O (p | q) & r"),
                     view.query_models("O p | q & r"))
    assert t.entails(view.settled, view.query_models("O ~(q & r)"))
    assert t.entails(view.settled, view.query_models("O p -> q")) is False
    # 3 atoms, p true and not both q and r: three of eight rows
    assert bin(view.settled).count("1") == 3


def test_expected_rejects_a_flipped_verdict():
    expected = {("O q", "basic"): True, ("O ~p", "basic"): False}
    right = dict(expected)
    assert check.check_expected(right, expected) == []
    flipped = {**expected, ("O q", "basic"): False}
    assert [q for q, _ in check.check_expected(flipped, expected)] == ["O q"]


def test_batch_rejects_complementary_verdicts_and_missing_closure():
    queries = ["O p", "O ~p", "O p | q"]
    view = check.KbView("ob true => p", queries)
    good = {"O p": True, "O ~p": False, "O p | q": True}
    assert check.check_batch(view, good) == []
    both = {**good, "O ~p": True}
    assert any("both" in p for _, p in check.check_batch(view, both))
    unclosed = {**good, "O p | q": False}
    assert [q for q, _ in check.check_batch(view, unclosed)] == ["O p | q"]
    assert check.check_batch(view, unclosed, closure=False) == []


def test_settled_consistency_rejects_a_violated_obligation():
    view = check.KbView("fact p\nob true => ~p", ["O ~p", "O q"])
    assert check.check_settled_consistent(view, {"O q": True}) == []
    assert [q for q, _ in check.check_settled_consistent(
        view, {"O ~p": True})] == ["O ~p"]


# 0 is unattacked and attacks 1; 1 attacks 2; 3 and 4 attack each other;
# 3 attacks 5
NODES = [0, 1, 2, 3, 4, 5]
ATTACKS = [(0, 1), (1, 2), (3, 4), (3, 5), (4, 3)]


def test_grounded_labelling_and_stages():
    assert check.grounded_labelling(NODES, ATTACKS) == {0, 2}
    assert check.grounded_stages(NODES, ATTACKS) == [{0}, {0, 2}]
    assert check.check_grounded(NODES, ATTACKS, {0, 2}) == []


def test_grounded_rejects_an_undefended_member():
    problems = check.check_grounded(NODES, ATTACKS, {0, 2, 5})
    assert any("undefended" in p for p in problems)


def test_grounded_rejects_a_set_computed_without_one_edge():
    dropped = [e for e in ATTACKS if e != (0, 1)]
    wrong = check.grounded_labelling(NODES, dropped)
    assert wrong == {0, 1}
    assert check.check_grounded(NODES, ATTACKS, wrong) != []


def test_labelling_agrees_with_the_program_on_random_frameworks():
    rng = random.Random(7)
    for _ in range(200):
        nodes = list(range(rng.randint(1, 9)))
        attacks = sorted({(rng.choice(nodes), rng.choice(nodes))
                          for _ in range(rng.randint(0, 14))})
        result = grounded_extension(AbstractFramework(tuple(nodes),
                                                      tuple(attacks)))
        assert check.grounded_labelling(nodes, attacks) == result.grounded
        assert check.grounded_stages(nodes, attacks) == \
            [set(s) for s in result.stages]


def _export():
    record = {
        "arguments": [{"id": 0, "children": []}, {"id": 1, "children": [0]},
                      {"id": 2, "children": []}],
        "attacks": [{"from": 2, "to": 1, "kind": "conflict"}],
        "grounded": [0, 2],
        "stages": [[0, 2]],
    }
    dot = ("digraph daf {\n  a2 -> a1 [color=black];\n"
           "  a0 -> a1 [style=dashed, dir=none, constraint=false];\n}\n")
    return record, dot


def test_export_check_accepts_a_consistent_export():
    record, dot = _export()
    assert check.check_export(record, dot) == []


def test_export_check_rejects_a_dropped_attack():
    record, dot = _export()
    record["attacks"] = []
    problems = check.check_export(record, dot)
    assert any("DOT draws" in p for p in problems)
    assert any("defended but left out" in p for p in problems)


def test_export_check_rejects_wrong_stages_and_child_order():
    record, dot = _export()
    record["stages"] = [[0], [0, 2]]
    record["arguments"][0]["children"] = [1]
    problems = check.check_export(record, dot)
    assert any("stages differ" in p for p in problems)
    assert any("later child" in p for p in problems)


def test_generator_is_seeded_and_gadgets_stand_apart():
    first = gen.fast_large_item(random.Random(3), 0, atoms=13, norms=35,
                                facts=3, constraints=("nand", "clause"),
                                roots=4, links=10)
    again = gen.fast_large_item(random.Random(3), 0, atoms=13, norms=35,
                                facts=3, constraints=("nand", "clause"),
                                roots=4, links=10)
    assert first == again
    kb = parse_kb(first.kb_text)
    names = set()
    for p in kb.premises:
        names |= atoms_of(p)
    assert len(names) <= 13
    gadget = {n for n in names if n.startswith("g0")}
    assert gadget == set(gen.gadget_atoms("G1", "g0"))
    for p in kb.premises:
        atoms = atoms_of(p)
        assert atoms <= gadget or not atoms & gadget


def test_settled_base_is_satisfiable_by_construction():
    rng = random.Random(11)
    for i in range(30):
        item = gen.fixpoint_item(rng, i, "G9", atoms=7, facts=1,
                                 constraints=("nand",), roots=2, links=2,
                                 idle=6, queries=2)
        assert check.KbView(item.kb_text).settled != 0
        small = gen.small_item(rng, i, 4, 6, ("prio",))
        parse_kb(small.kb_text).validate_priorities()
        assert check.KbView(small.kb_text).settled != 0


def _conflict_export(edges):
    return {
        "arguments": [
            {"id": 0, "conclusion": "O p", "children": [],
             "cs": ["O p", "true", "true => p"]},
            {"id": 1, "conclusion": "O ~p", "children": [],
             "cs": ["O ~p", "true", "true => ~p"]},
            {"id": 2, "conclusion": "O q", "children": [],
             "cs": ["O q", "true", "true => q"]},
            {"id": 3, "conclusion": "O p & q", "children": [0, 2],
             "cs": ["O p", "O p & q", "O q", "true", "true => p",
                    "true => q"]},
        ],
        "attacks": [{"from": s, "to": d, "kind": "conflict"}
                    for s, d in edges],
    }


def test_conflict_edges_are_recomputed():
    # ~p attacks p and its superargument p & q; p attacks ~p
    due = [(0, 1), (1, 0), (1, 3)]
    assert check.check_conflict_edges(_conflict_export(due)) == []
    dropped = check.check_conflict_edges(_conflict_export(due[:2]))
    assert any("missing" in p for p in dropped)
    extra = check.check_conflict_edges(_conflict_export(due + [(2, 0)]))
    assert any("not due" in p for p in extra)
