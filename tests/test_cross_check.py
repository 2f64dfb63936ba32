"""Fixpoint engine against fast engine beyond the literal fragment.

Seeded knowledge bases of up to six atoms with conjunctive and
disjunctive antecedents and consequents, facts settled on and off, are
decided by both engines under every bound setting of ``build_rounds``
1-3 and ``max_aggregate_arity`` 2-4.  The fast engine is categorical, so
a positive fixpoint verdict must be a positive fast verdict.  A
"within bounds" negative of the fixpoint engine that the fast engine
contradicts is a bound binding, not a fault; such cases are counted and
printed, not failed.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from daf.arguments import GenerationConfig
from daf.attacks import Variant
from daf.consequence import entails, entails_fast_basic
from daf.formulas import atoms_of, render
from kbs import query_pool, random_kb

# sha256 over 200 seeds of each knowledge base's text and the next
# 32 random bits, recorded before the compound and facts_settled
# keywords existed
DRAW_DIGESTS = [
    ({}, "619d2884e8d7aaeaf790a359d8f20b10545bf5a687f833d7ad03a7917fa1b15b"),
    ({"prioritized": True},
     "98660587367a51c82968329fd4509dd4f355fbfbb700c9824e49cc97779bf1f7"),
    ({"max_conditionals": 6},
     "14e47ff93fb8290aa75f91347576e93177040c90ecfc35f9026833d3499351af"),
]

# (knowledge bases, most conditionals per knowledge base)
SIZES = [(100, 5), (40, 8)]
QUERIES_PER_KB = 4


@pytest.mark.parametrize("kwargs,expected", DRAW_DIGESTS)
def test_random_kb_defaults_draw_the_same_numbers(kwargs, expected):
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        text = str(random_kb(rng, **kwargs))
        h.update(f"{seed} {text} {rng.getrandbits(32)}\n".encode())
    assert h.hexdigest() == expected


@pytest.fixture(scope="module")
def cases():
    """(knowledge base, query, fast verdict) triples."""
    out = []
    for count, most in SIZES:
        for seed in range(count):
            rng = random.Random(f"cross-check {most} {seed}")
            source = random_kb(rng, max_atoms=6, max_conditionals=most,
                               compound=True, facts_settled=seed % 2 == 0)
            names = sorted({n for p in source.premises
                            for n in atoms_of(p)})
            pool = query_pool(names) + [c.consequent
                                        for c in source.conditionals]
            for query in rng.sample(pool, min(QUERIES_PER_KB, len(pool))):
                out.append((source, query,
                            entails_fast_basic(source, query).derivable))
    return out


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_fixpoint_positive_implies_fast_positive(cases, rounds, arity):
    cfg = GenerationConfig(max_aggregate_arity=arity, build_rounds=rounds)
    negatives = contradicted = 0
    for source, query, fast in cases:
        fixpoint = entails(source, Variant.BASIC, query, cfg).derivable
        assert fast or not fixpoint, (str(source), render(query))
        if not fixpoint:
            negatives += 1
            contradicted += fast
    print(f"rounds={rounds} arity={arity}: {contradicted} of {negatives} "
          f"within-bounds negatives contradicted by the fast engine")
