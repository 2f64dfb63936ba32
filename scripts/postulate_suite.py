#!/usr/bin/env python3
"""Randomized postulate suites over small knowledge bases.

Measures violation counts for: output closure, output consistency,
cautious cut (basic semantics), cautious monotonicity (doubt
semantics), engine agreement, stage-one collapse, and the grounded-set
closure laws.  All zero on a healthy build.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from daf import Variant, entails, entails_fast_basic, extend_with_output  # noqa: E402
from daf.arguments import AGGREGATE, WEAKEN, enumerate_universe  # noqa: E402
from daf.attacks import build_attack_graph  # noqa: E402
from daf.consequence import output_base  # noqa: E402
from daf.entail import cl_consistent, cl_entails, settled_base  # noqa: E402
from daf.formulas import atoms_of, complement  # noqa: E402
from daf.grounded import AbstractFramework, grounded_extension  # noqa: E402
from kbs import query_pool, random_kb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=16180339)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    counters = {
        "closure": 0, "consistency": 0, "joint_consistency": 0,
        "cautious_cut": 0, "cautious_monotonicity": 0,
        "engine_disagreement": 0, "stage_collapse": 0,
        "subargument_closure": 0, "weakening_closure": 0,
        "aggregation_closure": 0,
    }
    queries = 0
    for index in range(args.count):
        kb = random_kb(rng)
        names = sorted({n for p in kb.premises for n in atoms_of(p)}) or ["p"]
        pool = query_pool(names)

        derivable = []
        for query in pool:
            queries += 1
            fast = entails_fast_basic(kb, query).derivable
            slow = entails(kb, Variant.BASIC, query).derivable
            if fast != slow:
                counters["engine_disagreement"] += 1
            if fast:
                derivable.append(query)

        for query in derivable:
            partner = complement(query)
            if partner in pool and entails_fast_basic(kb, partner).derivable:
                counters["consistency"] += 1
        conclusions = output_base(kb).conclusions
        if conclusions and not cl_consistent(
            set(settled_base(kb)) | set(conclusions)
        ):
            counters["joint_consistency"] += 1

        if derivable:
            delta = rng.sample(derivable, min(len(derivable), 2))
            for target in pool:
                if cl_entails(set(delta), target) and not \
                        entails_fast_basic(kb, target).derivable:
                    counters["closure"] += 1
            extended = extend_with_output(kb, delta)
            for target in pool:
                if entails_fast_basic(extended, target).derivable and not \
                        entails_fast_basic(kb, target).derivable:
                    counters["cautious_cut"] += 1

        shadow_sample = rng.sample(pool, min(5, len(pool)))
        shadow_derivable = [
            q for q in shadow_sample
            if entails(kb, Variant.SHADOW, q).derivable
        ]
        for a in shadow_derivable[:1]:
            extended = extend_with_output(kb, [a])
            for b in shadow_derivable:
                if not entails(extended, Variant.SHADOW, b).derivable:
                    counters["cautious_monotonicity"] += 1

        universe = enumerate_universe(kb)
        graph = build_attack_graph(kb, universe, Variant.BASIC)
        result = grounded_extension(AbstractFramework.from_graph(graph))
        first = result.stages[1] if len(result.stages) > 1 \
            else result.stages[0]
        if result.grounded != first:
            counters["stage_collapse"] += 1
        grounded = result.grounded
        members = universe.arguments
        for a in members:
            if a.aid in grounded:
                for b in members:
                    if b.cs <= a.cs and b.aid not in grounded:
                        counters["subargument_closure"] += 1
        for w in members:
            if (w.rule == WEAKEN and w.children[0].aid in grounded
                    and w.aid not in grounded):
                counters["weakening_closure"] += 1
        for x in members:
            if (x.rule == AGGREGATE
                    and all(c.aid in grounded for c in x.children)
                    and x.aid not in grounded):
                counters["aggregation_closure"] += 1

    print(f"{args.count} knowledge bases, {queries} engine-agreement "
          f"queries, {time.time() - t0:.1f}s")
    failed = False
    for name, value in counters.items():
        status = "ok" if value == 0 else "VIOLATED"
        failed = failed or value != 0
        print(f"  {name:24s} {value:4d}  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
