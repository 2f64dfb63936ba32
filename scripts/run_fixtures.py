#!/usr/bin/env python3
"""Replicate the benchmark-scenario verdict matrix.

Runs every fixture/semantics/query cell with the fixpoint engine (and
the fast engine where the semantics is basic), printing verdicts,
agreement, universe sizes, and timings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from daf import Variant, entails, entails_fast_basic, extend_with_output  # noqa: E402
from daf.formulas import parse_formula  # noqa: E402
from kbs import kb as fixture  # noqa: E402
from test_acceptance import VERDICTS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", help="run one fixture only")
    args = parser.parse_args()

    start = time.time()
    rows = 0
    for (name, variant), cells in VERDICTS.items():
        if args.fixture and name != args.fixture:
            continue
        kb = fixture(name)
        print(f"\n{name} ({variant.value}): {kb}")
        for text, _ in cells:
            query = parse_formula(text)
            t0 = time.time()
            verdict = entails(kb, variant, query)
            elapsed = (time.time() - t0) * 1000
            line = f"  {str(verdict):42s}"
            if variant == Variant.BASIC:
                fast = entails_fast_basic(kb, query)
                agree = "agree" if fast.derivable == verdict.derivable \
                    else "DISAGREE"
                line += f" fast:{agree}"
            line += (f"  [{verdict.universe_stats.get('arguments', 0)} args,"
                     f" {elapsed:.0f} ms]")
            print(line)
            rows += 1

    if not args.fixture:
        print("\nG4 + (true => r): the cautious-monotonicity counterexample")
        extended = extend_with_output(fixture("G4"), [parse_formula("r")])
        for text in ["r", "~s", "q"]:
            verdict = entails(extended, Variant.BASIC, parse_formula(text))
            print(f"  {verdict}")
            rows += 1

    print(f"\n{rows} verdicts in {time.time() - start:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
