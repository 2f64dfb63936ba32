#!/usr/bin/env python3
"""Reference-only size ladder: where does each engine stop?

    python3 benchmark/ladder.py [--seed 1] [--budget 30] [--memory-mb 1500]
        [--json FILE]

Not a workload: its figures are for the README and are not compared
between commits.  Each (atoms, norms) step builds one seeded KB with
the ``fast-large`` generator and asks one query of each engine, every
step in a child process of its own under ``RLIMIT_AS`` (``--memory-mb``)
and a wall-clock budget (``--budget`` seconds).  An engine's first step
that does not end in a verdict (time, memory, ``hard_cap``) is its
wall; its later steps are not run.  Nothing past ``MAX_ATOMS`` = 20 is
tried.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEPS = [(6, 10), (8, 16), (10, 20), (12, 30), (14, 40), (16, 60),
         (18, 70), (20, 80)]


def _kb(seed, atoms, norms):
    import gen

    rng = random.Random(seed)
    shapes = ("nand", "clause") if atoms >= 10 else ("nand",)
    return gen.fast_large_item(rng, 0, atoms=atoms, norms=norms,
                               facts=max(1, atoms // 4), constraints=shapes,
                               roots=max(2, norms // 8),
                               links=max(2, norms // 3))


def child(args):
    """One step, one engine; prints one JSON line."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    HERE]
    from daf import BoundExceeded, entails, entails_fast_basic, parse_kb, \
        parse_query

    item = _kb(args.seed, args.atoms, args.norms)
    kb = parse_kb(item.kb_text)
    query = parse_query(item.cells[0][0])
    start = time.perf_counter()
    try:
        if args.engine == "fast":
            verdict = entails_fast_basic(kb, query)
        else:
            verdict = entails(kb, args.engine, query)
        status = "ok"
        stats = verdict.universe_stats
    except BoundExceeded:
        status, stats = "hard_cap", {}
    except MemoryError:
        status, stats = "memory", {}
    print(json.dumps({
        "status": status, "seconds": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": stats}))
    return 0


def step(args, engine, atoms, norms):
    limit = args.memory_mb * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--engine", engine, "--atoms", str(atoms), "--norms",
               str(norms), "--seed", str(args.seed)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=args.budget, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return {"status": "time", "seconds": args.budget}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        status = "memory" if "MemoryError" in done.stderr else \
            f"exit {done.returncode}"
        return {"status": status}
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=30)
    parser.add_argument("--memory-mb", type=int, default=1500)
    parser.add_argument("--json", help="also write the results here")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--engine", help=argparse.SUPPRESS)
    parser.add_argument("--atoms", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--norms", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    results = {}
    for engine in ("fast", "basic"):
        rows = []
        for atoms, norms in STEPS:
            row = dict(step(args, engine, atoms, norms), atoms=atoms,
                       norms=norms)
            rows.append(row)
            print(f"{engine:6} {atoms:2} atoms {norms:2} norms: "
                  f"{row['status']:8} {row.get('seconds', 0):8.2f} s "
                  f"{row.get('peak_rss_mb', 0):7.0f} MB "
                  f"{row.get('stats', '')}", flush=True)
            if row["status"] != "ok":
                break
        results[engine] = rows
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "budget_s": args.budget,
                       "memory_mb": args.memory_mb, "engines": results},
                      handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
