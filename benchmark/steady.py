#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat workloads over several seeds.

    python3 benchmark/steady.py [--workloads fast-large,export]
        [--seeds 1-10] [--seconds 35] [--trace 0|1] [--json FILE]

Each (workload, seed) runs ``run.py`` in its own process, one after the
other.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; the spread of
each end-to-end metric should stay well inside the bound that
``BENCHMARK.json`` gives it.  It also prints the share of failed
operations, which must be the same on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fast-large", "fixpoint-basic", "semantics-mix")


def seed_list(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  f"{result['wall_s']:.1f} s wall",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"]
                                       for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        report[workload] = {"failed_shares": sorted(shares),
                            "attempted": [r["attempted"] for r in runs],
                            "metrics": metrics}
        print(f"\n{workload}: failed share {sorted(shares)}, attempted "
              f"{min(r['attempted'] for r in runs)}-"
              f"{max(r['attempted'] for r in runs)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7}")
        for name, s in metrics.items():
            print(f"  {name:32} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['spread']:7.3f}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
