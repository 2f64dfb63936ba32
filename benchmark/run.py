#!/usr/bin/env python3
"""Run one workload of the daf benchmark and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
and the fixtures from ``tests/``.  One client drives the workload in a
closed loop for S seconds of operations; each item's answers are
checked (see ``check.py``) after its last operation, outside the timed
part.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced replay with ``--trace 1``.  The exit code is 0 only when every
operation was answered correctly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4  # extra set-ups, each in a fresh process


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop")
    return parser.parse_args(argv)


def setup(args, workdir):
    """Import the program, make the inputs from the seed and parse
    them.  Returns the workload, its items and the seconds taken."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), HERE]
    import daf
    if not os.path.abspath(daf.__file__).startswith(src + os.sep):
        raise SystemExit(f"daf was imported from {daf.__file__}, "
                         f"not from {src}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    items = workload.items(args.seed, args.seconds)
    workload.prepare(items, workdir)
    return workload, items, time.perf_counter() - start


def _failed_cells(item, results, problems):
    """Cells that failed: raised, or named by a check."""
    bad_queries = {q for q, _ in problems}
    return {cell for cell in item.cells
            if isinstance(results.get(cell), Exception)
            or cell[0] in bad_queries}


def _messages(item, results, problems):
    return ([f"{item.name} {c}: {v!r}" for c, v in results.items()
             if isinstance(v, Exception)]
            + [f"{item.name}: {p}" for _, p in problems])


def _answered(results):
    return {c: v for c, v in results.items() if not isinstance(v, Exception)}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, items, seconds, rss_items):
    """Whole items, one operation per cell, until the operations have
    taken ``seconds``; each item is checked after its last cell, outside
    the timed operations.  Returns every operation's time, the peak RSS
    (MB) once ``rss_items`` items are done (or at the end, if fewer
    are), the number of failed operations and what went wrong."""
    times, messages = [], []
    failed = 0
    busy = 0.0
    index = 0
    peak_rss_mb = None
    while busy < seconds:
        if index == rss_items:
            peak_rss_mb = _peak_rss_mb()
        item = items[index % len(items)]
        index += 1
        workload.begin_item(item)
        results = {}
        for cell in item.cells:
            start = time.perf_counter()
            try:
                results[cell] = workload.op(item, cell)
            except Exception as exc:  # a failed operation, reported below
                results[cell] = exc
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            busy += elapsed
        problems = workload.check_item(item, _answered(results))
        failed += len(_failed_cells(item, results, problems))
        messages += _messages(item, results, problems)
    return times, peak_rss_mb or _peak_rss_mb(), failed, messages


def measure_traced(workload, items, seconds, tracer, workdir):
    """Each operation once untraced and once as a traced replay (the
    order alternating); the replay must reach the same result.  The
    traced run takes a fixed number of items, about ``seconds`` of work
    on the reference machine, so its counts repeat exactly for a seed."""
    import workloads

    plain = traced = 0.0
    attempted = failed = 0
    messages = []
    for index in range(max(1, int(seconds * workload.traced_items_per_s))):
        item = items[index % len(items)]
        workload.begin_item(item)
        results = {}
        replay_problems = []
        for cell in item.cells:
            attempted += 1
            replay_first = attempted % 2 == 0
            try:
                if replay_first:
                    start = time.perf_counter()
                    replay_check = workload.traced_op(tracer, item, cell)
                    traced += time.perf_counter() - start
                start = time.perf_counter()
                value = workload.op(item, cell)
                plain += time.perf_counter() - start
                observed = workload.observe(value)
                if not replay_first:
                    start = time.perf_counter()
                    replay_check = workload.traced_op(tracer, item, cell)
                    traced += time.perf_counter() - start
                problems = replay_check(observed)
            except Exception as exc:  # a failed operation, reported below
                results[cell] = exc
                continue
            results[cell] = value
            replay_problems += [(cell[0], p) for p in problems]
        problems = workload.check_item(item, _answered(results))
        problems += replay_problems
        failed += len(_failed_cells(item, results, problems))
        messages += _messages(item, results, problems)
    workloads.probe(tracer, workdir)
    return attempted, failed, messages, plain, traced


def layer_metrics(tracer, plain, traced):
    busy = tracer.busy()
    c = tracer.counts
    conflict_edges = c["attacks.edges_conflict"]
    values = {
        "kb.parse_s": (busy["kb.parse"], "s"),
        "entail.context_s": (busy["entail.context"], "s"),
        "entail.table_rows": (c["entail.table_rows"], "count"),
        "arguments.enumerate_s": (busy["arguments.enumerate"], "s"),
        "arguments.built": (c["arguments.built"], "count"),
        "arguments.weakening": (c["arguments.weakening"], "count"),
        "arguments.aggregation": (c["arguments.aggregation"], "count"),
        "arguments.doubt": (c["arguments.doubt"], "count"),
        "attacks.build_s": (busy["attacks.build"], "s"),
        "attacks.edges": (c["attacks.edges"], "count"),
        "attacks.edges_fact": (c["attacks.edges_fact"], "count"),
        "attacks.edges_conflict": (conflict_edges, "count"),
        "attacks.edges_shadow": (c["attacks.edges_shadow"], "count"),
        "attacks.direct_conflict_share": (
            c["attacks.direct_conflicts"] / conflict_edges
            if conflict_edges else 0.0, "ratio"),
        "grounded.from_graph_s": (busy["grounded.from_graph"], "s"),
        "grounded.fixpoint_s": (busy["grounded.fixpoint"], "s"),
        "grounded.stages": (c["grounded.stages"], "count"),
        "grounded.edge_scans": (c["grounded.edge_scans"], "count"),
        "consequence.fast_s": (busy["consequence.fast"], "s"),
        "consequence.fast_chains_s": (
            busy["consequence.fast"]
            - tracer.child_busy("entail.context", "consequence.fast"), "s"),
        "consequence.chains": (c["consequence.chains"], "count"),
        "consequence.accepted_chains": (c["consequence.accepted_chains"],
                                        "count"),
        "consequence.settled_rows": (c["consequence.settled_rows"], "count"),
        "cli.export_json_s": (busy["cli.export_json"], "s"),
        "cli.export_dot_s": (busy["cli.export_dot"], "s"),
        "cli.json_bytes": (c["cli.json_bytes"], "B"),
        "cli.dot_bytes": (c["cli.dot_bytes"], "B"),
        "trace.overhead": (traced / plain - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def setup_probe(args):
    """Set-up time of a fresh process for the same workload and seed."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run(args, workdir):
    workload, items, setup_s = setup(args, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        gc.collect()
        gc.freeze()
        attempted, failed, messages, plain, traced = measure_traced(
            workload, items, args.seconds, tracer, workdir)
        metrics = layer_metrics(tracer, plain, traced)
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "attempted": attempted, "untraced_s": plain,
             "traced_s": traced,
             "metrics": {k: v["value"] for k, v in metrics.items()}})
    else:
        gc.collect()
        gc.freeze()  # the inputs stay put; collections scan only new objects
        times, peak_rss_mb, failed, messages = measure(
            workload, items, args.seconds,
            int(args.seconds * workload.rss_items_per_s))
        attempted = len(times)
        setups = [setup_s] + [setup_probe(args)
                              for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1000,
                          "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(
                times, n=10, method="inclusive")[8] * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for line in messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    scratch = os.path.join(HERE, "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
