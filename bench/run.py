#!/usr/bin/env python3
"""Benchmark of hyperlog: three closed-loop workloads with checked outputs.

    python3 bench/run.py --workload session|expand|compose --seed N \\
        --seconds S --trace 0|1

A round evaluates every input of the workload once, in a fresh interpreter
(worker.py), so the global memo caches start empty and grow only across the
inputs of one round.  Every round of a run evaluates the same inputs, drawn
from ``--seed``, in an order of its own.  Rounds run one after another until their timed phases add
up to ``--seconds``; a round is never cut.  With ``--trace 1`` the run instead
replays a fixed number of rounds twice, untraced and traced, and reports
per-layer metrics from the traced copy.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 150.0   # no round starts that could end after this
TRACE_ROUNDS = 2


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, rnd, stop_at, check=False, trace=False, spans=None):
    """Run one round in a fresh interpreter; return its record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--round", str(rnd)]
    if check:
        cmd.append("--check")
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    timer = threading.Timer(max(1.0, stop_at - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError("a round of %s exited with %s"
                          % (workload, proc.returncode))
    record = json.loads(rest.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    return record


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def external_checks(workload, record):
    """sympy and mpmath checks of the outputs a worker handed over."""
    import extcheck
    check = extcheck.sympy_check if workload == "expand" else extcheck.numeric_check
    return ["%s: %s" % (item["text"], problem) for item in record["external"]
            for problem in [check(item)] if problem]


def end_to_end(rounds):
    """Throughput over the whole timed phase and latency percentiles over all
    inputs of all rounds; set-up time and peak memory are medians over the
    rounds.  The host's speed drifts by tens of percent over tens of seconds
    (a fixed CPU loop took from 0.064 to 0.105 s on the same machine), so a
    run averages over as much time as it can rather than picking rounds."""
    latencies = [1000.0 * s for r in rounds for s in r["latencies"]]
    if len(latencies) < 100:
        print("warning: %d inputs leave fewer than ten above p90"
              % len(latencies), file=sys.stderr)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "exprs_per_s": (sum(r["cases"] for r in rounds)
                        / sum(r["timed_s"] for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperlog", "__init__.py")):
        print("error: no hyperlog source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    start = time.perf_counter()
    stop_at = start + RUN_LIMIT_S
    rounds, traced = [], []
    measured = 0.0
    try:
        while True:
            began = time.perf_counter()
            rnd = len(rounds)
            rounds.append(spawn(args.workload, args.seed, rnd, stop_at + 20,
                                check=not rounds))
            measured += rounds[-1]["timed_s"]
            if args.trace:
                spans = os.path.join(RESULTS, "spans-%s-round%d.bin" % (tag, rnd))
                traced.append(spawn(args.workload, args.seed, rnd, stop_at + 20,
                                    trace=True, spans=spans))
                if len(traced) == TRACE_ROUNDS:
                    break
            elif measured >= args.seconds:
                break
            took = time.perf_counter() - began
            if time.perf_counter() + 1.5 * took > stop_at:
                print("warning: stopped after %d rounds to end in time"
                      % len(rounds), file=sys.stderr)
                break
    except WorkerError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    # the first round's outputs are checked; every later round must print
    # the same outputs for the same inputs
    first = rounds[0]
    failed = [line for rec in rounds for line in rec["failed"]]
    bad = first["bad"] + external_checks(args.workload, first)
    for rec in rounds[1:] + traced:
        if rec["digest"] != first["digest"] and len(rec["failed"]) == len(first["failed"]):
            bad.append("a round printed other outputs than the first")
    attempted = sum(rec["cases"] for rec in rounds)
    if args.trace:
        from tracing import layer_metrics
        metrics = layer_metrics([rec["trace"] for rec in traced])
        metrics["trace.overhead_s"] = (
            sum(r["timed_s"] for r in traced) - sum(r["timed_s"] for r in rounds),
            "s")
        failed += [line for rec in traced for line in rec["failed"]
                   if line not in first["failed"]]
    else:
        metrics = end_to_end(rounds)

    for line in sorted(set(failed))[:8]:
        print("failed: %s" % line, file=sys.stderr)
    for line in bad[:8]:
        print("incorrect: %s" % line, file=sys.stderr)
    result = {"correct": not bad, "attempted": attempted, "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    detail = dict(result, rounds=len(rounds), seconds=args.seconds,
                  wall_s=time.perf_counter() - start,
                  setup_s=[r["setup_s"] for r in rounds],
                  timed_s=[r["timed_s"] for r in rounds],
                  rss_mb=[r["rss_mb"] for r in rounds],
                  failed_lines=failed, incorrect_lines=bad)
    with open(os.path.join(RESULTS, tag + ".json"), "w") as out:
        json.dump(detail, out, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
