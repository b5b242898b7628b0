#!/usr/bin/env python3
"""Profile benchmark rounds in-process and print the costliest functions.

    python3 scripts/profile_round.py compose --seed 201 202 203 [--top 25]

For each seed, the script builds round 0 of the workload's inputs with
``bench/workloads.generate`` and parses them, as ``bench/worker.py`` does
before its timed phase.  Then, under cProfile, it evaluates every input
through ``bench/worker._operation`` and renders it with
``render.format_value``, as the timed phase does.  The profiles of all
seeds are summed.  It prints the number of inputs, of typed errors and
deadlines and of profiled calls, then the top functions by self time.
cProfile adds a cost to every Python call, so the proportions lean towards
functions with many short calls: confirm a candidate with ``bench/run.py``
or ``scripts/bench_pairs.py`` before claiming a gain.
"""
from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def profile_round(workload, seed):
    """Evaluate and render round 0 of the workload under cProfile; returns
    the profile, the number of inputs and the number that did not give a
    value.  Every call profiles in the same interpreter, so the caches of
    earlier seeds stay warm for later ones."""
    worker._load_program(ROOT)
    from hyperlog import DomainError, render
    from hyperlog.cli import CliSyntaxError
    typed = (DomainError, CliSyntaxError, SyntaxError, worker.InputDeadline)
    cases = workloads.generate(workload, seed, 0)
    worker._setup(cases)
    signal.signal(signal.SIGALRM, worker._alarm)
    profile = cProfile.Profile()
    errors = 0
    for case in cases:
        signal.setitimer(signal.ITIMER_REAL, worker.DEADLINE_S)
        profile.enable()
        try:
            value, _ = worker._operation(case)
            render.format_value(value, case.mode)
        except typed:
            errors += 1
        finally:
            profile.disable()
            signal.setitimer(signal.ITIMER_REAL, 0)
    return profile, len(cases), errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="one or more seeds; their profiles are summed")
    parser.add_argument("--top", type=int, default=25,
                        help="how many functions to print")
    args = parser.parse_args()

    stats = pstats.Stats(stream=sys.stdout)
    inputs = errors = 0
    for seed in args.seed:
        profile, n, e = profile_round(args.workload, seed)
        stats.add(profile)
        inputs, errors = inputs + n, errors + e
    print("%s, seed %s: %d inputs, %d typed errors or deadlines, %d calls" % (
        args.workload, " ".join(map(str, args.seed)), inputs, errors,
        stats.total_calls))
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
