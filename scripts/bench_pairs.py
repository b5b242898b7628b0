#!/usr/bin/env python3
"""Compare two revisions on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload expand compose \\
        --pairs 10 --seeds 241 242 243 [--trace 0|1]

Both revisions are checked out with ``git worktree`` under a temporary
directory, which is removed afterwards.  The workloads run one after
another.  Pair i of a workload runs ``bench/run.py`` of both checkouts at
seed ``seeds[i % len(seeds)]``; the side that runs first alternates from
pair to pair, so a drift of the host's speed hits both sides alike.  The
last line of every run must be strict JSON (no NaN or Infinity) holding
every metric that BENCHMARK.json lists for the mode: the end-to-end ones,
or with ``--trace 1`` the per-layer ones, which is all such a run prints.

For each workload the script prints, per metric, each side's median and
quartiles, the number of pairs the change won (ties count for neither) and
a verdict: ``worse than bound`` when the change's median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json, a fraction
of the parent's median; ``gain`` when at least ten pairs were run, the
change won at least nine tenths of them and the medians differ by more than
the parent's quartile spread; ``-`` otherwise.  Fewer pairs never read
``gain``: the host drifts by tens of percent between runs, and two copies
of one tree have read ``gain`` over four pairs.  Then it prints every run's
``correct`` flag and ``failed`` count.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

MIN_GAIN_PAIRS = 10


def _git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


@contextlib.contextmanager
def checkouts(*revisions):
    """Check out each revision with ``git worktree`` under a temporary
    directory; yields the checkout roots and removes them afterwards."""
    top = _git("rev-parse", "--show-toplevel")
    revs = [_git("rev-parse", "--verify", r + "^{commit}", cwd=top)
            for r in revisions]
    with tempfile.TemporaryDirectory(prefix="checkouts-") as tmp:
        roots = [os.path.join(tmp, str(i)) for i in range(len(revs))]
        try:
            for root, rev in zip(roots, revs):
                _git("worktree", "add", "--detach", root, rev, cwd=top)
            yield roots
        finally:
            for root in roots:
                if os.path.isdir(root):
                    _git("worktree", "remove", "--force", root, cwd=top)
            _git("worktree", "prune", cwd=top)


def _reject_constant(name):
    raise ValueError("non-finite number %s in the result line" % name)


def run_once(root, workload, seed, trace, names):
    """One bench/run.py in the checkout root; returns its parsed result."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    lines = out.strip().splitlines()
    if not lines:
        raise ValueError("%s printed nothing" % root)
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    missing = [n for n in names if n not in result.get("metrics", {})]
    if missing:
        raise ValueError("%s: missing metrics %s" % (root, ", ".join(missing)))
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _sign(metric):
    return 1 if metric["better"] == "higher" else -1


def wins(metric, parent, change):
    """The pairs parent[i], change[i] that the change won; ties count for
    neither."""
    return sum(_sign(metric) * (c - p) > 0 for p, c in zip(parent, change))


def verdict(metric, parent, change):
    """The verdict on one metric of BENCHMARK.json from the values of
    paired runs: "worse than bound", "gain" or "-" (module docstring)."""
    p1, p_med, p3 = _quartiles(parent)
    gap = _sign(metric) * (_quartiles(change)[1] - p_med)  # > 0: change better
    if "bound" in metric and -gap > metric["bound"] * abs(p_med):
        return "worse than bound"
    if (len(parent) >= MIN_GAIN_PAIRS and gap > p3 - p1
            and 10 * wins(metric, parent, change) >= 9 * len(parent)):
        return "gain"
    return "-"


def compare(args, workload, metrics, roots):
    """Run the pairs of one workload and print its table."""
    names = [m["name"] for m in metrics]
    results = ([], [])
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            results[side].append(run_once(
                roots[side], workload, seed, args.trace, names))
        print("%s: pair %d (seed %d) done" % (workload, i + 1, seed),
              file=sys.stderr)

    print("%s: %s -> %s, %d pairs, seeds %s" % (
        workload, args.parent, args.change, args.pairs,
        " ".join(map(str, args.seeds))))
    print("%-36s %-30s %-30s %-11s %s" % (
        "metric", "parent median (q1-q3)", "change median (q1-q3)",
        "change wins", "verdict"))
    for metric in metrics:
        name = metric["name"]
        sides = [[r["metrics"][name]["value"] for r in results[s]]
                 for s in (0, 1)]
        cells = ["%.4g (%.4g-%.4g)" % (q2, q1, q3)
                 for q1, q2, q3 in map(_quartiles, sides)]
        print("%-36s %-30s %-30s %-11s %s" % (
            name, cells[0], cells[1],
            "%d/%d" % (wins(metric, *sides), args.pairs),
            verdict(metric, *sides)))
    for side, label in enumerate(("parent", "change")):
        print("%s correct/failed: %s" % (label, " ".join(
            "%s/%s/%s" % (r["correct"], r["failed"], r["attempted"])
            for r in results[side])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with checkouts(args.parent, args.change) as roots:
        with open(os.path.join(roots[1], "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        for workload in args.workload:
            compare(args, workload, metrics, roots)
    return 0


if __name__ == "__main__":
    sys.exit(main())
