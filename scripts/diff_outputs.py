#!/usr/bin/env python3
"""Print the benchmark inputs on which two revisions render different outputs.

    python3 scripts/diff_outputs.py PARENT CHANGE --workload compose \\
        --seeds 201 7

PARENT and CHANGE are git revisions, checked out with ``git worktree`` as in
bench_pairs.py.  In each checkout, a fresh interpreter builds every input of
``bench/workloads.generate`` for each seed, evaluates it through
``bench/worker._operation`` and renders it with ``render.format_value``, or
as the ``error: Type: message`` line the REPL prints.  An input that runs
past the bench's per-input deadline renders as ``deadline``.  The script
prints ``k of n lines differ`` and, for each differing input, its text and
both outputs.  It exits with 1 when some line differs.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from bench_pairs import checkouts


def render_inputs(root, workload, *seeds):
    """Print one JSON line [seed, input, output] per input, in root."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import worker
    import workloads
    worker._load_program(root)
    from hyperlog import DomainError, render
    from hyperlog.cli import CliSyntaxError
    typed = (DomainError, CliSyntaxError, SyntaxError)
    signal.signal(signal.SIGALRM, worker._alarm)
    for seed in map(int, seeds):
        for case in workloads.generate(workload, seed, 0):
            signal.setitimer(signal.ITIMER_REAL, worker.DEADLINE_S)
            try:
                value, _ = worker._operation(case)
                out = render.format_value(value, case.mode)
            except typed as err:
                out = "error: %s: %s" % (type(err).__name__, err)
            except worker.InputDeadline:
                out = "deadline"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            print(json.dumps([seed, case.text, out]), flush=True)


def outputs(root, workload, seeds):
    """The [seed, input, output] lines of root, from a fresh interpreter."""
    code = "import sys, diff_outputs; diff_outputs.render_inputs(*sys.argv[1:])"
    cmd = [sys.executable, "-c", code, root, workload, *map(str, seeds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(cmd, cwd=os.path.dirname(os.path.abspath(__file__)),
                         env=env, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return [json.loads(line) for line in out.splitlines()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    with checkouts(args.parent, args.change) as roots:
        before, after = (outputs(r, args.workload, args.seeds) for r in roots)
    if [b[:2] for b in before] != [a[:2] for a in after]:
        raise SystemExit("the two checkouts generate different inputs")
    differ = [(b, a) for b, a in zip(before, after) if b != a]
    print("%s, seeds %s: %d of %d lines differ" % (
        args.workload, " ".join(map(str, args.seeds)), len(differ),
        len(before)))
    for (seed, text, old), (_, _, new) in differ:
        print("seed %d: %s\n- %s\n+ %s" % (seed, text, old, new))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
