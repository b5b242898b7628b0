#!/usr/bin/env python3
"""Print the inputs on which two revisions render different outputs.

    python3 scripts/diff_outputs.py PARENT CHANGE --workload compose \\
        --seeds 201 7
    python3 scripts/diff_outputs.py PARENT CHANGE --lines sweep.txt

PARENT and CHANGE are git revisions, checked out with ``git worktree`` as in
bench_pairs.py.  In each checkout, a fresh interpreter builds every input of
``bench/workloads.generate`` for each seed, or with ``--lines`` one input per
expression line of the file (blank lines and lines starting with ``#`` are
skipped), evaluated at the CLI's default budget unless the line has its own
``@N``.  It evaluates each input through ``bench/worker._operation`` and
renders it with ``render.format_value``, or as the ``error: Type: message``
line the REPL prints.  An input that runs past the bench's per-input
deadline renders as ``deadline``, and one that raises any other exception
as ``crash: Type: message``.  The script prints ``k of n lines differ`` and,
for each differing input, its seed or line number, its text and both
outputs.  It exits with 1 when some line differs.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from bench_pairs import checkouts


def read_lines(path):
    """The expressions of a lines file, one per line, stripped; blank lines
    and lines starting with # are skipped."""
    with open(path) as f:
        return [text for text in map(str.strip, f)
                if text and not text.startswith("#")]


def render_inputs(root, workload, *seeds):
    """Print one JSON line [seed, input, output] per input, in root.

    The workload "lines" takes the path of a lines file in place of the
    seeds and numbers its inputs from 1 in place of a seed."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import worker
    import workloads
    hyperlog = worker._load_program(root)
    from hyperlog import DomainError, render
    from hyperlog.cli import CliSyntaxError
    typed = (DomainError, CliSyntaxError, SyntaxError)
    if workload == "lines":
        budget = hyperlog.DEFAULT_PRECISION.budget
        cases = [(i, workloads.Case("lines", text, budget))
                 for i, text in enumerate(read_lines(seeds[0]), 1)]
    else:
        cases = [(seed, case) for seed in map(int, seeds)
                 for case in workloads.generate(workload, seed, 0)]
    signal.signal(signal.SIGALRM, worker._alarm)
    for seed, case in cases:
        signal.setitimer(signal.ITIMER_REAL, worker.DEADLINE_S)
        try:
            value, _ = worker._operation(case)
            out = render.format_value(value, case.mode)
        except typed as err:
            out = "error: %s: %s" % (type(err).__name__, err)
        except worker.InputDeadline:
            out = "deadline"
        except Exception as err:   # a traceback a user would see
            out = "crash: %s: %s" % (type(err).__name__, err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps([seed, case.text, out]), flush=True)


def outputs(root, workload, seeds):
    """The [seed, input, output] lines of root, from a fresh interpreter;
    for the workload "lines", seeds holds the path of the lines file."""
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
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload")
    source.add_argument("--lines", metavar="FILE",
                        help="one expression per line, # starts a comment")
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args()
    if args.lines:
        workload, seeds, label = "lines", [os.path.abspath(args.lines)], "line"
        title = args.lines
    elif args.seeds:
        workload, seeds, label = args.workload, args.seeds, "seed"
        title = "%s, seeds %s" % (workload, " ".join(map(str, seeds)))
    else:
        parser.error("--workload needs --seeds")

    with checkouts(args.parent, args.change) as roots:
        before, after = (outputs(r, workload, seeds) for r in roots)
    if [b[:2] for b in before] != [a[:2] for a in after]:
        raise SystemExit("the two checkouts generate different inputs")
    differ = [(b, a) for b, a in zip(before, after) if b != a]
    print("%s: %d of %d lines differ" % (title, len(differ), len(before)))
    for (seed, text, old), (_, _, new) in differ:
        print("%s %d: %s\n- %s\n+ %s" % (label, seed, text, old, new))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
