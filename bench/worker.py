"""One round of a workload in a fresh interpreter.

Started by run.py as ``python worker.py --root R --workload W --seed S
--round K [--check] [--trace --spans FILE]``.  The worker imports hyperlog
from R/src, builds the round's inputs, parses them, prints ``ready`` (the
parent times the set-up up to that line), then evaluates and renders every
input once, in the round's seeded order, with the next input sent when the
previous one returns.  The timed
phase ends before any check runs.  The last line of stdout is a JSON record
of timings, outcomes, check failures and, when traced, per-layer counters.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter

import workloads

DEADLINE_S = 30.0   # per input; an input that runs longer counts as failed


class InputDeadline(BaseException):
    """Raised by the alarm in the middle of an input that ran too long."""


def _alarm(signum, frame):
    raise InputDeadline()


def _load_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hyperlog
    if not os.path.abspath(hyperlog.__file__).startswith(os.path.abspath(src)):
        raise ImportError("hyperlog was not loaded from %s" % src)
    return hyperlog


def _setup(cases):
    """Parse every input line and operand, as a script runner would before
    its first result; a line that fails to parse is judged when replayed."""
    from hyperlog.cli import parse
    for case in cases:
        for text in case.args or (case.text,):
            try:
                parse(text)
            except Exception:
                pass


def _operation(case):
    """Evaluate one input; returns the value and the evaluated operands."""
    from fractions import Fraction

    import hyperlog as h
    from hyperlog import cli
    prec = h.Precision(case.budget)
    op = case.op
    if not op:
        return cli.eval_text(case.text, prec), ()
    args = tuple(cli.eval_text(a) for a in case.args)
    if op == "div":
        value = h.ser_mul(args[0], h.ser_mul_inverse(args[1], prec))
    elif op == "log":
        value = h.ser_log(args[0], prec)
    elif op == "pow":
        value = h.ser_pow(args[0], Fraction(case.data["p"]), prec)
    elif op == "dagger":
        value = h.dagger(args[0], prec)
    elif op == "int":
        value = h.integrate(args[0], prec)
    elif op == "comp":
        value = h.compose(args[0], args[1], prec)
    elif op == "taylor":
        value = h.taylor_compose(*args, prec)
    elif op == "inv":
        value = h.invert(args[0], prec)
    else:
        raise ValueError("unknown operation %r" % op)
    return value, args


def run(args):
    hyperlog = _load_program(args.root)
    from hyperlog import DomainError, render
    from hyperlog.cli import CliSyntaxError
    typed = (DomainError, CliSyntaxError, SyntaxError)   # what the REPL reports

    cases = workloads.generate(args.workload, args.seed, args.round)
    _setup(cases)
    print("ready", flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        caches_before = tracer.cache_counts()
        blowups = []
        peak = 0

    signal.signal(signal.SIGALRM, _alarm)
    outcomes = []
    operands = [()] * len(cases)
    latencies = []
    phase_start = perf_counter()
    for i, case in enumerate(cases):
        if tracer:
            tracer.start_input(i)
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        start = perf_counter()
        try:
            value, operands[i] = _operation(case)
            outcome = ("value", value, render.format_value(value, case.mode))
        except typed as err:
            outcome = ("error", err, "error: %s: %s" % (type(err).__name__, err))
        except InputDeadline:
            outcome = ("crash", None, "deadline of %gs passed" % DEADLINE_S)
        except Exception as err:   # a traceback a user would see
            outcome = ("crash", err, "%s: %s" % (type(err).__name__, err))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(perf_counter() - start)
        outcomes.append(outcome)
        if tracer:
            peak = max(peak, tracer.peak)
            if outcome[0] == "value" and hasattr(outcome[1], "terms"):
                blowups.append(tracer.peak / max(1, len(outcome[1].terms)))
    timed_s = perf_counter() - phase_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"cases": len(cases), "timed_s": timed_s, "latencies": latencies,
              "rss_mb": rss_mb}
    # rounds differ only in their order, so the digest ignores the order
    digest = hashlib.sha256()
    for line in sorted("%s\n%s\n" % (case.text, outcome[2])
                       for case, outcome in zip(cases, outcomes)):
        digest.update(line.encode())
    record["digest"] = digest.hexdigest()

    if tracer:
        tracer.uninstall()
        caches_after = tracer.cache_counts()
        record["trace"] = {
            "functions": {n: (c, s) for n, c, s in
                          zip(tracer.names, tracer.calls, tracer.self_s)},
            "caches": {n: (caches_after[n][0] - caches_before[n][0],
                           caches_after[n][1] - caches_before[n][1])
                       for n in caches_after},
            "products": tracer.products, "kept": tracer.kept,
            "terms_in": tracer.terms_in,
            "monomials": len(hyperlog.Monomial._interned),
            "peak_terms": peak, "blowups": blowups}
        if args.spans:
            tracer.write_spans(args.spans)
    record.update(_judge(cases, outcomes, operands, args.check))
    return record


def _judge(cases, outcomes, operands, check):
    """Count the failed inputs and, with ``check``, check every output.

    An input fails when it ends in a traceback, runs past its deadline, or
    reports an error where a value is expected.  Nothing here is timed."""
    from hyperlog.render import series_to_json
    from checks import check_value
    failed, bad, external = [], [], []
    for i, (case, (status, value, rendered)) in enumerate(zip(cases, outcomes)):
        expects_error = (case.kind == "error" or (
            case.kind == "golden" and case.data["want"].startswith("error: ")))
        if status == "crash" or (status == "error" and not expects_error):
            failed.append("%s -> %s" % (case.text, rendered))
            continue
        if not check:
            continue
        try:
            if expects_error:
                problem = _check_error(case, status, value, rendered)
            else:
                problem = check_value(case, value, rendered, operands[i])
        except Exception:
            problem = "check raised:\n" + traceback.format_exc()
        if problem:
            bad.append("%s -> %s: %s" % (case.text, rendered[:200], problem))
            continue
        if case.data.get("xonly") or case.data.get("numeric"):
            external.append({"op": case.op, "kind": case.kind,
                             "text": case.text, "data": case.data,
                             "out": series_to_json(value)})
    return {"failed": failed, "bad": bad, "external": external}


def _check_error(case, status, err, rendered):
    if case.kind == "golden":
        return None if rendered == case.data["want"] else "golden answer differs"
    if status != "error":
        return "expected %s, got a value" % case.data["error"]
    want = case.data["error"]
    if case.data.get("any_subclass"):
        from hyperlog import DomainError
        return None if isinstance(err, DomainError) else "not a DomainError"
    return None if type(err).__name__ == want else "wrong error type"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--check", action="store_true",
                        help="check every output after the timed phase")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args()
    record = run(args)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
