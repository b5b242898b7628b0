"""The traced benchmark record holds every per-layer metric of BENCHMARK.json."""
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _reject_constant(name):
    raise ValueError("non-finite number %s in the record" % name)


def test_traced_session_record_keeps_every_per_layer_metric():
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
         "--workload", "session", "--seed", "1", "--round", "0", "--trace"],
        cwd=BENCH, env=env, check=True, text=True, stdout=subprocess.PIPE,
        timeout=300).stdout
    record = json.loads(out.splitlines()[-1], parse_constant=_reject_constant)
    assert record["failed"] == []

    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = tracing.layer_metrics([record["trace"]])

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the tracer's own overhead; the worker cannot measure it
    names = [m["name"] for m in declared if m["name"] != "trace.overhead_s"]
    missing = [n for n in names if n not in metrics]
    assert not missing, missing
    for name in names:
        value = metrics[name][0]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
