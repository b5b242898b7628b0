"""The verdict of scripts/bench_pairs.py on paired runs of one metric."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict, wins = bench_pairs.verdict, bench_pairs.wins

RATE = {"name": "exprs_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
COUNT = {"name": "monomial.mono_mul.calls", "better": "lower"}  # no bound

PARENT = [30.0, 32.0, 34.0, 36.0, 38.0, 31.0, 33.0, 35.0, 37.0, 34.0]


def test_a_change_that_wins_nine_pairs_by_more_than_the_spread_is_a_gain():
    change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert wins(RATE, PARENT, change) == 9
    assert verdict(RATE, PARENT, change) == "gain"
    # the same runs read as latencies: the change is 30% slower
    assert verdict(LATENCY, PARENT, change) == "worse than bound"


def test_eight_wins_or_a_gap_inside_the_spread_is_no_gain():
    eight = [p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert wins(RATE, PARENT, eight) == 8
    assert verdict(RATE, PARENT, eight) == "-"
    # every pair won, but the medians differ by less than the parent's
    # quartile spread
    close = [p + 0.5 for p in PARENT]
    assert wins(RATE, PARENT, close) == 10
    assert verdict(RATE, PARENT, close) == "-"


def test_ties_count_for_neither_side():
    assert wins(RATE, PARENT, PARENT) == 0
    assert verdict(RATE, PARENT, PARENT) == "-"


def test_worse_than_bound_is_read_in_the_metric_direction():
    # 20% slower is inside the 0.25 bound, 30% slower is not
    assert verdict(RATE, PARENT, [p * 0.8 for p in PARENT]) == "-"
    assert verdict(RATE, PARENT, [p * 0.7 for p in PARENT]) == "worse than bound"
    assert verdict(LATENCY, PARENT, [p * 1.2 for p in PARENT]) == "-"
    assert verdict(LATENCY, PARENT, [p * 1.3 for p in PARENT]) == "worse than bound"
    # lower latencies in every pair, by far more than the spread
    assert verdict(LATENCY, PARENT, [p * 0.5 for p in PARENT]) == "gain"


def test_a_metric_without_a_bound_has_only_the_gain_verdict():
    assert verdict(COUNT, [100] * 10, [1000] * 10) == "-"
    assert verdict(COUNT, [100] * 10, [90] * 10) == "gain"


def test_fewer_than_ten_pairs_never_read_gain():
    # four pairs, each won by far more than the parent's spread
    parent = PARENT[:4]
    change = [p + 100 for p in parent]
    assert wins(RATE, parent, change) == 4
    assert verdict(RATE, parent, change) == "-"
    assert verdict(LATENCY, parent, [p / 10 for p in parent]) == "-"
    # the bound still reads at any number of pairs
    assert verdict(RATE, parent, [p * 0.5 for p in parent]) == "worse than bound"
