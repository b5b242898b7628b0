"""Command line front end: golden sessions, formats, and JSON round trips."""
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperlog import (OMEGA, BadPrecision, DomainError, Precision,
                      from_monomial, hyperlog_deriv, ser_mul)
from hyperlog.series import with_bound
from hyperlog.cli import CliSyntaxError, eval_text, main, parse
from hyperlog.render import (format_series_text, series_from_json,
                             series_to_json)

from conftest import rand_finite_monomial, rand_series

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.txt"))


def load_session(path):
    fmt, prec = "text", 8
    pairs = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("# format:"):
            fmt = line.split(":", 1)[1].strip()
        elif line.startswith("# prec:"):
            prec = int(line.split(":", 1)[1])
        elif line.startswith("> "):
            pairs.append((line[2:], lines[i + 1]))
            i += 1
        i += 1
    return fmt, prec, pairs


def run_eval(expr, fmt, prec):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(["--eval", expr, "--format", fmt, "--prec", str(prec)])
    finally:
        sys.stdout = old
    return code, buf.getvalue().rstrip("\n")


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_session(path):
    fmt, prec, pairs = load_session(path)
    assert pairs, "empty session file"
    for expr, want in pairs:
        code, got = run_eval(expr, fmt, prec)
        assert got == want, expr
        assert code == (1 if want.startswith("error: ") else 0), expr


def test_script_mode_continues_after_errors(tmp_path):
    script = tmp_path / "session.txt"
    script.write_text("# a comment line\n\ninv(l[1])\ninv(x+1)\n")
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(["--script", str(script)])
    finally:
        sys.stdout = old
    lines = buf.getvalue().splitlines()
    assert code == 1
    assert lines[0].startswith("error: NotInvertible")
    assert lines[1] == "x - 1"


def test_script_mode_continues_after_too_deep_nesting(tmp_path):
    script = tmp_path / "deep.txt"
    script.write_text("(" * 3000 + "x" + ")" * 3000 + "\nx + 1\n")
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(["--script", str(script)])
    finally:
        sys.stdout = old
    lines = buf.getvalue().splitlines()
    assert code == 1
    assert lines[0].startswith("error: NestingTooDeep")
    assert lines[1] == "x + 1"


def test_budget_zero_is_a_typed_error(tmp_path, capsys):
    script = tmp_path / "zero.txt"
    script.write_text("D@0(x)\nx + 1\n")
    assert main(["--script", str(script)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error: BadPrecision: precision budget must be >= 1", "x + 1"]
    with pytest.raises(SystemExit) as exit:
        main(["--prec", "0", "--eval", "x"])
    assert exit.value.code == 2
    assert "--prec: precision budget must be >= 1" in capsys.readouterr().err
    with pytest.raises(BadPrecision):
        Precision(0)
    assert issubclass(BadPrecision, DomainError)
    assert issubclass(BadPrecision, ValueError)


def test_huge_budgets_are_typed_errors(tmp_path, capsys):
    script = tmp_path / "huge.txt"
    script.write_text("D@%s(x)\nD@%d(x)\nx + 1\n" % ("9" * 5000, sys.maxsize))
    assert main(["--script", str(script)]) == 1
    below = "error: BadPrecision: precision budget must be < %d" % sys.maxsize
    assert capsys.readouterr().out.splitlines() == [below, below, "x + 1"]


def _decimal(n):
    """The digits of n > 0, converted nine at a time from the low end."""
    chunks = []
    while n:
        n, r = divmod(n, 10**9)
        chunks.append(r)
    return str(chunks[-1]) + "".join("%09d" % c for c in reversed(chunks[:-1]))


def test_script_prints_integers_past_the_str_digit_limit(tmp_path):
    script = tmp_path / "big.txt"
    script.write_text("2^20000\nx + 1\n")
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(["--script", str(script)])
    finally:
        sys.stdout = old
    assert code == 0
    assert buf.getvalue().splitlines() == [_decimal(2**20000), "x + 1"]


def test_big_integers_render_exactly_in_every_format():
    expr = "3^9000*x^(2^20000) - 1/5^7000"
    c, e, d = _decimal(3**9000), _decimal(2**20000), _decimal(5**7000)
    assert run_eval(expr, "text", 8) == (0, "%s*x^%s - 1/%s" % (c, e, d))
    assert run_eval(expr, "latex", 8) == (
        0, r"%s \ell_{0}^{%s} - \frac{1}{%s}" % (c, e, d))
    code, out = run_eval(expr, "json", 8)
    terms = json.loads(out)["terms"]
    assert code == 0
    assert [t["coeff"] for t in terms] == [c, "-1/" + d]
    assert terms[0]["monomial"][0]["exp"] == e


def test_json_round_trip_past_the_str_digit_limit():
    f = eval_text("3^9000*x^(2^20000) - 1/5^7000")
    back = series_from_json(json.loads(json.dumps(series_to_json(f))))
    assert back.terms == f.terms
    assert back.bound == f.bound


def test_huge_constants_in_error_messages_are_exact():
    big = _decimal(2**20000 + 1)
    cases = [
        ("(2^20000+1)^(1/2)", "IrrationalConstantPower: %s**1/2 is irrational"),
        ("((2^20000+1)*x)^(1/2)",
         "IrrationalConstantPower: %s**1/2 is irrational"),
        ("log((2^20000+1)*x)", "NonMonicLog: leading coefficient %s is not 1"),
        ("log(-(2^20000+1)*x)",
         "NotPositive: leading coefficient -%s is negative"),
        ("(-(2^20000+1))^(1/2)",
         "NotPositive: cannot take a fractional power of -%s"),
        ("inv((2^20000+1)*x^2 + 1)",
         "IrrationalConstantPower: leading coefficient %s has no rational root"),
    ]
    for expr, message in cases:
        assert run_eval(expr, "text", 8) == (1, "error: " + message % big), expr


def test_literals_past_the_str_digit_limit_parse_exactly():
    digits = _decimal(7 * 10**4999 + 12345)  # 5000 digits
    for expr in (digits, "x^" + digits, "l[%s]" % digits,
                 "l[w^%s*%s+%s]" % (digits, digits, digits)):
        assert run_eval(expr, "text", 8) == (0, expr)


def test_long_chains_evaluate_without_recursion():
    assert run_eval("+".join(["x"] * 3000), "text", 8) == (0, "3000*x")
    assert run_eval("-".join(["x"] * 3000), "text", 8) == (0, "-2998*x")


def test_former_untyped_failures_are_values_or_domain_errors():
    assert run_eval("prod(l[3..1])", "text", 8) == (
        1, "error: EmptyInterval: empty interval [3,1)")
    assert run_eval("(3^80)^(1/2)", "text", 8) == (0, str(3**40))
    assert run_eval("(10^400)^(1/2)", "text", 8) == (0, str(10**200))
    code, out = run_eval("inv@4(3^80*x^2+1)", "text", 8)
    assert code == 0 and out.startswith("1/%d*x^(1/2) - " % 3**40)


def test_repl_evaluates_until_eof(monkeypatch, capsys):
    feed = iter(["1/(x+1)", "  ", "x +"])

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    assert main(["--prec", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x^-1 - x^-2 + x^-3 + O(x^-3)"
    assert lines[1].startswith("error: CliSyntaxError")


def test_parse_rejects_malformed_input():
    for bad in ("x )", "comp(x)", "l[", "D@x(1)", "prod(x)", "1 $ 2"):
        with pytest.raises((CliSyntaxError, SyntaxError)):
            parse(bad)


def test_precision_suffix_overrides_global():
    code, at3 = run_eval("log@3(x+1)", "text", 8)
    assert code == 0 and at3.endswith("O(x^-3)")
    code, global8 = run_eval("log(x+1)", "text", 8)
    assert code == 0 and global8.endswith("O(x^-8)")


def _random_json_series(rng):
    f = rand_series(rng, max_terms=3, max_level=4)
    if rng.random() < 0.3:
        f = ser_mul(f, from_monomial(hyperlog_deriv(OMEGA)))
    if rng.random() < 0.4 and f.terms:
        f = with_bound(f, f.terms[-1][0])
    return f


def test_json_round_trip_200(rng):
    for _ in range(200):
        f = _random_json_series(rng)
        data = json.loads(json.dumps(series_to_json(f)))
        back = series_from_json(data)
        assert back.terms == f.terms
        assert back.bound == f.bound


def test_json_rejects_foreign_payloads():
    with pytest.raises(ValueError):
        series_from_json({"schema": "hyperlog/2", "kind": "series"})
    with pytest.raises(ValueError):
        series_from_json({"schema": "hyperlog/1", "kind": "monomial"})
    with pytest.raises(ValueError):
        series_from_json({"schema": "hyperlog/1", "kind": "series", "bound": None})
    with pytest.raises(ValueError):
        series_from_json({"schema": "hyperlog/1", "kind": "series", "terms": []})


def _payload(terms):
    return {"schema": "hyperlog/1", "kind": "series", "terms": terms,
            "bound": None}


def test_json_rejects_a_payload_that_is_not_an_object():
    with pytest.raises(ValueError, match="not a JSON object: list"):
        series_from_json([_payload([])])


def test_json_rejects_a_term_that_is_a_number():
    with pytest.raises(ValueError, match="wrong type"):
        series_from_json(_payload([3]))


def test_json_rejects_a_piece_bound_that_is_a_number():
    piece = {"from": 0, "to": "1", "exp": "1"}
    with pytest.raises(ValueError, match="wrong type"):
        series_from_json(_payload([{"monomial": [piece], "coeff": "1"}]))


def test_text_format_parses_back(rng):
    for _ in range(100):
        f = _random_json_series(rng)
        if not f.terms and f.bound is None:
            continue
        back = eval_text(format_series_text(f), Precision(8))
        assert back.terms == f.terms
        assert back.bound == f.bound
