"""Expression parser, evaluator, REPL and command line front end.

Grammar: rationals, the atoms x and l[<ordinal>], prod(l[a..b]) interval
monomials, O(e) truncation bounds, operators + - * / ^ with standard
precedence, and the function forms D, int, log, comp, inv, taylor, lambda,
dagger, each accepting an optional @N precision suffix.

Parser subclasses ordinal.TokenReader, the package's one token reader, and
reads the levels inside l[...] and prod(...) with ordinal.parse_ordinal_sum.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .calculus import dagger as ser_dagger
from .calculus import derive, integrate
from .composition import compose, invert, logarithmicity, taylor_compose
from .errors import BadPrecision, DomainError, NestingTooDeep, NotPositive
from .monomial import MONE, hyperlog, make_monomial
from .ordinal import (ZERO, CliSyntaxError, TokenReader, format_frac,
                      parse_int, parse_ordinal_sum)
from .render import format_value
from .series import (DEFAULT_PRECISION, Precision, S_ZERO, Series, from_const,
                     from_monomial, is_exact_zero, ser_add, ser_log, ser_mul,
                     ser_mul_inverse, ser_neg, ser_pow, ser_sub, with_bound)

# --- abstract syntax ---------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Atom:
    monomial: object  # Monomial


@dataclass(frozen=True)
class BigO:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    prec: int | None = None


# name -> (function of the series arguments and a Precision, arity)
FUNCTIONS = {"D": (derive, 1), "int": (integrate, 1), "log": (ser_log, 1),
             "comp": (compose, 2), "inv": (invert, 1),
             "taylor": (taylor_compose, 3),
             "lambda": (lambda g, prec: logarithmicity(g), 1),
             "dagger": (ser_dagger, 1)}


class Parser(TokenReader):
    """The expression grammar over the shared token reader."""

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = BinOp(op, node, self.power())
        return node

    def power(self):
        node = self.unary()
        while self.peek() == "^":
            self.take("^")
            node = BinOp("^", node, self.unary())
        return node

    def unary(self):
        # unary minus binds looser than ^, so -x^2 means -(x^2)
        if self.peek() == "-":
            self.take("-")
            return Neg(self.power())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        if tok.isdigit():
            return Num(Fraction(parse_int(self.take())))
        if tok == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        if tok == "x":
            self.take()
            return Atom(hyperlog(ZERO))
        if tok == "l":
            self.take()
            self.take("[")
            level = parse_ordinal_sum(self)
            self.take("]")
            return Atom(hyperlog(level))
        if tok == "prod":
            self.take()
            self.take("(")
            self.take("l")
            self.take("[")
            lo = parse_ordinal_sum(self)
            self.take("..")
            hi = parse_ordinal_sum(self)
            self.take("]")
            self.take(")")
            return Atom(make_monomial([(lo, hi, Fraction(1))]))
        if tok == "O":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return BigO(node)
        if tok in FUNCTIONS:
            name = self.take()
            prec = None
            if self.peek() == "@":
                self.take("@")
                digits = self.take()
                if not digits.isdigit():
                    self.error("expected precision after @")
                prec = parse_int(digits)
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.expr())
            self.take(")")
            arity = FUNCTIONS[name][1]
            if len(args) != arity:
                self.error("%s takes %d argument(s), got %d"
                           % (name, arity, len(args)))
            return Call(name, tuple(args), prec)
        self.error("unexpected token %r" % tok)


def parse(text: str):
    """Parse an expression into its syntax tree."""
    parser = Parser(text)
    node = parser.expr()
    parser.end()
    return node


# --- evaluation --------------------------------------------------------------

def _as_series(v) -> Series:
    if isinstance(v, Series):
        return v
    raise DomainError("expected a series value, got %r" % (v,))


def _as_const(v: Series) -> Fraction | None:
    """The value of an exact rational constant series, else None."""
    if is_exact_zero(v):
        return Fraction(0)
    if v.bound is None and len(v.terms) == 1 and v.terms[0][0] == MONE:
        return v.terms[0][1]
    return None


_ARITHMETIC = {"+": ser_add, "-": ser_sub, "*": ser_mul, "/": ser_mul}


def evaluate(node, prec: Precision = DEFAULT_PRECISION):
    """Evaluate a syntax tree to a Series or Logarithmicity."""
    if isinstance(node, Num):
        return from_const(node.value)
    if isinstance(node, Atom):
        return from_monomial(node.monomial)
    if isinstance(node, Neg):
        return ser_neg(_as_series(evaluate(node.arg, prec)))
    if isinstance(node, BigO):
        v = _as_series(evaluate(node.arg, prec))
        if not v.terms:
            raise DomainError("O(...) needs a value with a visible dominant term")
        return with_bound(S_ZERO, v.terms[0][0])
    if isinstance(node, BinOp) and node.op == "^":
        left = _as_series(evaluate(node.left, prec))
        t = _as_const(_as_series(evaluate(node.right, prec)))
        if t is None:
            raise DomainError("exponent must be an exact rational constant")
        const = _as_const(left)
        if const is not None and t.denominator == 1:
            if const == 0 and t < 0:
                raise DomainError("division by zero")
            return from_const(const ** t)
        if const is not None and const <= 0:
            raise NotPositive("cannot take a fractional power of %s"
                              % format_frac(const))
        return ser_pow(left, t, prec)
    if isinstance(node, BinOp):
        # x+x+...+x parses to a left-deep tree: walk its left spine in a loop
        # so that a long chain does not run into the recursion limit
        chain = []
        while isinstance(node, BinOp) and node.op != "^":
            chain.append(node)
            node = node.left
        acc = _as_series(evaluate(node, prec))
        for link in reversed(chain):
            right = _as_series(evaluate(link.right, prec))
            if link.op == "/":
                right = ser_mul_inverse(right, prec)
            acc = _ARITHMETIC[link.op](acc, right)
        return acc
    if isinstance(node, Call):
        local = Precision(node.prec) if node.prec is not None else prec
        args = [evaluate(a, prec) for a in node.args]
        return FUNCTIONS[node.name][0](*map(_as_series, args), local)
    raise AssertionError(node)


def eval_text(text: str, prec: Precision = DEFAULT_PRECISION):
    """Parse and evaluate one input line."""
    try:
        return evaluate(parse(text), prec)
    except RecursionError:
        raise NestingTooDeep("expression nests too deeply") from None


# --- front end ---------------------------------------------------------------

def _run_line(line: str, prec: Precision, mode: str, out) -> bool:
    try:
        value = eval_text(line, prec)
    except (DomainError, CliSyntaxError, SyntaxError) as err:
        print("error: %s: %s" % (type(err).__name__, err), file=out)
        return False
    print(format_value(value, mode), file=out)
    return True


def repl(prec: Precision, mode: str):
    while True:
        try:
            line = input("> ")
        except (EOFError, KeyboardInterrupt):
            return 0
        if line.strip():
            _run_line(line, prec, mode, sys.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperlog",
        description="exact arithmetic, calculus and composition for "
                    "logarithmic series")
    parser.add_argument("--prec", type=int, default=8, metavar="N",
                        help="term budget for truncating expansions")
    parser.add_argument("--format", choices=("text", "latex", "json"),
                        default="text")
    parser.add_argument("--eval", metavar="EXPR", help="evaluate one expression")
    parser.add_argument("--script", metavar="FILE",
                        help="evaluate a file of expressions, one per line")
    args = parser.parse_args(argv)
    try:
        prec = Precision(args.prec)
    except BadPrecision as err:
        parser.error("--prec: %s" % err)
    if args.eval is not None:
        ok = _run_line(args.eval, prec, args.format, sys.stdout)
        return 0 if ok else 1
    if args.script is not None:
        ok = True
        with open(args.script, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                ok = _run_line(line, prec, args.format, sys.stdout) and ok
        return 0 if ok else 1
    return repl(prec, args.format)


if __name__ == "__main__":
    sys.exit(main())
