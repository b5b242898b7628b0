"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is stored as a tuple of (exponent, coefficient) pairs with strictly
decreasing exponents and coefficients >= 1; the empty tuple is 0.  The form is
canonical, so structural equality is ordinal equality, and equal ordinals are
interned to one instance: an Ordinal compares and hashes by identity, in C.

TokenReader here is the package's one token reader: parse_ordinal reads with
it, and cli.Parser, the expression grammar, is its subclass.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NestingTooDeep

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True, init=False, eq=False)
class Ordinal:
    terms: tuple = ()  # ((exponent: Ordinal, coefficient: int), ...)

    # one interned instance per value, its field set once in __new__
    _interned = {}

    def __new__(cls, terms=()):
        self = cls._interned.get(terms)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "terms", terms)
            cls._interned[terms] = self
        return self

    def __lt__(self, other):
        return ord_compare(self, other) == LT

    def __le__(self, other):
        return ord_compare(self, other) != GT

    def __gt__(self, other):
        return ord_compare(self, other) == GT

    def __ge__(self, other):
        return ord_compare(self, other) != LT

    def __add__(self, other):
        return ord_add(self, other if isinstance(other, Ordinal) else ordinal(other))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "Ordinal(%s)" % format_ordinal(self)

    def __str__(self):
        return format_ordinal(self)

    def __reduce__(self):
        # copies and pickles go through __new__ and so get the interned instance
        return (type(self), (self.terms,))

    @property
    def key(self):
        """A plain tuple whose lexicographic order matches the ordinal order.

        Normal forms compare by leading exponent, then coefficient, then the
        remainder, with a missing term losing; that is exactly tuple order on
        ((exponent.key, coefficient), ...).
        """
        try:
            return self._key
        except AttributeError:
            object.__setattr__(
                self, "_key", tuple((e.key, c) for e, c in self.terms))
            return self._key


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def ordinal(n: int) -> Ordinal:
    """The finite ordinal n."""
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


@lru_cache(maxsize=None)
def ord_compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on ordinals: LT, EQ or GT, read from their keys."""
    return EQ if a is b else GT if a.key > b.key else LT


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum.

    Terms of a strictly below b's leading exponent are absorbed; a term of a
    equal to b's leading exponent merges coefficients; the rest concatenates.
    """
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    keep = []
    tail = b.terms
    for exp, coeff in a.terms:
        c = ord_compare(exp, lead)
        if c == GT:
            keep.append((exp, coeff))
        elif c == EQ:
            tail = ((lead, coeff + b.terms[0][1]),) + b.terms[1:]
            break
        else:
            break
    return Ordinal(tuple(keep) + tuple(tail))


def omega_pow(b: Ordinal) -> Ordinal:
    """omega raised to b; omega_pow(0) is 1."""
    return Ordinal(((b, 1),))


OMEGA = omega_pow(ONE)


def monomial_cnf_list(gamma: Ordinal) -> list:
    """Exponents of gamma's normal form with coefficients expanded to repeats."""
    out = []
    for exp, coeff in gamma.terms:
        out.extend([exp] * coeff)
    return out


def is_successor(a: Ordinal) -> bool:
    return bool(a.terms) and a.terms[-1][0] == ZERO


def is_limit(a: Ordinal) -> bool:
    return bool(a.terms) and a.terms[-1][0] != ZERO


def predecessor(a: Ordinal) -> Ordinal:
    """The ordinal directly below a successor ordinal."""
    if not is_successor(a):
        raise ValueError("not a successor ordinal: %s" % a)
    exp, coeff = a.terms[-1]
    if coeff > 1:
        return Ordinal(a.terms[:-1] + ((exp, coeff - 1),))
    return Ordinal(a.terms[:-1])


def lambda_coeff(lam: Ordinal, nu: Ordinal) -> int:
    """Coefficient n_i of lam's normal form when nu is the power just above it.

    Returns n_i if nu equals omega^(b_i + 1) for a term omega^(b_i)*n_i of lam,
    and 0 for every other nu.
    """
    if len(nu.terms) != 1 or nu.terms[0][1] != 1:
        return 0
    exp = nu.terms[0][0]
    if not is_successor(exp):
        return 0
    beta = predecessor(exp)
    for e, c in lam.terms:
        if e == beta:
            return c
    return 0


def ordinal_to_int(a: Ordinal) -> int:
    """The natural number equal to a; fails on infinite ordinals."""
    if not a.terms:
        return 0
    if len(a.terms) == 1 and a.terms[0][0] == ZERO:
        return a.terms[0][1]
    raise ValueError("not a finite ordinal: %s" % a)


# --- text form: sums of w^e*n, e.g. "w^w*2+w*3+5" ---------------------------

def format_int(n: int) -> str:
    """The exact decimal text of an integer of any size.

    str() refuses integers longer than sys.get_int_max_str_digits() digits,
    which is never below 640; larger integers are split at a power of ten
    into halves that are converted the same way.
    """
    if n < 0:
        return "-" + format_int(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10 ** half)
    return format_int(high) + format_int(low).zfill(half)


def format_frac(c: Fraction) -> str:
    """str(c), exact for numerators and denominators of any size."""
    if c.denominator == 1:
        return format_int(c.numerator)
    return "%s/%s" % (format_int(c.numerator), format_int(c.denominator))


def parse_int(digits: str) -> int:
    """The integer of a decimal digit string of any length.

    int() refuses strings longer than sys.get_int_max_str_digits() digits;
    longer strings are split into halves that are parsed the same way.
    """
    if len(digits) <= 600:
        return int(digits)
    half = len(digits) // 2
    return parse_int(digits[:-half]) * 10 ** half + parse_int(digits[-half:])


def parse_frac(text: str) -> Fraction:
    """The Fraction of format_frac's text "n" or "n/d", exact at any size."""
    m = re.fullmatch(r"(-?)([0-9]+)(?:/([0-9]+))?", text)
    if not m:
        raise ValueError("not a fraction: %r" % text[:40])
    num, den = parse_int(m[2]), parse_int(m[3] or "1")
    if not den:
        raise ValueError("zero denominator: %r" % text[:40])
    return Fraction(-num if m[1] else num, den)


def format_ordinal(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp == ZERO:
            parts.append(format_int(coeff))
            continue
        if exp == ONE:
            body = "w"
        else:
            inner = format_ordinal(exp)
            body = "w^(%s)" % inner if ("+" in inner or "*" in inner) else "w^" + inner
        parts.append(body if coeff == 1 else "%s*%s" % (body, format_int(coeff)))
    return "+".join(parts)


def parse_ordinal_sum(p) -> Ordinal:
    """Parse a sum of w^e*n and natural-number items from the TokenReader p."""
    total = _parse_item(p)
    while p.peek() == "+":
        p.take("+")
        total = ord_add(total, _parse_item(p))
    return total


def _parse_item(p) -> Ordinal:
    tok = p.peek()
    if tok is not None and tok.isdigit():
        return ordinal(parse_int(p.take()))
    if tok != "w":
        p.error("expected an ordinal")
    exp = _parse_exponent(p)
    coeff = 1
    if p.peek() == "*":
        p.take("*")
        digits = p.take()
        if not digits.isdigit():
            p.error("expected a coefficient after *")
        coeff = parse_int(digits)
    # w^e*n is the single normal-form term (e, n)
    return Ordinal(((exp, coeff),)) if coeff else ZERO


def _parse_exponent(p) -> Ordinal:
    """The exponent e of a power w^e; a bare w has exponent 1."""
    p.take("w")
    if p.peek() != "^":
        return ONE
    p.take("^")
    tok = p.peek()
    if tok == "(":
        p.take("(")
        exp = parse_ordinal_sum(p)
        p.take(")")
        return exp
    if tok == "w":
        return omega_pow(_parse_exponent(p))
    if tok is not None and tok.isdigit():
        return ordinal(parse_int(p.take()))
    p.error("expected an exponent after ^")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the w^e*n sum grammar; non-canonical orderings are renormalized."""
    reader = TokenReader(text)
    try:
        value = parse_ordinal_sum(reader)
    except RecursionError:
        raise NestingTooDeep("ordinal nests too deeply") from None
    reader.end()
    return value


# --- the token reader --------------------------------------------------------

class CliSyntaxError(SyntaxError):
    """A line that does not follow the expression or ordinal grammar."""


_TOKEN = re.compile(r"[ \t]*(\d+|[A-Za-z_]+|\.\.|[-+*/^()\[\],@])")


class TokenReader:
    """One line's tokens, read with peek and take; errors name the column."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []  # (token, column)
        self.pos = 0
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise CliSyntaxError("unexpected character %r at col %d"
                                     % (text[pos], pos + 1))
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()

    def error(self, msg):
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) \
            else len(self.text) + 1
        raise CliSyntaxError("%s at col %d" % (msg, col))

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, tok=None):
        if self.pos >= len(self.tokens):
            self.error("unexpected end of input")
        got, _ = self.tokens[self.pos]
        if tok is not None and got != tok:
            self.error("expected %r, found %r" % (tok, got))
        self.pos += 1
        return got

    def end(self):
        """Fail unless every token has been taken."""
        if self.pos != len(self.tokens):
            self.error("trailing input %r" % self.peek())
