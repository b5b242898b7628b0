"""Typed errors raised by the exact-series fragment.

Every error is a subclass of DomainError so callers (and the REPL) can catch
one base class while tests pin the precise subclass.
"""


class DomainError(Exception):
    """Base class for all domain errors in this package."""


class IdentityMonomial(DomainError):
    """The identity monomial has no support; the query is undefined on it."""


class EmptyInterval(DomainError, ValueError):
    """An interval of levels [lo, hi) with hi not above lo."""


class BadPrecision(DomainError, ValueError):
    """A term budget below 1."""


class ZeroSeries(DomainError):
    """The exact zero series has no dominant term."""


class IndeterminateDominant(DomainError):
    """Empty term list with a truncation bound: the dominant term is unknown."""


class IndeterminateSign(DomainError):
    """The sign of the series is hidden below its truncation bound."""


class IndeterminateSplit(DomainError):
    """A truncation bound at or above 1 blocks the infinite/constant/small split."""


class NonMonicLog(DomainError):
    """Logarithm of a series whose leading coefficient is not 1."""


class NotPositive(DomainError):
    """The operation needs a positive series."""


class IrrationalConstantPower(DomainError):
    """A constant power fell outside the rationals."""


class NotGreaterThanR(DomainError):
    """The right composition argument must exceed every rational constant."""


class SupportBelowOmega(DomainError):
    """The shift-inversion operator needs support at or above the first limit level."""


class HNotSmaller(DomainError):
    """Taylor expansion needs the increment strictly smaller than the base point."""


class NotInvertible(DomainError):
    """Compositional inversion needs logarithmicity zero."""


class NestingTooDeep(DomainError):
    """The expression nests deeper than the evaluator can recurse."""
