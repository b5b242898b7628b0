"""Exact symbolic arithmetic, calculus and composition for a computable
fragment of the field of logarithmic series indexed by ordinal levels."""

from .calculus import (HFieldFacts, dagger, derive, hfield_facts, integrate,
                       mod_derive)
from .composition import (Logarithmicity, LogTower, compose, compose_hyperlog,
                          compose_hyperlog_omega, compose_monomial, invert,
                          log_iter, logarithmicity, recursion_check,
                          taylor_compose, taylor_deform, up3)
from .errors import (BadPrecision, DomainError, EmptyInterval, HNotSmaller,
                     IdentityMonomial, IndeterminateDominant,
                     IndeterminateSign, IndeterminateSplit,
                     IrrationalConstantPower, NestingTooDeep, NonMonicLog,
                     NotGreaterThanR, NotInvertible, NotPositive,
                     SupportBelowOmega, ZeroSeries)
from .monomial import (MONE, Monomial, X, hyperlog, hyperlog_dagger,
                       hyperlog_deriv, make_monomial, mono_compare,
                       mono_min_support, mono_mul, mono_pow, mono_shift,
                       mono_split)
from .ordinal import (OMEGA, ONE, ZERO, Ordinal, format_ordinal, is_limit,
                      is_successor, lambda_coeff, monomial_cnf_list,
                      omega_pow, ord_add, ord_compare, ordinal, parse_ordinal)
from .render import (format_value, series_from_json, series_to_json,
                     value_to_json)
from .series import (DEFAULT_PRECISION, Precision, Series, eq_exact,
                     eq_to_bound, from_const, from_monomial, is_exact_zero,
                     make_series, ser_add, ser_compare_zero, ser_dominant,
                     ser_log, ser_lt, ser_mul, ser_mul_inverse, ser_neg,
                     ser_parts, ser_pow, ser_scale, ser_sub)

__all__ = [name for name in dir() if not name.startswith("_")]
