"""Integer boundaries of real powers x^e.

Thresholds like "prime > x^delta" or "member < x^c" sit on strict
inequalities, so the power is evaluated in extended precision and only
then compared against integers.  Plain double arithmetic can misplace
the boundary when x^e lands near an integer (e.g. e = 1.0 exactly).
Every power is evaluated in one private 50-digit ``decimal.Context``,
so the caller's decimal context is neither read nor changed.
"""

from __future__ import annotations

import functools
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

_CTX = Context(prec=50)


def _pow(x: int, e: float) -> Decimal:
    # from_float converts the double exactly and, unlike Decimal(float),
    # sets no FloatOperation flag in the caller's context
    return _CTX.power(Decimal(int(x)), Decimal.from_float(float(e)))


def real_pow(x: int, e: float) -> float:
    """x^e as a double, rounded from a 50-digit evaluation."""
    return float(_pow(x, e))


def floor_pow(x: int, e: float) -> int:
    """Largest integer <= x^e."""
    return int(_pow(x, e).to_integral_value(ROUND_FLOOR, _CTX))


@functools.cache
def largest_int_below_pow(x: int, e: float) -> int:
    """Largest integer strictly less than x^e; memoized, because callers
    ask for the same boundary x^c once per member and once per report."""
    return int(_pow(x, e).to_integral_value(ROUND_CEILING, _CTX)) - 1
