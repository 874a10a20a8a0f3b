"""Integer boundaries of real powers x^e.

Thresholds like "prime > x^delta" or "member < x^c" sit on strict
inequalities, so the power is evaluated in extended precision and only
then compared against integers.  Plain double arithmetic can misplace
the boundary when x^e lands near an integer (e.g. e = 1.0 exactly).
"""

from __future__ import annotations

import functools

import mpmath

_DPS = 50


def _mp_pow(x: int, e: float) -> mpmath.mpf:
    with mpmath.workdps(_DPS):
        return mpmath.mpf(int(x)) ** mpmath.mpf(float(e))


def real_pow(x: int, e: float) -> float:
    """x^e as a double, rounded from a 50-digit evaluation."""
    with mpmath.workdps(_DPS):
        return float(_mp_pow(x, e))


def floor_pow(x: int, e: float) -> int:
    """Largest integer <= x^e."""
    with mpmath.workdps(_DPS):
        return int(mpmath.floor(_mp_pow(x, e)))


@functools.cache
def largest_int_below_pow(x: int, e: float) -> int:
    """Largest integer strictly less than x^e; memoized, because callers
    ask for the same boundary x^c once per member and once per report."""
    with mpmath.workdps(_DPS):
        v = _mp_pow(x, e)
        f = mpmath.floor(v)
        if v == f:
            return int(f) - 1
        return int(f)
