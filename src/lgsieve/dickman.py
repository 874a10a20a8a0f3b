"""Dickman's rho function and its finite-x empirical counterpart.

rho(u) is 1 on [0, 1] and solves the delay equation
u * rho'(u) = -rho(u - 1).  The table integrates the equivalent
integral form rho(u) = rho(v) - int_v^u rho(t-1)/t dt with the
trapezoid rule on a uniform grid.  One routine, ``_interp``, gives rho
between grid points by linear interpolation, for one u or an array of
them: the table reads it while it fills, and ``rho`` reads it after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .powers import real_pow
from .primes import PrimeTable, _real_array, check_array_bytes, psi_count

DEFAULT_STEP = 2.0**-10


@dataclass(frozen=True)
class DickmanTable:
    step: float
    max_u: float
    values: np.ndarray  # rho at grid points 0, step, 2*step, ...


def _interp(values, step, u):
    """The grid values linearly interpolated at u, a float or an array;
    at or past the last grid point, the last value itself."""
    last = len(values) - 1
    k = np.minimum(u / step, last)
    lo = np.minimum(np.floor(k), last - 1).astype(np.int64)
    frac = k - lo
    return values[lo] * (1.0 - frac) + values[lo + 1] * frac


def build_dickman_table(step: float = DEFAULT_STEP, max_u: float = 10.0) -> DickmanTable:
    """rho on the grid 0, step, ..., n step with n = ceil(max_u / step).

    Past the kink at u = 1, values[i] = values[i - 1] - (step / 2)
    (g(i - 1) + g(i)) with g(i) = rho(i step - 1) / (i step), which reads
    the table about 1 / step points back.  So the table is filled in
    blocks of fewer than floor(1 / step) - 1 points, each of which reads
    only finished entries: one vectorized g per block, then one
    np.subtract.accumulate, which folds from the left in the order of
    the per-point recurrence and so gives the same floats.
    """
    if not 0 < step < 1:
        raise ValueError(f"step out of (0,1): {step}")
    if not 1 <= max_u < math.inf:  # nan fails both comparisons
        raise ValueError(f"max_u must be >= 1 and finite, got {max_u}")
    check_array_bytes(max_u / step + 1, 8, "the rho table")  # inf on overflow, unlike ceil
    n = math.ceil(max_u / step)
    values = np.ones(n + 1)
    first = int(1.0 / step)  # then the least i with i * step > 1.0, as the floats round
    while first * step > 1.0:
        first -= 1
    while first * step <= 1.0:
        first += 1
    if first <= n and (first - 1) * step < 1.0:
        # the first step past the kink at u = 1 integrates from 1, where
        # rho(t - 1) is still identically 1
        u = first * step
        values[first] = 1.0 - ((u - 1.0) / 2.0) * (1.0 + _interp(values, step, u - 1.0) / u)
        first += 1
    block = max(1, int(1.0 / step) - 2)
    for lo in range(first, n + 1, block):
        hi = min(lo + block, n + 1)
        u = np.arange(lo - 1, hi) * step
        g = _interp(values, step, u - 1.0) / u
        terms = (step / 2.0) * (g[:-1] + g[1:])
        terms[0] = values[lo - 1] - terms[0]
        values[lo:hi] = np.subtract.accumulate(terms)
    return DickmanTable(step=step, max_u=float(n * step), values=values)


def rho(u: float, table: DickmanTable) -> float:
    """rho at one real u >= 0 (``_real_array``), from the table's grid."""
    u = _real_array("u", u, 0, 0)
    if u <= 1.0:
        return 1.0
    if u > table.max_u:
        raise ValueError(f"u={u} beyond table range {table.max_u}")
    return float(_interp(table.values, table.step, u))


def empirical_rho(x: int, u, table: PrimeTable):
    """Psi(x, x^(1/u)) / x, the finite-x smooth density, for a real u >= 1 or a
    1-D array of them (``_real_array``); a float, or a float64 array, back."""
    us = _real_array("u", u, 1, 1)
    y = np.array([real_pow(x, 1.0 / v) for v in us.flat]).reshape(us.shape)
    return psi_count(x, y, table) / x
