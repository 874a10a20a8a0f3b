"""Dickman's rho function and its finite-x empirical counterpart.

rho(u) is 1 on [0, 1] and solves the delay equation
u * rho'(u) = -rho(u - 1).  The table integrates the equivalent
integral form rho(u) = rho(v) - int_v^u rho(t-1)/t dt with the
trapezoid rule on a uniform grid, interpolating linearly wherever a
value between grid points is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .powers import real_pow
from .primes import PrimeTable, check_array_bytes, psi_count

DEFAULT_STEP = 2.0**-10


@dataclass(frozen=True)
class DickmanTable:
    step: float
    max_u: float
    values: np.ndarray  # rho at grid points 0, step, 2*step, ...


def _interp(values, step, u):
    k = u / step
    lo = int(math.floor(k))
    if lo >= len(values) - 1:
        return float(values[-1])
    frac = k - lo
    return float(values[lo] * (1.0 - frac) + values[lo + 1] * frac)


def build_dickman_table(step: float = DEFAULT_STEP, max_u: float = 10.0) -> DickmanTable:
    if not 0 < step < 1:
        raise ValueError(f"step out of (0,1): {step}")
    if not 1 <= max_u < math.inf:  # nan fails both comparisons
        raise ValueError(f"max_u must be >= 1 and finite, got {max_u}")
    check_array_bytes(max_u / step + 1, 8, "the rho table")  # inf on overflow, unlike ceil
    n = math.ceil(max_u / step)
    values = np.ones(n + 1)
    for i in range(1, n + 1):
        u = i * step
        if u <= 1.0:
            continue
        u_prev = (i - 1) * step
        if u_prev < 1.0:
            # first step past the kink at u = 1: integrate from 1, where
            # rho(t - 1) is still identically 1
            h = u - 1.0
            values[i] = 1.0 - (h / 2.0) * (1.0 + _interp(values, step, u - 1.0) / u)
        else:
            g_prev = _interp(values, step, u_prev - 1.0) / u_prev
            g_here = _interp(values, step, u - 1.0) / u
            values[i] = values[i - 1] - (step / 2.0) * (g_prev + g_here)
    return DickmanTable(step=step, max_u=float(n * step), values=values)


def rho(u: float, table: DickmanTable) -> float:
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u <= 1.0:
        return 1.0
    if u > table.max_u:
        raise ValueError(f"u={u} beyond table range {table.max_u}")
    return _interp(table.values, table.step, u)


def empirical_rho(x: int, u, table: PrimeTable):
    """Psi(x, x^(1/u)) / x, the finite-x smooth density, for u >= 1 or
    a 1-D array of such u (a float, or a float64 array, back)."""
    us = np.asarray(u, dtype=float)
    if not np.all(us >= 1):  # nan fails the comparison
        raise ValueError(f"u must be >= 1, got {u}")
    y = np.array([real_pow(x, 1.0 / v) for v in us.flat]).reshape(us.shape)
    return psi_count(x, y, table) / x
