"""Prime sieving, factorization, smoothness predicates and Psi(x, y).

A table holds the primes up to its limit, which LG-set construction
chains together, and one factor array, the largest prime factor of each
n, built when first read; every factor question reads it, and each
factorization takes O(log m) lookups.  Tables are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import array
import math
import operator
from dataclasses import dataclass

import numpy as np

INT32_MAX = 2**31 - 1  # tables, divisor maps and residues are int32
# the largest array of O(x) entries any layer may allocate: 10^8 int32 entries
ARRAY_BYTES_MAX = 4 * 10**8


class ResourceLimitError(RuntimeError):
    """An array would exceed ARRAY_BYTES_MAX; raised before it is allocated."""


def check_array_bytes(entries, itemsize: int, what: str) -> None:
    """Raise ResourceLimitError if ``entries`` items of ``itemsize`` bytes
    exceed ARRAY_BYTES_MAX; ``entries`` may be a float, inf included."""
    size = entries * itemsize
    if size > ARRAY_BYTES_MAX:  # .12g prints a huge size in exponent form
        raise ResourceLimitError(f"{what} needs {size:.12g} bytes; the limit is {ARRAY_BYTES_MAX}")


def _exact_sum(values) -> float:
    """The correctly rounded sum of a 1-D array.  Floats reach
    ``math.fsum`` one at a time through a memoryview of float64, so no
    list of the array is ever built."""
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.integer):
        return float(arr.sum())
    # memoryview cannot iterate float16; the cast copies no contiguous float64 array
    return math.fsum(memoryview(np.ascontiguousarray(arr, dtype=np.float64)))


class PrimeTable:
    """The primes up to ``limit`` and their largest-prime-factor array.

    ``primes`` is ascending.  ``largest_factor_array()`` builds the one
    factor array on its first call and keeps it.
    """

    __slots__ = ("limit", "primes", "_largest_factor")

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        self._largest_factor = None

    def largest_factor_array(self) -> np.ndarray:
        """Array of largest prime factors, built lazily; lpf[1] == 1.

        It starts as n itself, so 1 and each prime hold their own value,
        and each prime p <= sqrt(limit), ascending, writes p from p^2 on:
        every n >= 2 holds some prime factor q.  Then lpf(n) =
        max(q, lpf(n // q)) with n // q <= n / 2, so each block [lo, 2 lo)
        reads only the finished lpf[:lo]: about log2(limit) vectorized
        steps on int32 temporaries of at most limit / 2 + 1 entries.
        """
        if self._largest_factor is None:
            lpf = np.arange(self.limit + 1, dtype=np.int32)
            for p in self.primes[self.primes <= math.isqrt(self.limit)].tolist():
                lpf[p * p :: p] = p
            lo = 2
            while lo <= self.limit:
                hi = min(2 * lo, self.limit + 1)
                p = lpf[lo:hi]
                cofactor = np.arange(lo, hi, dtype=np.int32)
                cofactor //= p
                np.maximum(p, lpf[cofactor], out=lpf[lo:hi])
                lo = hi
            self._largest_factor = lpf
        return self._largest_factor


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def product(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n, for n >= 2, by a boolean sieve over the odd
    numbers only: (n + 1) // 2 bytes, entry i standing for 2i + 1.

    Entry 0 (the number 1) stays set, so its output slot can take the
    prime 2 in place, and the primes are built in one array.
    """
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def build_prime_table(limit: int) -> PrimeTable:
    limit = _int_in_range("sieve limit", limit, 2, INT32_MAX)  # tables are int32
    check_array_bytes(limit + 1, 4, "the prime table")  # the lazy lpf array
    return PrimeTable(limit, _primes_up_to(limit))


def _int_in_range(name: str, value, low: int, high: int) -> int:
    """``value`` as an int, if it is an integer in [low, high]: numpy
    integers pass, and floats, Fractions, Decimals and strings fail."""
    try:
        n = operator.index(value)
    except TypeError:
        pass
    else:
        if low <= n <= high:
            return n
    raise ValueError(f"{name} must be in [{low}, {high}], got {_shown(value)}")


def _shown(value) -> str:
    """``value`` for an error message: str and bytes quoted, so "100" does not read as a number."""
    return repr(value) if isinstance(value, (str, bytes)) else str(value)


def _real_array(name: str, value, low: float, max_ndim: int) -> np.ndarray:
    """``value`` as float64, if it is bools, integers or floats in at most ``max_ndim``
    dimensions, none below ``low`` or nan: str, None, complex and Fraction fail."""
    arr = np.asarray(value)
    if arr.dtype.kind in "biuf" and arr.ndim <= max_ndim and np.all(arr >= low):  # nan fails >=
        return arr.astype(np.float64)
    raise ValueError(f"{name} must be >= {low}, real and at most {max_ndim}-D, got {_shown(value)}")


def _int_array(values, error: str) -> np.ndarray:
    """``values`` as a 1-D integer array, else ValueError(error).  An
    integer ndarray is taken as it is, and any other iterable is read into
    int64 through ``__index__``, as ``_int_in_range`` reads one integer."""
    if not isinstance(values, np.ndarray):
        try:
            # list() first: array.array would read a bytes object as raw int64s
            values = np.asarray(array.array("q", list(values)))
        except (TypeError, OverflowError):
            raise ValueError(error) from None
    if values.ndim != 1 or values.dtype.kind not in "iu":
        raise ValueError(error)
    return values


def factorize(n: int, table: PrimeTable) -> Factorization:
    """The prime factorization of n, read off the table's lazy lpf array
    largest factor first; the factors come back ascending."""
    n = m = _int_in_range("n", n, 2, table.limit)
    lpf = table.largest_factor_array()
    out = []
    while m > 1:
        p = int(lpf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return Factorization(n, tuple(out[::-1]))


def largest_prime_factor(n: int, table: PrimeTable) -> int:
    n = _int_in_range("n", n, 2, table.limit)
    return int(table.largest_factor_array()[n])


def is_smooth(n: int, y: float, table: PrimeTable) -> bool:
    """True iff lpf(n) <= y, for one real y (``_real_array``), with lpf(1) = 1
    as in ``psi_count`` and the lpf array, so n = 1 is y-smooth iff y >= 1."""
    n = _int_in_range("n", n, 1, table.limit)
    y = _real_array("smoothness bound y", y, -math.inf, 0)
    return bool(table.largest_factor_array()[n] <= y)


def psi_count(x: int, y, table: PrimeTable):
    """#{1 <= n <= x : n is y-smooth} for a real bound y (an int back) or a 1-D
    array of them (an int64 array back), none nan (``_real_array``): the number
    of entries at most floor(y) in one sorted copy of the lpf of 1..x."""
    x = _int_in_range("x", x, 1, table.limit)
    y = _real_array("smoothness bound y", y, -math.inf, 1)
    check_array_bytes(x, 4, "the sorted largest prime factors")
    lpf = np.sort(table.largest_factor_array()[1 : x + 1])
    # bounds of the copy's own dtype: int64 ones would make numpy cast all of it
    counts = lpf.searchsorted(np.clip(np.floor(y), 0, x).astype(lpf.dtype), side="right")
    return int(counts) if np.ndim(counts) == 0 else counts
