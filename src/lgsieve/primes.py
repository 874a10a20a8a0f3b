"""Prime sieving, factorization, smoothness predicates and Psi(x, y).

The smallest-prime-factor array is the backbone: it lists the primes
that LG-set construction chains together and makes each factorization
O(log m).  Tables are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

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
    """Smallest-prime-factor table up to ``limit`` plus the prime list.

    ``smallest_factor[n]`` is the least prime dividing n (n >= 2); the
    entries for 0 and 1 are 0.  ``primes`` is ascending and contains
    exactly the n with smallest_factor[n] == n.
    """

    __slots__ = ("limit", "smallest_factor", "primes", "_largest_factor")

    def __init__(self, limit: int, smallest_factor: np.ndarray, primes: np.ndarray):
        self.limit = limit
        self.smallest_factor = smallest_factor
        self.primes = primes
        self._largest_factor = None

    def largest_factor_array(self) -> np.ndarray:
        """Array of largest prime factors, built lazily; lpf[1] == 1.

        lpf(n) = max(spf(n), lpf(n // spf(n))), and n // spf(n) <= n / 2,
        so each block [lo, 2 lo) reads only the finished lpf[:lo]: about
        log2(limit) vectorized steps on int32 temporaries of at most
        limit / 2 + 1 entries.
        """
        if self._largest_factor is None:
            spf = self.smallest_factor
            lpf = np.zeros(self.limit + 1, dtype=np.int32)
            lpf[1] = 1
            lo = 2
            while lo <= self.limit:
                hi = min(2 * lo, self.limit + 1)
                p = spf[lo:hi]
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
    """Ascending primes <= n by a boolean sieve; n is the square root of
    a table limit, so this stays small."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def build_prime_table(limit: int) -> PrimeTable:
    error = f"sieve limit must be >= 2, got {limit}"
    try:
        limit = operator.index(limit)  # rejects floats, as LGSet does for members
    except TypeError:
        raise ValueError(error) from None
    if limit < 2:
        raise ValueError(error)
    check_array_bytes(limit + 1, 4, "the prime table")  # and the lazy lpf array, same size
    spf = np.zeros(limit + 1, dtype=np.int32)
    # descending, so at each composite n the write of its smallest prime
    # factor p (p * p <= n) lands last
    for p in _primes_up_to(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2  # the entries no smaller prime marked
    spf[primes] = primes
    return PrimeTable(limit, spf, primes)


def _int_in_range(name: str, value, low: int, high: int) -> int:
    """``value`` as an int, if it is an integer in [low, high]; numpy
    integers pass, and floats fail as they do for LGSet members."""
    try:
        n = operator.index(value)
    except TypeError:
        pass
    else:
        if low <= n <= high:
            return n
    raise ValueError(f"{name}={value} outside [{low}, {high}]")


def factorize(n: int, table: PrimeTable) -> Factorization:
    n = _int_in_range("n", n, 2, table.limit)
    spf = table.smallest_factor
    out = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return Factorization(n, tuple(out))


def largest_prime_factor(n: int, table: PrimeTable) -> int:
    return factorize(n, table).factors[-1][0]  # factors ascend


def is_smooth(n: int, y: float, table: PrimeTable) -> bool:
    """True iff every prime factor of n is <= y; n = 1 is always smooth."""
    n = _int_in_range("n", n, 1, table.limit)
    if y != y:  # nan, which compares False with every factor
        raise ValueError(f"smoothness bound y must not be nan, got {y}")
    return n == 1 or largest_prime_factor(n, table) <= y


def psi_count(x: int, y, table: PrimeTable):
    """#{1 <= n <= x : n is y-smooth} for a bound y (an int back) or a
    1-D array of bounds (an int64 array back), read off one cumulative
    histogram of the largest prime factors at floor(y)."""
    x = _int_in_range("x", x, 1, table.limit)
    if np.isnan(y).any():  # a nan bound would cast to an arbitrary index
        raise ValueError(f"smoothness bound y must not be nan, got {y}")
    # cum[k] = #{n <= x : lpf(n) <= k}; lpf >= 1, so cum[0] = 0 serves y < 1
    cum = np.cumsum(np.bincount(table.largest_factor_array()[1 : x + 1]))
    counts = cum[np.clip(np.floor(y), 0, cum.size - 1).astype(np.int64)]
    return int(counts) if np.ndim(counts) == 0 else counts

