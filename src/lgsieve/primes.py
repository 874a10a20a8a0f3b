"""Prime sieving, factorization, smoothness predicates and Psi(x, y).

The smallest-prime-factor array is the backbone: it lists the primes
that LG-set construction chains together and makes each factorization
O(log m).  Tables are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_TABLE_CEILING = 10**8

_SPF_MAGIC = b"LGSPF1"


class ResourceLimitError(RuntimeError):
    """Requested sieve limit exceeds the configured memory ceiling."""


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
        """Array of largest prime factors, built lazily; lpf[1] == 1."""
        if self._largest_factor is None:
            lpf = np.zeros(self.limit + 1, dtype=np.int32)
            lpf[1] = 1
            for p in self.primes:  # ascending, so the last write wins
                lpf[p::p] = p
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


def build_prime_table(limit: int, ceiling: int = DEFAULT_TABLE_CEILING) -> PrimeTable:
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    ceiling = min(ceiling, 2**31 - 1)  # int32 entries, as in the cache
    if limit > ceiling:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds ceiling {ceiling}"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2  # the entries no smaller prime marked
    spf[primes] = primes
    return PrimeTable(limit, spf, primes)


def _check_range(n: int, table: PrimeTable, low: int = 2) -> None:
    if not low <= n <= table.limit:
        raise ValueError(f"n={n} outside [{low}, {table.limit}]")


def factorize(n: int, table: PrimeTable) -> Factorization:
    _check_range(n, table)
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
    _check_range(n, table)
    spf = table.smallest_factor
    m = n
    p = 2
    while m > 1:
        p = int(spf[m])
        while m % p == 0:
            m //= p
    return p


def is_smooth(n: int, y: float, table: PrimeTable) -> bool:
    """True iff every prime factor of n is <= y; n = 1 is always smooth."""
    _check_range(n, table, low=1)
    if n == 1:
        return True
    return largest_prime_factor(n, table) <= y


def psi_count(x: int, y: float, table: PrimeTable) -> int:
    """#{1 <= n <= x : n is y-smooth}, by exact counting."""
    if not 1 <= x <= table.limit:
        raise ValueError(f"x={x} outside [1, {table.limit}]")
    lpf = table.largest_factor_array()
    return int(np.count_nonzero(lpf[1 : x + 1] <= y))


def write_spf_cache(table: PrimeTable, path) -> None:
    """Binary cache: magic, little-endian 64-bit limit, then the
    smallest-factor entries as little-endian 32-bit integers."""
    with open(path, "wb") as fh:
        fh.write(_SPF_MAGIC)
        fh.write(struct.pack("<Q", table.limit))
        fh.write(table.smallest_factor.astype("<i4").tobytes())


def read_spf_cache(path) -> PrimeTable:
    """Load a cache written by ``write_spf_cache``; raises ValueError
    unless entry n is the smallest prime factor of n for every n."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_SPF_MAGIC))
        if magic != _SPF_MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        (limit,) = struct.unpack("<Q", fh.read(8))
        data = fh.read()
    spf = np.frombuffer(data, dtype="<i4")  # read-only, as a table should be
    if spf.size != limit + 1:
        raise ValueError(f"cache truncated: {spf.size} entries for limit {limit}")
    if limit < 2 or spf[0] != 0 or spf[1] != 0:
        raise ValueError("corrupt cache: need limit >= 2 and entries 0 and 1 zero")
    n, p = np.arange(2, limit + 1, dtype=np.int64), spf[2:]
    if not np.all((2 <= p) & (p <= n)):
        raise ValueError("corrupt cache: need 2 <= spf[n] <= n")
    if np.any(n % p) or np.any(spf[p] != p):
        raise ValueError("corrupt cache: spf[n] must be a divisor of n that is its own spf")
    # sieve pass: every multiple of p from p^2 on has spf <= p, so no
    # composite keeps a larger prime divisor or poses as prime
    for q in range(2, math.isqrt(limit) + 1):
        if spf[q] == q and spf[q * q :: q].max() > q:
            raise ValueError(f"corrupt cache: a multiple of {q} has a larger spf")
    return PrimeTable(int(limit), spf, n[p == n])
