import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsieve.primes as primes_module
from lgsieve import (
    PrimeTable,
    ResourceLimitError,
    build_prime_table,
    factorize,
    is_smooth,
    largest_prime_factor,
    psi_count,
)

# Frozen regression constant: Psi(10^6, 10^3), fixed by the independent
# smooth-number enumeration oracle below before the main build.
PSI_1E6_1E3 = 344299


def simple_prime_sieve(limit):
    """Independent oracle: plain boolean sieve, no shared code paths."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    p = 2
    while p * p <= limit:
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
        p += 1
    return [i for i, f in enumerate(flags) if f]


def enumerate_smooth(x, primes_up_to_y):
    """Count y-smooth n <= x by DFS over prime-power products."""
    count = 0
    stack = [(1, 0)]
    while stack:
        n, i = stack.pop()
        count += 1
        for j in range(i, len(primes_up_to_y)):
            p = primes_up_to_y[j]
            if n * p > x:
                break
            stack.append((n * p, j))
    return count


def masked_ascending_spf(limit):
    """Oracle: each prime p <= sqrt(limit), ascending, writes p only where
    no smaller prime has written yet."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return spf, primes


def largest_factor_by_slices(limit):
    """Oracle: one strided write per prime, ascending, so the largest
    prime factor's write lands last."""
    lpf = np.zeros(limit + 1, dtype=np.int32)
    lpf[1] = 1
    for p in simple_prime_sieve(limit):
        lpf[p::p] = p
    return lpf


def assert_table_matches_masked_loop(limit, lpf_oracle=None):
    """The table's primes are the oracle's, and, given ``lpf_oracle``, its
    lazy lpf array is that oracle (lpf(n) does not depend on the limit) up
    to ``limit``."""
    t = build_prime_table(limit)
    _, primes = masked_ascending_spf(limit)
    assert t.limit == limit
    assert np.array_equal(t.primes, primes), limit
    if lpf_oracle is not None:
        lpf = t.largest_factor_array()
        assert lpf.dtype == np.int32
        assert np.array_equal(lpf, lpf_oracle[: limit + 1]), limit


def test_table_matches_masked_loop_every_limit_to_3000():
    for limit in range(2, 3001):
        assert_table_matches_masked_loop(limit)


@pytest.mark.parametrize("p", simple_prime_sieve(100))
def test_table_matches_masked_loop_around_prime_squares(p):
    # the lpf build splits the primes at sqrt(limit), which moves here
    oracle = largest_factor_by_slices(p * p + 1)
    for limit in (p * p - 1, p * p, p * p + 1):
        if limit >= 2:
            assert_table_matches_masked_loop(limit, oracle)


def test_largest_factor_array_matches_slices_every_limit_to_3000():
    # lpf(n) does not depend on the limit, so one oracle serves every prefix
    oracle = largest_factor_by_slices(3000)
    for limit in range(2, 3001):
        lpf = build_prime_table(limit).largest_factor_array()
        assert lpf.dtype == np.int32
        assert np.array_equal(lpf, oracle[: limit + 1]), limit


def test_largest_factor_array_matches_slices_around_prime_powers():
    # the doubling blocks end at powers of 2, so around 2^k the last block
    # is cut one short of, at or one past a full doubling
    top = 3 * 10**5
    oracle = largest_factor_by_slices(top + 1)
    powers = {p**k for p in (2, 3, 5) for k in range(1, 19) if p**k <= top}
    for limit in sorted({n + d for n in powers for d in (-1, 0, 1)} - {1}):
        assert np.array_equal(build_prime_table(limit).largest_factor_array(),
                              oracle[: limit + 1]), limit


def test_build_prime_table_entered_once_per_call(monkeypatch):
    # a tracer wrapping the public function sees one call and one table
    calls = []
    inner = primes_module.build_prime_table

    def wrapped(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(primes_module, "build_prime_table", wrapped)
    for limit in (2, 10**4, 10**5 + 3):
        primes_module.build_prime_table(limit)
    assert calls == [(2,), (10**4,), (10**5 + 3,)]


def test_first_primes():
    t = build_prime_table(10)
    assert list(t.primes) == [2, 3, 5, 7]


def test_smallest_valid_table():
    t = build_prime_table(2)
    assert list(t.primes) == [2]
    assert t.largest_factor_array()[2] == 2


def test_limit_too_small():
    with pytest.raises(ValueError):
        build_prime_table(1)


def test_limit_over_array_bytes_max(monkeypatch):
    # limit + 1 int32 entries: 10^5 + 1 of them fill the limit exactly
    monkeypatch.setattr(primes_module, "ARRAY_BYTES_MAX", 4 * (10**5 + 1))
    assert build_prime_table(10**5).limit == 10**5
    with pytest.raises(ResourceLimitError, match="the prime table needs 400008 bytes"):
        build_prime_table(10**5 + 1)


def test_default_byte_limit_allows_tables_below_1e8():
    # 10^8 int32 entries, the table up to x = 10^8 - 1; checked before allocating
    assert primes_module.ARRAY_BYTES_MAX == 4 * 10**8
    primes_module.check_array_bytes(10**8, 4, "the prime table")
    with pytest.raises(ResourceLimitError, match="400000004 bytes; the limit is 400000000"):
        build_prime_table(10**8)


@pytest.mark.parametrize(
    "entries, shown",
    [(math.inf, "inf"), (10**300, "8e+300"), (1e300, "8e+300"), (2**31, "17179869184")],
    ids=["inf", "int-1e300", "float-1e300", "2^31"],
)
def test_byte_limit_message_stays_short(entries, shown):
    with pytest.raises(ResourceLimitError) as exc:
        primes_module.check_array_bytes(entries, 8, "an array")
    assert str(exc.value) == f"an array needs {shown} bytes; the limit is 400000000"


def test_prime_count_1e6_against_independent_sieve():
    t = build_prime_table(10**6)
    assert len(t.primes) == 78498
    # spot-check against an independent sieve at a smaller limit
    assert list(build_prime_table(10**4).primes) == simple_prime_sieve(10**4)


def test_largest_factor_invariants(table10k):
    lpf = table10k.largest_factor_array()
    primes = set(int(p) for p in table10k.primes)
    for n in range(2, 10**4 + 1):
        p = int(lpf[n])
        assert n % p == 0
        assert p in primes
        assert (p == n) == (n in primes)
        assert lpf[n // p] <= p


def _arrays(table):
    return [getattr(table, name) for name in PrimeTable.__slots__
            if isinstance(getattr(table, name), np.ndarray)]


def test_table_builds_its_one_factor_array_when_read():
    # no array of limit or more entries until the lpf array is read, and
    # then exactly that one int32 array of limit + 1 entries
    limit = 10**6
    t = build_prime_table(limit)
    assert all(a.size < limit for a in _arrays(t))
    lpf = t.largest_factor_array()
    big = [a for a in _arrays(t) if a.size >= limit]
    assert len(big) == 1 and big[0] is lpf
    assert lpf.dtype == np.int32 and lpf.size == limit + 1


@pytest.mark.parametrize(
    "n,expected",
    [(70, ((2, 1), (5, 1), (7, 1))), (64, ((2, 6),)), (97, ((97, 1),))],
)
def test_factorize_examples(table1k, n, expected):
    f = factorize(n, table1k)
    assert f.factors == expected
    assert f.product() == n


def test_factorize_out_of_range(table1k):
    with pytest.raises(ValueError):
        factorize(1, table1k)
    with pytest.raises(ValueError):
        factorize(1001, table1k)


def test_factorize_roundtrip_exhaustive():
    t = build_prime_table(10**5)
    for n in range(2, 10**5 + 1):
        f = factorize(n, t)
        assert f.product() == n
        ps = [p for p, _ in f.factors]
        assert ps == sorted(ps)


@pytest.mark.parametrize("n,expected", [(70, 7), (97, 97), (1024, 2)])
def test_largest_prime_factor(table10k, n, expected):
    assert largest_prime_factor(n, table10k) == expected


def test_largest_prime_factor_undefined(table10k):
    with pytest.raises(ValueError):
        largest_prime_factor(1, table10k)


def test_is_smooth_examples(table1k):
    assert is_smooth(1, 2, table1k)
    assert is_smooth(70, 7, table1k)
    assert not is_smooth(70, 5, table1k)
    assert not is_smooth(97, 96.9, table1k)


@pytest.mark.parametrize("y", [-3, 0.5, 0.999, 1, 1.5, 2, 10])
def test_is_smooth_counts_agree_with_psi_count(table1k, y):
    # n = 1 is y-smooth exactly when y >= 1, for both
    assert psi_count(10, y, table1k) == sum(is_smooth(n, y, table1k) for n in range(1, 11))


@given(st.integers(min_value=2, max_value=10**4))
def test_smoothness_boundary(table10k, n):
    p = largest_prime_factor(n, table10k)
    assert is_smooth(n, p, table10k)
    assert not is_smooth(n, p - 1, table10k)


def test_psi_small(table1k):
    assert psi_count(10, 2, table1k) == 4  # 1, 2, 4, 8
    assert psi_count(100, 100, table1k) == 100


def test_psi_out_of_range(table1k):
    with pytest.raises(ValueError):
        psi_count(1001, 10, table1k)


def test_psi_regression_1e6():
    t = build_prime_table(10**6)
    assert psi_count(10**6, 10**3, t) == PSI_1E6_1E3
    assert enumerate_smooth(10**6, simple_prime_sieve(10**3)) == PSI_1E6_1E3


@settings(max_examples=50)
@given(
    x1=st.integers(min_value=1, max_value=10**4),
    x2=st.integers(min_value=1, max_value=10**4),
    y1=st.floats(min_value=1.0, max_value=10**4),
    y2=st.floats(min_value=1.0, max_value=10**4),
)
def test_psi_monotone(table10k, x1, x2, y1, y2):
    if x1 > x2:
        x1, x2 = x2, x1
    if y1 > y2:
        y1, y2 = y2, y1
    assert psi_count(x1, y1, table10k) <= psi_count(x2, y1, table10k)
    assert psi_count(x1, y1, table10k) <= psi_count(x1, y2, table10k)


def _psi_oracle(x, y, table):
    return int(np.count_nonzero(table.largest_factor_array()[1 : x + 1] <= y))


@pytest.mark.parametrize("x", [1, 2, 97, 10**4])
def test_psi_count_array_matches_oracle(table10k, x):
    ys = [0, 0.5, 1, 2, 96.9, 97, x, 2 * x]
    ys += np.random.default_rng(x).uniform(0, 2 * x, 20).tolist()
    counts = psi_count(x, np.array(ys), table10k)
    assert counts.tolist() == [_psi_oracle(x, y, table10k) for y in ys]
    for y in ys:
        psi = psi_count(x, y, table10k)
        assert type(psi) is int and psi == _psi_oracle(x, y, table10k)


def test_psi_full_for_large_y(table10k):
    assert psi_count(10**4, 10**4, table10k) == 10**4


@pytest.mark.parametrize("y", [math.nan, np.array([2.0, math.nan])])
def test_psi_rejects_nan_bound(table1k, y):
    # a nan bound used to cast to an arbitrary index and raise IndexError
    with pytest.raises(ValueError, match="nan"):
        psi_count(100, y, table1k)


@pytest.mark.parametrize("n", [1, 4])
def test_is_smooth_rejects_nan_bound(table1k, n):
    # a nan bound compares False with every factor: 1 was smooth and 4 was not
    with pytest.raises(ValueError, match="smoothness bound y must not be nan"):
        is_smooth(n, math.nan, table1k)
