import decimal
import hashlib

import numpy as np
import pytest

from lgsieve.powers import floor_pow, largest_int_below_pow, real_pow

GRID = [k / 100 for k in range(1, 101)]

# x from 4 to 2^31 - 1, with exact powers under the dyadic exponents
# 0.25, 0.5 and 0.75 (4096, 10^4, 65536, 2^20, ...) and under 1/3, 1/6
BOUNDARY_XS = [
    4, 8, 27, 97, 100, 256, 1000, 4096, 10**4, 65536, 10**5, 3**12, 10**6,
    2**20, 3**13, 3 * 10**6, 5**10, 10**7, 2**24, 10**8, 3**18, 10**9, 2**30,
    1234567891, 2**31 - 2, 2**31 - 1,
]
# the 0.01 grid, 1/u for u = 1.5:0.25:10, and 1/3, 1/6, 1/7, 1/8
BOUNDARY_ES = sorted(
    set(GRID) | {1 / (1.5 + k / 4) for k in range(35)} | {1 / 3, 1 / 6, 1 / 7, 1 / 8}
)
# SHA-256 of repr([(x, e, real_pow, floor_pow, largest_int_below_pow), ...])
# over the grid above, recorded from an independent 50-digit mpmath evaluation
BOUNDARY_SHA256 = "8034a65605db32dd4c6f570b80277f967b2c2a9ac5721fb89ee188ad5a899f68"


def test_power_boundaries_match_pinned_grid():
    assert (len(BOUNDARY_XS), len(BOUNDARY_ES)) == (26, 129)
    rows = [
        (x, e, real_pow(x, e), floor_pow(x, e), largest_int_below_pow.__wrapped__(x, e))
        for x in BOUNDARY_XS
        for e in BOUNDARY_ES
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == BOUNDARY_SHA256


def test_caller_decimal_context_untouched():
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.rounding = decimal.ROUND_CEILING
        ctx.traps[decimal.Inexact] = True  # any use of this context would raise
        ctx.clear_flags()
        before = repr(ctx)
        assert real_pow(10**6, 0.5) == 1000.0
        assert floor_pow(10**6, 1 / 3) == 99
        assert largest_int_below_pow.__wrapped__(10**6, 0.93) == 380189
        assert repr(decimal.getcontext()) == before


@pytest.mark.parametrize("x", [97, 10**4, 10**5, 3 * 10**6])
def test_memo_matches_uncached_on_grid(x):
    for e in GRID:
        want = largest_int_below_pow.__wrapped__(x, e)
        assert largest_int_below_pow(x, e) == want  # first call fills the cache
        assert largest_int_below_pow(x, e) == want  # second call reads it


def test_memo_exact_power():
    # 10^4 ^ 0.5 = 100 exactly, so the largest integer strictly below is 99
    assert largest_int_below_pow.__wrapped__(10**4, 0.5) == 99
    assert largest_int_below_pow(10**4, 0.5) == 99


@pytest.mark.parametrize("x, e", [(10**5, 0.93), (10**4, 0.5), (97, 0.37)])
def test_memo_numpy_arguments(x, e):
    plain = largest_int_below_pow.__wrapped__(x, e)
    for args in ((np.int64(x), e), (x, np.float64(e)), (np.int64(x), np.float64(e)), (x, e)):
        got = largest_int_below_pow(*args)
        assert type(got) is int and got == plain
