import numpy as np
import pytest

from lgsieve.powers import largest_int_below_pow

GRID = [k / 100 for k in range(1, 101)]


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
