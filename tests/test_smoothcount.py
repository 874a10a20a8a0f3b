import decimal
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import (
    LGParams,
    LGSet,
    WeightedSet,
    construct,
    coverage,
    difference_weights,
    find_divisor,
    is_smooth,
    partition,
    sieve_report,
    sumset_weights,
    theorem3_experiment,
    with_cutoff,
)
from lgsieve.powers import largest_int_below_pow, real_pow
from lgsieve.primes import build_prime_table, largest_prime_factor
from lgsieve import ResourceLimitError, primes, smoothcount
from lgsieve.cli import _make_weights
from lgsieve.discrepancy import distinct_ints
from lgsieve.smoothcount import residue_convolution_identity_ok
from lg_samples import random_lg_set, upper_half_set


def test_partition_x100(set100, table1k):
    part = partition(set100, 0.6, table1k)
    assert part.n1.dtype == part.n2.dtype == np.int32
    assert part.n1.tolist() == [11, 13, 35]
    assert part.n2.tolist() == [q for q in set100.members if q not in (11, 13, 35)]
    assert part.sum1 == math.fsum(1 / q for q in (11, 13, 35))


def test_partition_keeps_its_set_and_table(set100, table1k):
    # sieve_report reads both through the partition; the repr omits them
    part = partition(set100, 0.6, table1k)
    assert part.lgset is set100 and part.table is table1k
    assert "lgset" not in repr(part) and "table" not in repr(part)


def test_partition_theta_one(set100, table1k):
    part = partition(set100, 1.0, table1k)
    assert part.n2.tolist() == []
    assert part.sum2 == 0.0


def test_partition_theta_too_small(set100, table1k):
    with pytest.raises(ValueError):
        partition(set100, 0.2, table1k)


def test_partition_completeness(set10k, table10k):
    for cutoff in (1.0, 0.8):
        part = partition(with_cutoff(set10k, cutoff), 0.5, table10k)
        cov = coverage(set10k, cutoff, table10k)
        bound = largest_int_below_pow(10**4, cutoff)
        below = [q for q in set10k.members if q <= bound]
        assert sorted(part.n1.tolist() + part.n2.tolist()) == below
        assert set(part.n1).isdisjoint(part.n2)
        assert part.sum1 + part.sum2 == pytest.approx(cov.harmonic_sum, abs=1e-12)


def _split_by_factorizing(lgset, theta, cutoff, table):
    """Oracle: factorize each member below the cutoff on its own."""
    x = lgset.params.x
    bound = largest_int_below_pow(x, cutoff)
    y = real_pow(x, theta)
    small = [q for q in lgset.members if q <= bound]
    n1 = [q for q in small if largest_prime_factor(q, table) <= y]
    n2 = [q for q in small if largest_prime_factor(q, table) > y]
    return n1, n2


@pytest.mark.parametrize(
    "x, delta, theta, cutoff",
    [
        (100, 0.2, 0.6, 1.0),
        (100, 0.2, 1.0, 1.0),
        (97**2, 0.1, 0.5, 1.0),  # x^theta = 97 is the lpf of 21 members
        (3000, 0.1, 0.3, 0.7),
        (10**4, 0.1, 0.5, 0.8),
        (10**4, 0.1, 1.0, 0.6),
        (10**4, 0.05, 0.25, 1.0),
    ],
)
def test_partition_matches_factorizing_oracle(table10k, x, delta, theta, cutoff):
    s = construct(LGParams(x, delta), table10k)  # table10k is larger than x < 10^4
    part = partition(with_cutoff(s, cutoff), theta, table10k)
    assert (part.n1.tolist(), part.n2.tolist()) == _split_by_factorizing(s, theta, cutoff, table10k)
    assert part.sum1 == math.fsum(1.0 / q for q in part.n1)
    assert part.sum2 == math.fsum(1.0 / q for q in part.n2)


def test_partition_table_too_small(set10k):
    with pytest.raises(ValueError):
        partition(set10k, 0.5, build_prime_table(5000))


@pytest.mark.parametrize("theta", [0.4, 0.6])
def test_smoothness_crux_exhaustive_1k(table1k, theta):
    # the structural fact the sieve rests on: for m with member divisor
    # q, m is x^theta-smooth exactly when q lands in the smooth class
    x = 1000
    s = construct(LGParams(x, 0.1), table1k)
    part = partition(s, theta, table1k)
    n1 = set(part.n1)
    y = real_pow(x, theta)
    for m in range(1, x + 1):
        q = find_divisor(m, s)
        if q is None:
            continue
        assert is_smooth(m, y, table1k) == (q in n1)


def indicator(x, points):
    """Dense weights: 1.0 at each of ``points``, 0.0 elsewhere on [0, x]."""
    w = np.zeros(x + 1)
    w[points] = 1.0
    return w


def test_weighted_set_validation():
    bad = np.zeros(11)
    bad[0] = 2.0
    with pytest.raises(ValueError):
        WeightedSet(bad)
    for w in (-1.0, math.inf, math.nan):
        dense = np.zeros(11)
        dense[3] = w
        with pytest.raises(ValueError):
            WeightedSet(dense)
    with pytest.raises(ValueError):
        WeightedSet(np.zeros((2, 11)))  # not 1-D
    with pytest.raises(ValueError):
        WeightedSet(np.zeros(1))  # x = 0
    with pytest.raises(ValueError):
        WeightedSet(np.array([0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0]))
    ints = WeightedSet(np.arange(11))
    assert ints.x == 10 and ints.sigma == 55 and ints.array.dtype.kind == "i"
    assert WeightedSet(np.arange(11) % 2 == 1).sigma == 5
    w = np.zeros(11)
    w[[3, 7]] = [1.5, 2.5]
    ws = WeightedSet(w)
    assert ws.sigma == 4.0 and ws.array is w


def test_weighted_set_rejects_a_dict_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense weights must have length"):
            WeightedSet({3: 1.0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_weighted_set_rejects_an_integer_total_past_int64():
    # a wrapped int64 or uint64 total would give a negative or zero sigma
    w = np.zeros(11, dtype=np.int64)
    w[1:3] = 2**62
    for arr in (w, np.array([0, 2**63, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="must total at most"):
            WeightedSet(arr)
    w[2] -= 1  # a total of exactly 2**63 - 1 passes
    assert WeightedSet(w).sigma == float(2**63 - 1)


CHUNK = 1 << 16


@pytest.mark.parametrize("n", [0, 1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_exact_sum_equals_fsum_of_the_whole_list(n):
    rng = np.random.default_rng(n)
    arr = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    if n > CHUNK:
        # a huge pair that cancels across indices 65535 and 65536: a sum
        # of per-block sums, 2^16 entries a block, would round away the
        # rest of both blocks
        arr[CHUNK - 1 : CHUNK + 1] = [1e100, -1e100]
    expected = math.fsum(arr.tolist())
    assert primes._exact_sum(arr) == expected
    assert primes._exact_sum(-arr) == -expected


@pytest.mark.parametrize(
    "arr",
    [
        np.array([0.1, 1e4, -3.5, 0.1], dtype=np.float16),
        np.array([0.1, 1e30, -1e30, 0.3], dtype=np.float32),
        np.array([True, False, True]),
        (np.arange(1, 40) ** -1.5)[::2],  # strided: not contiguous
        np.array([]),
    ],
    ids=["float16", "float32", "bool", "strided", "empty"],
)
def test_exact_sum_of_any_float_dtype_and_layout(arr):
    assert primes._exact_sum(arr) == math.fsum(np.asarray(arr, float).tolist())


def test_sieve_report_unit_weights(set100, table1k):
    part = partition(set100, 0.6, table1k)
    w = np.ones(101)
    w[0] = 0
    rep = sieve_report(WeightedSet(w), part, 0.2)
    assert rep.lhs1 == sum(100 // q for q in part.n1)
    assert rep.lhs2 == rep.tau == sum(100 // q for q in part.n2)


def test_sieve_report_indicator(set100, table1k):
    part = partition(set100, 0.6, table1k)
    ws = WeightedSet(indicator(100, [35, 70]))
    rep = sieve_report(ws, part, 0.2)
    assert (rep.lhs1, rep.lhs2, rep.tau) == (2.0, 0.0, 0.0)


def test_sieve_report_zero_weights(set100, table1k):
    part = partition(set100, 0.6, table1k)
    rep = sieve_report(WeightedSet(np.zeros(101)), part, 0.2)
    assert (rep.sigma, rep.lhs1, rep.lhs2, rep.tau, rep.smooth_total) == (0.0,) * 5


def test_sieve_report_bound_mismatch(set100, table1k):
    part = partition(set100, 0.6, table1k)
    ws = WeightedSet(indicator(50, [35]))
    with pytest.raises(ValueError, match="weight bound 50 != set bound 100"):
        sieve_report(ws, part, 0.2)


def divisor_sums_oracle(ws, part):
    """(lhs1, lhs2) by the per-member walk over multiples, which the
    divisor-map read replaced: each class's elements summed once, as
    Python ints for integer weights and by fsum for float ones, so the
    result is the correctly rounded sum of the same multiset."""
    arr, x = ws.array, ws.x
    exact = int if np.issubdtype(arr.dtype, np.integer) else float
    total = math.fsum if exact is float else sum

    def mass(members):
        return float(total(exact(arr[m]) for q in members for m in range(q, x + 1, q)))

    return mass(part.n1), mass(part.n2)


def assert_sieve_matches_oracle(ws, part):
    rep = sieve_report(ws, part, 0.2)
    lhs1, lhs2 = divisor_sums_oracle(ws, part)
    assert rep.lhs1 == lhs1
    assert rep.lhs2 == rep.tau == lhs2


@pytest.mark.parametrize("kind", ["uniform", "random-dense", "random-sparse", "indicator"])
@pytest.mark.parametrize("theta", [0.3, 0.5, 0.6, 1.0])
@pytest.mark.parametrize("cutoff", [1.0, 0.8])
@pytest.mark.parametrize("which", ["set100", "set10k"])
def test_sieve_report_matches_per_member_walk(request, table10k, which, cutoff, theta, kind):
    s = request.getfixturevalue(which)
    part = partition(with_cutoff(s, cutoff), theta, table10k)
    ws = _make_weights(kind, s.params.x, random.Random(7))
    assert_sieve_matches_oracle(ws, part)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=10**4),
    delta=st.sampled_from([0.05, 0.1, 0.2]),
    theta=st.floats(min_value=0.0, max_value=0.99),
    cutoff=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32),
    density=st.floats(min_value=0.0, max_value=1.0),
    integer=st.booleans(),
)
def test_sieve_report_matches_per_member_walk_property(
    table10k, x, delta, theta, cutoff, seed, density, integer
):
    # theta and the cutoff mapped into (delta, 1]
    s = with_cutoff(construct(LGParams(x, delta), table10k), 1 - (1 - delta) * cutoff)
    part = partition(s, 1 - (1 - delta) * theta, table10k)
    rng = np.random.default_rng(seed)
    if integer:
        w = rng.integers(0, 10**6, size=x + 1)
    else:  # magnitudes over ten decades, so rounding order matters
        w = rng.random(x + 1) * 10.0 ** rng.uniform(-5, 5, size=x + 1)
    w[rng.random(x + 1) >= density] = 0
    w[0] = 0
    assert_sieve_matches_oracle(WeightedSet(w), part)


def test_sumset_trivial():
    ws = sumset_weights([1], [1], 100)
    assert ws.sigma == 1.0
    assert int(ws.array[2]) == 1
    assert int(ws.array.sum()) == 1


def test_sumset_hand_convolution():
    ws = sumset_weights([1, 2], [1, 2], 100)
    assert {n: int(ws.array[n]) for n in np.flatnonzero(ws.array)} == {2: 1, 3: 2, 4: 1}
    assert ws.sigma == 4.0


def test_sumset_domain_restriction():
    with pytest.raises(ValueError):
        sumset_weights([51], [1], 100)


@settings(max_examples=25, deadline=None)
@given(
    A=st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=25),
    B=st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=25),
)
def test_residue_convolution_identity(set100, A, B):
    x = 100
    ws = sumset_weights(A, B, x)
    Aa, Bb = sorted(A), sorted(B)
    for lg in (set100, upper_half_set(x)):
        for q in lg.members:
            lhs = sum(int(ws.array[n]) for n in range(q, x + 1, q))
            rhs = 0
            for a in range(q):
                ca = sum(1 for v in Aa if v % q == a)
                cb = sum(1 for v in Bb if v % q == (q - a) % q)
                rhs += ca * cb
            assert lhs == rhs
        assert residue_convolution_identity_ok(ws, Aa, Bb, lg.members, lg)


@pytest.mark.parametrize("seed", range(3))
def test_residue_convolution_identity_detects_moved_weight(table1k, seed):
    """The check is not vacuous: moving one unit of weight off a
    multiple n of a member modulus q to n + 1 makes it fail."""
    rng = random.Random(seed)
    x = 1000
    lg = construct(LGParams(x, 0.2), table1k)
    A, B = rng.sample(range(1, 501), 40), rng.sample(range(1, 501), 40)
    ws = sumset_weights(A, B, x)
    moduli = lg.members
    assert residue_convolution_identity_ok(ws, A, B, moduli, lg)
    q = rng.choice([q for q in moduli if np.any(ws.array[q:x:q])])
    n = next(int(m) for m in np.flatnonzero(ws.array) if m % q == 0 and m < x)
    arr = ws.array.copy()
    arr[n] -= 1
    arr[n + 1] += 1
    moved = WeightedSet(arr)
    assert moved.sigma == ws.sigma
    assert not residue_convolution_identity_ok(moved, A, B, moduli, lg)


def residue_identity_oracle(ws, A, B, moduli):
    """The per-modulus histogram dot hist(A mod q) . hist(-B mod q) in
    int64, which the divisor-map sums replaced."""
    Aa = np.array(sorted(set(A)), dtype=np.int64)
    Bb = np.array(sorted(set(B)), dtype=np.int64)
    arr = ws.array
    return all(
        int(arr[q::q].sum())
        == int(np.bincount(Aa % q, minlength=q) @ np.bincount(-Bb % q, minlength=q))
        for q in moduli
    )


def _moved_unit(ws, n):
    arr = ws.array.copy()
    arr[n] -= 1
    arr[n + 1] += 1
    return WeightedSet(arr)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=2 * 10**4),
    seed=st.integers(min_value=0, max_value=2**32),
    da=st.floats(min_value=0.0, max_value=1.0),
    db=st.floats(min_value=0.0, max_value=1.0),
    nq=st.integers(min_value=0, max_value=200),
    move=st.booleans(),
)
def test_residue_identity_matches_oracle_property(table100k, x, seed, da, db, nq, move):
    rng = random.Random(seed)
    half = x // 2
    cap = min(half, 2000)
    A = rng.sample(range(1, half + 1), int(da * cap))
    B = rng.sample(range(1, half + 1), int(db * cap))
    lg = random_lg_set(x, rng, table100k)
    # member moduli, unsorted and with repeats
    moduli = [rng.choice(lg.members) for _ in range(nq)] if len(lg) else []
    ws = sumset_weights(A, B, x)
    support = np.flatnonzero(ws.array)
    below = support[support < x]
    if move and below.size:
        ws = _moved_unit(ws, int(rng.choice(below.tolist())))
    want = [residue_identity_oracle(ws, A, B, [q]) for q in moduli]
    assert [residue_convolution_identity_ok(ws, A, B, [q], lg) for q in moduli] == want
    assert residue_convolution_identity_ok(ws, A, B, moduli, lg) == all(want)


@pytest.mark.parametrize(
    "A, B, moduli, message",
    [
        ([1], [1], [0], "moduli must be integer members"),
        ([1], [1], [-3], "moduli must be integer members"),
        ([1], [1], [2**31], "moduli must be integer members"),
        ([1], [1], [2.0], "moduli must be integer members"),
        ([0], [1], [11], "A must lie in"),
        ([101], [1], [11], "A must lie in"),
        ([1], [101], [11], "B must lie in"),
        ([1], [1], [12], "moduli must be integer members"),  # not a member
        ([60], [41], [11], "sums exceed x = 100"),
        ([100], [1], [11], "sums exceed x = 100"),
    ],
)
def test_residue_identity_rejects_bad_input(set100, A, B, moduli, message):
    ws = sumset_weights([1, 2], [3], 100)
    with pytest.raises(ValueError, match=message):
        residue_convolution_identity_ok(ws, A, B, moduli, set100)


def test_residue_identity_accepts_sums_up_to_x(set100):
    # an element may pass x/2 as long as no sum exceeds x
    w = np.zeros(101, dtype=np.int64)
    w[99] = 1  # 1 + 98 = 9 * 11
    assert residue_convolution_identity_ok(WeightedSet(w), [1], [98], [11, 13], set100)
    w[99], w[98] = 0, 1
    assert not residue_convolution_identity_ok(WeightedSet(w), [1], [98], [11, 13], set100)


def test_residue_identity_rejects_bound_mismatch(set100, set10k):
    ws = sumset_weights([1, 2], [3], 100)
    with pytest.raises(ValueError, match="weight bound 100 != set bound 10000"):
        residue_convolution_identity_ok(ws, [1, 2], [3], [set10k.members[0]], set10k)
    assert residue_convolution_identity_ok(ws, [1, 2], [3], [11], set100)


def test_residue_identity_rejects_a_set_that_is_not_lg():
    s = LGSet(LGParams(100, 0.2), [11, 55])
    ws = sumset_weights([1, 2], [3], 100)
    with pytest.raises(ValueError, match="not LG"):
        residue_convolution_identity_ok(ws, [1, 2], [3], [11], s)


def sumset_oracle(A, B, x):
    """Blocked enumeration of all |A||B| sums."""
    Aa = np.asarray(sorted(set(A)), dtype=np.int64)
    Bb = np.asarray(sorted(set(B)), dtype=np.int64)
    w = np.zeros(x + 1, dtype=np.int64)
    if Aa.size and Bb.size:
        block = max(1, (1 << 22) // Bb.size)
        for i in range(0, Aa.size, block):
            s = (Aa[i : i + block, None] + Bb[None, :]).ravel()
            w += np.bincount(s, minlength=x + 1)
    return w


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=2 * 10**4),
    seed=st.integers(min_value=0, max_value=2**32),
    na=st.integers(min_value=0, max_value=300),
    nb=st.integers(min_value=0, max_value=300),
    top=st.booleans(),
)
def test_exact_sum_counts_match_enumeration_property(x, seed, na, nb, top):
    # shrinks to empty sets and singletons; with top the sums reach 2x
    rng = random.Random(seed)
    A = rng.sample(range(1, x + 1), min(na, x))
    B = rng.sample(range(1, x + 1), min(nb, x))
    if top:
        A, B = A + [x], B + [x]
    got = smoothcount._exact_sum_counts(distinct_ints(A, x), distinct_ints(B, x))
    want = sumset_oracle(A, B, 2 * x)
    assert got.dtype == np.int64
    if A and B:
        assert got.size == max(A) + max(B) + 1
    size = max(got.size, want.size)
    assert np.array_equal(np.pad(got, (0, size - got.size)), np.pad(want, (0, size - want.size)))


@pytest.mark.parametrize("top", [9, 10])
def test_exact_sum_counts_slot_width_edges(top):
    # c[top + 1] = top needs k = 1 digit for 9 and k = 2 for 10: a carry
    # out of a one-digit slot would corrupt both neighbours
    S = np.arange(1, top + 1)
    got = smoothcount._exact_sum_counts(S, S)
    indicator = np.r_[0, np.ones(top, dtype=np.int64)]
    assert got[top + 1] == top
    assert np.array_equal(got, np.convolve(indicator, indicator))


def test_exact_sum_counts_raise_rather_than_round(monkeypatch):
    # ten digits cannot hold the product: the trapped context must raise,
    # not hand back rounded counts
    monkeypatch.setattr(smoothcount._EXACT, "prec", 10)
    got = None
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        got = smoothcount._exact_sum_counts(np.arange(1, 50), np.arange(1, 50))
    assert got is None


def test_exact_sum_counts_leave_the_callers_decimal_context_alone():
    S = np.arange(1, 200)
    want = smoothcount._exact_sum_counts(S, S)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact], ctx.traps[decimal.Rounded] = 3, True, True
        ctx.clear_flags()
        assert np.array_equal(smoothcount._exact_sum_counts(S, S), want)
        assert not any(ctx.flags.values())


def test_exact_sum_counts_over_byte_limit_raise_before_allocating():
    # sums reach 2^28: 2^28 + 1 int64 counts are 2 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="the exact pair-sum count array needs"):
            smoothcount._exact_sum_counts(np.array([2**27]), np.array([2**27]))
        with pytest.raises(ResourceLimitError):
            smoothcount._exact_sum_counts(np.array([2**26]), np.array([2**26]))  # sum 2^27
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_exact_sum_counts_byte_limit_edge(monkeypatch):
    # sums up to 200 take 201 counts of 8 bytes; k = 1 digit per slot is less
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 8 * 201)
    S = np.array([1, 100])
    assert smoothcount._exact_sum_counts(S, S)[[2, 101, 200]].tolist() == [1, 2, 1]
    with pytest.raises(ResourceLimitError):
        smoothcount._exact_sum_counts(S, np.array([1, 101]))


def difference_oracle(A, x):
    """Blocked enumeration of all |A|^2 differences, the positive ones kept."""
    Aa = np.asarray(sorted(set(A)), dtype=np.int64)
    w = np.zeros(x + 1, dtype=np.int64)
    if Aa.size:
        block = max(1, (1 << 22) // Aa.size)
        for i in range(0, Aa.size, block):
            d = (Aa[i : i + block, None] - Aa[None, :]).ravel()
            w += np.bincount(d[d > 0], minlength=x + 1)
    return w


def assert_weights_match(A, B, x):
    ws = sumset_weights(A, B, x)
    assert ws.array.dtype == np.int64
    assert np.array_equal(ws.array, sumset_oracle(A, B, x))
    assert ws.sigma == len(set(A)) * len(set(B))
    for C in (A, B):
        wd = difference_weights(C, x)
        assert wd.array.dtype == np.int64
        assert np.array_equal(wd.array, difference_oracle(C, x))
        assert wd.sigma == math.comb(len(set(C)), 2)


@pytest.mark.parametrize("x", [1, 2, 3, 4, 1000, 2003, 2999, 3000])
def test_weights_match_enumeration_oracle(x):
    # 2003 is prime, so neither x + 1 nor 2x is 5-smooth
    half = x // 2
    rng = random.Random(x)
    sets = [[], [half], [1], list(range(1, half + 1))]
    sets += [rng.sample(range(1, half + 1), k) for k in (half // 7, half // 2)]
    for A in sets:
        for B in sets:
            if all(1 <= v <= half for v in A + B):
                assert_weights_match(A, B, x)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=2 * 10**4),
    seed=st.integers(min_value=0, max_value=2**32),
    da=st.floats(min_value=0.0, max_value=1.0),
    db=st.floats(min_value=0.0, max_value=1.0),
)
def test_weights_match_enumeration_oracle_property(x, seed, da, db):
    rng = random.Random(seed)
    half = x // 2
    cap = min(half, 2000)  # keeps the oracle's enumeration small
    A = rng.sample(range(1, half + 1), int(da * cap))
    B = rng.sample(range(1, half + 1), int(db * cap))
    assert_weights_match(A, B, x)


def test_difference_hand_example():
    ws = difference_weights([1, 2, 3], 100)
    assert {n: int(ws.array[n]) for n in np.flatnonzero(ws.array)} == {1: 2, 2: 1}
    assert ws.sigma == 3.0


def test_difference_divisor_sum_identity():
    # pairs in the same residue class mod q, counted two ways
    rng = random.Random(5)
    A = rng.sample(range(1, 101), 40)
    ws = difference_weights(A, 100)
    for q in (2, 3, 5, 7, 35):
        lhs = sum(int(ws.array[n]) for n in range(q, 101, q))
        rhs = sum(
            math.comb(sum(1 for v in A if v % q == a), 2) for a in range(q)
        )
        assert lhs == rhs


def test_difference_equidistributed_x100():
    ws = difference_weights(range(1, 101), 100)
    assert ws.sigma == 100 * 99 / 2
    total = sum(int(ws.array[n]) for n in range(5, 101, 5))
    assert total == 5 * math.comb(20, 2) == 950


def test_sieve_report_uniform_10k(set10k, table10k):
    part = partition(set10k, 0.5, table10k)
    w = np.ones(10**4 + 1)
    w[0] = 0
    ws = WeightedSet(w)
    rep = sieve_report(ws, part, 0.2)
    assert rep.sigma == 10**4
    assert rep.hyp1_holds and rep.hyp2_holds
    assert rep.conclusion_holds
    # the conclusion bounds |Psi(x, x^theta) - x * sum1|
    assert abs(rep.smooth_total - rep.center) < rep.bound
    assert rep.lhs1 <= rep.smooth_total <= rep.sigma - rep.tau


def test_sieve_report_smooth_total_at_integer_bound(table10k):
    # y = x^(1/2) = 97 is the largest prime factor of 97 multiples of 97,
    # which count as smooth; table10k is larger than x
    x = 97**2
    s = construct(LGParams(x, 0.1), table10k)
    part = partition(s, 0.5, table10k)
    assert part.y == 97.0
    w = np.ones(x + 1, dtype=np.int64)
    w[0] = 0
    rep = sieve_report(WeightedSet(w), part, 0.2)
    assert rep.smooth_total == sum(is_smooth(m, 97.0, table10k) for m in range(1, x + 1))


def test_sieve_report_degenerate_support(set100, table1k):
    part = partition(set100, 0.6, table1k)
    ws = WeightedSet(indicator(100, [97]))  # a non-smooth member, so no n1 divisor
    rep = sieve_report(ws, part, 0.2)
    assert rep.lhs1 == 0.0
    assert not rep.hyp1_holds
    assert rep.smooth_total == 0.0


def test_sieve_report_gamma_range(set100, table1k):
    part = partition(set100, 0.6, table1k)
    ws = WeightedSet(indicator(100, [2]))
    with pytest.raises(ValueError):
        sieve_report(ws, part, 0.0)


def test_sandwich_random_trials(set10k, table10k):
    part = partition(set10k, 0.5, table10k)
    rng = random.Random(11)
    for _ in range(10):
        support = rng.sample(range(1, 10**4 + 1), 500)
        w = np.zeros(10**4 + 1)
        w[support] = [rng.random() for _ in support]
        ws = WeightedSet(w)
        rep = sieve_report(ws, part, 0.2)  # asserts sandwich
        assert rep.smooth_total <= rep.sigma - rep.tau + 1e-9


def test_theorem3_theta_one(table10k):
    x = 10**4
    s = with_cutoff(construct(LGParams(x, 0.1), table10k), 0.9)
    rng = random.Random(2)
    A = rng.sample(range(1, x // 2 + 1), 300)
    B = rng.sample(range(1, x // 2 + 1), 300)
    doc = theorem3_experiment(A, B, s, 1.0, 0.2, table10k)
    assert doc["direct"]["smooth_count"] == 300 * 300
    assert doc["residue_identity_ok"]


@pytest.mark.parametrize("theta", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_theorem3_smooth_count_brute_force(set10k, table10k, seed, theta):
    """The smooth-sum count sieve_report owns, checked pair by pair."""
    x = 10**4
    s = with_cutoff(set10k, 0.9)
    rng = random.Random(seed)
    A = rng.sample(range(1, x // 2 + 1), 60)
    B = rng.sample(range(1, x // 2 + 1), 70)
    doc = theorem3_experiment(A, B, s, theta, 0.2, table10k)
    y = real_pow(x, theta)
    brute = sum(1 for a in A for b in B if is_smooth(a + b, y, table10k))
    assert doc["direct"]["smooth_count"] == brute
    assert doc["residue_identity_ok"]


def test_theorem3_normalizes_through_its_callees(set10k, table10k):
    # repeats count once in |A|, |B| and every sum; values above x/2 fail in sumset_weights
    x = 10**4
    s = with_cutoff(set10k, 0.9)
    rng = random.Random(4)
    A = rng.sample(range(1, x // 2 + 1), 80)
    B = rng.sample(range(1, x // 2 + 1), 90)
    doc = theorem3_experiment(A, B, s, 0.5, 0.2, table10k)
    assert (doc["params"]["size_a"], doc["params"]["size_b"]) == (80, 90)
    assert theorem3_experiment(A + A[:7], B[::-1] + B[:3], s, 0.5, 0.2, table10k) == doc
    with pytest.raises(ValueError, match=r"A must lie in \[1, 5000\]"):
        theorem3_experiment(A + [x // 2 + 1], B, s, 0.5, 0.2, table10k)


def test_theorem3_bad_theta_fails_before_weights(set10k, table10k, monkeypatch):
    def no_weights(*args):
        raise AssertionError("sumset_weights ran before the theta check")

    monkeypatch.setattr(smoothcount, "sumset_weights", no_weights)
    for theta in (0.1, 1.5):  # set10k has delta = 0.1
        with pytest.raises(ValueError, match="theta"):
            theorem3_experiment([1, 2], [3], set10k, theta, 0.2, table10k)
