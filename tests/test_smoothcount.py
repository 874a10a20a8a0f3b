import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import (
    LGParams,
    WeightedSet,
    construct,
    coverage,
    difference_weights,
    divisor_weighted_sums,
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
from lgsieve import smoothcount
from lgsieve.smoothcount import residue_convolution_identity_ok


def test_partition_x100(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    assert part.n1 == [11, 13, 35]
    assert part.n2 == [q for q in set100.members if q not in (11, 13, 35)]
    assert part.sum1 == math.fsum(1 / q for q in (11, 13, 35))


def test_partition_theta_one(set100, table1k):
    part = partition(set100, 1.0, 1.0, table1k)
    assert part.n2 == []
    assert part.sum2 == 0.0


def test_partition_theta_too_small(set100, table1k):
    with pytest.raises(ValueError):
        partition(set100, 0.2, 1.0, table1k)


def test_partition_completeness(set10k, table10k):
    for cutoff in (1.0, 0.8):
        part = partition(set10k, 0.5, cutoff, table10k)
        cov = coverage(set10k, cutoff, table10k)
        bound = largest_int_below_pow(10**4, cutoff)
        below = [q for q in set10k.members if q <= bound]
        assert sorted(part.n1 + part.n2) == below
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
    part = partition(s, theta, cutoff, table10k)
    assert (part.n1, part.n2) == _split_by_factorizing(s, theta, cutoff, table10k)
    assert part.sum1 == math.fsum(1.0 / q for q in part.n1)
    assert part.sum2 == math.fsum(1.0 / q for q in part.n2)


def test_partition_table_too_small(set10k):
    with pytest.raises(ValueError):
        partition(set10k, 0.5, 1.0, build_prime_table(5000))


@pytest.mark.parametrize("theta", [0.4, 0.6])
def test_smoothness_crux_exhaustive_1k(table1k, theta):
    # the structural fact the sieve rests on: for m with member divisor
    # q, m is x^theta-smooth exactly when q lands in the smooth class
    x = 1000
    s = construct(LGParams(x, 0.1), table1k)
    part = partition(s, theta, 1.0, table1k)
    n1 = set(part.n1)
    y = real_pow(x, theta)
    for m in range(1, x + 1):
        q = find_divisor(m, s, table1k)
        if q is None:
            continue
        assert is_smooth(m, y, table1k) == (q in n1)


def test_weighted_set_validation():
    with pytest.raises(ValueError):
        WeightedSet(10, {0: 1.0})
    with pytest.raises(ValueError):
        WeightedSet(10, {11: 1.0})
    with pytest.raises(ValueError):
        WeightedSet(10, {3: -1.0})
    bad = np.zeros(11)
    bad[0] = 2.0
    with pytest.raises(ValueError):
        WeightedSet(10, bad)
    ws = WeightedSet(10, {3: 1.5, 7: 2.5})
    assert ws.sigma == 4.0
    assert list(ws.support) == [3, 7]


def test_divisor_weighted_sums_unit_weights(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    w = np.ones(101)
    w[0] = 0
    ws = WeightedSet(100, w)
    lhs1, lhs2 = divisor_weighted_sums(ws, part, set100)
    assert lhs1 == sum(100 // q for q in part.n1)
    assert lhs2 == sum(100 // q for q in part.n2)


def test_divisor_weighted_sums_indicator(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    ws = WeightedSet(100, {35: 1.0, 70: 1.0})
    lhs1, lhs2 = divisor_weighted_sums(ws, part, set100)
    assert (lhs1, lhs2) == (2.0, 0.0)


def test_divisor_weighted_sums_zero(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    ws = WeightedSet(100, np.zeros(101))
    assert divisor_weighted_sums(ws, part, set100) == (0.0, 0.0)


def test_divisor_weighted_sums_bound_mismatch(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    ws = WeightedSet(50, {35: 1.0})
    with pytest.raises(ValueError):
        divisor_weighted_sums(ws, part, set100)


def test_sumset_trivial():
    ws = sumset_weights([1], [1], 100)
    assert ws.sigma == 1.0
    assert int(ws.array[2]) == 1
    assert int(ws.array.sum()) == 1


def test_sumset_hand_convolution():
    ws = sumset_weights([1, 2], [1, 2], 100)
    assert {n: int(ws.array[n]) for n in ws.support} == {2: 1, 3: 2, 4: 1}
    assert ws.sigma == 4.0


def test_sumset_domain_restriction():
    with pytest.raises(ValueError):
        sumset_weights([51], [1], 100)


@settings(max_examples=25, deadline=None)
@given(
    A=st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=25),
    B=st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=25),
)
def test_residue_convolution_identity(A, B):
    x = 100
    ws = sumset_weights(A, B, x)
    Aa, Bb = sorted(A), sorted(B)
    for q in range(1, 51):
        lhs = sum(int(ws.array[n]) for n in range(q, x + 1, q))
        rhs = 0
        for a in range(q):
            ca = sum(1 for v in Aa if v % q == a)
            cb = sum(1 for v in Bb if v % q == (q - a) % q)
            rhs += ca * cb
        assert lhs == rhs
    assert residue_convolution_identity_ok(ws, Aa, Bb, range(1, 51))


@pytest.mark.parametrize("seed", range(3))
def test_residue_convolution_identity_detects_moved_weight(seed):
    """The check is not vacuous: moving one unit of weight off a
    multiple n of a modulus q to n + 1 makes it fail."""
    rng = random.Random(seed)
    x = 1000
    A, B = rng.sample(range(1, 501), 40), rng.sample(range(1, 501), 40)
    ws = sumset_weights(A, B, x)
    moduli = range(1, 101)
    assert residue_convolution_identity_ok(ws, A, B, moduli)
    q = rng.randrange(2, 101)
    n = next(int(m) for m in ws.support if m % q == 0 and m < x)
    arr = ws.array.copy()
    arr[n] -= 1
    arr[n + 1] += 1
    moved = WeightedSet(x, arr)
    assert moved.sigma == ws.sigma
    assert not residue_convolution_identity_ok(moved, A, B, moduli)


def test_difference_hand_example():
    ws = difference_weights([1, 2, 3], 100)
    assert {n: int(ws.array[n]) for n in ws.support} == {1: 2, 2: 1}
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
    part = partition(set10k, 0.5, 1.0, table10k)
    w = np.ones(10**4 + 1)
    w[0] = 0
    ws = WeightedSet(10**4, w)
    rep = sieve_report(ws, part, set10k, 0.2, table10k)
    assert rep.sigma == 10**4
    assert rep.hyp1_holds and rep.hyp2_holds
    assert rep.conclusion_holds
    # the conclusion bounds |Psi(x, x^theta) - x * sum1|
    assert abs(rep.smooth_total - rep.center) < rep.bound
    assert rep.lhs1 <= rep.smooth_total <= rep.sigma - rep.tau


def test_sieve_report_degenerate_support(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    ws = WeightedSet(100, {97: 1.0})  # a non-smooth member, so no n1 divisor
    rep = sieve_report(ws, part, set100, 0.2, table1k)
    assert rep.lhs1 == 0.0
    assert not rep.hyp1_holds
    assert rep.smooth_total == 0.0


def test_sieve_report_gamma_range(set100, table1k):
    part = partition(set100, 0.6, 1.0, table1k)
    ws = WeightedSet(100, {2: 1.0})
    with pytest.raises(ValueError):
        sieve_report(ws, part, set100, 0.0, table1k)


def test_sandwich_random_trials(set10k, table10k):
    part = partition(set10k, 0.5, 1.0, table10k)
    rng = random.Random(11)
    for _ in range(10):
        support = rng.sample(range(1, 10**4 + 1), 500)
        ws = WeightedSet(10**4, {n: rng.random() for n in support})
        rep = sieve_report(ws, part, set10k, 0.2, table10k)  # asserts sandwich
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


def test_theorem3_bad_theta_fails_before_weights(set10k, table10k, monkeypatch):
    def no_weights(*args):
        raise AssertionError("sumset_weights ran before the theta check")

    monkeypatch.setattr(smoothcount, "sumset_weights", no_weights)
    for theta in (0.1, 1.5):  # set10k has delta = 0.1
        with pytest.raises(ValueError, match="theta"):
            theorem3_experiment([1, 2], [3], set10k, theta, 0.2, table10k)
