import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import (
    LGParams,
    LGSet,
    WeightedSet,
    choose_cutoff,
    construct,
    coverage,
    factorize,
    find_divisor,
    load_json,
    partition,
    save_json,
    sieve_report,
    variance_report,
    verify_pairwise_lcm,
    with_cutoff,
)
from lgsieve.powers import floor_pow, largest_int_below_pow

EXPECTED_100 = sorted(
    [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 35]
)


def brute_force_members(x, delta, table):
    """Oracle: test the chain conditions directly on every n <= x."""
    pmin = floor_pow(x, delta)
    out = []
    for n in range(2, x + 1):
        f = factorize(n, table)
        if any(e > 1 for _, e in f.factors):
            continue
        ps = sorted((p for p, _ in f.factors), reverse=True)
        if ps[-1] <= pmin:
            continue
        prod = 1
        ok = True
        for i, p in enumerate(ps):
            prod *= p
            last = i == len(ps) - 1
            if last:
                ok = prod <= x and x < p * prod
            else:
                ok = x >= p * prod
            if not ok:
                break
        if ok:
            out.append(n)
    return out


def walk_divisor(m, x, pmin, spf):
    """Oracle: prefix walk over m's distinct primes > pmin in decreasing
    order.  Any member dividing m must consist of m's consecutive
    largest primes, so walking prefixes until the terminal condition
    fires finds the unique candidate."""
    pr = []
    n = m
    while n > 1:
        p = int(spf[n])
        if p > pmin:
            pr.append(p)
        while n % p == 0:
            n //= p
    prod = 1
    for q in reversed(pr):  # descending
        prod *= q
        if prod > x:
            return None
        if q * prod > x:
            return prod
    return None


def test_params_validation():
    with pytest.raises(ValueError):
        LGParams(3, 0.1)
    with pytest.raises(ValueError):
        LGParams(100, 0.5, c=0.4)
    with pytest.raises(ValueError):
        LGParams(100, 0.0)


def test_construct_x100(set100, table1k):
    assert set100.members == EXPECTED_100
    assert len(set100) == 22
    assert set100.members == brute_force_members(100, 0.2, table1k)


def test_construct_table_too_small(table1k):
    with pytest.raises(ValueError):
        construct(LGParams(2000, 0.1), table1k)


def test_single_prime_membership(set100, table1k):
    # p is a member iff sqrt(x) < p <= x
    for p in table1k.primes:
        p = int(p)
        if p > 100:
            break
        assert (p in set100) == (10 < p <= 100)


def test_15_not_member(set100):
    assert 15 not in set100


def test_membership_oracle_10k(set10k, table10k):
    assert set10k.members == brute_force_members(10**4, 0.1, table10k)


@pytest.mark.parametrize("m,expected", [(70, 35), (6, None), (1, None), (97, 97)])
def test_find_divisor_examples(set100, table1k, m, expected):
    assert find_divisor(m, set100, table1k) == expected


def test_find_divisor_out_of_range(set100, table1k):
    with pytest.raises(ValueError):
        find_divisor(0, set100, table1k)
    with pytest.raises(ValueError):
        find_divisor(101, set100, table1k)


def test_find_divisor_against_full_scan(set100, table1k):
    x = 100
    divisors_of = {m: [] for m in range(1, x + 1)}
    for q in set100.members:
        for m in range(q, x + 1, q):
            divisors_of[m].append(q)
    for m in range(1, x + 1):
        assert len(divisors_of[m]) <= 1  # unique-divisor property
        expected = divisors_of[m][0] if divisors_of[m] else None
        assert find_divisor(m, set100, table1k) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=3000),
    st.floats(min_value=0.05, max_value=0.5, exclude_min=True, exclude_max=True),
)
def test_divisor_map_matches_walk_and_scan(table10k, x, delta):
    s = construct(LGParams(x, delta), table10k)
    divisors_of = [[] for _ in range(x + 1)]
    for q in s.members:
        for m in range(q, x + 1, q):
            divisors_of[m].append(q)
    div = s.divisor_map()
    pmin = floor_pow(x, delta)
    for m in range(1, x + 1):
        assert len(divisors_of[m]) <= 1
        expected = divisors_of[m][0] if divisors_of[m] else None
        assert walk_divisor(m, x, pmin, table10k.smallest_factor) == expected
        assert (int(div[m]) or None) == expected


def test_pairwise_lcm_clean(set100):
    rep = verify_pairwise_lcm(set100)
    assert rep.ok
    assert rep.pair_count == 22 * 21 // 2
    assert math.lcm(35, 97) == 3395 > 100


def test_pairwise_lcm_singleton():
    s = LGSet(LGParams(100, 0.2), [97])
    rep = verify_pairwise_lcm(s)
    assert rep.ok and rep.pair_count == 0


def test_pairwise_lcm_adversarial():
    s = LGSet(LGParams(100, 0.2), [11, 55])
    rep = verify_pairwise_lcm(s)
    assert not rep.ok
    assert rep.violations == [(11, 55, 55)]


def test_pairwise_lcm_three_way_overlap():
    # 15 has three member divisors; the listing order is part of the output
    s = LGSet(LGParams(100, 0.2), [3, 5, 15])
    rep = verify_pairwise_lcm(s)
    assert rep.pair_count == 3
    assert rep.violations == [(3, 5, 15), (3, 15, 15), (5, 15, 15)]


def test_overlapping_set_has_no_divisor_map(table1k):
    s = with_cutoff(LGSet(LGParams(100, 0.2), [11, 55]), 1.0)
    assert not s.multiples_disjoint()
    with pytest.raises(ValueError, match="lgsieve verify"):
        coverage(s, 1.0, table1k)
    with pytest.raises(ValueError, match="not LG"):
        find_divisor(55, s, table1k)
    part = partition(s, 0.5, 1.0, table1k)
    with pytest.raises(ValueError, match="not LG"):
        sieve_report(WeightedSet(100, {55: 1.0}), part, s, 0.2, table1k)


@pytest.mark.parametrize("members", [[1, 97], [11, 101], [11, 11]])
def test_lgset_rejects_bad_members(members):
    with pytest.raises(ValueError):
        LGSet(LGParams(100, 0.2), members)


def test_coverage_full_cutoff(set100, table1k):
    rep = coverage(set100, 1.0, table1k)
    assert rep.covered_count + rep.exceptional_count == 100
    assert rep.members_below_cutoff == 22
    # m = 1 and m = 6 are exceptional
    assert find_divisor(1, set100, table1k) is None
    assert find_divisor(6, set100, table1k) is None
    direct = sum(
        1
        for m in range(1, 101)
        if any(m % q == 0 for q in set100.members)
    )
    assert rep.covered_count == direct
    assert abs(rep.harmonic_sum - rep.covered_count / 100) <= 22 / 100 + 1 / 100


def test_coverage_empty_cutoff(table1k):
    s = construct(LGParams(100, 0.05), table1k)
    rep = coverage(s, 0.1, table1k)  # 100^0.1 < 2: nothing below the cutoff
    assert rep.covered_count == 0
    assert rep.harmonic_sum == 0.0
    assert rep.epsilon_prime == 1.0


def test_coverage_cutoff_out_of_range(set100, table1k):
    with pytest.raises(ValueError):
        coverage(set100, 0.2, table1k)
    with pytest.raises(ValueError):
        coverage(set100, 1.1, table1k)


def _count_below_oracle(s, k):
    """#{q in N : q < x^(k/100)}, decided as q^100 < x^k in integers."""
    xk = s.params.x**k
    return sum(1 for q in s.members if q**100 < xk)


@pytest.mark.parametrize(
    "x, delta, members",
    [
        (9973, 0.1, None),  # x is prime, hence a member
        (10**4, 0.05, None),
        (3000, 0.2, None),
        # x^c is an integer at c = 0.25, 0.5, 0.75 and 1.0
        (10**4, 0.1, [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10**4]),
    ],
)
def test_count_below_matches_exact_oracle(table10k, x, delta, members):
    params = LGParams(x, delta)
    s = construct(params, table10k) if members is None else LGSet(params, members)
    for k in range(1, 101):
        if k / 100 > delta:
            assert s.count_below(k / 100) == _count_below_oracle(s, k), k
    if members is None:
        assert (x in s) == (x == 9973)  # c = 1.0 must exclude a member x
    else:
        assert [s.count_below(c) for c in (0.25, 0.5, 0.75, 1.0)] == [1, 4, 7, 10]


@pytest.mark.parametrize("cutoff", [0.2, 1.5])  # set100 has delta = 0.2
def test_cutoff_range_checked_by_every_reader(set100, table1k, cutoff):
    calls = [
        lambda: set100.count_below(cutoff),
        lambda: coverage(set100, cutoff, table1k),
        lambda: partition(set100, 0.6, cutoff, table1k),
        lambda: variance_report(range(1, 51), set100, cutoff, 0.2, table1k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="outside"):
            call()


def test_choose_cutoff_monotone(set10k):
    c1 = choose_cutoff(set10k, 0.1)
    c2 = choose_cutoff(set10k, 0.3)
    assert c1 >= c2
    assert 0.1 < c1 <= 1.0


def test_choose_cutoff_regression_100k(table100k):
    # frozen after a one-off tail-sum sweep over the constructed set
    s = construct(LGParams(10**5, 0.05), table100k)
    assert choose_cutoff(s, 0.2) == 0.93


def test_coverage_improves_as_delta_shrinks(table100k):
    eps = {}
    for delta in (0.02, 0.1):
        s = construct(LGParams(10**5, delta), table100k)
        eps[delta] = coverage(s, 1.0, table100k).epsilon_prime
    assert eps[0.02] <= eps[0.1] + 0.01


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=100), min_size=2, max_size=40))
def test_pair_counting_bound(set100, C):
    # each pair difference has at most one member divisor
    bound = largest_int_below_pow(100, set100.params.c)
    total = 0
    for q in set100.members:
        if q > bound:
            continue
        total += sum(
            1 for b in C for c in C if b != c and (b - c) % q == 0
        )
    assert total <= len(C) ** 2 - len(C)


def test_json_roundtrip(tmp_path, set100):
    s = with_cutoff(set100, 0.9)
    path = tmp_path / "set.json"
    save_json(s, path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["c", "delta", "members", "x"]
    assert doc["members"] == s.members
    loaded = load_json(path)
    assert loaded == s
