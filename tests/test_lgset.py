import hashlib
import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lgsieve.lgset as lgset_module
from lgsieve import (
    LGParams,
    LGSet,
    WeightedSet,
    build_prime_table,
    choose_cutoff,
    construct,
    coverage,
    empirical_rho,
    factorize,
    find_divisor,
    is_smooth,
    largest_prime_factor,
    load_json,
    partition,
    psi_count,
    save_json,
    sieve_report,
    variance_report,
    verify_pairwise_lcm,
    with_cutoff,
)
from lgsieve.lgset import JSON_BLOCK, _multiple_blocks
from lgsieve.powers import floor_pow, largest_int_below_pow
from lgsieve.primes import INT32_MAX, _exact_sum
from lg_samples import random_lg_set
from test_primes import masked_ascending_spf

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


def dfs_members(x, delta, table):
    """Oracle: depth-first search over strictly decreasing prime chains,
    a node (product P ending in prime p) emitted when x < p * P."""
    pmin = floor_pow(x, delta)
    ps = [int(p) for p in table.primes if pmin < p <= x]
    members = []

    def extend(prod, idx):
        if prod * ps[idx] > x:
            members.append(prod)
            return
        for j in range(idx - 1, -1, -1):
            extend(prod * ps[j], j)

    for i in range(len(ps) - 1, -1, -1):
        extend(ps[i], i)
    return sorted(members)


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
    # members and the divisor map are int32
    with pytest.raises(ValueError, match="2147483647"):
        LGParams(2**31, 0.1)
    assert LGParams(2**31 - 1, 0.1).x == 2**31 - 1


@pytest.mark.parametrize("x", [np.int64(100), 10000.0, 100.5, np.float64(100), Fraction(100), "100"])
def test_bounds_take_integers_only(x):
    # a float bound used to pass the range check and fail later in numpy
    if isinstance(x, np.integer):
        assert type(LGParams(x, 0.1).x) is int  # json.dumps in save_json takes no numpy int
        assert LGParams(x, 0.1) == LGParams(100, 0.1)
        assert build_prime_table(x).primes.tolist() == build_prime_table(100).primes.tolist()
    else:
        shown = repr(x) if isinstance(x, str) else x  # quoted, so "100" is no integer
        with pytest.raises(ValueError, match=rf"x must be in \[4, 2147483647\], got {shown}$"):
            LGParams(x, 0.1)
        with pytest.raises(ValueError, match=rf"sieve limit must be in \[2, 2147483647\], got {shown}$"):
            build_prime_table(x)


def test_construct_x100(set100, table1k):
    assert set100.members == EXPECTED_100
    assert len(set100) == 22
    assert set100.members == brute_force_members(100, 0.2, table1k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=3000),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(4, 0.99)  # no prime in (x^delta, x]
def test_construct_matches_brute_force(table10k, x, delta):
    members = construct(LGParams(x, delta), table10k).members
    assert members == brute_force_members(x, delta, table10k)
    assert all(type(q) is int for q in members)


@pytest.mark.parametrize("x, delta", [(4, 0.99), (10, 0.99), (1000, 0.9999)])
def test_construct_with_no_prime_above_the_floor(table10k, x, delta):
    # no prime in (x^delta, x], so the level-wise walk starts with no chain
    assert not any(floor_pow(x, delta) < p <= x for p in table10k.primes.tolist())
    assert construct(LGParams(x, delta), table10k).members == []


@pytest.mark.parametrize("x", [10**4, 10**5])
@pytest.mark.parametrize("delta", [0.01, 0.05, 0.3, 0.6])
def test_construct_matches_dfs(table100k, x, delta):
    assert construct(LGParams(x, delta), table100k).members == dfs_members(x, delta, table100k)


# SHA-256 of ",".join(map(str, members)) at x = 10**6, delta = 0.05,
# recorded from the depth-first construction
MEMBERS_1E6_SHA256 = "676c6758fcac76798f06c6b239381ef06263633d949a031f975a282f4e964dde"


def test_construct_members_pinned_at_1e6():
    s = construct(LGParams(10**6, 0.05), build_prime_table(10**6))
    assert len(s) == 104_184
    digest = hashlib.sha256(",".join(map(str, s.members)).encode()).hexdigest()
    assert digest == MEMBERS_1E6_SHA256


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


@pytest.mark.parametrize("name", ["set100", "set10k"])
def test_membership_matches_set_oracle(request, name):
    s = request.getfixturevalue(name)
    oracle = set(s.members)
    for n in range(s.params.x + 2):
        assert (n in s) == (n in oracle), n


def test_membership_oracle_10k(set10k, table10k):
    assert set10k.members == brute_force_members(10**4, 0.1, table10k)


@pytest.mark.parametrize("m,expected", [(70, 35), (6, None), (1, None), (97, 97)])
def test_find_divisor_examples(set100, m, expected):
    assert find_divisor(m, set100) == expected


def test_find_divisor_out_of_range(set100):
    with pytest.raises(ValueError):
        find_divisor(0, set100)
    with pytest.raises(ValueError):
        find_divisor(101, set100)


@pytest.mark.parametrize(
    "m", [np.int32(70), np.uint8(70), np.int64(70), 70.0, 5.5, np.float64(70), Fraction(70), "70"]
)
def test_per_integer_lookups_take_integers_only(set100, table1k, m):
    # the rule LGSet applies to members: numpy integers pass, floats never
    lookups = [
        lambda n: find_divisor(n, set100),
        lambda n: factorize(n, table1k),
        lambda n: is_smooth(n, 5, table1k),
        lambda n: largest_prime_factor(n, table1k),
        lambda n: psi_count(n, 10, table1k),
        lambda n: empirical_rho(n, 2.0, table1k),  # through psi_count
    ]
    for lookup in lookups:
        if isinstance(m, np.integer):
            assert lookup(m) == lookup(70)
        else:
            with pytest.raises(ValueError, match=r"must be in \[\d+, \d+\], got "):
                lookup(m)


def test_find_divisor_against_full_scan(set100):
    x = 100
    divisors_of = {m: [] for m in range(1, x + 1)}
    for q in set100.members:
        for m in range(q, x + 1, q):
            divisors_of[m].append(q)
    for m in range(1, x + 1):
        assert len(divisors_of[m]) <= 1  # unique-divisor property
        expected = divisors_of[m][0] if divisors_of[m] else None
        assert find_divisor(m, set100) == expected


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
    spf, _ = masked_ascending_spf(x)  # the test's own, not the table's
    for m in range(1, x + 1):
        assert len(divisors_of[m]) <= 1
        expected = divisors_of[m][0] if divisors_of[m] else None
        assert walk_divisor(m, x, pmin, spf) == expected
        assert (int(div[m]) or None) == expected


def slice_loop_map(members, x):
    """Oracle: the divisor map marked one slice per member, with its
    verdict sum floor(x/q) == #marked."""
    div = np.zeros(x + 1, dtype=np.int32)
    for q in members:
        div[q::q] = q
    return div, sum(x // q for q in members) == int(np.count_nonzero(div))


def assert_map_matches_slice_loop(s):
    div, disjoint = slice_loop_map(s.members, s.params.x)
    assert s.multiples_disjoint() == disjoint
    if disjoint:
        assert np.array_equal(s.divisor_map(), div)
        assert s.divisor_map().dtype == np.int32
        assert not s.divisor_map().flags.writeable
    else:
        with pytest.raises(ValueError, match="not LG"):
            s.divisor_map()
    return disjoint


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=5000),
    st.floats(min_value=0.05, max_value=0.5, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.randoms(use_true_random=False),
)
def test_divisor_map_matches_slice_loop_on_lg_subsets(table10k, x, delta, keep, rnd):
    s = construct(LGParams(x, delta), table10k)
    members = rnd.sample(s.members, int(keep * len(s)))
    assert assert_map_matches_slice_loop(LGSet(s.params, members))  # subsets stay LG


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_divisor_map_verdict_matches_slice_loop_on_random_sets(data):
    x = data.draw(st.integers(min_value=4, max_value=5000))
    members = data.draw(st.lists(st.integers(min_value=2, max_value=x), unique=True, max_size=40))
    assert_map_matches_slice_loop(LGSet(LGParams(x, 0.2), members))


# at x = 1000, a run is the members sharing k = 1000 // q
@pytest.mark.parametrize(
    "members, lg",
    [
        ([], True),
        ([37, 41, 43, 97, 101, 241], True),  # runs of one member each
        ([252, 263, 509, 997, 1000], True),  # runs k = 3 and k = 1
        ([37, 251, 252, 1000], True),  # one run of two, one member equal to x
        ([300, 600, 997], False),  # 300 | 600, across runs k = 3 and k = 1
        ([37, 74, 500], False),  # 37 | 74
        ([37, 999], False),  # 37 | 999
        ([333, 334], True),  # k = 3 and k = 2 on either side of 1000/3
        ([333, 666], False),  # 333 | 666 across that change
        ([499, 500, 501], True),  # a run of two, then a run of one
        ([2], True),  # one block of x/2 entries
        ([2, 999], True),
        ([2, 3], False),
        ([1000], True),  # a member equal to x
        ([500, 1000], False),
        ([501, 600, 777, 1000], True),  # all above x/2: one run with k = 1
    ],
)
def test_divisor_map_split_edges(members, lg):
    assert assert_map_matches_slice_loop(LGSet(LGParams(1000, 0.2), members)) == lg


def listing_violations(members, x):
    """Oracle: the per-m listing, every member tested against every m
    with two or more member divisors."""
    counts = np.zeros(x + 1, dtype=np.int32)
    for q in members:
        counts[q::q] += 1
    violations = []
    seen = set()
    for m in np.flatnonzero(counts >= 2):
        divs = [q for q in members if int(m) % q == 0]
        for a, b in itertools.combinations(divs, 2):
            l = math.lcm(a, b)
            if l <= x and (a, b) not in seen:
                seen.add((a, b))
                violations.append((a, b, l))
    return violations


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairwise_lcm_listing_matches_per_m_oracle(data):
    x = data.draw(st.integers(min_value=4, max_value=5000))
    members = data.draw(st.lists(st.integers(min_value=2, max_value=x), unique=True, max_size=40))
    s = LGSet(LGParams(x, 0.2), members)
    assert verify_pairwise_lcm(s).violations == listing_violations(s.members, x)


@pytest.mark.parametrize(
    "members",
    [
        [300, 600, 997],  # 300 | 600, across runs k = 3 and k = 1
        [252, 504, 756, 1000],  # 252 divides 504 and 756; lcm(504, 756) = 1512 > x
        [37, 74, 500],  # 37 | 74
        [37, 999],  # 37 | 999
        [37, 74, 300, 600, 900, 999],
        [333, 666],  # k = 3 and k = 1, across the change at 1000/3
        [2, 3],  # 2 marks x/2 multiples in one block
        [2, 999, 1000],  # 2 | 1000, the member equal to x
        [500, 1000],
        [2, 3, 4, 6, 12, 499, 500, 998],  # many divisors at each m = 12k
    ],
)
def test_pairwise_lcm_listing_split_edges(members):
    s = LGSet(LGParams(1000, 0.2), members)
    assert not s.multiples_disjoint()
    assert verify_pairwise_lcm(s).violations == listing_violations(s.members, 1000)


def test_pairwise_lcm_listing_keys_past_int32():
    # the blocks are int32; the (m, q) sort key m * (x + 1) + q is not
    x = 10**5
    s = LGSet(LGParams(x, 0.2), [3, 50000, 99999])
    assert verify_pairwise_lcm(s).violations == [(3, 99999, 99999)] == listing_violations(s.members, x)


@st.composite
def sets_and_bounds(draw):
    x = draw(st.integers(min_value=4, max_value=3000))
    return x, sorted(draw(st.lists(st.integers(min_value=2, max_value=x), unique=True, max_size=60)))


@settings(max_examples=100, deadline=None)
@given(sets_and_bounds())
@example((1000, []))
@example((1000, [2]))
@example((1000, [501, 600, 777, 1000]))
@example((INT32_MAX, [715827882, 715827883, INT32_MAX]))  # k = 3, then k = 2 and 1
def test_multiple_blocks_yield_each_multiple_once(case):
    x, members = case
    qs = np.asarray(members, dtype=np.int32)
    runs, pairs = [], []
    for g, block in _multiple_blocks(qs, x):
        k = x // int(g[0])
        assert g.size and (x // g == k).all()
        assert block.dtype == np.int32 and block.shape == (k, g.size)
        assert block.size * (k + 1) <= x + k * (k + 1)  # at most x/(k+1) + k entries
        runs.append(g.tolist())
        pairs += zip(block.ravel().tolist(), np.broadcast_to(g, block.shape).ravel().tolist())
    # the runs split the members in order, and each is maximal
    assert sum(runs, []) == members
    assert all(x // a[-1] != x // b[0] for a, b in zip(runs, runs[1:]))
    # every (m, q) with q | m <= x, each exactly once
    assert sorted(pairs) == sorted((m, q) for q in members for m in range(q, x + 1, q))


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
        find_divisor(55, s)
    part = partition(s, 0.5, table1k)
    w = np.zeros(101)
    w[55] = 1.0
    with pytest.raises(ValueError, match="not LG"):
        sieve_report(WeightedSet(w), part, 0.2)


@pytest.mark.parametrize(
    "members",
    [
        [1, 97],
        [11, 101],
        [11, 11],
        [55, 11, 55],
        [2.7, 3.2, 97.9],  # int() would truncate these to [2, 3, 97]
        [11, 97.0],
        [np.float64(11.0)],
        [Fraction(11)],
        [Decimal(11)],
        ["11"],
        np.array([11, 2**63 + 11], dtype=np.uint64),  # would wrap to 11 as int64
        np.array([11, 97], dtype=np.int64) - 108,  # negative
        np.array([11, 11, 97], dtype=np.int32),
        np.array([11, 101], dtype=np.int32),
        np.array([True, False]),
        np.array([11.0, 97.0]),
        np.array([], dtype=np.float64),
        np.array([[11, 97]]),
        np.array(11),
        np.array([11, 97], dtype=object),
        [11, 2**64 + 11],  # beyond int64 before the range check
        (q for q in [11, 97.0]),
        11,  # not iterable
    ],
)
def test_lgset_rejects_bad_members(members):
    with pytest.raises(ValueError, match="members must be distinct integers"):
        LGSet(LGParams(100, 0.2), members)


def test_lgset_accepts_numpy_integers():
    s = LGSet(LGParams(100, 0.2), [np.int64(97), np.int32(11), 35])
    assert s.members == [11, 35, 97]
    assert all(type(q) is int for q in s.members)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_lgset_takes_integer_arrays(dtype):
    given = np.array([97, 11, 35], dtype=dtype)
    s = LGSet(LGParams(100, 0.2), given)
    assert s.members == [11, 35, 97]
    assert s.qs.dtype == np.int32 and not s.qs.flags.writeable
    given[0] = 13  # the caller's array is neither frozen nor shared
    assert s.members == [11, 35, 97]


@pytest.mark.parametrize(
    "members",
    [[], (), iter([]), range(0), np.array([], dtype=np.int64), np.empty(0, dtype=np.uint64)],
)
def test_lgset_takes_empty_inputs(members):
    s = LGSet(LGParams(100, 0.2), members)
    assert len(s) == 0 and s.members == [] and 11 not in s
    assert s.count_below(1.0) == 0


def test_lgset_takes_generators_and_ranges():
    p = LGParams(100, 0.2)
    assert LGSet(p, (q for q in [97, 35, 11])).members == [11, 35, 97]
    assert LGSet(p, range(90, 101, 3)).members == [90, 93, 96, 99]
    assert LGSet(p, range(99, 89, -3)).members == [90, 93, 96, 99]


def test_members_is_a_new_list_of_ints():
    s = LGSet(LGParams(100, 0.2), np.array([97, 11, 35], dtype=np.uint64))
    m = s.members
    assert type(m) is list and [type(q) for q in m] == [int] * 3
    assert m is not s.members
    m[0] = 12
    m.append(99)
    assert s.members == [11, 35, 97] and len(s) == 3 and 99 not in s
    with pytest.raises(ValueError):
        s.qs[0] = 12  # the one store is read-only


@pytest.mark.parametrize("n", [11, 11.0, np.int64(35), 97, 2**40, -97, 11.5, 0, 101])
def test_membership_by_value_outside_int32(n):
    s = LGSet(LGParams(100, 0.2), [11, 35, 97])
    assert (n in s) == (n in [11, 35, 97])


def test_coverage_full_cutoff(set100, table1k):
    rep = coverage(set100, 1.0, table1k)
    assert rep.covered_count + rep.exceptional_count == 100
    assert rep.members_below_cutoff == 22
    # m = 1 and m = 6 are exceptional
    assert find_divisor(1, set100) is None
    assert find_divisor(6, set100) is None
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


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=2 * 10**4),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_coverage_count_matches_member_walk(table100k, x, seed):
    # oracle: the m <= x that the members below x^c mark, one slice per
    # member, grown along the grid c in (delta, 1]
    s = random_lg_set(x, random.Random(seed), table100k)
    members = s.members
    mark = np.zeros(x + 1, dtype=bool)
    done = 0
    for c in [k / 100 for k in range(1, 101) if k / 100 > s.params.delta]:
        k = s.count_below(c)
        for q in members[done:k]:
            mark[q::q] = True
        done = k
        assert coverage(s, c, table100k).covered_count == np.count_nonzero(mark), c


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


def _choose_cutoff_linear(lgset, epsilon):
    """Oracle: the linear scan over the 0.01 grid that bisection replaced."""
    delta = lgset.params.delta
    recips = [1.0 / q for q in lgset.members]
    for k in range(int(math.floor(delta * 100)) + 1, 101):
        c = k / 100.0
        if c <= delta:
            continue
        if math.fsum(recips[lgset.count_below(c) :]) < epsilon / 2.0:
            return c
    return 1.0


@pytest.mark.parametrize(
    "x, delta, members, epsilon",
    [
        (100, 0.2, None, 0.2),
        (10**4, 0.1, None, 0.05),
        (10**4, 0.1, None, 0.3),
        (10**4, 0.05, None, 0.9),
        (3000, 0.29, None, 0.2),  # delta * 100 rounds below 29
        # no c passes: the tail at c = 1.0 is 1/x >= epsilon/2, so 1.0 is the fallback
        (10, 0.1, [10], 0.1),
        # the grid is {1.00}: its one point passes, then fails to the fallback
        (10**4, 0.995, None, 0.2),
        (10, 0.995, [10], 0.1),
        # the grid is {0.99, 1.00}: the tail at 0.99 is about 0.0104
        (10**4, 0.985, None, 0.2),
        (10**4, 0.985, None, 0.01),
    ],
)
def test_choose_cutoff_matches_linear_scan(table10k, x, delta, members, epsilon):
    params = LGParams(x, delta)
    s = construct(params, table10k) if members is None else LGSet(params, members)
    assert choose_cutoff(s, epsilon) == _choose_cutoff_linear(s, epsilon)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=3000),
    delta=st.floats(min_value=0.01, max_value=0.95),
    epsilon=st.floats(min_value=0.001, max_value=0.999),
    data=st.data(),
)
def test_choose_cutoff_matches_linear_scan_property(x, delta, epsilon, data):
    # count_below and the tail need no LG property, so any member set serves
    members = data.draw(st.sets(st.integers(min_value=2, max_value=x), max_size=60))
    s = LGSet(LGParams(x, delta), members)
    assert choose_cutoff(s, epsilon) == _choose_cutoff_linear(s, epsilon)


def _grid_tails(s):
    """Every grid point's tail over the members above x^c, in (0, 1/2)."""
    recips = [1.0 / q for q in s.members]
    delta = s.params.delta
    tails = {
        math.fsum(recips[s.count_below(k / 100.0) :])
        for k in range(int(math.floor(delta * 100)) + 1, 101)
        if k / 100.0 > delta
    }
    return sorted(t for t in tails if 0 < t < 0.5)


@settings(max_examples=80, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=10**5),
    delta=st.floats(min_value=0.01, max_value=0.6),
    data=st.data(),
)
def test_choose_cutoff_on_exact_grid_tails(x, delta, data):
    # epsilon/2 set to a grid point's exact tail and to its neighbouring
    # doubles, where a bisection step lands inside the float tail's error
    # band and only the exact test keeps it on the oracle's side
    members = data.draw(st.sets(st.integers(min_value=2, max_value=x), max_size=400))
    s = LGSet(LGParams(x, delta), members)
    tails = _grid_tails(s)
    if not tails:
        return
    tail = data.draw(st.sampled_from(tails))
    for half in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, 1.0)):
        epsilon = 2.0 * half  # exact, so epsilon / 2.0 == half
        assert choose_cutoff(s, epsilon) == _choose_cutoff_linear(s, epsilon), half


@pytest.fixture
def exact_sum_calls(monkeypatch):
    """The sizes of the arrays choose_cutoff hands the correctly rounded sum."""
    calls = []

    def counted(values):
        calls.append(len(values))
        return _exact_sum(values)

    monkeypatch.setattr(lgset_module, "_exact_sum", counted)
    return calls


@pytest.mark.parametrize("x, delta", [(10**4, 0.05), (10**5, 0.05), (9973, 0.2)])
def test_choose_cutoff_on_every_grid_tail_of_a_built_set(table100k, x, delta, exact_sum_calls):
    # epsilon/2 within a few ulps of a grid tail lies inside the float
    # tail's error band, so the exact sum must decide at least one point
    s = construct(LGParams(x, delta), table100k)
    for tail in _grid_tails(s):
        for half in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, 1.0)):
            epsilon = 2.0 * half
            exact_sum_calls.clear()
            assert choose_cutoff(s, epsilon) == _choose_cutoff_linear(s, epsilon), half
            assert exact_sum_calls, half


def test_choose_cutoff_regression_100k(table100k):
    # frozen after a one-off tail-sum sweep over the constructed set
    s = construct(LGParams(10**5, 0.05), table100k)
    assert choose_cutoff(s, 0.2) == 0.93


@pytest.mark.parametrize("x", [10**5, 3 * 10**6])
def test_choose_cutoff_settles_far_tails_without_exact_sums(x, exact_sum_calls):
    # the paper's set-up: every point the bisection tests has a float
    # tail far from epsilon/2 = 0.1 beside its error bound
    s = construct(LGParams(x, 0.05), build_prime_table(x))
    assert choose_cutoff(s, 0.2) == 0.93
    assert exact_sum_calls == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=2 * 10**4),
    wide=st.booleans(),
    data=st.data(),
)
def test_float_tail_error_within_its_bound(seed, n, wide, data):
    # choose_cutoff's float tails, numpy's sums of the last j of 1.0 / q
    # for ascending q in [2, 2^31 - 1], stay within 4 j 2^-53 of their
    # correctly rounded sums; wide draws q log-uniformly, so the terms
    # span nine decades
    rng = np.random.default_rng(seed)
    if wide:
        q = np.exp(rng.uniform(math.log(2), math.log(INT32_MAX), n)).astype(np.int64)
        q = np.clip(q, 2, INT32_MAX)
    else:
        q = rng.integers(2, INT32_MAX, n, endpoint=True)
    recips = 1.0 / np.sort(q)
    js = data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=8)) + [1, n]
    for j in js:
        t = float(recips[n - j :].sum())  # as choose_cutoff sums them
        exact = math.fsum(recips[n - j :])
        assert abs(t - exact) <= 4 * j * 2.0**-53 * t, j


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


def test_with_cutoff_changes_only_c():
    s = LGSet(LGParams(100, 0.2, 0.8), [11, 13, 35, 97])
    div = s.divisor_map()  # built before the copy
    t = with_cutoff(s, 0.9)
    assert (s.params.c, t.params.c) == (0.8, 0.9)
    assert t.params == LGParams(100, 0.2, 0.9)
    assert t.qs is s.qs
    assert t.divisor_map() is div and s.divisor_map() is div


def test_json_roundtrip(tmp_path, set100):
    s = with_cutoff(set100, 0.9)
    path = tmp_path / "set.json"
    save_json(s, path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["c", "delta", "members", "x"]
    assert doc["members"] == s.members
    loaded = load_json(path)
    assert loaded == s


def json_dump_bytes(s, path):
    p = s.params
    doc = {"x": p.x, "delta": p.delta, "c": p.c, "members": s.members}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path.read_bytes()


def assert_saved_as_json_dump(s, tmp):
    save_json(s, tmp / "set.json")
    assert (tmp / "set.json").read_bytes() == json_dump_bytes(s, tmp / "ref.json")
    assert load_json(tmp / "set.json") == s


@pytest.mark.parametrize(
    "x, delta, c, members",
    [
        (100, 0.2, 1.0, []),
        (100, 0.2, 0.9, [97]),
        (100, 0.2, 1, [11, 97]),  # an integer c, as load_json keeps it
        (20000, 0.05, 0.93, range(2, JSON_BLOCK + 2)),  # one full block
        (20000, 0.05, 0.93, range(2, JSON_BLOCK + 3)),  # one member into the second
        (100, 1e-05, 0.5, [11, 13]),
        (100, 0.1, 0.5, [11, 13]),
    ],
)
def test_save_json_bytes_match_json_dump(tmp_path, x, delta, c, members):
    assert_saved_as_json_dump(LGSet(LGParams(x, delta, c), members), tmp_path)


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("x, first", [(20000, 10**4), (INT32_MAX, 10**9)])
def test_save_json_width_change_at_block_edge(tmp_path, x, first, shift):
    # the first member with one more digit sits at index JSON_BLOCK + shift:
    # the last of the first block, the first of the second, or the one after
    members = range(first - JSON_BLOCK - shift, first + 20)
    s = LGSet(LGParams(x, 0.05, 0.93), members)
    assert int(s.qs[JSON_BLOCK + shift]) == first
    assert_saved_as_json_dump(s, tmp_path)


def _width_edges(x):
    """10**k - 1 and 10**k for k = 1..9, and 2**31 - 1, those in [2, x]."""
    edges = [e for k in range(1, 10) for e in (10**k - 1, 10**k)] + [INT32_MAX]
    return [e for e in edges if e <= x]


@st.composite
def sets_of_every_width(draw):
    x = draw(st.integers(min_value=4, max_value=INT32_MAX))
    widths = [w for w in range(1, 11) if 10 ** (w - 1) <= x]
    drawn = draw(st.lists(
        st.sampled_from(widths).flatmap(
            lambda w: st.integers(min_value=max(2, 10 ** (w - 1)), max_value=min(x, 10**w - 1))
        ),
        max_size=200,
    ))
    delta = draw(st.floats(min_value=1e-6, max_value=0.5))
    c = draw(st.one_of(st.just(1), st.floats(min_value=0.51, max_value=1.0)))
    return LGSet(LGParams(x, delta, c), {*drawn, *_width_edges(x)})


@settings(max_examples=100, deadline=None)
@given(sets_of_every_width())
def test_save_json_matches_json_dump_at_every_width(tmp_path_factory, s):
    assert_saved_as_json_dump(s, tmp_path_factory.mktemp("json"))
