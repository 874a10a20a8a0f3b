import random
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import LGParams, LGSet, construct, coverage, variance_report
from lgsieve import ResourceLimitError, discrepancy, primes
from lgsieve.discrepancy import _fft_length, _pair_counts, distinct_ints
from lg_samples import random_lg_set, upper_half_set


@dataclass(frozen=True)
class ResidueHistogram:
    modulus: int
    counts: np.ndarray  # counts[a] = #elements congruent to a (mod q)
    total: int


def residue_histogram(elements, q: int) -> ResidueHistogram:
    """Histogram of distinct ``elements`` mod q."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    arr = np.asarray(elements, dtype=np.int64)
    return ResidueHistogram(q, np.bincount(arr % q, minlength=q), int(arr.size))


def variance_oracle(elements, moduli):
    """(q, sum_a C(a, q)^2, contribution) per modulus from one residue
    histogram each: the loop the difference counts replaced."""
    arr = np.asarray(sorted(set(elements)), dtype=np.int64)
    out = []
    for q in moduli:
        h = residue_histogram(arr, q)
        ssq = int(h.counts @ h.counts)
        out.append((q, ssq, ssq - h.total * h.total / q))
    return out


def test_histogram_equidistributed():
    h = residue_histogram(range(1, 101), 5)
    assert h.total == 100
    assert list(h.counts) == [20] * 5


def test_histogram_q35():
    h = residue_histogram(range(1, 101), 35)
    for a in range(35):
        expected = 3 if 1 <= a <= 30 else 2
        assert h.counts[a] == expected
    assert int(h.counts.sum()) == 100


def test_histogram_empty():
    h = residue_histogram([], 7)
    assert h.total == 0
    assert list(h.counts) == [0] * 7


def test_histogram_bad_modulus():
    with pytest.raises(ValueError):
        residue_histogram([1, 2], 0)


def test_perfect_equidistribution_term_is_zero():
    # q | x makes the variance term vanish for C = {1..x}
    h = residue_histogram(range(1, 101), 5)
    assert sum((c - 100 / 5) ** 2 for c in h.counts) == 0.0


def test_variance_report_evens(set100, table1k):
    C = range(2, 101, 2)
    rep = variance_report(C, set100, 1.0, 0.35, table1k)
    assert rep.size == 50
    assert rep.moduli_count == 22
    assert rep.lhs >= 0
    assert rep.bound_holds
    assert rep.exact_bound_holds
    assert rep.pair_bound_holds


def test_variance_report_elements_out_of_range(set100, table1k):
    with pytest.raises(ValueError):
        variance_report([0, 5], set100, 1.0, 0.2, table1k)
    with pytest.raises(ValueError):
        variance_report([5, 101], set100, 1.0, 0.2, table1k)


def test_variance_report_without_table(set10k, table10k):
    # eps' is measured by coverage, which needs no prime table
    C = random.Random(4).sample(range(1, 10**4 + 1), 500)
    for cutoff in (1.0, 0.8):
        eps_prime = coverage(set10k, cutoff, table10k).epsilon_prime
        given_eps = variance_report(C, set10k, cutoff, 0.1, table10k, eps_prime=eps_prime)
        assert variance_report(C, set10k, cutoff, 0.1) == given_eps


def test_report_equality_compares_per_modulus_values(set10k):
    C = random.Random(4).sample(range(1, 10**4 + 1), 500)
    rep = variance_report(C, set10k, 1.0, 0.1, eps_prime=0.3)
    assert replace(rep, q=rep.q.astype(np.int64), contribution=rep.contribution.copy()) == rep
    bumped = rep.contribution.copy()
    bumped[-1] += 1.0
    assert replace(rep, contribution=bumped) != rep
    assert replace(rep, sum_sq=rep.sum_sq[:-1]) != rep
    assert replace(rep, lhs=rep.lhs + 1.0) != rep


def test_random_trials_10k(set10k, table10k):
    eps_prime = coverage(set10k, 1.0, table10k).epsilon_prime
    rng = random.Random(42)
    for _ in range(10):
        C = rng.sample(range(1, 10**4 + 1), 1000)
        rep = variance_report(
            C, set10k, 1.0, eps_prime / 2, table10k, eps_prime=eps_prime
        )
        assert rep.bound_holds
        assert rep.exact_bound_holds
        assert rep.pair_bound_holds


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=100), max_size=60))
def test_pair_bound_unconditional(set100, table1k, C):
    rep = variance_report(C, set100, 1.0, 0.5, table1k, eps_prime=0.34)
    n = len(C)
    assert rep.pair_sum <= n * (n - 1)


def test_modulus_csv(set100, table1k):
    rep = variance_report(range(1, 51), set100, 1.0, 0.4, table1k, eps_prime=0.34)
    lines = rep.modulus_csv_lines()
    assert lines[0] == "q,sum_sq,contribution"
    assert len(lines) == 2 + rep.moduli_count
    assert lines[-1].startswith("total,")
    total_sum_sq = sum(int(l.split(",")[1]) for l in lines[1:-1])
    assert total_sum_sq == rep.sum_sq_total


def moduli_below(lgset, cutoff):
    return lgset.members[: lgset.count_below(cutoff)]


@pytest.mark.parametrize("x", [4, 5, 1000, 2003, 3000])
def test_variance_matches_histogram_oracle_every_modulus(table10k, x):
    # 2003 is prime: neither x + 1 nor 2x is 5-smooth
    rng = random.Random(x)
    cases = [[], [x], [1], range(1, x + 1), rng.sample(range(1, x + 1), x // 3 + 1)]
    for lg in (upper_half_set(x), construct(LGParams(x, 0.05), table10k)):
        for C in cases:
            rep = variance_report(C, lg, 1.0, 0.1, eps_prime=0.5)
            assert rep.per_modulus == variance_oracle(C, moduli_below(lg, 1.0))


def test_variance_matches_histogram_oracle_above_int32_square(table100k):
    # |C|^2 > 2^31 - 1 for |C| >= 46341, past the int32 range of the moduli
    lg = construct(LGParams(10**5, 0.3), table100k)
    C = random.Random(8).sample(range(1, 10**5 + 1), 50000)
    rep = variance_report(C, lg, 0.6, 0.1, eps_prime=0.3)
    assert rep.moduli_count > 0
    assert rep.per_modulus == variance_oracle(C, moduli_below(lg, 0.6))


def test_variance_matches_histogram_oracle_lg_set(set10k):
    rng = random.Random(7)
    for cutoff in (1.0, 0.6):
        moduli = moduli_below(set10k, cutoff)
        for size in (1, 300, 5000):
            C = rng.sample(range(1, 10**4 + 1), size)
            rep = variance_report(C, set10k, cutoff, 0.1, eps_prime=0.3)
            assert rep.per_modulus == variance_oracle(C, moduli)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=4, max_value=2 * 10**4),
    seed=st.integers(min_value=0, max_value=2**32),
    density=st.floats(min_value=0.0, max_value=1.0),
)
def test_variance_matches_histogram_oracle_property(table100k, x, seed, density):
    rng = random.Random(seed)
    lg = random_lg_set(x, rng, table100k, size=40)
    C = rng.sample(range(1, x + 1), int(density * x))
    rep = variance_report(C, lg, 1.0, 0.1, eps_prime=0.5)
    assert rep.per_modulus == variance_oracle(C, moduli_below(lg, 1.0))


def test_variance_report_rejects_a_set_that_is_not_lg():
    # lcm(11, 55) = 55 <= 100: m = 55 has two member divisors
    s = LGSet(LGParams(100, 0.2), [11, 55])
    with pytest.raises(ValueError, match="not LG"):
        variance_report(range(1, 51), s, 1.0, 0.4, eps_prime=0.5)


def test_fft_length_is_least_5_smooth():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(16) for b in range(10) for c in range(8)
        if 2**a * 3**b * 5**c <= 2 * 10**4
    )
    for m in range(1, 10**4 + 1):
        assert _fft_length(m) == smooth[bisect_left(smooth, m)], m
    assert _fft_length(2 * 10**5) == 2 * 10**5


def pair_counts_oracle(A, B, x):
    """Sums (B given) or differences a >= a' (B None) of A, pair by pair."""
    counts = np.zeros(x + 1, dtype=np.int64)
    for a in A.tolist():
        if B is None:
            for a2 in A.tolist():
                if a >= a2:
                    counts[a - a2] += 1
        else:
            for b in B.tolist():
                counts[a + b] += 1
    return counts


def assert_pair_counts_match_oracle(A, B, x):
    got = _pair_counts(A, B, x)
    assert got.dtype == np.int64
    assert np.array_equal(got, pair_counts_oracle(A, B, x))
    return got


def test_pair_counts_brute_force():
    rng = random.Random(3)
    x = 300
    A = distinct_ints(rng.sample(range(1, 151), 60), 150)
    B = distinct_ints(rng.sample(range(1, 151), 45), 150)
    assert_pair_counts_match_oracle(A, B, x)
    assert assert_pair_counts_match_oracle(A, None, x)[0] == A.size


@pytest.mark.parametrize(
    "x, A, B",
    [
        (50, [], []),
        (50, [], [7, 20]),  # no sums: a window of zeros at min B
        (50, [7, 20], []),
        (50, [13], [37]),
        (50, [50], None),
        (10**4, [9000, 9003, 9010, 9011], [501, 640, 777]),  # far from 1, span << x
        (10**4, [1, 2, 10**4], None),  # span = x - 1
        (10**4, [1, 5000, 5003], [4000, 4997]),  # sums end exactly at x
        (97, [1, 96], [1]),  # sums span all of [2, x]
    ],
)
def test_pair_counts_offset_sets_brute_force(x, A, B):
    A = distinct_ints(A, x)
    assert_pair_counts_match_oracle(A, None, x)
    if B is not None:
        B = distinct_ints(B, x)
        assert_pair_counts_match_oracle(A, B, x)
        assert_pair_counts_match_oracle(B, None, x)


@st.composite
def offset_sets(draw):
    """(x, A, B) with A and B each in a window [lo, lo + span] of [1, x]
    and max A + max B <= x."""
    x = draw(st.integers(min_value=1, max_value=400))
    windows = []
    for top in (x // 2, x - x // 2):
        lo = draw(st.integers(min_value=1, max_value=max(top, 1)))
        hi = draw(st.integers(min_value=lo, max_value=max(top, lo)))
        windows.append(draw(st.sets(st.integers(min_value=lo, max_value=hi), max_size=40)))
    A, B = windows
    B = {b for b in B if b <= x - max(A, default=0)}
    return x, distinct_ints(A, x), distinct_ints(B, x)


@settings(max_examples=150, deadline=None)
@given(offset_sets())
def test_pair_counts_offset_sets_property(case):
    x, A, B = case
    assert_pair_counts_match_oracle(A, B, x)
    assert_pair_counts_match_oracle(A, None, x)
    assert_pair_counts_match_oracle(B, None, x)


def test_pair_counts_rejects_sums_above_x():
    with pytest.raises(ValueError):
        _pair_counts(distinct_ints([1, 60], 100), distinct_ints([41], 100), 100)


@pytest.mark.parametrize("shift, what", [(0.3, "residual"), (1.0, "total")])
@pytest.mark.parametrize("sums", [True, False])
def test_pair_counts_certificate_raises(monkeypatch, shift, what, sums):
    irfft = np.fft.irfft

    def off_by(spec, m):
        r = irfft(spec, m)
        r[7] += shift
        return r

    monkeypatch.setattr(discrepancy.np.fft, "irfft", off_by)
    A = distinct_ints(range(1, 40, 3), 100)
    with pytest.raises(RuntimeError, match=what):
        _pair_counts(A, A if sums else None, 100)


def test_pair_counts_over_byte_limit_raises(monkeypatch, set100):
    # at x = 100 the counts take 101 int64 entries and the FFT buffer is
    # sized by span: the sums of [1, 2, 3] take _fft_length(5) = 5 float64
    # entries, its differences _fft_length(5), those of [1, 2, 100]
    # _fft_length(199) = 200
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 8 * 108)
    A = distinct_ints([1, 2, 3], 100)
    assert int(_pair_counts(A, A, 100).sum()) == 9
    assert int(_pair_counts(A, None, 100).sum()) == 6
    with pytest.raises(ResourceLimitError, match="the FFT buffer needs 1600 bytes"):
        _pair_counts(distinct_ints([1, 2, 100], 100), None, 100)
    # a test set in [1, x/2] spans at most x/2 - 1: _fft_length(99) = 100
    # fits where a set spanning [1, x] does not
    assert variance_report(range(1, 51), set100, 1.0, 0.4, eps_prime=0.34).size == 50
    with pytest.raises(ResourceLimitError, match="the FFT buffer needs 1600 bytes"):
        variance_report(range(1, 101), set100, 1.0, 0.4, eps_prime=0.34)
    # the x + 1 counts are checked even when the buffer is shorter
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 8 * 101 - 1)
    with pytest.raises(ResourceLimitError, match="the pair-count array needs 808 bytes"):
        _pair_counts(A, None, 100)


def test_variance_report_certificate_raises(monkeypatch, set100):
    irfft = np.fft.irfft
    monkeypatch.setattr(
        discrepancy.np.fft, "irfft", lambda spec, m: irfft(spec, m) + 0.3
    )
    with pytest.raises(RuntimeError):
        variance_report(range(1, 51), set100, 1.0, 0.4, eps_prime=0.34)


def multiple_sums_oracle(w, moduli):
    """One strided walk per modulus: the loop multiple_sums replaced."""
    return [int(w[q::q].sum()) for q in moduli]


@st.composite
def weights_and_moduli(draw, table):
    x = draw(st.integers(min_value=4, max_value=300))
    lg = random_lg_set(x, random.Random(draw(st.integers(0, 2**32))), table)
    # the members' multiples are disjoint, so no sum of |w| exceeds 2^62
    bound = 2**62 // (x + 1)
    w = np.array(
        draw(st.lists(st.integers(-bound, bound), min_size=x + 1, max_size=x + 1)),
        dtype=np.int64,
    )
    # members only, unsorted and with repeats
    moduli = draw(st.lists(st.sampled_from(lg.members), max_size=60)) if len(lg) else []
    return lg, w, moduli


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_multiple_sums_matches_strided_walk(table1k, data):
    lg, w, moduli = data.draw(weights_and_moduli(table1k))
    got = lg.multiple_sums(w, moduli)
    assert got.dtype == np.int64
    assert got.tolist() == multiple_sums_oracle(w, moduli)


def test_multiple_sums_no_running_total_across_moduli():
    # 4 and 5 each sum to 3 * 2^61 < 2^63, but their two sums together
    # overflow int64, as does the mass on the m no member divides
    x = 12
    lg = LGSet(LGParams(x, 0.2), [4, 5, 7, 9, 11])
    w = np.zeros(x + 1, dtype=np.int64)
    w[[4, 8, 12]] = 2**61
    w[[5, 10]] = 3 * 2**60
    w[[1, 2, 3, 6]] = 2**61
    w[[7, 9, 11]] = [7, 9, 11]
    moduli = [4, 5, 4, 11, 7, 9]
    want = [sum(int(v) for v in w[q::q]) for q in moduli]
    assert want == [3 * 2**61] * 3 + [11, 7, 9]
    assert lg.multiple_sums(w, moduli).tolist() == want == multiple_sums_oracle(w, moduli)


def test_multiple_sums_edges(set100):
    w = np.arange(101, dtype=np.int64)
    assert set100.multiple_sums(w, []).tolist() == []
    assert set100.multiple_sums(w, np.array([], dtype=np.int32)).tolist() == []
    assert set100.multiple_sums(w, [97, 11, 35]).tolist() == [97, 495, 105]
    # int32, unsigned and bool weights and moduli arrays of any integer dtype
    for dtype in (np.int32, np.uint32, np.uint8):
        got = set100.multiple_sums(w.astype(dtype), np.array([35, 11], dtype=dtype))
        assert got.dtype == np.int64 and got.tolist() == [105, 495]
    assert set100.multiple_sums(w % 2 == 0, [11]).tolist() == [4]
    empty = LGSet(LGParams(100, 0.2), [])
    assert empty.multiple_sums(w, []).tolist() == []


@pytest.mark.parametrize(
    "weights, moduli, message",
    [
        (np.arange(101), [12], "moduli must be integer members"),  # not a member
        (np.arange(101), [11, 0], "moduli must be integer members"),
        (np.arange(101), [-3], "moduli must be integer members"),
        (np.arange(101), [101], "moduli must be integer members"),  # above x
        (np.arange(101), [11.0], "moduli must be integer members"),
        (np.arange(101), [True], "moduli must be integer members"),
        (np.arange(101) / 2, [11], "weights must be an integer array"),
        (np.arange(100), [11], "weights must be an integer array"),
        (np.arange(102), [11], "weights must be an integer array"),
        (np.zeros((101, 2), dtype=np.int64), [11], "weights must be an integer array"),
        (np.arange(101, dtype=np.uint64), [11], "weights must be an integer array"),
    ],
)
def test_multiple_sums_rejects_bad_input(set100, weights, moduli, message):
    with pytest.raises(ValueError, match=message):
        set100.multiple_sums(weights, moduli)


def test_multiple_sums_rejects_a_set_that_is_not_lg():
    s = LGSet(LGParams(100, 0.2), [11, 55])
    with pytest.raises(ValueError, match="not LG"):
        s.multiple_sums(np.arange(101), [11])


def distinct_ints_oracle(values, hi, name="elements"):
    """The set-and-sort route distinct_ints replaced."""
    arr = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
    if arr.size and not 1 <= arr[0] <= arr[-1] <= hi:
        raise ValueError(f"{name} must lie in [1, {hi}]")
    return arr


CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda v: (n for n in v),
    "int32": lambda v: np.asarray(v, dtype=np.int32),
    "int64": lambda v: np.asarray(v, dtype=np.int64),
}


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-3, max_value=60), max_size=80),
    kind=st.sampled_from(sorted(CONTAINERS)),
    hi=st.integers(min_value=1, max_value=60),
)
def test_distinct_ints_matches_set_and_sort(values, kind, hi):
    def run(f):
        try:
            return f(CONTAINERS[kind](values), hi, "A")
        except ValueError as e:
            return str(e)

    got, want = run(distinct_ints), run(distinct_ints_oracle)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_distinct_ints_repeats_empty_and_range(kind):
    make = CONTAINERS[kind]
    assert distinct_ints(make([5, 3, 5, 1, 3]), 5).tolist() == [1, 3, 5]
    empty = distinct_ints(make([]), 5)
    assert empty.dtype == np.int64 and empty.size == 0
    for values, name in (([0, 2], "A"), ([2, 6, 6], "B"), ([-1], "elements")):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[1, 5\]$"):
            distinct_ints(make(values), 5, name)
