import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import coverage, residue_histogram, variance_report


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
    assert rep.identity_rel_err < 1e-6


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
        assert rep.identity_rel_err < 1e-6


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
