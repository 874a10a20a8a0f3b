"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with pytest -s or on failure).

Criteria 6 (finite-x Dickman convergence at tolerance 0.02) and 9
(smooth-sum fraction within 0.05 of the smooth-member harmonic sum) are
implemented exactly as stated; at the stated desk scales both
tolerances are unattainable and the tests fail honestly.  See the
measured deviations in the FAIL detail lines.
"""

import math
import random
import time

import numpy as np
import pytest

from lgsieve import (
    LGParams,
    WeightedSet,
    build_dickman_table,
    build_prime_table,
    choose_cutoff,
    construct,
    coverage,
    difference_weights,
    factorize,
    find_divisor,
    is_smooth,
    partition,
    psi_count,
    rho,
    sieve_report,
    theorem3_experiment,
    variance_report,
    with_cutoff,
)
from lgsieve.powers import floor_pow, real_pow

GRID_X = (10**3, 10**4, 10**5)
GRID_DELTA = (0.05, 0.1, 0.2)


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def table100k():
    return build_prime_table(10**5)


@pytest.fixture(scope="module")
def table1m():
    return build_prime_table(10**6)


@pytest.fixture(scope="module")
def grid_sets(table100k):
    return {
        (x, d): construct(LGParams(x, d), table100k)
        for x in GRID_X
        for d in GRID_DELTA
    }


def test_criterion_1_pairwise_lcm(grid_sets):
    from lgsieve import verify_pairwise_lcm

    start = time.perf_counter()
    bad = []
    for (x, d), s in grid_sets.items():
        rep = verify_pairwise_lcm(s)
        if not rep.ok:
            bad.append((x, d, rep.violations[:3]))
    elapsed = time.perf_counter() - start
    report(
        1,
        not bad and elapsed < 60,
        f"9 sets, violations={bad}, {elapsed:.1f}s",
    )


def test_criterion_2_unique_divisor(grid_sets):
    mismatches = 0
    multi = 0
    for (x, d), s in grid_sets.items():
        divisors_of = [[] for _ in range(x + 1)]
        for q in s.members:
            for m in range(q, x + 1, q):
                divisors_of[m].append(q)
        for m in range(1, x + 1):
            if len(divisors_of[m]) > 1:
                multi += 1
            expected = divisors_of[m][0] if divisors_of[m] else None
            if find_divisor(m, s) != expected:
                mismatches += 1
    report(2, multi == 0 and mismatches == 0, f"multi={multi} mismatches={mismatches}")


def test_criterion_3_harmonic_consistency(grid_sets, table100k):
    failures = []
    for (x, d), s in grid_sets.items():
        cutoffs = {1.0, choose_cutoff(s, 0.2)}
        for c in cutoffs:
            rep = coverage(s, c, table100k)
            slack = rep.members_below_cutoff / x + 1.0 / x
            if not abs(rep.harmonic_sum - rep.covered_count / x) <= slack:
                failures.append((x, d, c))
    report(3, not failures, f"failures={failures}")


def test_criterion_4_membership_oracle(grid_sets, table100k):
    x = 10**4
    bad = []
    for d in GRID_DELTA:
        s = grid_sets[(x, d)]
        pmin = floor_pow(x, d)
        oracle = []
        for n in range(2, x + 1):
            f = factorize(n, table100k)
            if any(e > 1 for _, e in f.factors):
                continue
            ps = sorted((p for p, _ in f.factors), reverse=True)
            if ps[-1] <= pmin:
                continue
            prod, ok = 1, True
            for i, p in enumerate(ps):
                prod *= p
                if i == len(ps) - 1:
                    ok = prod <= x and x < p * prod
                else:
                    ok = x >= p * prod
                if not ok:
                    break
            if ok:
                oracle.append(n)
        if s.members != oracle:
            bad.append(d)
    report(4, not bad, f"discrepant deltas={bad}")


def test_criterion_5_variance_bound(grid_sets, table100k):
    x = 10**4
    s = grid_sets[(x, 0.05)]
    c = choose_cutoff(s, 0.2)
    eps_prime = coverage(s, c, table100k).epsilon_prime
    rng = random.Random(20240)
    pair_failures = bound_failures = 0
    for _ in range(100):
        C = rng.sample(range(1, x + 1), 1000)
        rep = variance_report(
            C, s, c, eps_prime / 2, table100k, eps_prime=eps_prime
        )
        if not rep.pair_bound_holds:
            pair_failures += 1
        if not rep.exact_bound_holds:
            bound_failures += 1
    report(
        5,
        pair_failures == 0 and bound_failures == 0,
        f"pair_failures={pair_failures} bound_failures={bound_failures} "
        f"(c={c}, eps'={eps_prime:.4f})",
    )


def test_criterion_6_dickman(table1m):
    start = time.perf_counter()
    dt = build_dickman_table(max_u=4.0)
    analytic_err = abs(rho(2.0, dt) - (1 - math.log(2)))
    deviations = {}
    for u in (1.5, 2.0, 2.5, 3.0):
        emp = psi_count(10**6, real_pow(10**6, 1.0 / u), table1m) / 10**6
        deviations[u] = abs(rho(u, dt) - emp)
    elapsed = time.perf_counter() - start
    ok = (
        analytic_err < 1e-6
        and all(dev < 0.02 for dev in deviations.values())
        and elapsed < 30
    )
    report(
        6,
        ok,
        f"analytic_err={analytic_err:.2e} deviations="
        + str({u: round(d, 4) for u, d in deviations.items()})
        + f" {elapsed:.1f}s",
    )


def test_criterion_7_smoothness_crux(grid_sets, table100k):
    x = 10**4
    s = grid_sets[(x, 0.1)]
    exceptions = 0
    for theta in (0.4, 0.6):
        part = partition(s, theta, table100k)
        n1 = set(part.n1)
        y = real_pow(x, theta)
        for m in range(1, x + 1):
            q = find_divisor(m, s)
            if q is None:
                continue
            if is_smooth(m, y, table100k) != (q in n1):
                exceptions += 1
    report(7, exceptions == 0, f"exceptions={exceptions}")


def _random_weight_set(x, rng, kind):
    w = np.zeros(x + 1)
    if kind == 0:  # dense random
        w[1:] = [rng.random() for _ in range(x)]
    elif kind == 1:  # sparse random
        support = rng.sample(range(1, x + 1), x // 8)
        w[support] = [0.5 + rng.random() for _ in support]
    elif kind == 2:  # indicator of a random subset
        w[rng.sample(range(1, x + 1), x // 3)] = 1.0
    else:  # concentrated support: hypotheses typically fail
        w[rng.sample(range(1, 50), 10)] = 1.0
    return WeightedSet(x, w)


def test_criterion_8_implication_suite(grid_sets, table100k):
    x = 10**4
    s = grid_sets[(x, 0.05)]
    part = partition(s, 0.5, table100k)
    rng = random.Random(77)
    hyps_true = conclusion_failures = 0
    for trial in range(50):
        kind = 3 if trial % 12 == 11 else trial % 3
        ws = _random_weight_set(x, rng, kind)
        rep = sieve_report(ws, part, s, 0.2, table100k)  # raises if sandwich fails
        if rep.hyp1_holds and rep.hyp2_holds:
            hyps_true += 1
            if not rep.conclusion_holds:
                conclusion_failures += 1
    report(
        8,
        conclusion_failures == 0 and hyps_true >= 40,
        f"hyps_true={hyps_true}/50 conclusion_failures={conclusion_failures}",
    )


def test_criterion_9_sumset_experiment(table100k):
    start = time.perf_counter()
    x = 10**5
    s = construct(LGParams(x, 0.05), table100k)
    c = choose_cutoff(s, 0.2)
    s = with_cutoff(s, c)
    within = 0
    identity_failures = 0
    devs = []
    for seed in range(10):
        rng = random.Random(seed)
        A = rng.sample(range(1, x // 2 + 1), 5000)
        B = rng.sample(range(1, x // 2 + 1), 5000)
        doc = theorem3_experiment(A, B, s, 0.5, 0.2, table100k)
        if not doc["residue_identity_ok"]:
            identity_failures += 1
        dev = abs(doc["direct"]["deviation_from_sum1"])
        devs.append(round(dev, 4))
        if dev < 0.05:
            within += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        identity_failures == 0 and within >= 9 and elapsed < 300,
        f"c={c} within={within}/10 identity_failures={identity_failures} "
        f"deviations={devs} {elapsed:.0f}s",
    )


def test_criterion_10_difference_example():
    ws = difference_weights(range(1, 101), 10**4)
    count = sum(int(ws.array[n]) for n in range(5, 10**4 + 1, 5))
    report(10, count == 950, f"count={count}")
