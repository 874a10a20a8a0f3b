"""Every ``sweep`` row recomputed from the definitions.

The reference below reads no lgsieve code except ``powers``, whose
integer boundaries have their own exact oracle and a pinned hash.  It
finds the members by testing the chain conditions on every q <= x,
chooses c by the tail sum, draws A and B as the CLI does, counts the
pair sums by enumeration, and finds smoothness and each m's member
divisor with its own sieve.  A row matches when every compared field
is equal by ``repr``: the sums are ``math.fsum`` over the same doubles.
"""

import csv
import math
import random

import pytest

from lgsieve.cli import main
from lgsieve.powers import floor_pow, largest_int_below_pow

EPSILON = 0.2  # the CLI's default coverage target
GAMMA = 0.2
THETAS = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
FIELDS = ["c", "smooth_count", "sigma_sum1", "deviation", "hyp1", "hyp2", "conclusion"]


def _prime_factors(x):
    """factors[n] = the distinct primes of n, ascending, for n <= x."""
    factors = [[] for _ in range(x + 1)]
    for p in range(2, x + 1):
        if not factors[p]:  # no smaller prime divides p
            for m in range(p, x + 1, p):
                factors[m].append(p)
    return factors


def _is_member(q, x, delta, factors):
    """q = p1 p2 ... pk, p1 > ... > pk > x^delta distinct primes, with
    x >= p_i p1...p_i for i < k and x < p_k q."""
    ps = factors[q][::-1]
    if math.prod(ps) != q or ps[-1] <= floor_pow(x, delta):
        return False  # not squarefree, or a prime at or below x^delta
    partial = 1
    for p in ps[:-1]:
        partial *= p
        if x < p * partial:
            return False
    return x < ps[-1] * q


def _reference_rows(x, delta, size, seed):
    factors = _prime_factors(x)
    members = [q for q in range(2, x + 1) if _is_member(q, x, delta, factors)]

    grid = [k / 100 for k in range(1, 101) if k / 100 > delta]

    def tail(c):  # the members q >= x^c
        return math.fsum(1.0 / q for q in members if q > largest_int_below_pow(x, c))

    c = next((c for c in grid if tail(c) < EPSILON / 2), 1.0)
    small = [q for q in members if q <= largest_int_below_pow(x, c)]

    rng = random.Random(seed)
    domain = x // 2
    A = rng.sample(range(1, domain + 1), min(size, domain))
    B = rng.sample(range(1, domain + 1), min(size, domain))
    w = [0] * (x + 1)
    for a in A:
        for b in B:
            w[a + b] += 1
    sigma = float(len(A) * len(B))

    divisor = [0] * (x + 1)  # the one member below x^c dividing m, or 0
    for q in small:
        for m in range(q, x + 1, q):
            assert divisor[m] == 0, f"{m} has two member divisors"
            divisor[m] = q

    rows = []
    for theta in THETAS:
        if not delta < theta <= 1:
            continue
        y = floor_pow(x, theta)
        smooth = {q for q in small if factors[q][-1] <= y}
        sum1 = math.fsum(1.0 / q for q in small if q in smooth)
        sum2 = math.fsum(1.0 / q for q in small if q not in smooth)
        lhs1 = float(sum(w[m] for m in range(x + 1) if divisor[m] in smooth))
        lhs2 = float(sum(w[m] for m in range(x + 1) if divisor[m] and divisor[m] not in smooth))
        count = sum(w[m] for m in range(1, x + 1) if not factors[m] or factors[m][-1] <= y)
        center = sigma * sum1
        rows.append({
            "theta": repr(theta),
            "c": repr(c),
            "smooth_count": repr(count),
            "sigma_sum1": repr(center),
            "deviation": repr(count - center),
            "hyp1": repr(lhs1 > (1 - GAMMA) * sigma * sum1),
            "hyp2": repr(lhs2 > (1 - GAMMA) * sigma * sum2),
            "conclusion": repr(abs(count - center) < 2 * GAMMA * sigma),
        })
    return rows


@pytest.mark.parametrize(
    "x, delta, size, seed",
    [(1000, 0.1, 60, 0), (2003, 0.05, 150, 1), (3000, 0.2, 300, 2), (2048, 0.3, 100, 3)],
)
def test_sweep_rows_equal_their_definitions(tmp_path, x, delta, size, seed):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--x", str(x), "--delta", str(delta), "--theta", "0.3:0.1:1.0",
        "--gamma", str(GAMMA), "--size-a", str(size), "--size-b", str(size),
        "--seed", str(seed), "--out", str(out),
    ]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        got = list(csv.DictReader(fh))
    expected = _reference_rows(x, delta, size, seed)
    assert len(expected) == sum(delta < t for t in THETAS)
    assert [{k: row[k] for k in ["theta", *FIELDS]} for row in got] == expected
