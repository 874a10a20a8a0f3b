"""``sweep`` rows, ``theorem2`` reports, ``sumset`` fields and
``sieve-check`` tables recomputed from the definitions.

The reference below reads no lgsieve code except ``powers``, whose
integer boundaries have their own exact oracle and a pinned hash.  It
finds the members by testing the chain conditions on every q <= x,
chooses c by the tail sum, draws A, B and the weights as the CLI does,
counts the pair sums by enumeration, finds smoothness and each m's
member divisor with its own sieve, takes each residue variance from
the residue counts of the test set, and tabulates Dickman's rho point by
point.  A field matches when it is equal by ``repr``: the sums are
``math.fsum`` over the same doubles, and rho takes the same float steps.
"""

import csv
import functools
import json
import math
import random
from collections import Counter, namedtuple

import pytest

from lgsieve.cli import main
from lgsieve.powers import floor_pow, largest_int_below_pow, real_pow

EPSILON = 0.2  # the CLI's default coverage target
GAMMA = 0.2
THETAS = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
FIELDS = ["c", "smooth_count", "sigma_sum1", "deviation", "hyp1", "hyp2", "conclusion"]
KINDS = ["uniform", "random-dense", "random-sparse", "indicator"]

# factors[n]: the distinct primes of n, ascending; small: the members
# below x^c; divisor[m]: the one member of small dividing m, or 0
Reference = namedtuple("Reference", "x factors c small divisor")


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


@functools.lru_cache(maxsize=None)
def _reference_set(x, delta):
    factors = _prime_factors(x)
    members = [q for q in range(2, x + 1) if _is_member(q, x, delta, factors)]

    grid = [k / 100 for k in range(1, 101) if k / 100 > delta]

    def tail(c):  # the members q >= x^c
        bound = largest_int_below_pow(x, c)
        return math.fsum(1.0 / q for q in members if q > bound)

    c = next((c for c in grid if tail(c) < EPSILON / 2), 1.0)
    small = [q for q in members if q <= largest_int_below_pow(x, c)]

    divisor = [0] * (x + 1)
    for q in small:
        for m in range(q, x + 1, q):
            assert divisor[m] == 0, f"{m} has two member divisors"
            divisor[m] = q
    return Reference(x, factors, c, small, divisor)


def _draw_sets(x, size_a, size_b, seed):
    """A and B from {1..x/2}, as ``sweep`` and ``sumset`` draw them."""
    rng = random.Random(seed)
    domain = x // 2
    A = rng.sample(range(1, domain + 1), min(size_a, domain))
    B = rng.sample(range(1, domain + 1), min(size_b, domain))
    return A, B


def _pair_weights(x, A, B):
    w = [0] * (x + 1)
    for a in A:
        for b in B:
            w[a + b] += 1
    return w


def _theorem2_weights(kind, x, seed):
    """The ``--weights`` kinds, drawing from one rng in the CLI's order."""
    rng = random.Random(seed)
    w = [0.0] * (x + 1)
    if kind == "uniform":
        w[1:] = [1.0] * x
    elif kind == "random-dense":
        w[1:] = [rng.random() for _ in range(x)]
    elif kind == "random-sparse":
        for m in rng.sample(range(1, x + 1), max(1, x // 5)):
            w[m] = 1.0 + rng.random()
    else:  # indicator of a random subset
        for m in rng.sample(range(1, x + 1), max(1, x // 3)):
            w[m] = 1.0
    return w


def _sieve_fields(ref, w, sigma, theta, gamma):
    """Every field of the sieve report on weights w with total sigma."""
    x, factors, divisor = ref.x, ref.factors, ref.divisor
    y = floor_pow(x, theta)
    smooth = {q for q in ref.small if factors[q][-1] <= y}
    sum1 = math.fsum(1.0 / q for q in ref.small if q in smooth)
    sum2 = math.fsum(1.0 / q for q in ref.small if q not in smooth)
    lhs1 = math.fsum(w[m] for m in range(1, x + 1) if divisor[m] in smooth)
    lhs2 = math.fsum(w[m] for m in range(1, x + 1) if divisor[m] and divisor[m] not in smooth)
    # m = 1 has no prime factor, so it is y-smooth for every y >= 1
    total = math.fsum(w[m] for m in range(1, x + 1) if not factors[m] or factors[m][-1] <= y)
    center = sigma * sum1
    bound = 2 * gamma * sigma
    lower_bound = (1 - gamma) * sigma * sum1
    return {
        "sigma": sigma,
        "sum1": sum1,
        "sum2": sum2,
        "lhs1": lhs1,
        "lhs2": lhs2,
        "hyp1_holds": lhs1 > (1 - gamma) * sigma * sum1,
        "hyp2_holds": lhs2 > (1 - gamma) * sigma * sum2,
        "smooth_total": total,
        "center": center,
        "bound": bound,
        "lower_bound": lower_bound,
        "tau": lhs2,
        "conclusion_holds": abs(total - center) < bound,
        "lower_bound_holds": total > lower_bound,
    }


def _variance(ref, C):
    """([(q, sum_sq, contribution)] over the moduli, and their lhs) of a
    test set C: sum_sq = sum_a C(a, q)^2 from C's residue counts mod q."""
    size = len(C)
    rows = []
    for q in ref.small:
        sum_sq = sum(n * n for n in Counter(c % q for c in C).values())
        rows.append((q, sum_sq, sum_sq - size * size / q))
    return rows, math.fsum(row[2] for row in rows)


def _epsilon_prime(ref):
    return 1.0 - math.fsum(1.0 / q for q in ref.small)


def _rho(theta, h=2.0**-10):
    """Dickman's rho at u = 1/theta, from a table of rho at 0, h, 2h, ...
    up to 1/theta + 1.  rho is 1 on [0, 1]; past it, point by point,
    rho(u) = rho(u - h) - (h/2) (g(u - h) + g(u)), g(t) = rho(t - 1) / t,
    the trapezoid rule on rho' = -rho(u - 1) / u.  The step that crosses
    the kink at 1 integrates from 1, where rho(t - 1) is still 1.
    Between grid points, rho is the linear interpolation."""
    n = math.ceil((1.0 / theta + 1) / h)
    values = [1.0] * (n + 1)

    def interp(u):
        k = min(u / h, n)
        lo = min(math.floor(k), n - 1)
        frac = k - lo
        return values[lo] * (1.0 - frac) + values[lo + 1] * frac

    def g(u):
        return interp(u - 1.0) / u

    for i in range(1, n + 1):
        u = i * h
        if u <= 1.0:
            continue
        if (i - 1) * h < 1.0:
            values[i] = 1.0 - ((u - 1.0) / 2.0) * (1.0 + interp(u - 1.0) / u)
        else:
            values[i] = values[i - 1] - (h / 2.0) * (g((i - 1) * h) + g(u))
    return 1.0 if 1.0 / theta <= 1.0 else interp(1.0 / theta)


def test_reference_rho_at_two():
    # rho(u) = 1 - ln u on [1, 2]
    assert abs(_rho(0.5) - (1.0 - math.log(2.0))) < 1e-7


def _reprs(doc):
    """doc with every leaf replaced by its repr, so 1, 1.0 and True differ."""
    if isinstance(doc, dict):
        return {k: _reprs(v) for k, v in doc.items()}
    return repr(doc)


def _run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _reference_rows(x, delta, size, seed):
    ref = _reference_set(x, delta)
    A, B = _draw_sets(x, size, size, seed)
    w = _pair_weights(x, A, B)
    sigma = float(len(A) * len(B))
    rows = []
    for theta in THETAS:
        if not delta < theta <= 1:
            continue
        f = _sieve_fields(ref, w, sigma, theta, GAMMA)
        count = int(f["smooth_total"])
        rows.append({
            "theta": repr(theta),
            "c": repr(ref.c),
            "smooth_count": repr(count),
            "sigma_sum1": repr(f["center"]),
            "deviation": repr(count - f["center"]),
            "hyp1": repr(f["hyp1_holds"]),
            "hyp2": repr(f["hyp2_holds"]),
            "conclusion": repr(f["conclusion_holds"]),
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "x, delta, theta, gamma, seed",
    [
        (1000, 0.1, 0.5, 0.2, 0),
        (2003, 0.05, 0.35, 0.1, 1),
        (3000, 0.2, 0.8, 0.3, 2),
        (2048, 0.3, 1.0, 0.05, 3),
    ],
)
def test_theorem2_report_equals_its_definitions(tmp_path, x, delta, theta, gamma, seed, kind):
    doc = _run_json(tmp_path, [
        "theorem2", "--x", str(x), "--delta", str(delta), "--theta", str(theta),
        "--gamma", str(gamma), "--weights", kind, "--seed", str(seed),
    ])
    ref = _reference_set(x, delta)
    w = _theorem2_weights(kind, x, seed)
    params = {
        "x": x, "delta": delta, "c": ref.c, "theta": theta, "gamma": gamma,
        "weights": kind, "seed": seed,
    }
    assert _reprs(doc["params"]) == _reprs(params)
    assert _reprs(doc["report"]) == _reprs(_sieve_fields(ref, w, math.fsum(w), theta, gamma))


@pytest.mark.parametrize(
    "x, delta, theta, gamma, size_a, size_b, seed",
    [
        (1000, 0.1, 0.5, 0.2, 60, 80, 0),
        (2003, 0.05, 0.4, 0.1, 150, 120, 1),
        (3000, 0.2, 0.7, 0.3, 300, 250, 2),
        (2048, 0.3, 1.0, 0.05, 100, 100, 3),
    ],
)
def test_sumset_fields_equal_their_definitions(
    tmp_path, x, delta, theta, gamma, size_a, size_b, seed
):
    doc = _run_json(tmp_path, [
        "sumset", "--x", str(x), "--delta", str(delta), "--theta", str(theta),
        "--gamma", str(gamma), "--size-a", str(size_a), "--size-b", str(size_b),
        "--seed", str(seed),
    ])
    ref = _reference_set(x, delta)
    A, B = _draw_sets(x, size_a, size_b, seed)
    w = _pair_weights(x, A, B)
    sigma = float(len(A) * len(B))
    f = _sieve_fields(ref, w, sigma, theta, gamma)
    count = int(f["smooth_total"])
    fraction = count / sigma
    rho = _rho(theta)

    def pairs(q):  # #{(a, b) : q | a + b}, from the residues alone
        residues = Counter(a % q for a in A)
        return sum(residues[-b % q] for b in B)

    eps = _epsilon_prime(ref) / 2.0
    _, lhs_a = _variance(ref, A)
    _, lhs_b = _variance(ref, B)
    floor = real_pow(x, ref.c) / eps
    size_ok = min(len(A), len(B)) > floor
    # N2, the members below x^c that are not x^theta-smooth, is empty
    # exactly when sum2 is the empty sum
    cap = gamma / 12.0 * min(f["sum1"], f["sum2"]) if f["sum2"] else math.inf
    warnings = []
    if not size_ok:
        warnings.append(f"size condition unmet: need |A|,|B| > {floor:.1f}, "
                        f"got {len(A)}, {len(B)}")
    if eps >= cap:
        warnings.append(f"working epsilon {eps:.4g} not below gamma/12 * min(sum1,sum2)"
                        f" = {cap:.4g}")
    expected = {
        "params": {
            "x": x, "delta": delta, "c": ref.c, "theta": theta, "gamma": gamma,
            "epsilon_working": eps,
            "size_a": len(A), "size_b": len(B), "seed": seed,
        },
        "sums": {k: f[k] for k in ["sum1", "sum2", "sigma"]},
        "hypotheses": {k: f[k] for k in ["lhs1", "lhs2", "hyp1_holds", "hyp2_holds"]},
        "bounds": {k: f[k] for k in ["center", "bound", "lower_bound", "tau"]},
        "direct": {
            "smooth_count": count,
            "fraction": fraction,
            "rho_theta": rho,
            "deviation_from_rho": fraction - rho,
            "deviation_from_sum1": fraction - f["sum1"],
        },
        "variance": {
            "lhs_a": lhs_a,
            "lhs_b": lhs_b,
            "cauchy_schwarz_cross_term": math.sqrt(max(lhs_a, 0.0) * max(lhs_b, 0.0)),
            "cross_term_cap": 3.0 * eps * len(A) * len(B),
            "size_condition_ok": size_ok,
        },
        "residue_identity_ok": all(sum(w[q::q]) == pairs(q) for q in ref.small),
        "verdicts": {
            "conclusion_holds": f["conclusion_holds"],
            "within_gamma_of_rho": abs(count - rho * sigma) < gamma * sigma,
        },
        "warnings": warnings,
    }
    assert _reprs(doc) == _reprs(expected)


@pytest.mark.parametrize(
    "x, delta, size, trials, seed",
    [
        (1000, 0.1, 200, 3, 0),
        (2003, 0.05, 300, 1, 1),
        (3000, 0.2, 400, 2, 2),
        (2048, 0.3, 2048, 1, 3),  # C is all of [1, x]
    ],
)
def test_sieve_check_tables_equal_their_definitions(tmp_path, x, delta, size, trials, seed):
    out = tmp_path / "var.csv"
    code = main([
        "sieve-check", "--x", str(x), "--delta", str(delta), "--size", str(size),
        "--trials", str(trials), "--seed", str(seed), "--out", str(out),
    ])
    ref = _reference_set(x, delta)
    eps_prime = _epsilon_prime(ref)
    eps = eps_prime / 2.0
    xc = real_pow(x, ref.c)
    rng = random.Random(seed)
    ok = True
    lines = ["trial,seed,lhs,rhs,rhs_exact,pair_sum,bound_holds,exact_bound_holds"]
    for t in range(trials):
        C = rng.sample(range(1, x + 1), min(size, x))
        rows, lhs = _variance(ref, C)
        n = len(C)
        rhs = n * (2.0 * eps * n + xc)
        rhs_exact = n * (xc + eps_prime * n)
        pair_sum = sum(sum_sq - n for _, sum_sq, _ in rows)  # ordered pairs c != c'
        ok = ok and lhs < rhs and lhs < rhs_exact and pair_sum <= n * (n - 1)
        lines.append(f"{t},{seed},{lhs!r},{rhs!r},{rhs_exact!r},{pair_sum},"
                     f"{lhs < rhs},{lhs < rhs_exact}")
    if trials == 1:
        lines = ["q,sum_sq,contribution"]
        lines += [f"{q},{sum_sq},{contribution!r}" for q, sum_sq, contribution in rows]
        lines.append(f"total,{sum(row[1] for row in rows)},{lhs!r}")
    assert code == (0 if ok else 1)
    assert out.read_text().splitlines() == lines
