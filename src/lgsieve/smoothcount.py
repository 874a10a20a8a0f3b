"""The smooth sieve: N1/N2 partition, hypothesis sums, conclusion
bounds, and the sumset / difference experiments built on them.

The engine is the two-sided squeeze: the weight mass on multiples of
smooth members (lhs1) never exceeds the total smooth mass, which in
turn never exceeds sigma minus the mass tau on multiples of non-smooth
members.  On an LG set each m <= x has at most one member divisor, so
tau is the same number as lhs2, and one read of the divisor map gives
both.  When both divisor-sum hypotheses hold with slack gamma, the
smooth mass lands within 2*gamma*sigma of sigma * sum1.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Inexact, Rounded
from dataclasses import dataclass, field

import numpy as np

from . import dickman
from .discrepancy import _pair_counts, distinct_ints, variance_report
from .lgset import LGSet, coverage, largest_int_below_pow
from .powers import real_pow
from .primes import INT32_MAX, PrimeTable, _exact_sum, _int_in_range, check_array_bytes


@dataclass
class SmoothPartition:
    y: float  # x^theta, the smoothness bound
    n1: np.ndarray  # int32, the x^theta-smooth members below x^c
    n2: np.ndarray  # int32, the rest below x^c
    sum1: float
    sum2: float
    lgset: LGSet = field(repr=False)  # the set it was cut from
    table: PrimeTable = field(repr=False)


class WeightedSet:
    """Nonnegative weights on {1..x} with their exact total sigma.

    ``weights`` is a dense 1-D bool, int or float array of length x+1 >= 2
    whose index 0 is unused and zero, so x = len(weights) - 1.  The set
    keeps the caller's array, not a copy.
    """

    def __init__(self, weights):
        arr = np.asarray(weights)
        if arr.ndim != 1 or arr.size < 2 or arr.dtype.kind not in "biuf":
            raise ValueError("dense weights must have length x+1 >= 2 and a bool, int or float "
                             f"dtype, got shape {arr.shape}, dtype {arr.dtype}")
        self.x = arr.size - 1
        if arr[0] != 0:
            raise ValueError("weight at index 0 must be zero")
        if np.any(arr < 0) or arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError("weights must be finite and nonnegative")
        if arr.dtype.kind in "iu" and arr.sum(dtype=np.float64) >= 2.0**62:
            # integer sums wrap past int64; near 2^63 only Python ints can tell
            if arr.sum(dtype=object) > np.iinfo(np.int64).max:
                raise ValueError("integer weights must total at most 2**63 - 1")
        self.array = arr
        self.sigma = _exact_sum(arr)


@dataclass
class SieveReport:
    sigma: float
    sum1: float
    sum2: float
    lhs1: float
    lhs2: float
    hyp1_holds: bool
    hyp2_holds: bool
    smooth_total: float
    center: float  # sigma * sum1
    bound: float  # 2 * gamma * sigma
    lower_bound: float  # (1 - gamma) * sigma * sum1
    tau: float
    conclusion_holds: bool
    lower_bound_holds: bool


def partition(lgset: LGSet, theta: float, table: PrimeTable) -> SmoothPartition:
    params = lgset.params
    x = params.x
    if not params.delta < theta <= 1:
        raise ValueError(f"theta {theta} outside ({params.delta}, 1]")
    small = lgset.qs[: lgset.count_below(params.c)]  # the members below x^c
    if table.limit < x:
        raise ValueError(f"table limit {table.limit} < x = {x}")
    y = real_pow(x, theta)
    smooth = table.largest_factor_array()[small] <= y
    n1, n2 = small[smooth], small[~smooth]
    sum1, sum2 = _exact_sum(1.0 / n1), _exact_sum(1.0 / n2)
    return SmoothPartition(y=y, n1=n1, n2=n2, sum1=sum1, sum2=sum2, lgset=lgset, table=table)


def sieve_report(weights: WeightedSet, part: SmoothPartition, gamma: float) -> SieveReport:
    """Implication tester for the smooth sieve: evaluates both
    hypotheses, the conclusion inequality, and the unconditional
    sandwich lhs1 <= smooth_total <= sigma - tau; raises ValueError
    on a set that is not LG.  The set, its divisor map and the prime
    table are the ones the partition was cut from.  lhs1 <= smooth_total
    needs every k <= x // min(N1) to be y-smooth, as on a constructed set
    (x // q < lpf(q) for its members q); a set that breaks it raises ValueError."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma out of (0,1): {gamma}")
    x = part.lgset.params.x
    if weights.x != x:
        raise ValueError(f"weight bound {weights.x} != set bound {x}")
    lpf = part.table.largest_factor_array()
    if part.n1.size and lpf[1 : x // part.n1[0] + 1].max() > part.y:
        q = part.n1[0]
        raise ValueError(f"smooth member {q} has a multiple <= x = {x} that is not x^theta-smooth")
    arr = weights.array
    sigma = weights.sigma
    # class of m's unique member divisor: 1 in N1, 2 in N2, 0 for none
    # or a member above the cutoff
    cls = np.zeros(x + 1, dtype=np.int8)
    cls[part.n1] = 1
    cls[part.n2] = 2
    code = cls[part.lgset.divisor_map()]
    lhs1 = _exact_sum(arr[code == 1])
    lhs2 = tau = _exact_sum(arr[code == 2])
    hyp1 = lhs1 > (1.0 - gamma) * sigma * part.sum1
    hyp2 = lhs2 > (1.0 - gamma) * sigma * part.sum2
    smooth_total = _exact_sum(arr[lpf[: x + 1] <= part.y])

    center = sigma * part.sum1
    bound = 2.0 * gamma * sigma
    lower_bound = (1.0 - gamma) * sigma * part.sum1

    tol = 1e-9 * (sigma + 1.0)
    if not (lhs1 <= smooth_total + tol and smooth_total <= sigma - tau + tol):
        raise RuntimeError(
            "sandwich violated: lhs1=%r smooth_total=%r sigma-tau=%r"
            % (lhs1, smooth_total, sigma - tau)
        )

    return SieveReport(
        sigma=sigma,
        sum1=part.sum1,
        sum2=part.sum2,
        lhs1=lhs1,
        lhs2=lhs2,
        hyp1_holds=hyp1,
        hyp2_holds=hyp2,
        smooth_total=smooth_total,
        center=center,
        bound=bound,
        lower_bound=lower_bound,
        tau=tau,
        conclusion_holds=abs(smooth_total - center) < bound,
        lower_bound_holds=smooth_total > lower_bound,
    )


def sumset_weights(A, B, x: int) -> WeightedSet:
    """w(n) = #{(a, b) in A x B : a + b = n}; sigma = |A| |B|.

    x must be an integer in [1, INT32_MAX], and A and B must sit inside
    {1..floor(x/2)} so every sum lands in [2, x] and the sieve applies.
    """
    x = _int_in_range("x", x, 1, INT32_MAX)
    Aa, Bb = distinct_ints(A, x // 2, "A"), distinct_ints(B, x // 2, "B")
    return WeightedSet(_pair_counts(Aa, Bb, x))


def difference_weights(A, x: int) -> WeightedSet:
    """w(n) = #{(a, a') in A^2 : a > a', a - a' = n}; sigma = C(|A|, 2).
    x must be an integer in [1, INT32_MAX] and A must lie in [1, x]."""
    x = _int_in_range("x", x, 1, INT32_MAX)
    w = _pair_counts(distinct_ints(A, x, "A"), None, x)
    w[0] = 0
    return WeightedSet(w)


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _exact_sum_counts(A, B) -> np.ndarray:
    """c[n] = #{(a, b) in A x B : a + b = n} as int64 for n up to
    max(A) + max(B); A and B are distinct positive integer arrays.

    Each set S is the decimal integer sum of 10^(k*(max(S) - s)), with
    slots of k = len(str(min(|A|, |B|))) digits.  No count exceeds
    min(|A|, |B|) < 10^k, so no carry crosses a slot, and the product's
    slots, read from the left, are c[0], c[1], ...  A private ``decimal``
    context traps any rounding, so the product is exact or raises.
    """
    top = int(A.max(initial=0)) + int(B.max(initial=0))
    k = len(str(min(A.size, B.size)))
    # the product's digit strings take k bytes per sum, the counts 8
    check_array_bytes(top + 1, max(k, 8), "the exact pair-sum count array")

    def encode(S):
        digits = np.full((int(S.max(initial=0)) + 1) * k, ord("0"), dtype=np.uint8)
        digits[k * S + k - 1] = ord("1")
        return _EXACT.create_decimal(digits.tobytes().decode("ascii"))

    product = _EXACT.to_sci_string(_EXACT.multiply(encode(A), encode(B))).zfill((top + 1) * k)
    digits = np.frombuffer(product.encode("ascii"), dtype=np.uint8) - ord("0")
    counts = np.zeros(top + 1, dtype=np.int64)
    for column in digits.reshape(-1, k).T:
        counts *= 10
        counts += column
    return counts


def residue_convolution_identity_ok(weights: WeightedSet, A, B, moduli, lgset: LGSet) -> bool:
    """Check, in exact integer arithmetic, that for every modulus q the
    weight mass on multiples of q equals #{(a, b) : q | a + b}; the
    right side never reads the weights.

    The weights must be integers on the set's bound x, A and B must lie
    in [1, x] with max(A) + max(B) <= x, the set must be LG and the
    moduli its members, else ValueError.  Both sides are
    ``lgset.multiple_sums``: of the weights, and of the pair-sum counts
    c[n] = #{(a, b) : a + b = n} from one exact product of decimal
    integers (``_exact_sum_counts``), in integers only.
    """
    x = lgset.params.x
    if weights.x != x:
        raise ValueError(f"weight bound {weights.x} != set bound {x}")
    Aa, Bb = distinct_ints(A, x, "A"), distinct_ints(B, x, "B")
    if Aa.size and Bb.size and int(Aa[-1]) + int(Bb[-1]) > x:
        raise ValueError(f"sums exceed x = {x}")
    lhs = lgset.multiple_sums(weights.array, moduli)  # checks the moduli first
    counts = _exact_sum_counts(Aa, Bb)
    rhs = lgset.multiple_sums(np.pad(counts, (0, x + 1 - counts.size)), moduli)
    return np.array_equal(lhs, rhs)


def theorem3_experiment(
    A,
    B,
    lgset: LGSet,
    theta: float,
    gamma: float,
    table: PrimeTable,
) -> dict:
    """Full smooth-sum experiment: convolution weights, sieve report
    (whose smooth_total is the pair count #{(a, b) : a + b smooth}),
    Dickman comparison, the residue identity on every modulus, and the
    Cauchy-Schwarz cross-term bound from the two residue-variance sums.

    The size precondition |A|, |B| > x^c / eps is reported as a
    warning when unmet; the run proceeds in empirical mode.
    """
    params = lgset.params
    x = params.x
    cutoff = params.c
    part = partition(lgset, theta, table)  # a bad theta fails before the weights
    ws = sumset_weights(A, B, x)
    cov = coverage(lgset, cutoff, table)
    eps_working = cov.epsilon_prime / 2.0
    rep = sieve_report(ws, part, gamma)

    direct = int(rep.smooth_total)

    dickman_table = dickman.build_dickman_table(max_u=1.0 / theta + 1)
    rho_theta = dickman.rho(1.0 / theta, dickman_table)
    sigma = rep.sigma
    fraction = direct / sigma if sigma else 0.0

    var_a = variance_report(A, lgset, cutoff, eps_working, table, eps_prime=cov.epsilon_prime)
    var_b = variance_report(B, lgset, cutoff, eps_working, table, eps_prime=cov.epsilon_prime)
    size_a, size_b = var_a.size, var_b.size
    cross_term = math.sqrt(max(var_a.lhs, 0.0) * max(var_b.lhs, 0.0))

    warnings = []
    xc = var_a.xc
    size_floor = xc / eps_working if eps_working > 0 else math.inf
    size_condition_ok = size_a > size_floor and size_b > size_floor
    if not size_condition_ok:
        warnings.append(
            f"size condition unmet: need |A|,|B| > {size_floor:.1f}, "
            f"got {size_a}, {size_b}"
        )
    eps_cap = (gamma / 12.0) * min(part.sum1, part.sum2) if part.n2.size else math.inf
    if eps_working >= eps_cap:
        warnings.append(
            f"working epsilon {eps_working:.4g} not below gamma/12 * min(sum1,sum2)"
            f" = {eps_cap:.4g}"
        )

    # one power per member: perfbench/tests pins powers.calls > members
    moduli = [q for q in lgset.members if q <= largest_int_below_pow(x, cutoff)]
    identity_ok = residue_convolution_identity_ok(ws, A, B, moduli, lgset)

    return {
        "params": {
            "x": x,
            "delta": params.delta,
            "c": cutoff,
            "theta": theta,
            "gamma": gamma,
            "epsilon_working": eps_working,
            "size_a": size_a,
            "size_b": size_b,
        },
        "sums": {"sum1": rep.sum1, "sum2": rep.sum2, "sigma": sigma},
        "hypotheses": {
            "lhs1": rep.lhs1,
            "lhs2": rep.lhs2,
            "hyp1_holds": rep.hyp1_holds,
            "hyp2_holds": rep.hyp2_holds,
        },
        "bounds": {
            "center": rep.center,
            "bound": rep.bound,
            "lower_bound": rep.lower_bound,
            "tau": rep.tau,
        },
        "direct": {
            "smooth_count": direct,
            "fraction": fraction,
            "rho_theta": rho_theta,
            "deviation_from_rho": fraction - rho_theta,
            "deviation_from_sum1": fraction - rep.sum1,
        },
        "variance": {
            "lhs_a": var_a.lhs,
            "lhs_b": var_b.lhs,
            "cauchy_schwarz_cross_term": cross_term,
            "cross_term_cap": 3.0 * eps_working * size_a * size_b,
            "size_condition_ok": size_condition_ok,
        },
        "residue_identity_ok": identity_ok,
        "verdicts": {
            "conclusion_holds": rep.conclusion_holds,
            "within_gamma_of_rho": abs(direct - rho_theta * sigma) < gamma * sigma,
        },
        "warnings": warnings,
    }
