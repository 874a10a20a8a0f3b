"""The smooth sieve: N1/N2 partition, hypothesis sums, conclusion
bounds, and the sumset / difference experiments built on them.

The engine is the two-sided squeeze: the weight mass on multiples of
smooth members (lhs1) never exceeds the total smooth mass, which in
turn never exceeds sigma minus the mass tau on multiples of non-smooth
members.  When both divisor-sum hypotheses hold with slack gamma, the
smooth mass lands within 2*gamma*sigma of sigma * sum1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dickman
from .discrepancy import distinct_ints, variance_report
from .lgset import LGSet, coverage, largest_int_below_pow
from .powers import real_pow
from .primes import PrimeTable


@dataclass
class SmoothPartition:
    theta: float
    y: float  # x^theta, the smoothness bound
    cutoff_exponent: float
    n1: list  # x^theta-smooth members below the cutoff
    n2: list  # the rest below the cutoff
    sum1: float
    sum2: float


class WeightedSet:
    """Nonnegative weights on {1..x} with their exact total sigma.

    Accepts either a dense array of length x+1 (index 0 unused and
    zero) or a sparse {n: weight} mapping.
    """

    def __init__(self, x: int, weights):
        if x < 1:
            raise ValueError(f"bound must be >= 1, got {x}")
        self.x = int(x)
        if isinstance(weights, dict):
            arr = np.zeros(x + 1)
            for n, w in weights.items():
                if not 1 <= n <= x:
                    raise ValueError(f"support point {n} outside [1, {x}]")
                arr[n] = w
        else:
            arr = np.asarray(weights)
            if arr.shape != (x + 1,):
                raise ValueError(f"dense weights must have length x+1 = {x + 1}")
            if arr[0] != 0:
                raise ValueError("weight at index 0 must be zero")
        if np.any(arr < 0) or not np.all(np.isfinite(arr.astype(float))):
            raise ValueError("weights must be finite and nonnegative")
        self.array = arr
        self.support = np.flatnonzero(arr)
        self.sigma = _exact_sum(arr[self.support])


def _exact_sum(values) -> float:
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    if np.issubdtype(arr.dtype, np.integer):
        return float(arr.sum())
    return math.fsum(float(v) for v in arr)


@dataclass
class SieveReport:
    gamma: float
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


def partition(lgset: LGSet, theta: float, cutoff: float, table: PrimeTable) -> SmoothPartition:
    params = lgset.params
    x = params.x
    if not params.delta < theta <= 1:
        raise ValueError(f"theta {theta} outside ({params.delta}, 1]")
    small = np.asarray(lgset.members[: lgset.count_below(cutoff)], dtype=np.int64)
    if table.limit < x:
        raise ValueError(f"table limit {table.limit} < x = {x}")
    y = real_pow(x, theta)
    smooth = table.largest_factor_array()[small] <= y
    n1, n2 = small[smooth].tolist(), small[~smooth].tolist()
    return SmoothPartition(
        theta=theta,
        y=y,
        cutoff_exponent=cutoff,
        n1=n1,
        n2=n2,
        sum1=math.fsum(1.0 / q for q in n1),
        sum2=math.fsum(1.0 / q for q in n2),
    )


def divisor_weighted_sums(weights: WeightedSet, part: SmoothPartition, lgset: LGSet):
    """(lhs1, lhs2): weight mass on multiples of each member class,
    accumulated by iterating multiples, never by factorizing."""
    if weights.x != lgset.params.x:
        raise ValueError(
            f"weight bound {weights.x} != set bound {lgset.params.x}"
        )
    arr = weights.array
    lhs1 = math.fsum(float(arr[q::q].sum()) for q in part.n1)
    lhs2 = math.fsum(float(arr[q::q].sum()) for q in part.n2)
    return lhs1, lhs2


def sieve_report(
    weights: WeightedSet,
    part: SmoothPartition,
    lgset: LGSet,
    gamma: float,
    table: PrimeTable,
) -> SieveReport:
    """Implication tester for the smooth sieve: evaluates both
    hypotheses, the conclusion inequality, and the unconditional
    sandwich lhs1 <= smooth_total <= sigma - tau; raises ValueError
    on a set that is not LG."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma out of (0,1): {gamma}")
    x = lgset.params.x
    lhs1, lhs2 = divisor_weighted_sums(weights, part, lgset)
    sigma = weights.sigma
    hyp1 = lhs1 > (1.0 - gamma) * sigma * part.sum1
    hyp2 = lhs2 > (1.0 - gamma) * sigma * part.sum2

    lpf = table.largest_factor_array()
    support = weights.support
    smooth_sel = support[lpf[support] <= part.y]
    smooth_total = _exact_sum(weights.array[smooth_sel])

    # tau: mass on m whose unique member divisor is in N2
    is_n2 = np.zeros(x + 1, dtype=bool)
    is_n2[part.n2] = True
    tau_sel = support[is_n2[lgset.divisor_map()[support]]]
    tau = _exact_sum(weights.array[tau_sel])

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
        gamma=gamma,
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

    A and B must sit inside {1..floor(x/2)} so every sum lands in
    [2, x] and the sieve applies verbatim.
    """
    Aa, Bb = distinct_ints(A, x // 2, "A"), distinct_ints(B, x // 2, "B")
    w = np.zeros(x + 1, dtype=np.int64)
    if Aa.size and Bb.size:
        block = max(1, (1 << 22) // Bb.size)
        for i in range(0, Aa.size, block):
            s = (Aa[i : i + block, None] + Bb[None, :]).ravel()
            w += np.bincount(s, minlength=x + 1)
    return WeightedSet(x, w)


def difference_weights(A, x: int) -> WeightedSet:
    """w(n) = #{(a, a') in A^2 : a > a', a - a' = n}; sigma = C(|A|, 2)."""
    Aa = distinct_ints(A, x, "A")
    w = np.zeros(x + 1, dtype=np.int64)
    if Aa.size:
        block = max(1, (1 << 22) // Aa.size)
        for i in range(0, Aa.size, block):
            d = (Aa[i : i + block, None] - Aa[None, :]).ravel()
            w += np.bincount(d[d > 0], minlength=x + 1)
    return WeightedSet(x, w)


def residue_convolution_identity_ok(weights: WeightedSet, A, B, moduli) -> bool:
    """Check, in exact integer arithmetic, that for every modulus q the
    weight mass on multiples of q equals hist(A mod q) . hist(-B mod q),
    that is #{(a, b) : q | a + b}; the right side never reads the weights."""
    Aa, Bb = distinct_ints(A, name="A"), distinct_ints(B, name="B")
    arr = weights.array
    for q in moduli:
        pairs = int(np.bincount(Aa % q, minlength=q) @ np.bincount(-Bb % q, minlength=q))
        if int(arr[q::q].sum()) != pairs:
            return False
    return True


def theorem3_experiment(
    A,
    B,
    lgset: LGSet,
    theta: float,
    gamma: float,
    table: PrimeTable,
    dickman_table=None,
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
    part = partition(lgset, theta, cutoff, table)  # a bad theta fails before the weights
    ws = sumset_weights(A, B, x)
    cov = coverage(lgset, cutoff, table)
    eps_working = cov.epsilon_prime / 2.0
    rep = sieve_report(ws, part, lgset, gamma, table)

    Aa, Bb = distinct_ints(A, name="A"), distinct_ints(B, name="B")
    size_a, size_b = int(Aa.size), int(Bb.size)
    direct = int(rep.smooth_total)

    if dickman_table is None:
        dickman_table = dickman.build_dickman_table(max_u=max(10.0, 1.0 / theta + 1))
    rho_theta = dickman.rho(1.0 / theta, dickman_table)
    sigma = rep.sigma
    fraction = direct / sigma if sigma else 0.0

    var_a = variance_report(Aa, lgset, cutoff, eps_working, table, eps_prime=cov.epsilon_prime)
    var_b = variance_report(Bb, lgset, cutoff, eps_working, table, eps_prime=cov.epsilon_prime)
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
    eps_cap = (gamma / 12.0) * min(part.sum1, part.sum2) if part.n2 else math.inf
    if eps_working >= eps_cap:
        warnings.append(
            f"working epsilon {eps_working:.4g} not below gamma/12 * min(sum1,sum2)"
            f" = {eps_cap:.4g}"
        )

    # one power per member: perfbench/tests pins powers.calls > members
    moduli = [q for q in lgset.members if q <= largest_int_below_pow(x, cutoff)]
    identity_ok = residue_convolution_identity_ok(ws, Aa, Bb, moduli)

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
