"""Residue-class discrepancy over the moduli of an LG set.

The elementary large-sieve-type inequality: summed over members
q < x^c, the variance of a test set C around perfect equidistribution
mod q is below |C| (2 eps |C| + x^c).  The unconditional engine is the
pair count sum_q sum_a C(a,q)(C(a,q) - 1) <= |C|(|C| - 1), which holds
because a difference b - c of two test elements has at most one member
divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lgset import LGSet, coverage, largest_int_below_pow
from .powers import real_pow
from .primes import PrimeTable

MODULUS_CSV_HEADER = "q,sum_sq,contribution"


@dataclass(frozen=True)
class ResidueHistogram:
    modulus: int
    counts: np.ndarray  # counts[a] = #elements congruent to a (mod q)
    total: int


@dataclass
class DiscrepancyReport:
    size: int
    moduli_count: int
    xc: float
    epsilon: float
    epsilon_prime: float
    lhs: float
    rhs: float
    rhs_exact: float
    pair_sum: int
    sum_sq_total: int
    bound_holds: bool
    exact_bound_holds: bool
    pair_bound_holds: bool
    identity_rel_err: float
    per_modulus: list = field(repr=False, default_factory=list)  # (q, sum_sq, contribution)

    def modulus_csv_lines(self):
        lines = [MODULUS_CSV_HEADER]
        for q, ssq, contrib in self.per_modulus:
            lines.append(f"{q},{ssq},{contrib!r}")
        lines.append(f"total,{self.sum_sq_total},{self.lhs!r}")
        return lines


def distinct_ints(values, hi: int | None = None, name: str = "elements") -> np.ndarray:
    """The distinct integers among ``values``, ascending, as int64;
    raises ValueError unless they lie in [1, hi] (hi None: no cap)."""
    arr = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
    if arr.size and (arr[0] < 1 or (hi is not None and arr[-1] > hi)):
        span = "[1, inf)" if hi is None else f"[1, {hi}]"
        raise ValueError(f"{name} must lie in {span}")
    return arr


def residue_histogram(elements, q: int) -> ResidueHistogram:
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    arr = distinct_ints(elements)
    return ResidueHistogram(q, np.bincount(arr % q, minlength=q), int(arr.size))


def variance_report(
    elements,
    lgset: LGSet,
    cutoff_exponent: float,
    epsilon: float,
    table: PrimeTable | None = None,
    eps_prime: float | None = None,
) -> DiscrepancyReport:
    """Residue-variance sum over members below x^cutoff, with both the
    caller-supplied-epsilon bound and the sharper measured-eps' bound.

    eps' comes from a coverage scan at the same cutoff unless the
    caller passes a precomputed value.
    """
    params = lgset.params
    x = params.x
    if not params.delta < cutoff_exponent <= 1:
        raise ValueError(f"cutoff {cutoff_exponent} outside ({params.delta}, 1]")
    C = distinct_ints(elements, x)
    size = int(C.size)
    bound = largest_int_below_pow(x, cutoff_exponent)
    xc = real_pow(x, cutoff_exponent)
    moduli = [q for q in lgset.members if q <= bound]

    per_modulus = []
    contribs = []
    sum_sq_total = 0
    pair_sum = 0
    for q in moduli:
        h = np.bincount(C % q, minlength=q)
        ssq = int(np.dot(h, h))
        sum_sq_total += ssq
        pair_sum += ssq - size
        contrib = ssq - size * size / q
        contribs.append(contrib)
        per_modulus.append((q, ssq, contrib))
    lhs = math.fsum(contribs)
    # same quantity via the expanded identity sum C(a,q)^2 - |C|^2 sum 1/q
    lhs_alt = sum_sq_total - size * size * math.fsum(1.0 / q for q in moduli)
    scale = max(abs(lhs), abs(lhs_alt), 1.0)
    identity_rel_err = abs(lhs - lhs_alt) / scale

    if eps_prime is None:
        if table is None:
            raise ValueError("need a PrimeTable to measure eps' via coverage")
        eps_prime = coverage(lgset, cutoff_exponent, table).epsilon_prime

    rhs = size * (2.0 * epsilon * size + xc)
    rhs_exact = size * (xc + eps_prime * size)
    return DiscrepancyReport(
        size=size,
        moduli_count=len(moduli),
        xc=xc,
        epsilon=epsilon,
        epsilon_prime=eps_prime,
        lhs=lhs,
        rhs=rhs,
        rhs_exact=rhs_exact,
        pair_sum=pair_sum,
        sum_sq_total=sum_sq_total,
        bound_holds=lhs < rhs,
        exact_bound_holds=lhs < rhs_exact,
        pair_bound_holds=pair_sum <= size * (size - 1),
        identity_rel_err=identity_rel_err,
        per_modulus=per_modulus,
    )
