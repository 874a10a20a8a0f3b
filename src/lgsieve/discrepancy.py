"""Pair counts and the residue-variance report over the moduli of an LG set.

The elementary large-sieve-type inequality: summed over members
q < x^c, the variance of a test set C around perfect equidistribution
mod q is below |C| (2 eps |C| + x^c).  Each variance term comes from
one pair count,

    sum_a C(a, q)^2 = |C| + 2 #{c > c' in C : q | c - c'},

so one difference count D[d] = #{c > c' : c - c' = d} serves every
modulus: q's term is |C| + 2 (D[q] + D[2q] + ...).  Summed over the
moduli this gives the unconditional bound
sum_q sum_a C(a,q)(C(a,q) - 1) <= |C|(|C| - 1), which holds because a
difference c - c' of two test elements has at most one member divisor.

``_pair_counts`` owns every reported pair count (sums and differences): a
float64 FFT product, rounded to integers and certified before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

# largest_int_below_pow is unused here; perfbench/tests asserts this binding
from .lgset import LGSet, coverage, largest_int_below_pow  # noqa: F401
from .powers import real_pow
from .primes import PrimeTable, _exact_sum, _int_array, check_array_bytes

MODULUS_CSV_HEADER = "q,sum_sq,contribution"


@dataclass(eq=False)
class DiscrepancyReport:
    size: int
    moduli_count: int
    xc: float
    lhs: float
    rhs: float
    rhs_exact: float
    pair_sum: int
    sum_sq_total: int
    bound_holds: bool
    exact_bound_holds: bool
    pair_bound_holds: bool
    # one entry per modulus; the tuples and lines are built only when read
    q: np.ndarray = field(repr=False)
    sum_sq: np.ndarray = field(repr=False)
    contribution: np.ndarray = field(repr=False)

    def __eq__(self, other):
        """Field by field, the per-modulus arrays by their values."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    @property
    def per_modulus(self) -> list:
        """(q, sum_sq, contribution) per modulus, as Python numbers."""
        return list(zip(self.q.tolist(), self.sum_sq.tolist(), self.contribution.tolist()))

    def modulus_csv_lines(self):
        lines = [MODULUS_CSV_HEADER]
        for q, ssq, contrib in self.per_modulus:
            lines.append(f"{q},{ssq},{contrib!r}")
        lines.append(f"total,{self.sum_sq_total},{self.lhs!r}")
        return lines


def distinct_ints(values, hi: int, name: str = "elements") -> np.ndarray:
    """The distinct integers among ``values``, ascending, as int64; raises
    ValueError unless ``_int_array`` takes them and they lie in [1, hi]."""
    arr = np.sort(_int_array(values, f"{name} must be integers"))
    if arr.size:
        keep = np.empty(arr.size, dtype=bool)
        keep[0] = True
        np.not_equal(arr[1:], arr[:-1], out=keep[1:])
        arr = arr[keep]
        if not 1 <= arr[0] <= arr[-1] <= hi:
            raise ValueError(f"{name} must lie in [1, {hi}]")
    return arr.astype(np.int64, copy=False)  # exact: every caller's hi is at most x


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _window(S: np.ndarray) -> tuple[int, int]:
    """(min S, max S - min S) of an ascending array; (0, 0) if it is empty."""
    return (int(S[0]), int(S[-1] - S[0])) if S.size else (0, 0)


def _pair_counts(A: np.ndarray, B: np.ndarray | None, x: int) -> np.ndarray:
    """Exact pair counts of distinct ascending ints in [1, x], as int64
    w[0..x].

    With B given, w[n] = #{(a, b) : a + b = n}, which needs a + b <= x
    (ValueError otherwise).  With B None, w[d] = #{(a, a') : a - a' = d},
    so w[0] = |A| and w[d] for d >= 1 counts the pairs a > a'.

    The counts are a float64 FFT product rounded to integers.  Each set
    is shifted to start at 0, so the transform spans the sets, not
    [1, x]: its length is the least 5-smooth m >= 2 span + 1 for
    differences (span = max A - min A; lags past span are 0) and
    m >= span A + span B + 1 for sums, written at min A + min B.  Either
    holds the result without wrap-around.
    For a radix-2 transform of length 2^n Percival (Rapid multiplication
    modulo the sum and difference of highly composite numbers, Math.
    Comp. 72, 2003) bounds the error of a cyclic convolution by
    ||u|| ||v|| ((1 + e)^(3n) (1 + e sqrt(5))^(3n + 1) (1 + b)^(3n) - 1),
    with e = 2^-53 and b <= e the error of the roots of unity.  For 0/1
    indicators ||u|| ||v|| = sqrt(|A||B|) <= x, so at x = 10^7 (n = 25)
    the error is below 4e-7, far inside the 1/2 that rounding needs.
    numpy's mixed-radix lengths lie outside the letter of that theorem,
    so the result is also certified: the largest |r - rint(r)| must be
    below 1/4 and sum(w) must be |A||B| (|A| + C(|A|, 2) with B None),
    else RuntimeError.
    """
    n_a = int(A.size)
    lo_a, span_a = _window(A)
    if B is None:
        m = _fft_length(2 * span_a + 1)
        keep, offset = span_a + 1, 0
        total = n_a + n_a * (n_a - 1) // 2
    else:
        if n_a and B.size and int(A[-1]) + int(B[-1]) > x:
            raise ValueError(f"sums exceed x = {x}")
        lo_b, span_b = _window(B)
        keep = span_a + span_b + 1
        m, offset = _fft_length(keep), lo_a + lo_b
        total = n_a * int(B.size)
    check_array_bytes(m, 8, "the FFT buffer")
    check_array_bytes(x + 1, 8, "the pair-count array")
    # each buffer is dropped before the next is made: this bounds the peak RSS
    u = np.zeros(m)
    u[A - lo_a] = 1.0
    spec = np.fft.rfft(u)
    del u
    if B is None:
        spec *= spec.conj()
    else:
        v = np.zeros(m)
        v[B - lo_b] = 1.0
        spec *= np.fft.rfft(v)
        del v
    r = np.fft.irfft(spec, m)[:keep]
    del spec
    counts = np.rint(r)
    r -= counts
    residual = float(np.abs(r, out=r).max())
    del r
    w = np.zeros(x + 1, dtype=np.int64)
    w[offset : offset + keep] = counts
    del counts
    if not residual < 0.25:
        raise RuntimeError(f"FFT pair counts not certified: residual {residual!r} >= 1/4")
    pairs = int(w.sum())
    if pairs != total:
        raise RuntimeError(f"FFT pair counts not certified: total {pairs} != {total}")
    return w


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

    Each modulus q takes sum_a C(a, q)^2 = |C| + 2 (D[q] + D[2q] + ...)
    from one certified difference count D of C (``_pair_counts``), and
    ``LGSet.multiple_sums`` reads every modulus's D[q] + D[2q] + ... in
    one pass over the divisor map.  So the cost is one FFT, whose length
    is set by the span max C - min C rather than x, and one np.add.at.
    The moduli are the members below x^cutoff, so the set must be LG
    (ValueError otherwise).

    eps' comes from ``coverage`` at the same cutoff unless the
    caller passes a precomputed value; ``table`` is passed through to
    coverage, which does not read it.
    """
    x = lgset.params.x
    qs = lgset.qs[: lgset.count_below(cutoff_exponent)]
    C = distinct_ints(elements, x)
    size = int(C.size)
    xc = real_pow(x, cutoff_exponent)
    D = _pair_counts(C, None, x)

    pairs = lgset.multiple_sums(D, qs)  # D[q] + D[2q] + ... per modulus
    del D
    ssq = size + 2 * pairs
    # size <= x < 5e7, which the pair counts' byte limit allows, so
    # ssq <= size^2 < 2^53 are exact floats: the roundings of int / int.
    # size^2 is cast first, as it exceeds qs's int32 range from |C| = 46341
    contrib = ssq - float(size * size) / qs
    pair_sum = 2 * int(pairs.sum())
    sum_sq_total = size * qs.size + pair_sum
    lhs = _exact_sum(contrib)

    if eps_prime is None:
        eps_prime = coverage(lgset, cutoff_exponent, table).epsilon_prime

    rhs = size * (2.0 * epsilon * size + xc)
    rhs_exact = size * (xc + eps_prime * size)
    return DiscrepancyReport(
        size=size,
        moduli_count=qs.size,
        xc=xc,
        lhs=lhs,
        rhs=rhs,
        rhs_exact=rhs_exact,
        pair_sum=pair_sum,
        sum_sq_total=sum_sq_total,
        bound_holds=lhs < rhs,
        exact_bound_holds=lhs < rhs_exact,
        pair_bound_holds=pair_sum <= size * (size - 1),
        q=qs,
        sum_sq=ssq,
        contribution=contrib,
    )
