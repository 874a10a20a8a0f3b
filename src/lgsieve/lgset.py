"""Local-global (LG) divisor systems.

An LG set is a family N of integers in {2..x} whose distinct members
have pairwise lcm exceeding x, while the members below x^c divide all
but a small fraction of the integers up to x.  The explicit family
built here consists of products p_1 > p_2 > ... > p_k > x^delta of
distinct primes with the chain conditions

    x / (p_1 ... p_i) >= p_i   for i = 1..k-1, and
    1 <= x / (p_1 ... p_k) < p_k.

All chain comparisons are exact integer comparisons
(x >= p * partial_product), never floating point.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .powers import floor_pow, largest_int_below_pow
from .primes import PrimeTable

COVERAGE_CSV_HEADER = "x,delta,cutoff,covered,exceptional,harmonic_sum,epsilon_prime"


@dataclass(frozen=True)
class LGParams:
    """Parameters: global bound x, prime-floor exponent delta, cutoff
    exponent c for "small" members, and the advisory coverage target."""

    x: int
    delta: float
    c: float = 1.0
    epsilon_target: float = 0.5

    def __post_init__(self):
        if self.x < 4:
            raise ValueError(f"x must be >= 4, got {self.x}")
        if not 0 < self.delta < self.c <= 1:
            raise ValueError(
                f"need 0 < delta < c <= 1, got delta={self.delta}, c={self.c}"
            )
        if not 0 < self.epsilon_target < 1:
            raise ValueError(f"epsilon_target out of (0,1): {self.epsilon_target}")


class LGSet:
    """Sorted member list with O(1) membership lookup and a lazily built
    divisor map.  Members must be distinct integers in [2, x]."""

    def __init__(self, params: LGParams, members):
        self.params = params
        self.members = sorted(int(n) for n in members)
        self.member_set = frozenset(self.members)
        if len(self.member_set) != len(self.members) or (
            self.members and not 2 <= self.members[0] <= self.members[-1] <= params.x
        ):
            raise ValueError(f"members must be distinct integers in [2, {params.x}]")
        self._divisors = None  # (div, disjoint), see multiples_disjoint

    def multiples_disjoint(self) -> bool:
        """True iff no m <= x has two member divisors (every pairwise lcm
        exceeds x), that is, iff the m the members mark number exactly
        sum floor(x/q).  Builds the divisor map on first use."""
        if self._divisors is None:
            x = self.params.x
            div = np.zeros(x + 1, dtype=np.int32)
            for q in self.members:
                div[q::q] = q
            div.flags.writeable = False  # shared by every reader and with_cutoff copy
            multiples = sum(x // q for q in self.members)
            self._divisors = (div, multiples == int(np.count_nonzero(div)))
        return self._divisors[1]

    def divisor_map(self) -> np.ndarray:
        """div[m] = the unique member dividing m, or 0, for m = 0..x;
        built once and cached.  Raises ValueError on a set that is not
        LG, where no unique member is defined."""
        if not self.multiples_disjoint():
            raise ValueError(
                f"set is not LG: some m <= {self.params.x} has two member "
                "divisors (run `lgsieve verify` to list the pairs)"
            )
        return self._divisors[0]

    def count_below(self, c: float) -> int:
        """Number k of members below x^c, for delta < c <= 1 (ValueError
        otherwise); members[:k] are the moduli of cutoff exponent c."""
        p = self.params
        if not p.delta < c <= 1:
            raise ValueError(f"cutoff {c} outside ({p.delta}, 1]")
        return bisect_right(self.members, largest_int_below_pow(p.x, c))

    def __len__(self):
        return len(self.members)

    def __contains__(self, n):
        return n in self.member_set

    def __eq__(self, other):
        if not isinstance(other, LGSet):
            return NotImplemented
        sp, op = self.params, other.params
        return (sp.x, sp.delta, sp.c) == (op.x, op.delta, op.c) and (
            self.members == other.members
        )


@dataclass
class CoverageReport:
    x: int
    delta: float
    cutoff_exponent: float
    covered_count: int
    exceptional_count: int
    harmonic_sum: float
    epsilon_prime: float
    members_below_cutoff: int

    def csv_row(self) -> str:
        return (
            f"{self.x},{self.delta!r},{self.cutoff_exponent!r},"
            f"{self.covered_count},{self.exceptional_count},"
            f"{self.harmonic_sum!r},{self.epsilon_prime!r}"
        )


@dataclass
class PairwiseLcmReport:
    pair_count: int
    violations: list  # (n1, n2, lcm) triples with lcm <= x

    @property
    def ok(self) -> bool:
        return not self.violations


def construct(params: LGParams, table: PrimeTable) -> LGSet:
    """Enumerate all members by depth-first search over strictly
    decreasing prime chains.

    A node (product P ending in prime p) is terminal when x < p*P, in
    which case P is emitted; otherwise x >= p*P is exactly the chain
    condition that allows appending any smaller prime above the floor.
    The two cases are exclusive, so each member is emitted once.
    """
    x = params.x
    if table.limit < x:
        raise ValueError(f"table limit {table.limit} < x = {x}")
    pmin = floor_pow(x, params.delta)
    ps = [int(p) for p in table.primes if pmin < p <= x]
    members: list[int] = []

    def extend(prod: int, idx: int) -> None:
        p = ps[idx]
        if prod * p > x:
            members.append(prod)
            return
        for j in range(idx - 1, -1, -1):
            # prod * ps[j] < prod * p <= x, so no overflow past x here
            extend(prod * ps[j], j)

    for i in range(len(ps) - 1, -1, -1):
        extend(ps[i], i)
    return LGSet(params, members)


def find_divisor(m: int, lgset: LGSet, table: PrimeTable):
    """The unique member of N dividing m, or None."""
    x = lgset.params.x
    if not 1 <= m <= x:
        raise ValueError(f"m={m} outside [1, {x}]")
    d = int(lgset.divisor_map()[m])
    return d or None


def verify_pairwise_lcm(lgset: LGSet) -> PairwiseLcmReport:
    """Check lcm(n1, n2) > x for every distinct pair of members.

    Equivalent multiple-count formulation: a violating pair divides a
    common m <= x (namely its lcm), so it suffices to find integers
    m <= x with two or more member divisors.  The divisor map decides
    that; the pairs are listed only when it finds an overlap.
    """
    x = lgset.params.x
    members = lgset.members
    n = len(members)
    pair_count = n * (n - 1) // 2
    if lgset.multiples_disjoint():
        return PairwiseLcmReport(pair_count, [])
    counts = np.zeros(x + 1, dtype=np.int32)
    for q in members:
        counts[q::q] += 1
    violations = []
    seen = set()
    for m in np.flatnonzero(counts >= 2):
        m = int(m)
        divs = [q for q in members if m % q == 0]
        for a, b in combinations(divs, 2):
            l = math.lcm(a, b)
            if l <= x and (a, b) not in seen:
                seen.add((a, b))
                violations.append((a, b, l))
    return PairwiseLcmReport(pair_count, violations)


def coverage(lgset: LGSet, cutoff_exponent: float, table: PrimeTable) -> CoverageReport:
    """Exhaustive count of the m = 1..x whose unique member divisor lies
    below x^cutoff, read from the divisor map; ValueError on a set that
    is not LG.  ``table`` is unused and kept for the call signature."""
    params = lgset.params
    x = params.x
    small = lgset.members[: lgset.count_below(cutoff_exponent)]
    top = small[-1] if small else 0  # div holds only members, so this bounds it
    div = lgset.divisor_map()
    covered = int(np.count_nonzero((div > 0) & (div <= top)))
    harmonic = math.fsum(1.0 / q for q in small)
    report = CoverageReport(
        x=x,
        delta=params.delta,
        cutoff_exponent=cutoff_exponent,
        covered_count=covered,
        exceptional_count=x - covered,
        harmonic_sum=harmonic,
        epsilon_prime=1.0 - harmonic,
        members_below_cutoff=len(small),
    )
    # accounting invariants; a failure here is an implementation bug
    if report.covered_count + report.exceptional_count != x:
        raise RuntimeError(f"covered + exceptional != x = {x}")
    if not abs(harmonic - covered / x) <= len(small) / x + 1.0 / x:
        raise RuntimeError(
            f"harmonic sum {harmonic!r} inconsistent with covered/x = {covered / x!r}"
        )
    return report


def choose_cutoff(lgset: LGSet, epsilon: float) -> float:
    """Smallest c on the 0.01 grid in (delta, 1] whose tail harmonic
    sum over members >= x^c stays below epsilon/2."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon out of (0,1): {epsilon}")
    delta = lgset.params.delta
    recips = [1.0 / q for q in lgset.members]
    for k in range(int(math.floor(delta * 100)) + 1, 101):
        c = k / 100.0
        if c <= delta:
            continue
        tail = math.fsum(recips[lgset.count_below(c) :])
        if tail < epsilon / 2.0:
            return c
    return 1.0


def with_cutoff(lgset: LGSet, c: float) -> LGSet:
    """Same member list under params with cutoff exponent c."""
    out = LGSet.__new__(LGSet)
    out.params = replace(lgset.params, c=c)
    out.members = lgset.members
    out.member_set = lgset.member_set
    out._divisors = lgset._divisors
    return out


def to_json_dict(lgset: LGSet) -> dict:
    p = lgset.params
    return {"x": p.x, "delta": p.delta, "c": p.c, "members": lgset.members}


def save_json(lgset: LGSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(lgset), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path) -> LGSet:
    """Read a set written by save_json.  Raises ValueError unless x and
    every member are JSON integers and delta and c are numbers; LGSet
    checks the members are distinct and lie in [2, x]."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not {"x", "delta", "c", "members"} <= doc.keys():
        raise ValueError("set file needs the keys x, delta, c and members")
    x, delta, c, members = doc["x"], doc["delta"], doc["c"], doc["members"]
    # type() rather than isinstance(), which would accept true and false
    if type(x) is not int or not {type(delta), type(c)} <= {int, float}:
        raise ValueError(f"need an integer x and numbers delta, c; got {x!r}, {delta!r}, {c!r}")
    if not isinstance(members, list) or not all(type(q) is int for q in members):
        raise ValueError("members must be a list of integers")
    return LGSet(LGParams(x=x, delta=delta, c=c), members)
