"""Local-global (LG) divisor systems.

An LG set is a family N of integers in {2..x} whose distinct members
have pairwise lcm exceeding x, while the members below x^c divide all
but a small fraction of the integers up to x.  The explicit family
built here consists of products p_1 > p_2 > ... > p_k > x^delta of
distinct primes with the chain conditions

    x / (p_1 ... p_i) >= p_i   for i = 1..k-1, and
    1 <= x / (p_1 ... p_k) < p_k.

All chain comparisons are exact integer comparisons
(x >= p * partial_product), never floating point: construct makes them
in int64, where partial_product <= x and p <= x, both below 2**31,
keep every product below 2**62.
"""

from __future__ import annotations

import bisect
import copy
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .powers import floor_pow, largest_int_below_pow
from .primes import INT32_MAX, PrimeTable, _exact_sum, _int_array, _int_in_range, check_array_bytes

COVERAGE_CSV_HEADER = "x,delta,cutoff,covered,exceptional,harmonic_sum,epsilon_prime"

JSON_BLOCK = 8192  # members per block in save_json


@dataclass(frozen=True)
class LGParams:
    """Parameters: global bound x, prime-floor exponent delta, cutoff
    exponent c for "small" members, and the advisory coverage target."""

    x: int
    delta: float
    c: float = 1.0
    epsilon_target: float = 0.5

    def __post_init__(self):
        # a numpy integer becomes an int, which json.dumps in save_json takes
        object.__setattr__(self, "x", _int_in_range("x", self.x, 4, INT32_MAX))
        if not 0 < self.delta < self.c <= 1:
            raise ValueError(
                f"need 0 < delta < c <= 1, got delta={self.delta}, c={self.c}"
            )
        if not 0 < self.epsilon_target < 1:
            raise ValueError(f"epsilon_target out of (0,1): {self.epsilon_target}")


def _multiple_blocks(qs: np.ndarray, x: int):
    """Yield (g, block) for each run g of the ascending int32 members qs
    that share k = x // q, the members in (x/(k+1), x/k]: block is the
    (k, len(g)) array of [1..k] times g, every multiple of every member
    in g.  It holds at most x/(k+1) + k entries, and k * q <= x keeps
    them in int32."""
    if not qs.size:
        return
    ks = x // qs
    column = np.arange(1, int(ks[0]) + 1, dtype=np.int32)[:, None]
    cuts = np.flatnonzero(ks[1:] != ks[:-1]) + 1
    for i, j in zip([0, *cuts.tolist()], [*cuts.tolist(), qs.size]):
        g = qs[i:j]
        yield g, column[: int(ks[i])] * g


class LGSet:
    """The members as one read-only, ascending int32 array ``qs``,
    searched with searchsorted, and a lazily built divisor map.  Members
    must be distinct integers in [2, x], read by ``_int_array``: a 1-D
    integer ndarray as it is, any other iterable element by element."""

    def __init__(self, params: LGParams, members):
        self.params = params
        error = f"members must be distinct integers in [2, {params.x}]"
        members = _int_array(members, error)
        if members.size and not 2 <= members.min() <= members.max() <= params.x:
            raise ValueError(error)
        # in [2, x], which LGParams caps at INT32_MAX, so the cast is exact; it
        # copies, so the sort in place never reaches the caller's array
        qs = members.astype(np.int32)
        qs.sort()
        # strictly increasing: sorted and no duplicates
        if not (qs[1:] > qs[:-1]).all():
            raise ValueError(error)
        qs.flags.writeable = False  # shared by every with_cutoff copy
        self.qs = qs
        self._divisors = None  # (div, disjoint), see multiples_disjoint

    @property
    def members(self) -> list:
        """The members, ascending, as a new list of Python ints."""
        return self.qs.tolist()

    def multiples_disjoint(self) -> bool:
        """True iff no m <= x has two member divisors (every pairwise lcm
        exceeds x), that is, iff the m the members mark number exactly
        sum floor(x/q).  Builds the divisor map on first use, one scatter
        per _multiple_blocks run; on a set that is not LG, a marked m
        holds one of its member divisors."""
        if self._divisors is None:
            x, qs = self.params.x, self.qs
            check_array_bytes(x + 1, 4, "the divisor map")
            div = np.zeros(x + 1, dtype=np.int32)
            for g, block in _multiple_blocks(qs, x):
                div[block] = g
            div.flags.writeable = False  # shared by every reader and with_cutoff copy
            multiples = int((x // qs).sum(dtype=np.int64))
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

    def multiple_sums(self, w, moduli) -> np.ndarray:
        """[w[q] + w[2q] + ... for q in moduli], as int64.

        On an LG set the multiples of member q are exactly the m with
        div[m] == q, so one np.add.at over the divisor map sums every
        member's multiples at once, each into its own int64 total.
        Raises ValueError unless w is an integer array of x + 1 entries,
        every modulus is a member and the set is LG.
        """
        x = self.params.x
        w = np.asarray(w)
        if w.shape != (x + 1,) or not np.can_cast(w.dtype, np.int64):
            raise ValueError(f"weights must be an integer array of x + 1 = {x + 1} entries")
        div = self.divisor_map()
        qs = np.asarray(moduli)
        if qs.size and (
            qs.dtype.kind not in "iu" or qs.min() < 1 or qs.max() > x
            or not np.array_equal(div[qs], qs)  # after the range check: -q would wrap
        ):
            raise ValueError("moduli must be integer members of the set")
        check_array_bytes(x + 1, 8, "the multiple sums")
        sums = np.zeros(x + 1, dtype=np.int64)
        np.add.at(sums, div, w)
        return sums[qs.astype(np.int64)]

    def count_below(self, c: float) -> int:
        """Number k of members below x^c, for delta < c <= 1 (ValueError
        otherwise); qs[:k] are the moduli of cutoff exponent c."""
        p = self.params
        if not p.delta < c <= 1:
            raise ValueError(f"cutoff {c} outside ({p.delta}, 1]")
        # a bound of qs's own dtype: a Python int would make numpy cast all of qs
        bound = self.qs.dtype.type(largest_int_below_pow(p.x, c))
        return int(self.qs.searchsorted(bound, side="right"))

    def __len__(self):
        return self.qs.size

    def __contains__(self, n):
        qs = self.qs
        if not 2 <= n <= self.params.x:  # also keeps n inside int32
            return False
        i = int(qs.searchsorted(qs.dtype.type(n)))
        return i < qs.size and qs[i] == n

    def __eq__(self, other):
        if not isinstance(other, LGSet):
            return NotImplemented
        sp, op = self.params, other.params
        return (sp.x, sp.delta, sp.c) == (op.x, op.delta, op.c) and (
            np.array_equal(self.qs, other.qs)
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


def _ranges(counts: np.ndarray):
    """(i, j) for every i and every j in range(counts[i]), in that order,
    as two int64 arrays."""
    i = np.repeat(np.arange(counts.size), counts)
    return i, np.arange(i.size) - (np.cumsum(counts) - counts)[i]


def construct(params: LGParams, table: PrimeTable) -> LGSet:
    """Enumerate all members level by level over strictly decreasing
    prime chains, one numpy frontier per chain length.

    A node (product P ending in prime p) is terminal when x < p*P, in
    which case P is emitted; otherwise x >= p*P is exactly the chain
    condition that allows appending any smaller prime above the floor.
    The two cases are exclusive, so each member is emitted once.  A
    one-prime node p is terminal iff p > isqrt(x), so the one-prime
    members are the slice of the table's primes in (max(x^delta,
    isqrt(x)), x], taken without a test, and the frontier starts from
    the primes at most isqrt(x).
    """
    x = params.x
    if table.limit < x:
        raise ValueError(f"table limit {table.limit} < x = {x}")
    pmin = floor_pow(x, params.delta)
    primes = table.primes  # ascending
    lo, hi = np.searchsorted(primes, [pmin, x], side="right")
    ps = primes[lo:hi].astype(np.int64, copy=False)  # a view of an int64 table
    # a one-prime chain p is terminal iff p * p > x: ps[k:] are members, and
    # ps[:k] start the longer chains (k = 0 when delta >= 1/2)
    k = int(ps.searchsorted(math.isqrt(x), side="right"))
    levels = [ps[k:]]
    # the frontier: chain products and the index in ps of each chain's last prime
    prod, idx = ps[:k], np.arange(k)
    while prod.size:
        # expand each node to prod * ps[j] for every j < idx (below x, as ps[j] < ps[idx])
        parent, idx = _ranges(idx)
        prod = prod[parent] * ps[idx]
        # prod <= x and ps <= x, both below 2**31, so prod * ps stays exact in int64
        terminal = prod * ps[idx] > x
        levels.append(prod[terminal])
        prod, idx = prod[~terminal], idx[~terminal]
    return LGSet(params, np.concatenate(levels))


def find_divisor(m: int, lgset: LGSet):
    """The unique member of N dividing m, or None."""
    m = _int_in_range("m", m, 1, lgset.params.x)
    d = int(lgset.divisor_map()[m])
    return d or None


def verify_pairwise_lcm(lgset: LGSet) -> PairwiseLcmReport:
    """Check lcm(n1, n2) > x for every distinct pair of members.

    Equivalent multiple-count formulation: a violating pair divides a
    common m <= x (namely its lcm), so it suffices to find integers
    m <= x with two or more member divisors.  The divisor map decides
    that, and at such an m holds one of m's member divisors, so the
    members q with div[m] != q, read over the same _multiple_blocks
    runs that built the map, and div[m] are all its divisors.  Each
    pair is listed in the group of m = lcm(a, b): the groups come in
    ascending m, and no common multiple of a and b is smaller than their lcm.
    """
    n = len(lgset)
    pair_count = n * (n - 1) // 2
    if lgset.multiples_disjoint():
        return PairwiseLcmReport(pair_count, [])
    div, x = lgset._divisors[0], lgset.params.x
    ms, qs = [], []
    for g, block in _multiple_blocks(lgset.qs, x):
        hit = div[block] != g
        ms.append(block[hit])
        qs.append(np.broadcast_to(g, block.shape)[hit])
    ms = np.concatenate(ms).astype(np.int64)  # not LG: two members, so one run at least
    ms, qs = np.concatenate([ms, ms]), np.concatenate([*qs, div[ms]])
    # each (m, q) once, ascending in m, then q; the key stays below (x + 1)**2 < 2**62
    key = np.sort(ms * (x + 1) + qs)
    ms, qs = np.divmod(key[np.append(True, key[1:] != key[:-1])], x + 1)
    # pair each q with every later q of the same m, in itertools.combinations order
    last = np.flatnonzero(np.append(ms[1:] != ms[:-1], True))  # each m's last index
    pos = np.arange(ms.size)
    first, j = _ranges(last[np.searchsorted(last, pos)] - pos)
    a, b, m = qs[first], qs[first + 1 + j], ms[first]
    keep = np.lcm(a, b) == m
    violations = list(zip(a[keep].tolist(), b[keep].tolist(), m[keep].tolist()))
    return PairwiseLcmReport(pair_count, violations)


def coverage(lgset: LGSet, cutoff_exponent: float, table: PrimeTable) -> CoverageReport:
    """Count of the m = 1..x whose unique member divisor lies below
    x^cutoff: the sum of floor(x/q) over those members, since on an LG
    set no m has two.  The divisor map is read only to raise ValueError
    on a set that is not LG; ``table`` is unused, kept for the signature."""
    params = lgset.params
    x = params.x
    k = lgset.count_below(cutoff_exponent)
    small = lgset.qs[:k]
    lgset.divisor_map()
    covered = int((x // small).sum(dtype=np.int64))
    harmonic = _exact_sum(1.0 / small)
    return CoverageReport(
        x=x,
        delta=params.delta,
        cutoff_exponent=cutoff_exponent,
        covered_count=covered,
        exceptional_count=x - covered,
        harmonic_sum=harmonic,
        epsilon_prime=1.0 - harmonic,
        members_below_cutoff=k,
    )


def choose_cutoff(lgset: LGSet, epsilon: float) -> float:
    """Smallest c on the 0.01 grid in (delta, 1] whose tail harmonic
    sum over members >= x^c stays below epsilon/2, or 1.0 if none does.

    The tail is a correctly rounded fsum over a shrinking suffix of
    positive terms, so the test "tail < epsilon/2" is monotone along
    the grid, and bisection finds the first point that passes.

    Each test first reads the point's float tail t over j terms.  Any
    order of summing j positive terms errs by at most gamma_(j-1) times
    their sum (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4.2), which err = 4 j 2^-53 t covers together with the
    rounding of t - err and t + err.  So t - err >= epsilon/2 fails the
    point and t + err below the double under epsilon/2 passes it, as
    the fsum would; only inside that band does the fsum decide.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon out of (0,1): {epsilon}")
    delta = lgset.params.delta
    half = epsilon / 2.0
    below_half = math.nextafter(half, 0.0)
    grid = [k for k in range(int(math.floor(delta * 100)) + 1, 101) if k / 100.0 > delta]
    recips = 1.0 / lgset.qs  # the doubles 1.0 / q

    def passes(k: int) -> bool:
        tail = recips[lgset.count_below(k / 100.0) :]
        t = float(tail.sum())
        err = 4.0 * tail.size * 2.0**-53 * t  # >= the float tail's error, see above
        if t - err >= half:
            return False
        if t + err < below_half:
            return True
        return _exact_sum(tail) < half

    i = bisect.bisect_left(grid, True, key=passes)
    return grid[i] / 100.0 if i < len(grid) else 1.0


def with_cutoff(lgset: LGSet, c: float) -> LGSet:
    """Same member list, and divisor map if built, under params with
    cutoff exponent c."""
    out = copy.copy(lgset)
    out.params = replace(lgset.params, c=c)
    return out


def _decimal_lines(block: np.ndarray, sep: bytes) -> list:
    """The members of the ascending int32 block in decimal, each followed
    by sep, as one bytes object per run of equal digit count.

    One uint8 matrix holds every member right-aligned in W digit columns,
    W the widest member's digit count, then sep; a run of w-digit
    members is its rows' last w + len(sep) columns.  Members are at
    most 2**31 - 1, so int32 holds every quotient."""
    n = block.size
    # powers of ten of block's own dtype: a Python int would make numpy cast the block
    tens = 10 ** np.arange(1, 10, dtype=block.dtype)
    # the w-digit members are block[bounds[w - 1] : bounds[w]]
    bounds = np.concatenate(([0], block.searchsorted(tens), [n]))
    width = 1 + int(np.count_nonzero(bounds[1:-1] < n))
    mat = np.empty((n, width + len(sep)), dtype=np.uint8)
    mat[:, width:] = np.frombuffer(sep, dtype=np.uint8)
    rest = block.copy()
    for col in range(width - 1, -1, -1):
        mat[:, col] = rest % 10
        rest //= 10
    mat[:, :width] += ord("0")
    return [
        mat[bounds[w - 1] : bounds[w], width - w :].tobytes()
        for w in range(1, width + 1)
        if bounds[w - 1] < bounds[w]
    ]


def save_json(lgset: LGSet, path) -> None:
    """Write the bytes of ``json.dump({"x": x, "delta": delta, "c": c,
    "members": members}, fh, sort_keys=True, indent=2)`` plus a newline.
    The members are encoded one block of JSON_BLOCK at a time, as a
    digit matrix (_decimal_lines), so no Python object is made per member."""
    p = lgset.params
    qs = lgset.qs
    sep = b",\n    "
    with open(path, "wb") as fh:
        fh.write(f'{{\n  "c": {json.dumps(p.c)},\n  "delta": {json.dumps(p.delta)},\n'.encode())
        fh.write(b'  "members": [\n    ' if qs.size else b'  "members": [')
        for i in range(0, qs.size, JSON_BLOCK):
            lines = _decimal_lines(qs[i : i + JSON_BLOCK], sep)
            if i + JSON_BLOCK >= qs.size:  # no separator after the last member
                lines[-1] = lines[-1][: -len(sep)] + b"\n  "
            fh.writelines(lines)
        fh.write(f'],\n  "x": {json.dumps(p.x)}\n}}\n'.encode())


def load_json(path) -> LGSet:
    """Read a set written by save_json.  Raises ValueError unless the
    keys are there, delta and c are JSON numbers and members is a list;
    LGParams and LGSet check x and the members under the integer rule."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not {"x", "delta", "c", "members"} <= doc.keys():
        raise ValueError("set file needs the keys x, delta, c and members")
    x, delta, c, members = doc["x"], doc["delta"], doc["c"], doc["members"]
    # type() rather than isinstance(), which would accept true and false
    if not {type(delta), type(c)} <= {int, float}:
        raise ValueError(f"need numbers delta, c; got {delta!r}, {c!r}")
    if not isinstance(members, list):
        raise ValueError("members must be a list")
    return LGSet(LGParams(x=x, delta=delta, c=c), members)
