"""Workload drivers for the lgsieve benchmark.

Each workload replays one CLI command sequence through lgsieve's public
API, in the order the CLI runs it: ``lgsieve.cli.parse_args`` on the
same command line, the ``_load_or_build`` set-up (build_prime_table ->
construct -> choose_cutoff -> with_cutoff), then the subcommand body.
The random inputs (A, B and the test sets C) are drawn from the
benchmark seed exactly as the CLI draws them, so ``lgsieve.cli.main`` on
the same command line gives the same output; tests/test_perfbench.py
checks that.

Functions are looked up as ``lgsieve.<name>`` at call time, never bound
at import, so the traced run's wrappers (spans.py) see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import lgsieve
import lgsieve.cli

SIEVE_CHECK_CSV_HEADER = "trial,seed,lhs,rhs,rhs_exact,pair_sum,bound_holds,exact_bound_holds"

# Reference values recorded from the seed commit of the program.
LGSET_3E6_MEMBERS = 290_128
LGSET_3E6_CUTOFF = 0.93
LGSET_3E6_COVERED = 2_292_083
SUMSET_1E5_SEED = 7
SUMSET_1E5_SMOOTH_COUNT = 8_468_903


def set_up(args):
    """The CLI's ``_load_or_build`` for a set given by --x and --delta."""
    table = lgsieve.build_prime_table(args.x)
    params = lgsieve.LGParams(x=args.x, delta=args.delta, c=1.0, epsilon_target=args.epsilon)
    s = lgsieve.construct(params, table)
    c = args.c if args.c is not None else lgsieve.choose_cutoff(s, args.epsilon)
    return lgsieve.with_cutoff(s, c), table


def _largest_int_below_root(x: int, c: float) -> int:
    """Largest integer q with q < x^c, by exact integer arithmetic.

    c is a cutoff on the 0.01 grid, so c = p/r with small r and
    q < x^(p/r) iff q^r < x^p.  This shares no code with lgsieve.powers.
    """
    frac = Fraction(c).limit_denominator(10**6)
    p, r = frac.numerator, frac.denominator
    target = x**p
    lo, hi = 0, x  # lo^r < target <= hi^r, since c <= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r < target:
            lo = mid
        else:
            hi = mid
    return lo


def expected_covered(s) -> int:
    """Multiples of distinct members are disjoint (pairwise lcm > x), so
    the covered count is the sum of floor(x/q) over members q < x^c."""
    x = s.params.x
    q = np.asarray(s.members, dtype=np.int64)
    q = q[q <= _largest_int_below_root(x, s.params.c)]
    return int((x // q).sum())


def _check_coverage(op, s, cov):
    fails = []
    want = expected_covered(s)
    if cov.covered_count != want:
        fails.append((op, f"covered_count {cov.covered_count} != sum floor(x/q) = {want}"))
    if cov.covered_count + cov.exceptional_count != s.params.x:
        fails.append((op, "covered + exceptional != x"))
    return fails


# --- lgset-3e6: build, then verify, then coverage -------------------------

_LGSET_SET = ["--x", "3000000", "--delta", "0.05", "--epsilon", "0.2"]


def _lgset_commands(seed: int, out_dir: Path):
    # No randomness: build, verify and coverage take no seed.
    return [
        ["build", *_LGSET_SET, "--out", str(out_dir / "set.json")],
        ["verify", *_LGSET_SET],
        ["coverage", *_LGSET_SET],
    ]


def _lgset_inputs(args):
    return None


def _lgset_body(cmds, s, table, inputs):
    build, _, cov_args = cmds
    lgsieve.save_json(s, build.out)
    rep = lgsieve.verify_pairwise_lcm(s)
    cutoff = cov_args.cutoff if cov_args.cutoff is not None else s.params.c
    cov = lgsieve.coverage(s, cutoff, table)
    return {
        "build": build.out,
        "verify": rep,
        "verify_counts": (rep.pair_count, len(rep.violations)),
        "coverage": cov,
        "coverage_csv": [lgsieve.lgset.COVERAGE_CSV_HEADER, cov.csv_row()],
    }


def _lgset_check(cmds, s, out):
    fails = []
    n = len(s.members)
    if (n, s.params.c) != (LGSET_3E6_MEMBERS, LGSET_3E6_CUTOFF):
        fails.append(("build", f"members={n} c={s.params.c}, reference "
                      f"{LGSET_3E6_MEMBERS} c={LGSET_3E6_CUTOFF}"))
    with open(out["build"]) as fh:
        doc = json.load(fh)
    if doc["members"] != s.members or doc["c"] != s.params.c:
        fails.append(("build", "saved set differs from the built set"))
    rep = out["verify"]
    if rep.violations or rep.pair_count != n * (n - 1) // 2:
        fails.append(("verify", f"pairs={rep.pair_count} violations={len(rep.violations)}"))
    cov = out["coverage"]
    fails += _check_coverage("coverage", s, cov)
    if cov.covered_count != LGSET_3E6_COVERED:
        fails.append(("coverage", f"covered_count {cov.covered_count}, reference "
                      f"{LGSET_3E6_COVERED}"))
    return fails


# --- sumset-1e5: the criterion-9 configuration ----------------------------


def _sumset_commands(seed: int, out_dir: Path):
    return [[
        "sumset", "--x", "100000", "--delta", "0.05", "--epsilon", "0.2",
        "--theta", "0.5", "--gamma", "0.2", "--size-a", "5000", "--size-b", "5000",
        "--seed", str(seed),
    ]]


def _sumset_inputs(args):
    # the CLI's _sample_sets on {1..x/2}
    rng = random.Random(args.seed)
    half = args.x // 2
    A = rng.sample(range(1, half + 1), min(args.size_a, half))
    B = rng.sample(range(1, half + 1), min(args.size_b, half))
    return A, B


def _sumset_body(cmds, s, table, inputs):
    (args,) = cmds
    A, B = inputs
    doc = lgsieve.theorem3_experiment(A, B, s, args.theta, args.gamma, table)
    doc["params"]["seed"] = args.seed
    return {"doc": doc, "json": json.dumps(doc, sort_keys=True, indent=2)}


def _sumset_check(cmds, s, out):
    (args,) = cmds
    doc = out["doc"]
    fails = []
    if doc["residue_identity_ok"] is not True:
        fails.append(("sumset", f"residue_identity_ok = {doc['residue_identity_ok']}"))
    p, direct = doc["params"], doc["direct"]
    if (p["size_a"], p["size_b"]) != (args.size_a, args.size_b):
        fails.append(("sumset", f"|A|, |B| = {p['size_a']}, {p['size_b']}"))
    if doc["sums"]["sigma"] != p["size_a"] * p["size_b"]:
        fails.append(("sumset", f"sigma {doc['sums']['sigma']} != |A||B|"))
    if not 0 <= direct["smooth_count"] <= doc["sums"]["sigma"]:
        fails.append(("sumset", f"smooth_count {direct['smooth_count']} outside [0, sigma]"))
    if args.seed == SUMSET_1E5_SEED and direct["smooth_count"] != SUMSET_1E5_SMOOTH_COUNT:
        fails.append(("sumset", f"smooth_count {direct['smooth_count']}, reference "
                      f"{SUMSET_1E5_SMOOTH_COUNT}"))
    return fails


def _sumset_verdicts(out):
    return dict(out["doc"]["verdicts"])


# --- sievecheck-1e5: many large test sets over the same moduli ------------


def _sievecheck_commands(seed: int, out_dir: Path):
    return [[
        "sieve-check", "--x", "100000", "--delta", "0.05", "--epsilon", "0.2",
        "--size", "20000", "--trials", "5", "--seed", str(seed),
    ]]


def _sievecheck_inputs(args):
    rng = random.Random(args.seed)
    size = min(args.size, args.x)
    return [rng.sample(range(1, args.x + 1), size) for _ in range(args.trials)]


def _sievecheck_body(cmds, s, table, inputs):
    (args,) = cmds
    cutoff = s.params.c
    cov = lgsieve.coverage(s, cutoff, table)
    eps = cov.epsilon_prime / 2.0
    reps = []
    lines = [SIEVE_CHECK_CSV_HEADER]
    for t, C in enumerate(inputs):
        rep = lgsieve.variance_report(C, s, cutoff, eps, table, eps_prime=cov.epsilon_prime)
        reps.append(rep)
        lines.append(
            f"{t},{args.seed},{rep.lhs!r},{rep.rhs!r},{rep.rhs_exact!r},"
            f"{rep.pair_sum},{rep.bound_holds},{rep.exact_bound_holds}"
        )
    return {"coverage": cov, "reports": reps, "csv": lines}


def _sievecheck_check(cmds, s, out):
    (args,) = cmds
    fails = _check_coverage("sieve-check", s, out["coverage"])
    reps = out["reports"]
    if len(reps) != args.trials:
        fails.append(("sieve-check", f"{len(reps)} trials, expected {args.trials}"))
    for t, rep in enumerate(reps):
        if rep.size != min(args.size, args.x) or not rep.pair_bound_holds:
            fails.append(("sieve-check", f"trial {t}: size={rep.size} "
                          f"pair_bound_holds={rep.pair_bound_holds}"))
    return fails


def _sievecheck_verdicts(out):
    reps = out["reports"]
    return {
        "bound_holds": sum(r.bound_holds for r in reps),
        "exact_bound_holds": sum(r.exact_bound_holds for r in reps),
        "trials": len(reps),
    }


@dataclass(frozen=True)
class Workload:
    commands: Callable  # (seed, out_dir) -> CLI command lines; the first drives set-up
    make_inputs: Callable  # parsed first command -> inputs drawn from its --seed
    body: Callable  # (parsed commands, set, table, inputs) -> outputs; timed as run_s
    check: Callable  # (parsed commands, set, outputs) -> [(op, message)] failures
    ops: tuple  # operations per iteration, the base of the failure share
    setup_repeats: int  # set-ups per iteration; setup_s is their median
    run_probe: str  # the probes.PROBES entry that matches where the body's time goes
    verdicts: Callable = lambda out: {}  # research verdicts, recorded, never failures


WORKLOADS = {
    "lgset-3e6": Workload(
        _lgset_commands, _lgset_inputs, _lgset_body, _lgset_check,
        ops=("build", "verify", "coverage"), setup_repeats=1, run_probe="walk",
    ),
    "sumset-1e5": Workload(
        _sumset_commands, _sumset_inputs, _sumset_body, _sumset_check,
        ops=("sumset",), setup_repeats=5, run_probe="mixed", verdicts=_sumset_verdicts,
    ),
    "sievecheck-1e5": Workload(
        _sievecheck_commands, _sievecheck_inputs, _sievecheck_body, _sievecheck_check,
        ops=("sieve-check",), setup_repeats=5, run_probe="residues",
        verdicts=_sievecheck_verdicts,
    ),
}


def parse_commands(name: str, seed: int, out_dir: Path):
    return [lgsieve.cli.parse_args(argv) for argv in WORKLOADS[name].commands(seed, out_dir)]
