"""Command-line front end.

Subcommands build and serialize LG sets, verify their defining
properties, tabulate Dickman's rho, run residue-discrepancy checks and
the smooth-sum experiments, and emit CSV/JSON for offline analysis.

Randomness: all random test sets are drawn with ``random.Random(seed)``
(CPython's Mersenne Twister) via ``sample``, which is stable across
platforms and versions, so identical configs yield byte-identical
output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys

import numpy as np

from . import dickman, discrepancy, lgset as lg, smoothcount
from .primes import ResourceLimitError, build_prime_table, check_array_bytes

SWEEP_CSV_HEADER = (
    "x,delta,c,theta,gamma,setsizeA,setsizeB,seed,smooth_count,"
    "sigma_sum1,rho_theta,deviation,hyp1,hyp2,conclusion"
)


def _positive_int(value):
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _unit_open(value):
    v = float(value)
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0,1), got {value}")
    return v


def _unit_half_open(value):
    v = float(value)
    if not 0.0 < v <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0,1], got {value}")
    return v


def _range_spec(value):
    """start:step:end sweep specification of at most 10^4 points."""
    parts = value.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:step:end, got {value}")
    start, step, end = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, end))) or step <= 0 or end < start:
        raise argparse.ArgumentTypeError(f"bad sweep range {value}")
    points = math.floor((end + 1e-9 - start) / step) + 1
    if points > 10**4:
        raise argparse.ArgumentTypeError(f"sweep range {value} has more than 10^4 points")
    out, v = [], start
    while v <= end + 1e-9 and len(out) <= points:  # a step below v's precision stalls v
        out.append(round(v, 10))
        v += step
    return out


def _add_set_source(p):
    p.add_argument("--set", dest="set_path", help="load an LG set from JSON")
    p.add_argument("--x", type=_positive_int, help="global bound x")
    p.add_argument("--delta", type=_unit_open, help="prime floor exponent")
    p.add_argument("--c", type=_unit_half_open, default=None, help="cutoff exponent")
    p.add_argument(
        "--epsilon",
        type=_unit_open,
        default=None,
        help="coverage target that chooses c for a built set without --c (default 0.2)",
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="lgsieve",
        description="LG-set construction, verification, and smooth-sum experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an LG set and write it as JSON")
    _add_set_source(p)
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("verify", help="check the pairwise-lcm property")
    _add_set_source(p)

    p = sub.add_parser("coverage", help="exact count of the m <= x the members below x^c cover")
    _add_set_source(p)
    p.add_argument("--cutoff", type=_unit_half_open, default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("dickman", help="tabulate Dickman's rho as CSV")
    p.add_argument("--max-u", type=float, default=4.0)
    p.add_argument("--step", type=float, default=dickman.DEFAULT_STEP)
    p.add_argument("--x", type=_positive_int, default=None, help="also emit Psi(x, x^(1/u))/x")
    p.add_argument("--emit-every", type=_positive_int, default=1, help="emit every k-th grid point")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sieve-check", help="residue-variance bound on a random test set")
    _add_set_source(p)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("theorem2", help="smooth-sieve implication report on one weight set")
    _add_set_source(p)
    p.add_argument("--theta", type=_unit_half_open, required=True)
    p.add_argument("--gamma", type=_unit_open, required=True)
    p.add_argument(
        "--weights",
        choices=["uniform", "random-dense", "random-sparse", "indicator"],
        default="uniform",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sumset", help="smooth-sum experiment on random A, B")
    _add_set_source(p)
    p.add_argument("--theta", type=_unit_half_open, required=True)
    p.add_argument("--gamma", type=_unit_open, required=True)
    p.add_argument("--size-a", type=_positive_int, required=True)
    p.add_argument("--size-b", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="sumset experiment over a theta grid, CSV output")
    _add_set_source(p)
    p.add_argument("--theta", type=_range_spec, required=True, help="start:step:end")
    p.add_argument("--gamma", type=_unit_open, required=True)
    p.add_argument("--size-a", type=_positive_int, required=True)
    p.add_argument("--size-b", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command != "dickman":
        if args.set_path and (args.x is not None or args.delta is not None):
            parser.error(f"{args.command}: --set takes neither --x nor --delta")
        if not args.set_path and (args.x is None or args.delta is None):
            parser.error(f"{args.command}: need --set or both --x and --delta")
        if args.epsilon is not None and (args.set_path or args.c is not None):
            parser.error(f"{args.command}: --epsilon chooses c, so it takes neither --set nor --c")
    return args


def _load_or_build(args):
    """(set, prime table): the set built from --x and --delta and its
    table, or the set from --set and None, since build, verify, coverage
    and sieve-check read none."""
    if args.set_path:
        s = lg.load_json(args.set_path)
        if args.c is not None:
            s = lg.with_cutoff(s, args.c)
        return s, None
    # LGParams checks delta < c before the table is built
    params = lg.LGParams(args.x, args.delta, args.c or 1.0)
    table = build_prime_table(args.x)
    s = lg.construct(params, table)
    if args.c is None:
        s = lg.with_cutoff(s, lg.choose_cutoff(s, args.epsilon or 0.2))
    return s, table


def _emit(lines, out_path) -> int:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return 0
    with open(out_path, "w") as fh:
        fh.write(text)
    return 0


def _emit_json(doc, out_path) -> int:
    return _emit([json.dumps(doc, sort_keys=True, indent=2)], out_path)


def _cmd_build(args) -> int:
    s, _ = _load_or_build(args)
    lg.save_json(s, args.out)
    print(f"wrote {args.out}: x={s.params.x} delta={s.params.delta} "
          f"c={s.params.c} members={len(s)}")
    return 0


def _cmd_verify(args) -> int:
    s, _ = _load_or_build(args)
    rep = lg.verify_pairwise_lcm(s)
    print(f"pairs examined: {rep.pair_count}; violations: {len(rep.violations)}")
    for a, b, l in rep.violations[:20]:
        print(f"  lcm({a},{b}) = {l} <= {s.params.x}")
    return 0 if rep.ok else 1


def _cmd_coverage(args) -> int:
    s, table = _load_or_build(args)
    cutoff = args.cutoff if args.cutoff is not None else s.params.c
    rep = lg.coverage(s, cutoff, table)
    return _emit([lg.COVERAGE_CSV_HEADER, rep.csv_row()], args.out)


def _cmd_dickman(args) -> int:
    table = dickman.build_dickman_table(step=args.step, max_u=args.max_u)
    us = [i * args.step for i in range(0, len(table.values), args.emit_every)]
    us = [u for u in us if u <= args.max_u + 1e-12]
    emp = [""] * len(us)
    if args.x is not None:
        # the sieve needs a limit >= 2; Psi(1, y) = 1 reads any table
        pt = build_prime_table(max(args.x, 2))
        k = sum(u < 1.0 for u in us)  # the density is defined on the suffix u >= 1
        emp[k:] = map(repr, dickman.empirical_rho(args.x, us[k:], pt).tolist())
    x = "" if args.x is None else args.x
    rhos = table.values[:: args.emit_every].tolist()
    lines = [f"{u!r},{r!r},{e},{x}" for u, r, e in zip(us, rhos, emp)]
    return _emit(["u,rho,empirical_rho,x", *lines], args.out)


def _cmd_sieve_check(args) -> int:
    s, table = _load_or_build(args)
    x = s.params.x
    cutoff = s.params.c
    cov = lg.coverage(s, cutoff, table)
    eps = cov.epsilon_prime / 2.0
    rng = random.Random(args.seed)
    ok = True
    lines = ["trial,seed,lhs,rhs,rhs_exact,pair_sum,bound_holds,exact_bound_holds"]
    for t in range(args.trials):
        C = rng.sample(range(1, x + 1), min(args.size, x))
        rep = discrepancy.variance_report(
            C, s, cutoff, eps, table, eps_prime=cov.epsilon_prime
        )
        ok = ok and rep.bound_holds and rep.exact_bound_holds and rep.pair_bound_holds
        lines.append(
            f"{t},{args.seed},{rep.lhs!r},{rep.rhs!r},{rep.rhs_exact!r},"
            f"{rep.pair_sum},{rep.bound_holds},{rep.exact_bound_holds}"
        )
    if args.trials == 1:  # a single trial reports its per-modulus table instead
        lines = rep.modulus_csv_lines()
    return _emit(lines, args.out) or (0 if ok else 1)


def _make_weights(kind, x, rng) -> smoothcount.WeightedSet:
    check_array_bytes(x + 1, 8, "the weight array")  # float64, for every kind
    arr = np.zeros(x + 1)
    if kind == "uniform":
        arr[1:] = 1.0
    elif kind == "random-dense":
        arr[1:] = np.fromiter((rng.random() for _ in range(x)), float, count=x)
    elif kind == "random-sparse":
        size = max(1, x // 5)
        support = rng.sample(range(1, x + 1), size)
        arr[support] = np.fromiter((1.0 + rng.random() for _ in range(size)), float, count=size)
    else:  # indicator of a random subset
        arr[rng.sample(range(1, x + 1), max(1, x // 3))] = 1.0
    return smoothcount.WeightedSet(arr)


def _cmd_theorem2(args) -> int:
    s, table = _load_or_build(args)
    table = table or build_prime_table(s.params.x)
    part = smoothcount.partition(s, args.theta, table)
    ws = _make_weights(args.weights, s.params.x, random.Random(args.seed))
    rep = smoothcount.sieve_report(ws, part, args.gamma)
    doc = {
        "params": {
            "x": s.params.x,
            "delta": s.params.delta,
            "c": s.params.c,
            "theta": args.theta,
            "gamma": args.gamma,
            "weights": args.weights,
            "seed": args.seed,
        },
        "report": dataclasses.asdict(rep),
    }
    return _emit_json(doc, args.out)


def _sumset_setup(args):
    """The set, its table, and A, B drawn from [1, x/2], so that every
    a + b lies in [1, x]."""
    s, table = _load_or_build(args)
    table = table or build_prime_table(s.params.x)
    x_domain = s.params.x // 2
    rng = random.Random(args.seed)
    A = rng.sample(range(1, x_domain + 1), min(args.size_a, x_domain))
    B = rng.sample(range(1, x_domain + 1), min(args.size_b, x_domain))
    return s, table, A, B


def _cmd_sumset(args) -> int:
    s, table, A, B = _sumset_setup(args)
    doc = smoothcount.theorem3_experiment(A, B, s, args.theta, args.gamma, table)
    doc["params"]["seed"] = args.seed
    return _emit_json(doc, args.out)


def _cmd_sweep(args) -> int:
    """One row per theta in (delta, 1]; grid points outside are skipped,
    and a grid with no point inside exits 2 before the weights are
    built.  The weights are built once, and the rows come from
    ``smoothcount.theta_reports``, the per-theta step ``sumset`` runs."""
    s, table, A, B = _sumset_setup(args)
    p = s.params
    parts = [smoothcount.partition(s, t, table) for t in args.theta if p.delta < t <= 1]
    if not parts:
        raise ValueError(
            f"theta grid {args.theta[0]!r}..{args.theta[-1]!r} has no point in ({p.delta}, 1]"
        )
    ws = smoothcount.sumset_weights(A, B, p.x)
    lines = [SWEEP_CSV_HEADER]
    for part, (rep, rho) in zip(parts, smoothcount.theta_reports(ws, parts, args.gamma)):
        smooth_count = int(rep.smooth_total)
        lines.append(
            f"{p.x},{p.delta!r},{p.c!r},{part.theta!r},{args.gamma!r},"
            f"{len(A)},{len(B)},{args.seed},{smooth_count},"
            f"{rep.center!r},{rho!r},"
            f"{smooth_count - rep.center!r},"
            f"{rep.hyp1_holds},{rep.hyp2_holds},{rep.conclusion_holds}"
        )
    return _emit(lines, args.out)


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "coverage": _cmd_coverage,
    "dickman": _cmd_dickman,
    "sieve-check": _cmd_sieve_check,
    "theorem2": _cmd_theorem2,
    "sumset": _cmd_sumset,
    "sweep": _cmd_sweep,
}


def run(args: argparse.Namespace) -> int:
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"lgsieve: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lgsieve: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
