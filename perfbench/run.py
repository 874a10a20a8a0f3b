"""lgsieve benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in fresh worker
processes, one per iteration, one after another (a closed loop with one
client), until the next iteration would end after S seconds.  With
--trace 0 the last line of standard output reports the end-to-end
metrics, each the median over the run's iterations; with --trace 1 it
reports the per-layer metrics of traced iterations, alternated with
untraced ones so the tracing overhead is measured in the same run.  The
line before it records the seed, versions, machine and raw samples.
Times are rescaled to a reference machine speed sampled while each
timed region runs (see probes.py); the samples keep them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# reported with the per-layer metrics of spans.LAYER_METRICS
RUN_LAYER_METRICS = {"trace.overhead_s": "s", "failed_frac": "fraction"}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _meta(args, records) -> dict:
    import mpmath
    import numpy
    import probes
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "probes": {"setup": "walk", "run": workloads.WORKLOADS[args.workload].run_probe,
                   "ref_s": {k: p.ref_s for k, p in probes.PROBES.items()}},
        "iterations": len(records),
        "samples": [
            {k: r.get(k) for k in ("traced", "setup_s", "run_s", "peak_rss_mb", "failed",
                                   "setup_net_s", "run_net_s", "probe_s")}
            for r in records
        ],
        "failures": [f for r in records for f in r.get("failures", [])][:20],
        "verdicts": next((r["verdicts"] for r in records if r.get("verdicts")), {}),
    }


def _run_worker(workload: str, seed: int, traced: bool, timeout: float, ops: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        rec = {"error": f"worker timed out after {timeout:.0f} s"}
    else:
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            rec = json.loads(lines[-1])
        else:
            rec = {"error": f"worker exited with code {proc.returncode}"}
    if "error" in rec:
        print(f"perfbench: {rec['error']}", file=sys.stderr)
        rec.update(attempted=ops, failed=ops, failures=[["worker", rec["error"]]])
    rec["traced"] = traced
    return rec


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lgsieve benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "lgsieve" / "__init__.py").is_file():
        print(f"perfbench: no lgsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = len(workloads.WORKLOADS[args.workload].ops)

    records = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        records.append(_run_worker(args.workload, args.seed, traced, remaining, ops))
        elapsed = time.monotonic() - started
        enough = len(records) >= (2 if args.trace else 1)
        if "error" in records[-1] and "timed out" in records[-1]["error"]:
            break
        if enough and elapsed * (len(records) + 1) / len(records) > args.seconds:
            break

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    plain = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"] and "layers" in r]
        values = {k: _median([r["layers"][k] for r in traced])
                  for k in (traced[0]["layers"] if traced else {})}
        values["trace.overhead_s"] = (_median([r.get("total_net_s") for r in traced])
                                      - _median([r.get("total_net_s") for r in plain]))
        values["failed_frac"] = failed / attempted
        import spans

        units = dict(spans.LAYER_METRICS, **RUN_LAYER_METRICS)
    else:
        values = {
            "setup_s": _median([s for r in plain for s in r.get("setup_s", [])]),
            "run_s": _median([r.get("run_s") for r in plain]),
            "peak_rss_mb": _median([r.get("peak_rss_mb") for r in plain]),
        }
        units = END_TO_END
    metrics = {k: {"value": values.get(k, float("nan")), "unit": u} for k, u in units.items()}

    print(json.dumps({"meta": _meta(args, records)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
