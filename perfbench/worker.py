"""One benchmark iteration in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Prints one JSON line: the set-up times and the run time (rescaled to the
speed probes' reference speed, see probes.py, and as measured), the
process's peak resident memory, the operations attempted and failed
and, when traced, the per-layer metrics.  ``ru_maxrss`` never goes down, so run.py starts a
new process for every iteration.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import lgsieve  # noqa: E402

if not Path(lgsieve.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: lgsieve imported from {lgsieve.__file__}, not from {SRC}")

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_iteration(name: str, seed: int, out_dir: Path, tracer=None) -> dict:
    """Set up, run and check one workload; checks are outside the timings.

    Untraced, each timed region runs under a probes.SpeedSampler and is
    reported rescaled to its probe's reference speed.  Set-up is
    interpreter-bound on every workload, so it is sampled with the walk
    probe; the body with the workload's own probe.  With a
    ``spans.Tracer`` the iteration runs traced and takes no speed
    samples, so the spans hold lgsieve's time alone.  The record is
    filled as the iteration goes, so an exception still leaves the times
    measured up to it.
    """
    wl = workloads.WORKLOADS[name]
    traced = tracer is not None
    setup = probes.SpeedSampler(probes.PROBES["walk"], enabled=not traced)
    run = probes.SpeedSampler(probes.PROBES[wl.run_probe], enabled=not traced)
    rec = {"failures": [], "verdicts": {}}
    if traced:
        tracer.install()
    try:
        cmds = workloads.parse_commands(name, seed, out_dir)
        inputs = wl.make_inputs(cmds[0])
        with setup:
            # Each traced set-up would add its spans, so a traced iteration sets up once.
            for _ in range(1 if traced else wl.setup_repeats):
                s, table = setup.timed(workloads.set_up, cmds[0])
        with run:
            out = run.timed(wl.body, cmds, s, table, inputs)
    except Exception:
        traceback.print_exc()
        rec["failures"] = [(op, "raised") for op in wl.ops]
    else:
        rec["failures"] = wl.check(cmds, s, out)
        rec["verdicts"] = wl.verdicts(out)
    finally:
        if traced:
            tracer.restore()
    if traced:
        rec["layers"] = tracer.metrics()
    rec["attempted"] = len(wl.ops)
    rec["failed"] = len({op for op, _ in rec["failures"]})
    rec["setup_net_s"], rec["run_net_s"] = setup.net_s, run.net_s
    if setup.net_s and run.net_s:
        rec["total_net_s"] = statistics.median(setup.net_s) + run.net_s[0]
    if not traced and setup.net_s and run.net_s:
        rec["setup_s"], (rec["run_s"],) = setup.rescaled(), run.rescaled()
        rec["probe_s"] = {"setup": [len(setup.samples), setup.mean_probe_s()],
                          "run": [len(run.samples), run.mean_probe_s()]}
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tracer = spans.Tracer() if args.trace else None
        rec = run_iteration(args.workload, args.seed, Path(tmp), tracer)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
