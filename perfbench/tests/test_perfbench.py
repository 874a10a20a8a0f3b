"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
They run every workload at its benchmark size, one to two minutes in all.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lgsieve
import lgsieve.cli
import probes
import run
import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMES = sorted(workloads.WORKLOADS)

# Spans each workload must fire.  Several are reached only through a
# name another module imported (coverage from smoothcount, real_pow from
# discrepancy, largest_int_below_pow from lgset and smoothcount).
FIRES = {
    "lgset-3e6": {
        "cli.parse_args", "primes.build_prime_table", "lgset.construct",
        "lgset.choose_cutoff", "lgset.verify_pairwise_lcm", "lgset.coverage",
        "powers.floor_pow", "powers.largest_int_below_pow",
    },
    "sumset-1e5": {
        "cli.parse_args", "primes.build_prime_table", "primes.largest_factor_array",
        "lgset.construct", "lgset.choose_cutoff", "lgset.coverage", "powers.real_pow",
        "powers.floor_pow", "powers.largest_int_below_pow", "discrepancy.variance_report",
        "smoothcount.sumset_weights", "smoothcount.partition", "smoothcount.sieve_report",
        "smoothcount.residue_identity", "smoothcount.theorem3_experiment",
        "dickman.build_dickman_table",
    },
    "sievecheck-1e5": {
        "cli.parse_args", "primes.build_prime_table", "lgset.construct",
        "lgset.choose_cutoff", "lgset.coverage", "powers.real_pow", "powers.floor_pow",
        "powers.largest_int_below_pow", "discrepancy.variance_report",
    },
}

DEFAULT_SEED = {"lgset-3e6": 0, "sumset-1e5": 7, "sievecheck-1e5": 1}


def _run_workload(name, seed, out_dir):
    wl = workloads.WORKLOADS[name]
    cmds = workloads.parse_commands(name, seed, out_dir)
    s, table = workloads.set_up(cmds[0])
    out = wl.body(cmds, s, table, wl.make_inputs(cmds[0]))
    return wl, cmds, s, out


def _cli(argv, capsys):
    capsys.readouterr()
    assert lgsieve.cli.main(argv) == 0
    return capsys.readouterr().out


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == dict(spans.LAYER_METRICS, **run.RUN_LAYER_METRICS)
    assert set().union(*FIRES.values()) == set(spans.SPANS)


@pytest.mark.parametrize("name", NAMES)
def test_cli_parity(name, tmp_path, capsys):
    """The workload driver gives what lgsieve.cli.main gives on the same
    command line, and its output checks pass on this code."""
    seed = DEFAULT_SEED[name]
    (tmp_path / "bench").mkdir()
    (tmp_path / "cli").mkdir()
    wl, cmds, s, out = _run_workload(name, seed, tmp_path / "bench")
    assert wl.check(cmds, s, out) == []
    argvs = wl.commands(seed, tmp_path / "cli")
    if name == "lgset-3e6":
        build, verify, cov = argvs
        _cli(build, capsys)
        assert (tmp_path / "cli" / "set.json").read_bytes() == Path(out["build"]).read_bytes()
        pairs, violations = out["verify_counts"]
        assert f"pairs examined: {pairs}; violations: {violations}\n" == _cli(verify, capsys)
        assert _cli(cov, capsys).splitlines() == out["coverage_csv"]
    elif name == "sumset-1e5":
        path = tmp_path / "cli" / "exp.json"
        _cli(argvs[0] + ["--out", str(path)], capsys)
        assert path.read_text() == out["json"] + "\n"
    else:
        assert _cli(argvs[0], capsys).splitlines() == out["csv"]


@pytest.mark.parametrize("name", NAMES)
def test_spans_fire_and_counts_repeat(name, tmp_path):
    originals = {
        key: getattr(*spans._resolve(*where)) for key, where in spans.SPANS.items()
    }
    recs = []
    for seed in (3, 11):
        tracer = spans.Tracer()
        rec = worker.run_iteration(name, seed, tmp_path, tracer)
        assert rec["failed"] == 0, rec["failures"]
        calls = tracer.calls()
        assert FIRES[name] <= {k for k, n in calls.items() if n > 0}
        recs.append(rec)
    # every wrapper is gone again
    for key, where in spans.SPANS.items():
        assert getattr(*spans._resolve(*where)) is originals[key]
    assert lgsieve.smoothcount.coverage is lgsieve.lgset.coverage
    assert lgsieve.discrepancy.largest_int_below_pow is lgsieve.powers.largest_int_below_pow
    first, second = (r["layers"] for r in recs)
    assert {k: first[k] for k in spans.EXACT_COUNTS} == {
        k: second[k] for k in spans.EXACT_COUNTS}
    if name == "sumset-1e5":
        # one largest_int_below_pow per member in theorem3_experiment's
        # moduli list, reached through smoothcount's own binding
        assert first["powers.calls"] > first["lgset.members"]


def test_speed_sampler_rescales_to_reference_speed():
    assert {wl.run_probe for wl in workloads.WORKLOADS.values()} <= set(probes.PROBES)
    probe = probes.PROBES["walk"]
    sampler = probes.SpeedSampler(probe)
    with sampler:
        sampler.timed(time.sleep, 0.2)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.samples) >= 5
    # sleep ends on its deadline, so the region's own time is the 0.2 s
    # less the probe runs inside it
    (net,) = sampler.net_s
    inside = sum(d for _, d in sampler.samples[1:-1])
    assert net + inside == pytest.approx(0.2, abs=0.02)
    (rescaled,) = sampler.rescaled()
    assert rescaled == pytest.approx(net * probe.ref_s / sampler.mean_probe_s())
    # disabled, it only times
    plain = probes.SpeedSampler(probe, enabled=False)
    with plain:
        plain.timed(time.sleep, 0.01)
    assert plain.samples == [] and plain.net_s[0] >= 0.01


def test_expected_covered_matches_brute_force():
    x = 10**4
    table = lgsieve.build_prime_table(x)
    s = lgsieve.with_cutoff(lgsieve.construct(lgsieve.LGParams(x, 0.1), table), 0.9)
    bound = workloads._largest_int_below_root(x, 0.9)
    assert bound**10 < x**9 <= (bound + 1) ** 10
    covered = sum(
        1 for m in range(1, x + 1) if any(m % q == 0 for q in s.members if q <= bound))
    assert workloads.expected_covered(s) == covered
    assert lgsieve.coverage(s, 0.9, table).covered_count == covered


def test_sumset_check_flags_wrong_output():
    cmds = workloads.parse_commands("sumset-1e5", 7, Path("."))
    doc = {
        "residue_identity_ok": False,
        "params": {"size_a": 5000, "size_b": 5000},
        "sums": {"sigma": 25_000_000},
        "direct": {"smooth_count": workloads.SUMSET_1E5_SMOOTH_COUNT + 1},
    }
    fails = workloads.WORKLOADS["sumset-1e5"].check(cmds, None, {"doc": doc})
    assert len(fails) == 2 and {op for op, _ in fails} == {"sumset"}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sumset-1e5", "--seed", "2",
         "--seconds", "1", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_result(trace):
    proc = _bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert meta["seed"] == 2 and meta["nproc"] >= 1
    for sample in meta["samples"]:
        assert sample["run_net_s"][0] > 0 and sample["setup_net_s"]
        if not sample["traced"]:
            # a probe at each end of the region at least
            assert all(n >= 2 and mean > 0 for n, mean in sample["probe_s"].values())


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
